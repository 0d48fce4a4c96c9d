"""``record_run`` appends to BENCH trajectories, never clobbers them.

The BENCH_*.json files are the repo's perf history: every recorded run
must extend the ``trajectory`` list.  These tests run in smoke mode too
(they use a temp path, not the real BENCH files) so CI catches a writer
regressing to overwrite-the-snapshot behavior.
"""

import json

import pytest

from benchmarks.conftest import record_run
from repro.experiments.common import CorruptBenchFile


def test_record_run_appends_not_clobbers(tmp_path):
    path = tmp_path / "BENCH_x.json"
    record_run(path, "sysprof-repro/bench-x/v2", {"rate": 100})
    record_run(path, "sysprof-repro/bench-x/v2", {"rate": 200})
    doc = json.loads(path.read_text())
    assert doc["schema"] == "sysprof-repro/bench-x/v2"
    assert [entry["rate"] for entry in doc["trajectory"]] == [100, 200]
    assert doc["latest"]["rate"] == 200
    for entry in doc["trajectory"]:
        assert entry["commit"]
        assert len(entry["date"]) == 10  # YYYY-MM-DD


def test_record_run_migrates_flat_v1_snapshot(tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({
        "schema": "sysprof-repro/bench-x/v1",
        "engine": {"events_per_sec": 42},
    }))
    record_run(path, "sysprof-repro/bench-x/v2", {"engine": {"events_per_sec": 99}})
    doc = json.loads(path.read_text())
    assert len(doc["trajectory"]) == 2
    first, second = doc["trajectory"]
    assert first["engine"]["events_per_sec"] == 42  # old snapshot preserved
    assert first["note"] == "migrated pre-trajectory snapshot"
    assert second["engine"]["events_per_sec"] == 99
    assert doc["latest"] is not first


@pytest.mark.parametrize("content", ["{not json", "[1, 2]"])
def test_record_run_refuses_corrupt_file(tmp_path, content):
    """A history the writer cannot read is never replaced by a new one."""
    path = tmp_path / "BENCH_x.json"
    path.write_text(content)
    with pytest.raises(CorruptBenchFile, match="BENCH_x.json"):
        record_run(path, "sysprof-repro/bench-x/v2", {"rate": 7})
    assert path.read_text() == content


def test_federation_cli_writer_appends_same_layout(tmp_path):
    """The federation CLI writes BENCH_federation.json through its own
    writer (src/ cannot import benchmarks/); it must append with the
    exact trajectory layout record_run produces."""
    from repro.experiments.federation import BENCH_SCHEMA, record_trajectory

    path = tmp_path / "BENCH_federation.json"
    record_trajectory(path, BENCH_SCHEMA, {"points": [1]})
    record_trajectory(path, BENCH_SCHEMA, {"points": [2]})
    doc = json.loads(path.read_text())
    assert doc["schema"] == BENCH_SCHEMA
    assert [entry["points"] for entry in doc["trajectory"]] == [[1], [2]]
    assert doc["latest"]["points"] == [2]
    for entry in doc["trajectory"]:
        assert entry["commit"]
        assert len(entry["date"]) == 10
    # A corrupt file fails loudly and stays untouched, like record_run.
    path.write_text("{not json")
    with pytest.raises(CorruptBenchFile, match="BENCH_federation.json"):
        record_trajectory(path, BENCH_SCHEMA, {"points": [3]})
    assert path.read_text() == "{not json"


def test_shared_cli_writer_matches_record_run_layout(tmp_path):
    """Every CLI BENCH writer (calibrate, microbench, federation) goes
    through experiments.common.record_trajectory; its documents must be
    field-for-field compatible with the harness's record_run so readers
    (gen_docs, check_docs, trend tooling) never care which side wrote
    the file."""
    from repro.experiments.common import record_trajectory

    shared = tmp_path / "BENCH_shared.json"
    harness = tmp_path / "BENCH_harness.json"
    record_trajectory(shared, "sysprof-repro/bench-x/v2", {"rate": 100})
    record_run(harness, "sysprof-repro/bench-x/v2", {"rate": 100})
    a = json.loads(shared.read_text())
    b = json.loads(harness.read_text())
    assert set(a) == set(b) == {"schema", "latest", "trajectory"}
    assert set(a["latest"]) == set(b["latest"]) == {"rate", "commit", "date"}
    # And appending through one writer then the other extends, never clobbers.
    record_run(shared, "sysprof-repro/bench-x/v2", {"rate": 200})
    record_trajectory(shared, "sysprof-repro/bench-x/v2", {"rate": 300})
    doc = json.loads(shared.read_text())
    assert [entry["rate"] for entry in doc["trajectory"]] == [100, 200, 300]
