"""The benchmark's own tests: tail rule, normalization, output contract.

Run from the repository root: ``python3 -m pytest normbench/tests``.
"""

import json
import os

import pytest

import episode as episode_mod
import layers
import reference
import summary
from workloads import Control, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- the tail rule -----------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (40, 75.0), (49, 75.0), (50, 80.0), (60, 80.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (499, 95.0), (500, 98.0), (1000, 99.0),
    (2000, 99.5), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    p = summary.tail_percentile(count)
    assert p == expected
    values = list(range(count))
    tail = summary.nearest_rank(values, p)
    assert sum(1 for v in values if v > tail) >= summary.TAIL_MIN_BEYOND


def test_too_few_samples_for_any_tail_is_an_error():
    with pytest.raises(ValueError):
        summary.tail_percentile(39)


def test_nearest_rank():
    assert summary.nearest_rank([5, 1, 3, 2, 4], 50.0) == 3
    assert summary.nearest_rank([5, 1, 3, 2, 4], 100.0) == 5
    assert summary.nearest_rank([7], 1.0) == 7


# -- normalization -----------------------------------------------------------


def test_nominal_speed_leaves_raw_time_unchanged():
    nominal = reference.NOMINAL_REF_S
    assert reference.normalize(0.25, nominal, nominal) == pytest.approx(0.25)


def test_uniform_slowdown_cancels():
    """A 1.3x slower host stretches a slice and its reference chunks
    alike; the normalized value does not move."""
    base = reference.normalize(0.200, 0.0050, 0.0054)
    slowed = reference.normalize(0.200 * 1.3, 0.0050 * 1.3, 0.0054 * 1.3)
    assert slowed == pytest.approx(base, rel=1e-12)


def test_drifting_host_gives_steady_normalized_run():
    """Host speed drifts between 1.0x and 1.3x every five slices.  Raw
    run time moves with the drift; normalized slice times do not."""
    work = [0.10 + 0.01 * (i % 7) for i in range(40)]
    drift = [1.0 + 0.3 * ((i // 5) % 2) for i in range(40)]
    ref = 0.006

    def run(factors):
        # Slice i and the chunks right beside it ran at factors[i].
        return [
            episode_mod.Interval(w * f, ref * f, ref * f)
            for w, f in zip(work, factors)
        ]

    steady = run([1.0] * 40)
    drifting = run(drift)
    assert sum(i.raw_s for i in drifting) > 1.1 * sum(i.raw_s for i in steady)
    assert [i.norm_s for i in drifting] == pytest.approx(
        [i.norm_s for i in steady], rel=1e-12
    )


@pytest.fixture(scope="module")
def ref():
    return reference.Reference()


def test_reference_chunk_is_deterministic_and_gc_state_restored(ref):
    import gc

    assert ref.chunk() == ref.chunk()
    was = gc.isenabled()
    assert ref.timed() > 0.0
    assert ref.isolated() > 0.0
    assert gc.isenabled() == was
    assert ref.footprint_mb > 0.0


# -- output names and units match BENCHMARK.json -----------------------------


TINY = Workload(
    name="tiny",
    scenario="synthetic",
    build={"nodes": 2},
    span=0.5,
    slice_width=0.005,
    sketch_class="rpc",
    min_episodes=1,
    ref_inflation=1.0,
    controls=(Control(0.25, "set_rules", {"rules": ["p95(rpc) < 100ms"]}),),
)


@pytest.fixture(scope="module")
def tiny_episode(ref):
    return episode_mod.run_episode(TINY, 3, ref)


def test_controls_are_timed_into_run_s(tiny_episode):
    assert tiny_episode.controls_sent == tiny_episode.controls_applied == 1
    assert len(tiny_episode.controls) == 1
    assert tiny_episode.controls[0].raw_s > 0.0
    assert tiny_episode.run_s == pytest.approx(
        sum(i.norm_s for i in tiny_episode.slices + tiny_episode.controls)
    )


def test_end_to_end_names_and_units_match_benchmark_json(tiny_episode):
    metrics, raw = summary.end_to_end(TINY, [tiny_episode.setup], [tiny_episode])
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == expected
    assert all(value > 0 for value, _ in metrics.values())
    assert raw["slice_samples"] == 100
    assert len(tiny_episode.isolated) == len(tiny_episode.inflation) == 100


def test_tiny_episode_checks_pass(tiny_episode):
    assert tiny_episode.failed_requests == 0
    assert all(ok for ok, _ in tiny_episode.checks.values()), tiny_episode.checks


def test_per_layer_names_and_units_match_benchmark_json(ref):
    metrics, checks, requests, failed, _ = layers.traced_run(TINY, 3, ref)
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == expected
    assert failed == 0 and requests > 0
    bad = {name: detail for name, (ok, detail) in checks.items() if not ok}
    assert not bad


def test_classify_splits_the_engine_by_class():
    import inspect

    from repro.sim import engine

    def layer_of(obj):
        return layers.classify(
            inspect.getsourcefile(obj), inspect.getsourcelines(obj)[1]
        )

    assert layer_of(engine.CalendarQueue.push) == "sim.store"
    assert layer_of(engine.Waitable.succeed) == "sim.process"
    assert layer_of(engine.Simulator._run_fast) == "sim.dispatch"
    assert layers.classify(layers.__file__, 1) == layers.BENCH
    assert layers.classify("~", 0) is None


# -- the command-line contract -----------------------------------------------


def test_result_line_has_exactly_the_contract_keys():
    import run

    checks = {"a": (True, ""), "b": (False, "broken")}
    line = run.result_line({"run_s": (1.5, "s")}, checks, 10, 1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == 12 and line["failed"] == 2
    assert line["correct"] is False
    assert line["metrics"] == {"run_s": {"value": 1.5, "unit": "s"}}


def test_steadiness_spread_uses_quartiles():
    import steadiness

    median, q1, q3, rel = steadiness.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)


def test_fails_without_the_program_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    import shutil
    import subprocess
    import sys

    bench = os.path.join(ROOT, "normbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench, tmp_path / "normbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "normbench/run.py", "--workload", "nfs-iozone",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
