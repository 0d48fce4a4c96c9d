"""Benchmark helpers: paper-vs-measured reporting.

Every benchmark regenerates one table or figure from the paper's
evaluation (§3) and prints the series it produces next to the paper's
anchor numbers.  Absolute values come from a simulator, not the authors'
2006 testbed — the assertions check the *shape* claims (who wins, what
grows, rough factors), per DESIGN.md.

Run:  pytest benchmarks/ --benchmark-only

Setting ``BENCH_SMOKE=1`` runs the throughput benchmarks in *smoke
mode* — small iteration counts, relaxed speedup floors, and no
``BENCH_*.json`` rewrite — so CI can exercise the benchmark code paths
without the noise-sensitive perf assertions on shared runners.
"""

import json
import os
import subprocess
import time

import pytest

#: Smoke mode: scaled-down runs for CI (see module docstring).
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def record_run(path, schema, payload):
    """Append one run's numbers to a ``BENCH_*.json`` perf trajectory.

    The file keeps a ``trajectory`` list (oldest first); each run entry
    is the benchmark's numbers stamped with the git commit and date, so
    later PRs extend the history instead of erasing it.  The newest
    entry is mirrored under ``latest`` for easy reading.  A flat
    pre-trajectory snapshot (the v1 layout) is migrated into the first
    trajectory entry, never clobbered.  A corrupt file raises
    :class:`~repro.experiments.common.CorruptBenchFile` and is left as
    it is.  Callers skip this in smoke mode.
    """
    from repro.experiments.common import read_bench

    doc = read_bench(path)
    trajectory = doc.get("trajectory")
    if not isinstance(trajectory, list):
        trajectory = []
        legacy = {
            key: value for key, value in doc.items() if key != "schema"
        }
        if legacy:
            legacy["note"] = "migrated pre-trajectory snapshot"
            trajectory.append(legacy)
    entry = dict(payload)
    entry["commit"] = _git_commit()
    entry["date"] = time.strftime("%Y-%m-%d")
    trajectory.append(entry)
    path.write_text(json.dumps({
        "schema": schema,
        "latest": entry,
        "trajectory": trajectory,
    }, indent=2) + "\n")
    return entry


def report(title, headers, rows, notes=()):
    """Print one paper-vs-measured block (shown with pytest -s / summary)."""
    from repro.experiments.common import format_table

    print()
    print("=" * 72)
    print(format_table(headers, rows, title=title))
    for note in notes:
        print("  note: {}".format(note))
    print("=" * 72)


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (experiments are long)."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run
