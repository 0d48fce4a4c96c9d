"""Steadiness report: is each metric's run-to-run spread within its bound?

``python3 normbench/run.py --workload W --steadiness N [--seed S]`` runs
the workload N times, each in a fresh process (as the benchmark is run
for real), with seeds 1..N -- or N times with seed S when ``--seed`` is
given, in which case every ``sim_*`` metric must also repeat exactly.
For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and IQR/median next to
the bound in ``BENCHMARK.json``, and flags any spread above its bound.
Without ``--trace`` it also prints how much the program's memory
traffic slows the reference chunk (``raw.ref_inflation``) and flags it
when its median moves from the figure recorded for the workload: the
normalization then divides out a different share of the program's
memory traffic, and normalized figures are not comparable with earlier
ones.  The exit code is the number of flags plus failed runs.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-run limit for one child process, in seconds.
RUN_TIMEOUT_S = 180

#: How far the median ``ref_inflation`` may move from the workload's
#: recorded figure, as a share of it, before it is flagged.
REF_INFLATION_TOL = 0.15


def spread(values):
    """``(median, q1, q3, iqr_over_median)`` of a metric's values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        sys.stderr.write(completed.stderr)
        return None, None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(workload, runs, seed, seconds, trace):
    """Report on ``runs`` runs of the :class:`~workloads.Workload`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {
        metric["name"]: metric.get("bound")
        for metric in spec["per_layer" if trace else "end_to_end"]
    }
    seeds = [seed] * runs if seed is not None else list(range(1, runs + 1))
    results = []
    inflations = []
    problems = 0
    for run_seed in seeds:
        report, result = run_once(workload.name, run_seed, seconds, trace)
        ok = result is not None and result["correct"]
        raw = (report or {}).get("raw", {})
        print("run seed={} {} raw={}".format(
            run_seed, "ok" if ok else "FAILED",
            json.dumps({key: raw[key] for key in sorted(raw)
                        if key.endswith(("_s", "_ms"))}),
        ), flush=True)
        if not ok:
            problems += 1
        if "ref_inflation" in raw:
            inflations.append(raw["ref_inflation"])
        if result is not None:
            results.append(result)
    if len(results) < 2:
        print("fewer than two results; no spread to report")
        return problems + 1
    print("{:<24} {:>12} {:>12} {:>12} {:>8} {:>6}".format(
        "metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name, bound in bounds.items():
        values = [result["metrics"][name]["value"] for result in results]
        median, q1, q3, rel = spread(values)
        flag = ""
        if bound is not None and rel > bound:
            flag = "  SPREAD>BOUND"
            problems += 1
        if seed is not None and name.startswith("sim_") and len(set(values)) > 1:
            flag += "  SIM-NOT-EXACT"
            problems += 1
        print("{:<24} {:>12.6g} {:>12.6g} {:>12.6g} {:>8.4f} {:>6}{}".format(
            name, median, q1, q3, rel,
            "-" if bound is None else "{:g}".format(bound), flag))
    if not trace and len(inflations) >= 2:
        median, q1, q3, rel = spread(inflations)
        moved = abs(median / workload.ref_inflation - 1.0)
        flag = ""
        if moved > REF_INFLATION_TOL:
            flag = "  REF-INFLATION-MOVED"
            problems += 1
        print("{:<24} {:>12.6g} {:>12.6g} {:>12.6g} {:>8.4f}  recorded {:g}{}"
              .format("ref_inflation", median, q1, q3, rel,
                      workload.ref_inflation, flag))
    return problems
