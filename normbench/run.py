#!/usr/bin/env python3
"""Reference-normalized benchmark of the supervised SysProf reproduction.

Run from the root of a checkout::

    python3 normbench/run.py --workload nfs-iozone --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (from a separate traced run).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with provenance, raw host figures and each check's detail.

``--steadiness N`` instead runs the workload N times in fresh processes
and prints each metric's median, quartiles and IQR/median next to its
bound in ``BENCHMARK.json`` (see :mod:`steadiness`).
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Untimed set-up-only builds first, then timed ones, per run; each
#: episode's build adds one more timed sample.  The first few builds in
#: a process run slower (imports, lazy caches, the allocator warming up).
SETUP_WARMUPS = 5
SETUP_BUILDS = 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 1; with --steadiness, "
                             "repeat this one seed instead of seeds 1..N)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    return parser.parse_args(argv)


def measure(workload, seed, seconds, reference):
    """The untraced run: set-up builds, then episodes for ``seconds``."""
    from episode import run_episode, timed_setup

    for _ in range(SETUP_WARMUPS):
        timed_setup(workload, seed, reference)
    setups = [
        timed_setup(workload, seed, reference) for _ in range(SETUP_BUILDS)
    ]
    # Every scenario seed once, and one of them twice, so each run
    # checks same-seed determinism.
    floor = max(workload.min_episodes,
                workload.subseeds + 1 if workload.subseeds > 1 else 1)
    episodes = []
    start = time.perf_counter()
    while True:
        episode_seed = workload.scenario_seed(seed, len(episodes))
        episodes.append(run_episode(workload, episode_seed, reference))
        setups.append(episodes[-1].setup)
        elapsed = time.perf_counter() - start
        per_episode = elapsed / len(episodes)
        if len(episodes) >= floor and elapsed + per_episode > seconds:
            break
    return setups, episodes


def episode_checks(episodes):
    """Each episode's own checks plus same-seed determinism across them."""
    checks = {}
    by_seed = {}
    for index, episode in enumerate(episodes):
        by_seed.setdefault(episode.seed, []).append(episode)
        for name, result in episode.checks.items():
            checks["episode{}.{}".format(index, name)] = result
    for seed, group in by_seed.items():
        if len(group) < 2:
            continue
        digests = sorted({episode.digest for episode in group})
        checks["seed{}.one_gpa_digest".format(seed)] = (
            len(digests) == 1, ",".join(digests),
        )
        sims = {json.dumps(episode.sim, sort_keys=True) for episode in group}
        checks["seed{}.identical_sim_metrics".format(seed)] = (
            len(sims) == 1, "{} distinct of {}".format(len(sims), len(group)),
        )
    return checks


def result_line(metrics, checks, requests, failed_requests):
    failed_checks = sum(1 for ok, _ in checks.values() if not ok)
    failed = failed_requests + failed_checks
    return {
        "correct": failed == 0,
        "attempted": requests + len(checks),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no repro sources under {}".format(SRC), file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload {!r} (have: {})".format(
            args.workload, ", ".join(sorted(WORKLOADS))), file=sys.stderr)
        return 2
    if args.steadiness:
        import steadiness

        return steadiness.main(workload, args.steadiness, args.seed,
                               args.seconds, args.trace)
    seed = 1 if args.seed is None else args.seed
    # The reference world is built before the program allocates anything,
    # so its own footprint can be left out of peak memory.
    from reference import Reference

    reference = Reference()
    sys.path.insert(0, SRC)
    import provenance

    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "provenance": provenance.collect(ROOT, SRC),
    }
    if args.trace:
        import layers

        metrics, checks, requests, failed_requests, extra = layers.traced_run(
            workload, seed, reference
        )
        report.update(extra)
    else:
        from summary import end_to_end

        setups, episodes = measure(workload, seed, args.seconds, reference)
        metrics, raw = end_to_end(workload, setups, episodes,
                                  reference.footprint_mb)
        checks = episode_checks(episodes)
        requests = sum(episode.requests for episode in episodes)
        failed_requests = sum(episode.failed_requests for episode in episodes)
        report["raw"] = raw
        report["digest"] = episodes[0].digest
    report["checks"] = {
        name: {"ok": ok, "detail": detail} for name, (ok, detail) in checks.items()
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result_line(metrics, checks, requests, failed_requests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
