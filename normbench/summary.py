"""Percentiles, the tail rule, and the end-to-end metrics of a run."""

import math
import resource
import statistics

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: The simulated end-to-end metrics, in simulated units: exact for a
#: scenario seed, so they repeat digit for digit from run to run.
SIM_UNITS = {
    "sim_op_latency_ms": "sim_ms",
    "sim_goodput_ops_s": "1/sim_s",
    "sim_monitor_cpu_share": "ratio",
    "sim_root_ingress_Bps": "B/sim_s",
    "sim_staleness_p95_s": "sim_s",
}


def nearest_rank(values, p):
    """The ``p``-th percentile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def tail_percentile(count):
    """The highest :data:`TAIL_LADDER` percentile with at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples ranked beyond it."""
    best = None
    for p in TAIL_LADDER:
        if count - math.ceil(count * p / 100.0) >= TAIL_MIN_BEYOND:
            best = p
    if best is None:
        raise ValueError(
            "{} samples leave fewer than {} beyond p{:g}".format(
                count, TAIL_MIN_BEYOND, TAIL_LADDER[0]
            )
        )
    return best


def peak_rss_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _by_seed(episodes):
    """Episodes grouped by scenario seed, in first-seen order."""
    groups = {}
    for episode in episodes:
        groups.setdefault(episode.seed, []).append(episode)
    return list(groups.values())


def end_to_end(workload, setups, episodes, reference_mb=0.0):
    """Every end-to-end metric of a run, plus the raw figures behind it.

    Host times are reference-normalized.  ``run_s`` (slices plus the
    controls sent between them) is the median over the episodes of each
    scenario seed, averaged over the seeds; the
    ``sim_*`` metrics are exact per scenario seed and averaged the same
    way.  A slice or query sample is one slice or one round of the query
    mix.  Peak memory leaves out ``reference_mb``, the resident size of
    the reference world that lives through the whole run.  The tail
    percentile is fixed per workload by the sample count its
    minimum number of episodes guarantees, so a run that fits one
    episode more reports the same percentile as one that does not.
    """
    groups = _by_seed(episodes)
    slices = [i.norm_s for episode in episodes for i in episode.slices]
    rounds = [i.norm_s for episode in episodes for i in episode.queries]
    floor = workload.min_episodes * workload.slices_per_episode
    tail_p = tail_percentile(floor)
    metrics = {
        "run_s": (statistics.fmean(
            statistics.median(e.run_s for e in group) for group in groups
        ), "s"),
        "setup_s": (statistics.median(i.norm_s for i in setups), "s"),
        "peak_rss_mb": (peak_rss_mb() - reference_mb, "MB"),
        "slice_p50_ms": (nearest_rank(slices, 50.0) * 1e3, "ms"),
        "slice_tail_ms": (nearest_rank(slices, tail_p) * 1e3, "ms"),
        "query_p50_ms": (nearest_rank(rounds, 50.0) * 1e3, "ms"),
        "query_tail_ms": (nearest_rank(rounds, tail_p) * 1e3, "ms"),
    }
    for name, unit in SIM_UNITS.items():
        metrics[name] = (
            statistics.fmean(group[0].sim[name] for group in groups), unit
        )
    refs = [ref for episode in episodes for ref in episode.refs]
    raw = {
        "episodes": len(episodes),
        "scenario_seeds": [group[0].seed for group in groups],
        "setups": len(setups),
        "run_raw_s": statistics.median(e.run_raw_s for e in episodes),
        "setup_raw_s": statistics.median(i.raw_s for i in setups),
        "slice_raw_p50_ms": nearest_rank(
            [i.raw_s for e in episodes for i in e.slices], 50.0) * 1e3,
        "query_raw_p50_ms": nearest_rank(
            [i.raw_s for e in episodes for i in e.queries], 50.0) * 1e3,
        "control_ms": statistics.median(
            sum(i.norm_s for i in e.controls) for e in episodes) * 1e3,
        "control_raw_ms": statistics.median(
            sum(i.raw_s for i in e.controls) for e in episodes) * 1e3,
        "ref_median_ms": statistics.median(refs) * 1e3,
        "ref_isolated_ms": statistics.median(
            i for episode in episodes for i in episode.isolated) * 1e3,
        "ref_inflation": statistics.median(
            r for episode in episodes for r in episode.inflation),
        "ref_p10_ms": nearest_rank(refs, 10.0) * 1e3,
        "ref_p90_ms": nearest_rank(refs, 90.0) * 1e3,
        "slice_samples": len(slices),
        "query_samples": len(rounds),
        "tail_percentile": tail_p,
        "peak_rss_with_reference_mb": peak_rss_mb(),
    }
    return metrics, raw
