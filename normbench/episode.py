"""One episode: build a workload's scenario, pump its span, check it.

The timed sequence is strictly alternating::

    ref | build | ref | slice | ref iso | queries | ref | [controls | ref |] slice | ...

so every timed interval (set-up build, slice, query round, the controls
due at a boundary) has a reference chunk right before and right after
it, and is normalized by those two (see :mod:`reference`).  ``iso`` is
an isolated chunk (:meth:`~reference.Reference.isolated`): it normalizes
nothing, and shows how much the slice before it slowed the chunk that
closed it.
"""

import contextlib
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field

from reference import NOMINAL_REF_S, normalize
from summary import nearest_rank
from workloads import QUERY_OPS, query_params

from repro.experiments.common import trace_digest
from repro.service import ServiceCallError, ServiceClient, Supervisor, build_scenario

#: Relative tolerance of the per-node "ledger sums equal busy_time" check.
LEDGER_REL_TOL = 1e-9

#: Simulated seconds the federation conservation check runs after
#: stopping members and zones, so in-flight forwards land at the root.
FEDERATION_SETTLE_S = 0.6


class NullObserver:
    """No spans, no profiling: the untraced measurement."""

    def span(self, name, supervisor=None):
        return contextlib.nullcontext()

    def finish(self, supervisor):
        pass


@dataclass
class Interval:
    """One timed interval with the reference chunks beside it."""

    raw_s: float
    ref_before_s: float
    ref_after_s: float

    @property
    def norm_s(self):
        return normalize(self.raw_s, self.ref_before_s, self.ref_after_s)


@dataclass
class Episode:
    seed: int
    setup: Interval
    slices: list = field(default_factory=list)
    queries: list = field(default_factory=list)   # one per query-mix round
    controls: list = field(default_factory=list)  # one per boundary with controls
    refs: list = field(default_factory=list)
    isolated: list = field(default_factory=list)  # one per slice
    inflation: list = field(default_factory=list)  # closing chunk / isolated
    sim: dict = field(default_factory=dict)
    digest: str = ""
    checks: dict = field(default_factory=dict)   # name -> (ok, detail)
    work_raw_s: float = 0.0
    requests: int = 0
    failed_requests: int = 0
    controls_sent: int = 0
    controls_applied: int = 0

    @property
    def run_s(self):
        """Normalized host seconds spent pumping the span, with the
        controls sent at its boundaries."""
        return sum(i.norm_s for i in self.slices + self.controls)

    @property
    def run_raw_s(self):
        return sum(i.raw_s for i in self.slices + self.controls)

    @property
    def work_s(self):
        """Normalized host seconds of the whole episode -- build, slices,
        queries, controls and anything an observer adds -- without the
        reference chunks themselves."""
        return self.work_raw_s * NOMINAL_REF_S / statistics.median(self.refs)


def build(workload, seed):
    """Set-up as a user pays it: the scenario plus its supervisor."""
    scenario = build_scenario(workload.scenario, seed=seed, **workload.build)
    return Supervisor(scenario, slice_width=workload.slice_width)


def timed_setup(workload, seed, reference):
    """One set-up-only build, bracketed by reference chunks."""
    gc.collect()
    before = reference.timed()
    start = time.perf_counter()
    supervisor = build(workload, seed)
    raw = time.perf_counter() - start
    after = reference.timed()
    supervisor.scenario.close()
    return Interval(raw, before, after)


def run_episode(workload, seed, reference, observer=None):
    """Build, pump ``workload.span`` with queries and controls, check."""
    observer = observer or NullObserver()
    gc.collect()
    ref = reference.timed()
    refs = [ref]
    episode_start = time.perf_counter()
    with observer.span("build"):
        start = time.perf_counter()
        supervisor = build(workload, seed)
        raw = time.perf_counter() - start
    after = reference.timed()
    refs.append(after)
    episode = Episode(seed=seed, setup=Interval(raw, ref, after), refs=refs)
    ref = after
    client = ServiceClient(supervisor)
    controls = sorted(workload.controls, key=lambda control: control.at)
    staleness = []
    isolating_s = 0.0
    try:
        with observer.span("episode", supervisor):
            for _ in range(workload.slices_per_episode):
                if controls and controls[0].at <= supervisor.now + 1e-9:
                    control_s = 0.0
                    while controls and controls[0].at <= supervisor.now + 1e-9:
                        control = controls.pop(0)
                        episode.controls_sent += 1
                        with observer.span("control", supervisor):
                            start = time.perf_counter()
                            _call(episode, client, control.op, control.params)
                            control_s += time.perf_counter() - start
                    after = reference.timed()
                    episode.controls.append(Interval(control_s, ref, after))
                    refs.append(after)
                    ref = after
                with observer.span("pump", supervisor):
                    start = time.perf_counter()
                    supervisor.pump()
                    raw = time.perf_counter() - start
                after = reference.timed()
                episode.slices.append(Interval(raw, ref, after))
                refs.append(after)
                ref = after
                start = time.perf_counter()
                episode.isolated.append(reference.isolated())
                isolating_s += time.perf_counter() - start
                episode.inflation.append(after / episode.isolated[-1])
                answer_s = 0.0
                for op in QUERY_OPS:
                    with observer.span("query", supervisor):
                        start = time.perf_counter()
                        result = _call(
                            episode, client, op, query_params(workload, op)
                        )
                        answer_s += time.perf_counter() - start
                    if op == "staleness" and result is not None:
                        staleness.extend(
                            value for value in result["nodes"].values()
                            if value is not None
                        )
                after = reference.timed()
                episode.queries.append(Interval(answer_s, ref, after))
                refs.append(after)
                ref = after
        observer.finish(supervisor)
        episode.work_raw_s = (time.perf_counter() - episode_start
                              - sum(refs[1:]) - isolating_s)
        episode.controls_applied = supervisor.controls_applied
        episode.sim = sim_metrics(supervisor, staleness)
        episode.digest = gpa_digest(supervisor.sysprof.gpa)
        episode.checks = run_checks(workload, supervisor, episode)
    finally:
        # Not ``shutdown()``: its end-of-service flush simulates another
        # half second that nothing here measures or checks.
        supervisor.scenario.close()
    return episode


def _call(episode, client, op, params):
    episode.requests += 1
    try:
        return client.call(op, **params)
    except ServiceCallError:
        episode.failed_requests += 1
        return None


# ---------------------------------------------------------------------------
# simulated metrics (exact: a function of the seed alone)
# ---------------------------------------------------------------------------


def sim_metrics(supervisor, staleness):
    span = supervisor.now
    sysprof = supervisor.sysprof
    ledger = supervisor.scenario.ledger
    monitored = sorted(sysprof.monitors)
    capacity = sum(
        span * supervisor.cluster.node(name).kernel.cpu_count
        for name in monitored
    )
    monitoring = sum(ledger.monitoring_time(name) for name in monitored)
    sketch = sysprof.gpa.sketches.merged(metric="latency")
    return {
        "sim_op_latency_ms": sketch.percentile(50.0) * 1e3,
        "sim_goodput_ops_s": sketch.count / span,
        "sim_monitor_cpu_share": monitoring / capacity,
        "sim_root_ingress_Bps": sysprof.gpa.stats()["ingress_bytes"] / span,
        "sim_staleness_p95_s": nearest_rank(staleness, 95.0),
    }


def gpa_digest(gpa):
    """One hash over the root GPA's interaction and class-summary traces."""
    parts = (
        trace_digest(gpa.query_interactions()),
        trace_digest(list(gpa.class_summaries)),
    )
    return hashlib.sha256("/".join(parts).encode("ascii")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def run_checks(workload, supervisor, episode):
    checks = {}
    ledger = supervisor.scenario.ledger
    bad = []
    for name in ledger.nodes():
        busy = supervisor.cluster.node(name).kernel.cpu.busy_time
        total = ledger.busy_total(name)
        if abs(total - busy) > LEDGER_REL_TOL * max(abs(busy), 1e-12):
            bad.append("{}: ledger {} != busy {}".format(name, total, busy))
    checks["ledger_sums_equal_busy_time"] = (not bad, "; ".join(bad[:3]))
    checks["controls_applied_equal_sent"] = (
        episode.controls_applied == episode.controls_sent,
        "applied {} sent {}".format(
            episode.controls_applied, episode.controls_sent
        ),
    )
    checks["every_request_ok"] = (
        episode.failed_requests == 0,
        "{} of {} failed".format(episode.failed_requests, episode.requests),
    )
    checks["slices_pumped"] = (
        abs(supervisor.now - workload.span) < 1e-6,
        "now {} span {}".format(supervisor.now, workload.span),
    )
    if supervisor.sysprof.federation is not None:
        checks["federation_root_plus_pending_equals_members"] = (
            federation_conservation(supervisor)
        )
    return checks


def federation_conservation(supervisor):
    """Stop members and zones at one instant, let forwards land, then
    every zone's member rows must equal the root's rows for that zone
    plus whatever the zone still holds pending."""
    sysprof = supervisor.sysprof
    for monitor in sysprof.monitors.values():
        monitor.daemon.stop()
    sysprof.federation.stop()
    supervisor.cluster.run(until=supervisor.now + FEDERATION_SETTLE_S)
    bad = []
    for zone in sysprof.federation.all_zones():
        members = sum(row["count"] for row in zone.class_summaries)
        label = "zone:" + zone.zone
        root = sum(
            row["count"] for row in sysprof.gpa.class_summaries
            if row["node"] == label
        )
        pending = sum(
            summary["count"] for summary in zone._pending_classes.values()
        )
        if root + pending != members or members == 0:
            bad.append("{}: root {} + pending {} != members {}".format(
                zone.zone, root, pending, members))
    return (not bad, "; ".join(bad[:3]))
