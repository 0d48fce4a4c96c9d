"""The traced run: per-layer metrics for one workload.

Four episodes of the same workload and seed, each in the same process:

1. **plain** -- untraced, as the end-to-end run measures it;
2. **spans** -- the benchmark's own spans around every call it makes
   into the program (build, pump, query, control), each recording the
   program's counters at entry and exit, plus a few class-level
   wrappers (frame decode, CPU submissions, slice-boundary work,
   request dispatch) that count and time their calls;
3. **binding** -- count-only wrappers on the program's hot entry points
   (event scheduling, Kprof delivery, frame sends), on the engine's
   reference path, where every event goes through
   :meth:`~repro.sim.engine.Simulator.schedule`;
4. **profile** -- one cProfile pass over the pumped span, folded into
   self-time shares per layer.

``tracing_overhead`` is the spans episode's normalized work over the
plain episode's.  Integrity checks make a missed binding fail loudly:
child span deltas must add up to their parent's, every wrapper's count
must equal the counter the program keeps itself for the same work, and
the reference path must reproduce the counters the metrics are read
from.
"""

import ast
import contextlib
import cProfile
import functools
import os
import pstats
import statistics
import time

from episode import NullObserver, run_episode
from reference import NOMINAL_REF_S

from repro.core.encoding import FrameDecoder
from repro.core.kprof import Kprof
from repro.ossim.cpu import Cpu
from repro.ossim.taskctx import TaskContext
from repro.service import Supervisor
from repro.sim import engine

REPRO_ROOT = os.path.dirname(os.path.abspath(
    __import__("repro").__file__
))
BENCH_ROOT = os.path.dirname(os.path.abspath(__file__))

#: ``repro`` module path (relative, no ``.py``) -> layer.  Longest
#: prefix wins; engine classes are split further by :func:`_engine_layer`.
MODULE_LAYERS = {
    "sim/process": "sim.process",
    "sim/resources": "sim.resources",
    "sim": "other",
    "ossim/cpu": "ossim.cpu",
    "ossim/netstack": "ossim.netstack",
    "ossim/sockets": "ossim.netstack",
    "ossim/selector": "ossim.netstack",
    "ossim/vfs": "ossim.vfs",
    "ossim/blockio": "ossim.vfs",
    "ossim/tracepoints": "ossim.tracepoints",
    "ossim": "ossim.kernel",
    "netsim": "netsim",
    "core/kprof": "core.kprof",
    "core/lpa": "core.lpa",
    "core/interactions": "core.lpa",
    "core/cpa": "core.lpa",
    "core/buffers": "core.lpa",
    "core/arm": "core.lpa",
    "core/ecode": "core.lpa",
    "core/encoding": "core.dissemination",
    "core/daemon": "core.dissemination",
    "core/publisher": "core.dissemination",
    "core/channels": "core.dissemination",
    "core/tier": "core.tier",
    "core/gpa": "core.tier",
    "core/federation": "core.tier",
    "core/query": "core.tier",
    "core": "other",
    "observability/metrics": "observability.metrics",
    "observability/recorder": "observability.metrics",
    "observability/diagnosis": "observability.diagnosis",
    "observability/slo": "observability.diagnosis",
    "observability/anomaly": "observability.diagnosis",
    "observability/sketches": "observability.diagnosis",
    "observability": "other",
    "service": "service.handle",
    "apps": "apps",
    "workloads": "apps",
    "cluster": "cluster",
}

#: Every layer a self share is reported for (``other`` takes the rest).
SHARE_LAYERS = (
    "sim.store", "sim.dispatch", "sim.process", "sim.resources",
    "ossim.cpu", "ossim.netstack", "ossim.vfs", "ossim.tracepoints",
    "ossim.kernel", "netsim", "core.kprof", "core.lpa",
    "core.dissemination", "core.tier", "observability.metrics",
    "observability.diagnosis", "service.handle", "apps", "cluster", "other",
)

#: sim/engine.py classes that are the event store, and the waitable /
#: process trampoline; everything else in the module is dispatch.
ENGINE_STORE_CLASSES = {"HeapStore", "CalendarQueue", "SlotHandle"}
ENGINE_PROCESS_CLASSES = {"Waitable", "Timeout", "AnyOf", "AllOf"}

BENCH = "bench"


# ---------------------------------------------------------------------------
# the program's own counters
# ---------------------------------------------------------------------------


def _tiers(sysprof):
    tiers = [sysprof.gpa]
    if sysprof.federation is not None:
        tiers.extend(sysprof.federation.all_zones())
    return tiers


def read_counters(supervisor):
    """Monotone work counters the program keeps itself."""
    sysprof = supervisor.sysprof
    sim = supervisor.cluster.sim.stats()
    fired = delivered = frames = records = 0
    for monitor in sysprof.monitors.values():
        kprof = monitor.kprof.stats()
        fired += sum(kprof["fired"].values())
        delivered += kprof["delivered"]
        frames += monitor.daemon.frames_published
        records += monitor.daemon.records_published
    ingested = frames_received = sketch_rows = 0
    for tier in _tiers(sysprof):
        stats = tier.stats()
        ingested += stats["records_received"]
        frames_received += stats["frames_received"]
        sketch_rows += stats["sketch_rows"]
        if tier is not sysprof.gpa:
            frames += tier.publisher.frames_published
    packets = sum(
        switch.forwarded
        for switch in supervisor.cluster.fabric.switches.values()
    )
    return {
        "events_scheduled": sim["events_scheduled"],
        "pool_hits": sim["pool_hits"],
        "pool_misses": sim["pool_misses"],
        "kprof_fired": fired,
        "kprof_delivered": delivered,
        "frames_published": frames,
        "records_published": records,
        "records_ingested": ingested,
        "frames_received": frames_received,
        "sketch_rows": sketch_rows,
        "packets_forwarded": packets,
    }


def _delta(after, before):
    return {key: after[key] - before.get(key, 0) for key in after}


# ---------------------------------------------------------------------------
# spans and wrappers
# ---------------------------------------------------------------------------


class SpanObserver(NullObserver):
    """Spans around the benchmark's calls into the program.

    Each span records ``(name, start, end, parent)`` and, once a
    supervisor exists (every span but the build), the program's counter
    deltas across it.
    """

    def __init__(self, wrappers=()):
        self.wrappers = wrappers
        self.spans = []
        self._stack = []
        self.final_counters = None
        self.program_slices = 0
        self.recorder_series = 0

    @contextlib.contextmanager
    def span(self, name, supervisor=None):
        parent = self._stack[-1] if self._stack else None
        before = read_counters(supervisor) if supervisor is not None else {}
        record = {"name": name, "parent": parent, "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if supervisor is not None:
                record["delta"] = _delta(read_counters(supervisor), before)

    def finish(self, supervisor):
        """End of the measured span: read the counters and take the
        wrappers out, so the post-run checks and flush are not counted."""
        for wrapper in self.wrappers:
            wrapper.remove()
        self.final_counters = read_counters(supervisor)
        self.program_slices = supervisor.slices
        self.recorder_series = supervisor.recorder.stats()["series"]

    def _episode_index(self):
        return next(
            i for i, span in enumerate(self.spans) if span["name"] == "episode"
        )

    def episode_delta(self):
        """The program's counter deltas across the episode span."""
        return self.spans[self._episode_index()]["delta"]

    def integrity(self):
        """Checks that the episode's child spans cover all of its work."""
        checks = {}
        episode_index = self._episode_index()
        episode = self.spans[episode_index]
        children = [s for s in self.spans if s["parent"] == episode_index]
        for key in episode["delta"]:
            total = sum(child["delta"][key] for child in children)
            checks["child_spans_sum_to_episode." + key] = (
                total == episode["delta"][key],
                "children {} episode {}".format(total, episode["delta"][key]),
            )
        return checks


class CallCounter:
    """Counts calls to one method for every instance.

    ``weight(*args, **kwargs)``, when given, is what one call adds to
    ``calls`` instead of 1.  With ``timed`` each call's host seconds are
    kept in ``seconds``.  A ``generator`` method is counted once it
    returns, so a call that raises part-way does not count.
    """

    def __init__(self, owner, attribute, weight=None, timed=False,
                 generator=False):
        self.owner = owner
        self.attribute = attribute
        self.original = getattr(owner, attribute)
        self.weight = weight
        self.timed = timed
        self.generator = generator
        self.calls = 0
        self.seconds = []

    def install(self):
        original = self.original
        clock = time.perf_counter
        weight = self.weight or (lambda *args, **kwargs: 1)

        if self.generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                result = yield from original(*args, **kwargs)
                self.calls += weight(*args, **kwargs)
                return result
        elif self.timed:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.calls += weight(*args, **kwargs)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.seconds.append(clock() - start)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.calls += weight(*args, **kwargs)
                return original(*args, **kwargs)

        setattr(self.owner, self.attribute, wrapper)

    def remove(self):
        setattr(self.owner, self.attribute, self.original)


# ---------------------------------------------------------------------------
# cProfile self time folded into layers
# ---------------------------------------------------------------------------


class ProfileObserver(NullObserver):
    """Profiles exactly the episode span (slices, queries, controls)."""

    def __init__(self):
        self.profiler = cProfile.Profile()

    @contextlib.contextmanager
    def span(self, name, supervisor=None):
        if name != "episode":
            yield
            return
        self.profiler.enable()
        try:
            yield
        finally:
            self.profiler.disable()


@functools.lru_cache(maxsize=None)
def _class_ranges(path):
    with open(path) as handle:
        tree = ast.parse(handle.read())
    return [
        (node.lineno, node.end_lineno, node.name)
        for node in tree.body if isinstance(node, ast.ClassDef)
    ]


def _engine_layer(path, lineno):
    for start, end, name in _class_ranges(path):
        if start <= lineno <= end:
            if name in ENGINE_STORE_CLASSES:
                return "sim.store"
            if name in ENGINE_PROCESS_CLASSES:
                return "sim.process"
            return "sim.dispatch"
    return "sim.dispatch"


def classify(filename, lineno):
    """Layer of a profiled function; ``None`` for code outside the repo
    (builtins, the standard library), whose time goes to its caller."""
    path = os.path.abspath(filename) if filename not in ("~", "") else filename
    if path.startswith(BENCH_ROOT + os.sep):
        return BENCH
    if not path.startswith(REPRO_ROOT + os.sep):
        return None
    module = os.path.relpath(path, REPRO_ROOT)[:-len(".py")]
    if module == "sim/engine":
        return _engine_layer(path, lineno)
    parts = module.split("/")
    for cut in range(len(parts), 0, -1):
        layer = MODULE_LAYERS.get("/".join(parts[:cut]))
        if layer is not None:
            return layer
    return "other"


def layer_self_times(profiler):
    """Self seconds per layer.  Time in builtins and the standard
    library is charged to the layer of each calling function, in
    proportion to what each caller spent there."""
    stats = pstats.Stats(profiler).stats
    times = dict.fromkeys(SHARE_LAYERS + (BENCH,), 0.0)
    for (filename, lineno, _), (_, _, tottime, _, callers) in stats.items():
        layer = classify(filename, lineno)
        if layer is not None:
            times[layer] += tottime
            continue
        charged = 0.0
        for (c_file, c_line, _), caller_stats in callers.items():
            caller_layer = classify(c_file, c_line)
            if caller_layer is not None:
                times[caller_layer] += caller_stats[2]
                charged += caller_stats[2]
        times["other"] += max(0.0, tottime - charged)
    return times


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def _kprof_attempts(kprof, etype, *args, **fields):
    """Delivery attempts one ``Kprof.fire`` makes: one per subscription
    of an unmasked type, delivered or suppressed by its predicate."""
    return len(kprof._snap.get(etype, ()))


def _frame_sends(ctx, sock, size, kind="data", meta=None, frame_batch=1):
    return int(kind == "sysprof-frame")


#: Counters the reference engine path must reproduce exactly (the
#: event pool is a fast-path device and stays out).
PATH_INDEPENDENT = (
    "events_scheduled", "kprof_fired", "kprof_delivered", "frames_published",
    "records_published", "records_ingested", "frames_received",
    "sketch_rows", "packets_forwarded",
)


def binding_episode(workload, seed, reference):
    """One episode on the engine's reference path with count-only
    wrappers; returns the episode, its end-of-span counters and checks
    that each wrapper's count equals the program's own counter."""
    schedule = CallCounter(engine.Simulator, "schedule")
    fire = CallCounter(Kprof, "fire", weight=_kprof_attempts)
    sends = CallCounter(TaskContext, "send_message", weight=_frame_sends,
                        generator=True)
    wrappers = (schedule, fire, sends)
    observer = SpanObserver(wrappers)
    fast_lane = engine.DEFAULT_FAST_LANE
    engine.DEFAULT_FAST_LANE = False
    for wrapper in wrappers:
        wrapper.install()
    try:
        episode = run_episode(workload, seed, reference, observer=observer)
    finally:
        engine.DEFAULT_FAST_LANE = fast_lane
        for wrapper in wrappers:
            wrapper.remove()
    counters = observer.final_counters
    checks = {}
    for name, wrapper, key in (
        ("schedule_calls_equal_events_scheduled", schedule, "events_scheduled"),
        ("kprof_attempts_equal_fired", fire, "kprof_fired"),
        ("frame_sends_equal_frames_published", sends, "frames_published"),
    ):
        checks[name] = (
            wrapper.calls == counters[key],
            "wrapper {} program {}".format(wrapper.calls, counters[key]),
        )
    return episode, counters, checks


def traced_run(workload, seed, reference):
    """Per-layer metrics, checks and a report for one workload."""
    plain = run_episode(workload, seed, reference)

    decode = CallCounter(FrameDecoder, "feed", timed=True)
    submit = CallCounter(Cpu, "submit")
    boundary = CallCounter(Supervisor, "_boundary", timed=True)
    handle = CallCounter(Supervisor, "handle")
    wrappers = (decode, submit, boundary, handle)
    spans = SpanObserver(wrappers)
    for wrapper in wrappers:
        wrapper.install()
    try:
        traced = run_episode(workload, seed, reference, observer=spans)
    finally:
        for wrapper in wrappers:
            wrapper.remove()

    bound, bound_counters, binding_checks = binding_episode(
        workload, seed, reference
    )

    profiled = ProfileObserver()
    profile_episode = run_episode(workload, seed, reference,
                                  observer=profiled)
    self_times = layer_self_times(profiled.profiler)

    episodes = (("plain", plain), ("spans", traced), ("binding", bound),
                ("profile", profile_episode))
    final = spans.final_counters
    checks = {}
    for name, episode in episodes:
        for check, result in episode.checks.items():
            checks["{}.{}".format(name, check)] = result
    digests = [episode.digest for _, episode in episodes]
    checks["tracing_keeps_gpa_digest"] = (
        len(set(digests)) == 1, " ".join(digests),
    )
    checks.update(spans.integrity())
    checks.update(binding_checks)
    moved = [
        "{} {} != {}".format(key, bound_counters[key], final[key])
        for key in PATH_INDEPENDENT if bound_counters[key] != final[key]
    ]
    checks["reference_path_keeps_counters"] = (not moved, "; ".join(moved))
    checks["decode_calls_equal_frames_received"] = (
        decode.calls == final["frames_received"],
        "wrapper {} program {}".format(decode.calls, final["frames_received"]),
    )
    checks["handle_calls_equal_requests_sent"] = (
        handle.calls == traced.requests,
        "wrapper {} sent {}".format(handle.calls, traced.requests),
    )
    checks["boundary_calls_equal_program_slices"] = (
        boundary.calls == spans.program_slices,
        "wrapper {} program {}".format(boundary.calls, spans.program_slices),
    )

    speed = NOMINAL_REF_S / statistics.median(traced.refs)
    total = sum(t for layer, t in self_times.items() if layer != BENCH)
    events = spans.episode_delta()["events_scheduled"]
    pool = final["pool_hits"] + final["pool_misses"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    put("sim.events", events, "count")
    put("sim.host_ns_per_event", plain.run_s / events * 1e9, "ns")
    for layer in SHARE_LAYERS:
        put(layer + ".self_share", self_times[layer] / total, "ratio")
    put("sim.pool_hit_ratio",
        final["pool_hits"] / pool if pool else 0.0, "ratio")
    put("ossim.cpu.charges", submit.calls, "count")
    put("netsim.packets", final["packets_forwarded"], "count")
    put("core.kprof.fired", final["kprof_fired"], "count")
    put("core.kprof.delivered_ratio",
        final["kprof_delivered"] / final["kprof_fired"]
        if final["kprof_fired"] else 0.0, "ratio")
    put("core.frames", final["frames_published"], "count")
    put("core.records_per_frame",
        final["records_published"] / final["frames_published"]
        if final["frames_published"] else 0.0, "count")
    put("core.tier.records_ingested", final["records_ingested"], "count")
    put("core.tier.decode_us_per_record",
        sum(decode.seconds) * speed / final["records_ingested"] * 1e6
        if final["records_ingested"] else 0.0, "us")
    put("observability.recorder.series", spans.recorder_series, "count")
    put("observability.sketch.updates", final["sketch_rows"], "count")
    put("service.boundary_ms",
        statistics.median(boundary.seconds) * speed * 1e3, "ms")
    put("service.requests", handle.calls, "count")
    put("service.controls_applied", traced.controls_applied, "count")
    put("tracing_overhead", traced.work_s / plain.work_s, "ratio")

    extra = {
        "raw": {
            "plain_run_s": plain.run_s,
            "plain_run_raw_s": plain.run_raw_s,
            "spans_run_s": traced.run_s,
            "spans_run_raw_s": traced.run_raw_s,
            "plain_work_s": plain.work_s,
            "spans_work_s": traced.work_s,
            "ref_median_ms": statistics.median(traced.refs) * 1e3,
            "profiled_self_s": total,
            "spans": len(spans.spans),
        },
        "digest": plain.digest,
        "counters": final,
    }
    requests = sum(episode.requests for _, episode in episodes)
    failed = sum(episode.failed_requests for _, episode in episodes)
    return metrics, checks, requests, failed, extra
