"""§3.3: QoS scheduling of the RUBiS multi-tier web service.

Reproduces Figures 6 and 7: two request classes (high-priority bidding,
low-priority comment) scheduled by DWCS over two servlet servers.
Halfway through the run a background load lands on one servlet.  Plain
DWCS dispatches blindly and degrades; resource-aware DWCS consumes
SysProf node statistics (over the kernel pub-sub channels) and routes
around the loaded server — "the higher priority bidding request has very
insignificant drop".  Also measures the paper's headline costs: the
application throughput decrease with SysProf enabled (<2%) against the
throughput gain RA-DWCS buys (>14%).
"""

from dataclasses import dataclass, field

from repro.apps.rubis.requests import BIDDING, COMMENT
from repro.apps.rubis.site import RubisSite
from repro.apps.scheduling import (
    DwcsScheduler,
    DwcsStream,
    LoadMonitor,
    RequestDispatcher,
    ResourceAwareRouter,
    RoundRobinRouter,
)
from repro.cluster import Cluster
from repro.core import SysProf, SysProfConfig
from repro.experiments.common import trace_digest
from repro.experiments.runner import run_points
from repro.workloads.httperf import HttperfConfig, spawn_httperf

SERVLETS = ("servlet1", "servlet2")
WARMUP = 1.0


@dataclass
class RubisExperimentConfig:
    duration: float = 20.0
    load_at: float = 10.0       # relative to workload start
    load_duty: float = 0.6
    rate_per_class: float = 150.0
    sessions_per_class: int = 30
    slots_per_servlet: int = 10
    drop_factor: float = 4.0
    seed: int = 21
    start: float = 0.5
    monitor: bool = True
    frame_dissemination: bool = True  # batched frames vs per-record blobs


@dataclass
class RubisRunResult:
    scheduler: str
    pre_throughput: dict
    post_throughput: dict
    dropped: dict
    violations: dict
    series: dict = field(default_factory=dict)
    servlet_split: dict = field(default_factory=dict)
    monitor_enabled: bool = True
    trace_hash: str = ""
    engine_events: int = 0  # events_scheduled by the run's simulator

    @property
    def responses(self):
        """Completed requests over the whole run, all classes."""
        return sum(
            sum(per_servlet.values()) for per_servlet in self.servlet_split.values()
        )

    @property
    def pre_total(self):
        return sum(self.pre_throughput.values())

    @property
    def post_total(self):
        return sum(self.post_throughput.values())


def run_rubis_experiment(scheduler="dwcs", config=None, inject_load=True):
    """One full run; ``scheduler`` is ``"dwcs"`` or ``"radwcs"``."""
    config = config or RubisExperimentConfig()
    if scheduler not in ("dwcs", "radwcs"):
        raise ValueError("scheduler must be 'dwcs' or 'radwcs'")
    if scheduler == "radwcs" and not config.monitor:
        raise ValueError("radwcs requires monitoring (it consumes SysProf data)")

    cluster = Cluster(seed=config.seed)
    cluster.add_node("client")
    cluster.add_node("apache")
    for name in SERVLETS:
        cluster.add_node(name)
    cluster.add_node("db", with_disk=True)
    cluster.add_node("mgmt")

    site = RubisSite(cluster, "apache", list(SERVLETS), "db").start()

    sysprof = None
    if config.monitor:
        sysprof = SysProf(
            cluster,
            SysProfConfig(
                eviction_interval=0.1,
                frame_dissemination=config.frame_dissemination,
            ),
        )
        sysprof.install(monitored=list(SERVLETS), gpa_node="mgmt")
        sysprof.start()

    dwcs = DwcsScheduler(drop_factor=config.drop_factor)
    for profile in (BIDDING, COMMENT):
        dwcs.add_stream(
            DwcsStream(
                profile.name, profile.period, profile.window_x, profile.window_y
            )
        )
    if scheduler == "radwcs":
        monitor = LoadMonitor(cluster.node("client"), sysprof.hub).start()
        router = ResourceAwareRouter(list(SERVLETS), monitor)
    else:
        router = RoundRobinRouter(list(SERVLETS))

    dispatcher = RequestDispatcher(
        cluster.node("client"), "apache", site.http_port, list(SERVLETS), dwcs,
        router=router, slots_per_servlet=config.slots_per_servlet,
    ).start()

    httperf_config = HttperfConfig(
        sessions_per_class=config.sessions_per_class,
        rate_per_class=config.rate_per_class,
        duration=config.duration,
        start=config.start,
    )
    _tasks, _stats = spawn_httperf(
        cluster.node("client"), dispatcher, httperf_config, cluster.streams
    )
    load_start = config.start + config.load_at
    if inject_load:
        site.inject_cpu_load(
            "servlet1", start=load_start, duration=config.duration,
            duty=config.load_duty,
        )
    cluster.run(until=config.start + config.duration + 2.0)

    end = config.start + config.duration
    pre = {}
    post = {}
    for profile in (BIDDING, COMMENT):
        pre[profile.name] = dispatcher.mean_throughput(
            profile.name, config.start + WARMUP, load_start
        )
        post[profile.name] = dispatcher.mean_throughput(
            profile.name, load_start + WARMUP, end
        )
    stream_stats = dwcs.stats()
    servlet_split = {}
    for record in dispatcher.completions:
        servlet_split.setdefault(record.request_class, {}).setdefault(
            record.servlet, 0
        )
        servlet_split[record.request_class][record.servlet] += 1
    if sysprof is not None:
        sysprof.flush()
        trace_hash = trace_digest(sysprof.gpa.query_interactions())
    else:
        trace_hash = ""
    return RubisRunResult(
        scheduler=scheduler,
        pre_throughput=pre,
        post_throughput=post,
        dropped={name: stats["dropped"] for name, stats in stream_stats.items()},
        violations={name: stats["violations"] for name, stats in stream_stats.items()},
        series=dispatcher.throughput_series(bin_width=1.0, until=end),
        servlet_split=servlet_split,
        monitor_enabled=config.monitor,
        trace_hash=trace_hash,
        engine_events=cluster.sim.stats()["events_scheduled"],
    )


def _comparison_point(args):
    """Picklable worker for one scheduler variant of the comparison."""
    scheduler, config, inject_load = args
    return run_rubis_experiment(scheduler, config, inject_load=inject_load)


def run_comparison(config=None, jobs=1):
    """Figure 6 vs Figure 7 plus headline gain.

    The two scheduler runs are independent simulations; ``jobs=2`` runs
    them in parallel worker processes with identical results.
    """
    config = config or RubisExperimentConfig()
    dwcs, radwcs = run_points(
        _comparison_point,
        [("dwcs", config, True), ("radwcs", config, True)],
        jobs=jobs,
    )
    gain = 0.0
    if dwcs.post_total:
        gain = 100.0 * (radwcs.post_total - dwcs.post_total) / dwcs.post_total
    return dwcs, radwcs, gain


def monitoring_cost_experiment(config=None):
    """Headline claim: enabling SysProf costs the application <2%.

    Runs the plain-DWCS workload without the mid-run load, monitor off vs
    on, and compares steady-state total throughput.
    """
    config = config or RubisExperimentConfig()
    results = {}
    for monitor in (False, True):
        run_config = RubisExperimentConfig(
            duration=config.duration, load_at=config.load_at,
            load_duty=config.load_duty, rate_per_class=config.rate_per_class,
            sessions_per_class=config.sessions_per_class,
            slots_per_servlet=config.slots_per_servlet,
            drop_factor=config.drop_factor, seed=config.seed,
            start=config.start, monitor=monitor,
        )
        result = run_rubis_experiment("dwcs", run_config, inject_load=False)
        end = run_config.start + run_config.duration
        results[monitor] = result.pre_total + result.post_total
    baseline, monitored = results[False], results[True]
    overhead_pct = (
        100.0 * (baseline - monitored) / baseline if baseline else 0.0
    )
    return baseline, monitored, overhead_pct
