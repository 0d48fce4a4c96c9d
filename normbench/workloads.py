"""The benchmark's three supervised workloads.

Every workload is a registered :mod:`repro.service` scenario pumped by a
:class:`~repro.service.Supervisor` from one thread, in fixed simulated
slices, for a fixed simulated span.  After every slice the benchmark
runs the same query mix through the in-process
:class:`~repro.service.ServiceClient`; ``serve-rubis`` also sends a fixed
schedule of controls at fixed simulated times.  The benchmark seed is
the scenario seed, so one seed always gives the same inputs.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Control:
    """One control op sent at the first boundary at or after ``at``."""

    at: float
    op: str
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    build: dict
    span: float          # simulated seconds pumped per episode
    slice_width: float   # simulated seconds per pump
    sketch_class: str    # request class the ``sketch`` query asks for
    min_episodes: int    # guarantees the sample counts the tails need
    ref_inflation: float  # in-run over isolated reference chunk, as recorded
    subseeds: int = 1    # distinct scenario seeds a run cycles through
    controls: tuple = ()

    @property
    def slices_per_episode(self):
        return int(round(self.span / self.slice_width))

    def scenario_seed(self, seed, episode):
        """Episode ``episode`` of a run with workload seed ``seed``
        builds its scenario with this seed: the run cycles through
        ``subseeds`` seeds derived from ``seed``, so a run averages over
        several inputs while every one of them repeats exactly."""
        return seed + 100003 * (episode % self.subseeds)


#: The read-only query mix asked at every slice boundary, in this order.
QUERY_OPS = ("sketch", "metrics", "ledger", "alerts", "staleness", "dashboard")


def query_params(workload, op):
    if op == "sketch":
        return {"class": workload.sketch_class, "lookback": 1.0}
    return {}


RUBIS_CONTROLS = (
    Control(0.4, "set_rules", {
        "rules": ["p95(bidding) < 100ms", "p95(comment) < 150ms"],
    }),
    Control(0.8, "drill_down", {"node": "servlet1"}),
    Control(1.2, "inject_fault", {"events": [{
        "at": 0.0, "kind": "cpu_hog", "target": "servlet2",
        "params": {"duration": 0.3, "utilization": 0.7},
    }]}),
    Control(1.6, "restore", {"node": "servlet1"}),
)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="nfs-iozone",
            scenario="nfs",
            build={"clients": 2, "threads_per_client": 2, "backends": 2},
            span=1.0,
            slice_width=0.05,
            sketch_class="nfs-write",
            min_episodes=6,
            ref_inflation=1.48,
        ),
        Workload(
            name="federation-256",
            scenario="federation",
            build={"zones": 8, "nodes_per_zone": 32},
            span=2.0,
            slice_width=0.2,
            sketch_class="rpc",
            min_episodes=6,
            ref_inflation=1.52,
        ),
        Workload(
            name="serve-rubis",
            scenario="rubis",
            build={"sessions_per_class": 30, "rate_per_class": 150.0},
            span=2.0,
            slice_width=0.1,
            sketch_class="bidding",
            min_episodes=9,
            ref_inflation=1.40,
            subseeds=8,
            controls=RUBIS_CONTROLS,
        ),
    )
}
