"""Golden same-seed digests: absolute pins on the simulated behaviour.

The other determinism suites compare two modes of the same tree (fast
lane on and off, calendar and heap stores, serial and parallel runs).
A change that moves every mode the same way passes them all.  These
tests compare against committed constants instead: the GPA digest and
the engine's ``events_scheduled`` count of small same-seed runs of the
NFS, RUBiS/DWCS and federation scenarios, and of one supervised run
that applies a control mid-flight.

An intended change to simulated behaviour must update the constants
below and say why in CHANGES.md.  A performance change must leave them
untouched.
"""

import hashlib

import pytest

from repro.experiments.common import trace_digest
from repro.service import ServiceClient, Supervisor, build_scenario

#: scenario -> (simulated horizon, GPA digest, events_scheduled)
GOLDEN_BATCH = {
    "nfs": (1.0, "cdaaa9b4b2da87e2", 556064),
    "rubis": (1.5, "52c1dc7fab5b7f43", 537157),
    "federation": (6.0, "b878d4b2f79882bd", 41518),
}

#: Supervised NFS run with a CPU hog injected through the control plane.
GOLDEN_SERVE = ("6f648fb29bc90d4c", 501903)


def gpa_digest(gpa):
    """One digest over the root GPA's interactions and class summaries."""
    parts = (
        trace_digest(gpa.query_interactions()),
        trace_digest(list(gpa.class_summaries)),
    )
    return hashlib.sha256("/".join(parts).encode("ascii")).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN_BATCH))
def test_batch_scenario_matches_golden(name):
    horizon, digest, events = GOLDEN_BATCH[name]
    scenario = build_scenario(name)
    try:
        scenario.cluster.run(until=horizon)
        scenario.sysprof.flush()
        observed = (
            gpa_digest(scenario.sysprof.gpa),
            scenario.sim.stats()["events_scheduled"],
        )
    finally:
        scenario.close()
    assert observed == (digest, events)


def test_supervised_run_with_a_control_matches_golden():
    supervisor = Supervisor("nfs", slice_width=0.1)
    try:
        client = ServiceClient(supervisor)
        supervisor.run(0.5)
        client.inject_fault(events=[{
            "at": 0.1, "kind": "cpu_hog", "target": "backend1",
            "params": {"duration": 0.5, "utilization": 0.9},
        }])
        supervisor.run(1.0)
        observed = (
            gpa_digest(supervisor.sysprof.gpa),
            supervisor.cluster.sim.stats()["events_scheduled"],
        )
    finally:
        supervisor.shutdown()
    assert observed == GOLDEN_SERVE
