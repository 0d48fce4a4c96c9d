"""Preemptive priority CPU with quantum round-robin and context-switch cost.

The CPU serves three bands (see :mod:`repro.ossim.task`):

* ``BAND_IRQ`` — interrupt work; runs to completion, preempts lower bands
  immediately (this is the "system-level asynchrony" the paper names as
  the reason middleware cannot account for kernel resource usage);
* ``BAND_KERNEL`` — kernel daemons;
* ``BAND_USER`` — user tasks, time-sliced round-robin.

Work is submitted as ``(task, seconds, mode)`` items; the returned
waitable (the :class:`WorkItem` itself) triggers with a ``(start, end)``
tuple when the cumulative grant reaches the requested amount, letting
callers backfill precise per-layer event timestamps for contiguous
segments.
"""

from collections import deque

from repro.sim.engine import Waitable
from repro.sim.errors import Interrupt
from repro.sim.resources import Gate
from repro.ossim.task import BAND_IRQ, TASK_READY, TASK_RUNNING
from repro.ossim import tracepoints as tp

_EPSILON = 1e-12


class WorkItem(Waitable):
    """One CPU charge, and its own completion waitable."""

    __slots__ = (
        "task", "remaining", "total", "mode", "band",
        "started_at", "submitted_at", "attribution",
    )

    def __init__(self, sim, task, amount, mode, band, submitted_at, attribution):
        Waitable.__init__(self, sim)
        self.task = task
        self.remaining = amount
        self.total = amount
        self.mode = mode
        self.band = band
        self.started_at = None
        self.submitted_at = submitted_at
        # Ledger category tag: None (default by task/mode), a category
        # string, or ((category, seconds), ...) pairs summing to amount.
        self.attribution = attribution


class Cpu:
    """A single core; the paper's testbed nodes were uniprocessors."""

    __slots__ = (
        "sim", "kernel", "costs", "index", "_queues", "_wakeup",
        "_running", "_last_task", "busy_time", "mode_time",
        "ctx_switch_count", "cpu_set", "_proc",
    )

    def __init__(self, sim, kernel, costs, index=0):
        self.sim = sim
        self.kernel = kernel
        self.costs = costs
        self.index = index
        self._queues = (deque(), deque(), deque())
        self._wakeup = Gate(sim)
        self._running = None
        self._last_task = None
        self.busy_time = 0.0
        self.mode_time = {"user": 0.0, "kernel": 0.0, "ctx": 0.0}
        self.ctx_switch_count = 0
        self.cpu_set = None  # populated when this core belongs to a CpuSet
        self._proc = sim.process(
            self._loop(), name="cpu{}@{}".format(index, kernel.name)
        )

    # ------------------------------------------------------------------

    def submit(self, task, amount, mode="user", band=None, attribution=None):
        """Request ``amount`` seconds of CPU; returns a waitable -> (start, end).

        ``attribution`` tags the charge for the observability ledger
        (see :class:`WorkItem`); it is pure bookkeeping and never
        affects scheduling.
        """
        if amount < 0:
            raise ValueError("negative CPU demand: {}".format(amount))
        if band is None:
            band = task.band if task is not None else BAND_IRQ
        sim = self.sim
        if amount <= _EPSILON:
            return Waitable(sim).succeed((sim.now, sim.now))
        item = WorkItem(sim, task, amount, mode, band, sim.now, attribution)
        self._queues[band].append(item)
        running = self._running
        if running is None:
            self._wakeup.fire()
        elif band < running.band:
            self._proc.interrupt("preempt")
        return item

    @property
    def run_queue_length(self):
        return sum(len(q) for q in self._queues) + (1 if self._running else 0)

    def utilization(self, now):
        return self.busy_time / now if now > 0 else 0.0

    # ------------------------------------------------------------------

    def _pick(self):
        for queue in self._queues:
            if queue:
                return queue.popleft()
        return None

    def _loop(self):
        sim = self.sim
        costs = self.costs
        while True:
            item = self._pick()
            if item is None and self.cpu_set is not None:
                item = self.cpu_set.steal(self)
            if item is None:
                self._running = None
                try:
                    yield self._wakeup.wait()
                except Interrupt:
                    pass  # spurious: preempt landed after the slice ended
                continue

            self._running = item
            overhead = 0.0
            if item.task is not None and item.task is not self._last_task:
                overhead = costs.context_switch
                overhead += self.kernel.tracepoints.cost(tp.SCHED_SWITCH)
                self._fire_switch(self._last_task, item.task)
                self._last_task = item.task
                self.ctx_switch_count += 1
                item.task.ctx_switches += 1

            if item.task is not None:
                item.task.state = TASK_RUNNING
            if item.started_at is None:
                item.started_at = sim.now + overhead

            slice_target = item.remaining
            if item.band != BAND_IRQ:
                slice_target = min(costs.quantum, item.remaining)

            start = sim.now
            preempted = False
            full_overhead = overhead
            try:
                yield overhead + slice_target
                ran = slice_target
            except Interrupt:
                elapsed = sim.now - start
                ran = max(0.0, elapsed - overhead)
                overhead = min(overhead, elapsed)
                preempted = True

            self.busy_time += ran + overhead
            self.mode_time["ctx"] += overhead
            self.mode_time["user" if item.mode == "user" else "kernel"] += ran
            if item.task is not None:
                item.task.charge(item.mode, ran)
            ledger = self.kernel.ledger
            if ledger is not None and (ran > 0.0 or overhead > 0.0):
                self._attribute(ledger, item, ran, overhead, full_overhead)

            item.remaining -= ran
            if item.remaining <= _EPSILON:
                if item.task is not None and item.task.state == TASK_RUNNING:
                    item.task.state = TASK_READY
                item.succeed((item.started_at, sim.now))
            elif preempted:
                self._queues[item.band].appendleft(item)
            else:
                self._queues[item.band].append(item)
                if item.task is not None and item.task.state == TASK_RUNNING:
                    item.task.state = TASK_READY

    def _attribute(self, ledger, item, ran, overhead, full_overhead):
        """Hand the exact seconds just added to ``busy_time`` to the
        attribution ledger, split by category.

        Host-side bookkeeping only — no simulated state is touched.  The
        pieces are constructed so they sum to ``ran + overhead`` exactly
        (remainders land on the final share), keeping per-node ledger
        totals equal to ``busy_time`` bit-for-bit.
        """
        node = self.kernel.name
        task = item.task
        sticky = task.category if task is not None else None
        if overhead > 0.0:
            # Context-switch overhead: the sched_switch probe/analyzer
            # portion is monitoring cost; the base switch is charged to
            # whoever caused the switch (the incoming item's category).
            probe, analyzer = self.kernel.tracepoints.cost_split(tp.SCHED_SWITCH)
            monitoring = probe + analyzer
            if monitoring > 0.0 and overhead < full_overhead and full_overhead > 0.0:
                scale = overhead / full_overhead  # truncated by an interrupt
                probe *= scale
                analyzer *= scale
                monitoring = probe + analyzer
            if monitoring > overhead:  # subscriptions changed mid-slice
                probe = min(probe, overhead)
                analyzer = overhead - probe
                monitoring = overhead
            ledger.charge(node, sticky or "workload", overhead - monitoring)
            if monitoring > 0.0:
                ledger.charge(node, "probe", probe)
                ledger.charge(node, "analyzer", analyzer)
        if ran <= 0.0:
            return
        attribution = item.attribution
        if attribution is None:
            ledger.charge(node, sticky or "workload", ran)
        elif attribution.__class__ is str:
            ledger.charge(node, sticky or attribution, ran)
        else:
            # Composite charge: scale each (category, seconds) pair to
            # this slice; only the first (base) pair yields to the
            # task's sticky category.  The float remainder goes to the
            # last *nonzero* pair so zero-cost monitoring pairs never
            # pick up a stray -0.0.
            scale = ran / item.total if item.total > 0.0 else 0.0
            last = 0
            for index in range(len(attribution) - 1, -1, -1):
                if attribution[index][1] > 0.0:
                    last = index
                    break
            charged = 0.0
            for index, (category, seconds) in enumerate(attribution):
                if index == 0 and sticky is not None:
                    category = sticky
                if index == last:
                    continue
                amount = seconds * scale
                charged += amount
                if amount != 0.0:
                    ledger.charge(node, category, amount)
            category = attribution[last][0]
            if last == 0 and sticky is not None:
                category = sticky
            ledger.charge(node, category, ran - charged)

    def _fire_switch(self, prev, nxt):
        self.kernel.tracepoints.fire(
            tp.SCHED_SWITCH,
            prev_pid=prev.pid if prev is not None else 0,
            prev_name=prev.name if prev is not None else "swapper",
            next_pid=nxt.pid,
            next_name=nxt.name,
        )


class CpuSet:
    """SMP: several cores behind one submission interface.

    The paper's testbed was uniprocessor, but its conclusion anticipates
    multi-core: "it won't be unusual to have a core dedicated to the
    analysis of the services that run on that platform".  The set routes:

    * interrupt work (``task is None``) to core 0, as commodity kernels
      default to;
    * pinned tasks (``task.affinity`` set) to their core;
    * everything else to the shortest run queue (deterministic
      tie-break by core index) — a simple load-balancing placement with
      per-burst migration.

    Aggregated accounting keeps the rest of the kernel (and SysProf's
    node statistics) oblivious to the core count.
    """

    __slots__ = ("sim", "kernel", "costs", "cores", "steals")

    def __init__(self, sim, kernel, costs, count):
        if count < 1:
            raise ValueError("a node needs at least one CPU")
        self.sim = sim
        self.kernel = kernel
        self.costs = costs
        self.cores = [Cpu(sim, kernel, costs, index=i) for i in range(count)]
        for core in self.cores:
            core.cpu_set = self
        self.steals = 0

    def __len__(self):
        return len(self.cores)

    def steal(self, thief):
        """Work stealing: an idle core pulls a queued (unpinned, non-IRQ)
        item from a sibling's run queue tail."""
        for core in self.cores:
            if core is thief:
                continue
            for band in (1, 2):  # kernel daemons first, then user
                queue = core._queues[band]
                for position in range(len(queue) - 1, -1, -1):
                    item = queue[position]
                    if item.task is None or item.task.affinity is not None:
                        continue
                    del queue[position]
                    self.steals += 1
                    return item
        return None

    def core(self, index):
        return self.cores[index]

    def submit(self, task, amount, mode="user", band=None, attribution=None):
        if task is None:
            target = self.cores[0]
        elif getattr(task, "affinity", None) is not None:
            target = self.cores[task.affinity]
        else:
            target = min(
                self.cores, key=lambda core: (core.run_queue_length, core.index)
            )
        return target.submit(
            task, amount, mode=mode, band=band, attribution=attribution
        )

    # -- aggregated accounting -----------------------------------------

    @property
    def busy_time(self):
        return sum(core.busy_time for core in self.cores)

    @property
    def mode_time(self):
        total = {"user": 0.0, "kernel": 0.0, "ctx": 0.0}
        for core in self.cores:
            for key, value in core.mode_time.items():
                total[key] += value
        return total

    @property
    def ctx_switch_count(self):
        return sum(core.ctx_switch_count for core in self.cores)

    @property
    def run_queue_length(self):
        return sum(core.run_queue_length for core in self.cores)

    def utilization(self, now):
        if now <= 0:
            return 0.0
        return self.busy_time / (now * len(self.cores))
