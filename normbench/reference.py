"""The reference chunk and the arithmetic that normalizes host time.

Raw wall-clock seconds on a shared host drift by tens of percent from
one second to the next, however long a run lasts.  The benchmark
therefore never reports a raw host time.  After every simulated slice it
runs one fixed *reference chunk* -- the same Python work every time --
and divides each timed interval by the speed of the reference chunks
right beside it.  A host that is 1.3x slower for a while slows the slice
and its neighbouring chunks alike, so the ratio holds still.

The chunk must look like the program, or it slows down by a different
factor than the program does when a neighbour takes the core.  It walks
a pointer chain through a world of a hundred thousand small objects,
looks cells up in a large dict, pushes and pops list-shaped heap
entries, resumes a generator and updates a dict of counters, as the
event engine, process trampoline and aggregation tiers do over their
own large heaps.  A small cache-resident loop over the same operations
over-corrected by several percent whenever the host slowed down.  The
chunk runs with the cyclic garbage collector paused, so a collection
triggered by the program's own garbage is not charged to it.

The chunk shares the caches with the program, so the program's own
memory traffic slows it as well.  A change that makes the program touch
more memory therefore also slows the chunks beside its slices, and part
of its own regression is divided out; a change that touches less memory
reads slightly slow.  :meth:`Reference.isolated` times the chunk once
it has recovered from the program's last slice, and the run reports the
ratio of the two (``raw.ref_inflation``).

DO NOT EDIT the chunk, the world or :data:`NOMINAL_REF_S`: every
normalized number the benchmark has printed is in units of this chunk.
"""

import gc
import heapq
import os
import random
import time

#: Host seconds one reference chunk is defined to take.  A normalized
#: interval reads "seconds at reference speed": ``raw * NOMINAL_REF_S /
#: measured_ref_s``.
NOMINAL_REF_S = 0.006

#: Cells in the reference world, and steps in one chunk (about 6 ms on
#: a 2-core x86-64 VM with CPython 3.11).
WORLD_CELLS = 131072
CHUNK_STEPS = 4000
WORLD_SEED = 7

#: Untimed chunks :meth:`Reference.isolated` runs first: after a slice
#: of program work the chunk takes two more runs to come back to the
#: speed it has with no program work at all.
ISOLATED_WARMUP = 2


class _Cell:
    __slots__ = ("key", "nxt", "hits")


def _resumer(total):
    """A generator resumed once per heap pop, as sim processes are."""
    while True:
        value = yield total
        total += value & 0xFF


def _rss_mb():
    """Current resident set size (Linux ``/proc``), in MiB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


class Reference:
    """The reference world plus the chunk that runs over it.

    Build one per process, before the program allocates anything, and
    keep it for the whole run: ``footprint_mb`` is the resident memory
    the world itself adds, so a peak-memory metric can leave it out.
    """

    def __init__(self):
        before = _rss_mb()
        rng = random.Random(WORLD_SEED)
        order = list(range(WORLD_CELLS))
        rng.shuffle(order)
        self.cells = []
        for key in order:
            cell = _Cell()
            cell.key = key
            cell.hits = 0
            self.cells.append(cell)
        for index, cell in enumerate(self.cells):
            cell.nxt = self.cells[order[index]]
        self.table = {cell.key: cell for cell in self.cells}
        self.footprint_mb = max(0.0, _rss_mb() - before)

    def chunk(self):
        """The fixed reference work; returns a checksum so it is consumed."""
        table = self.table
        size = len(self.cells)
        heap = []
        counts = {}
        gen = _resumer(0)
        next(gen)
        push = heapq.heappush
        pop = heapq.heappop
        cell = self.cells[0]
        acc = 0
        for step in range(CHUNK_STEPS):
            cell = cell.nxt
            cell.hits = (cell.hits + 1) & 255
            other = table[(step * 40503) % size]
            push(heap, [cell.key, step, other])
            if len(heap) > 32:
                entry = pop(heap)
                slot = entry[2].key & 15
                counts[slot] = counts.get(slot, 0) + 1
                acc = gen.send(entry[1])
        return acc + len(counts)

    def timed(self):
        """Run one chunk with the cyclic GC paused; return its seconds."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.chunk()
            return time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()

    def isolated(self):
        """Seconds of one chunk timed after :data:`ISOLATED_WARMUP`
        others, as if no program work had come before it."""
        for _ in range(ISOLATED_WARMUP):
            self.timed()
        return self.timed()


def normalize(raw_s, ref_before_s, ref_after_s):
    """``raw_s`` in seconds at reference speed, judged by the two chunks
    timed right before and right after the interval."""
    ref = 0.5 * (ref_before_s + ref_after_s)
    if ref <= 0.0:
        raise ValueError("reference chunk timed at {} s".format(ref))
    return raw_s * NOMINAL_REF_S / ref
