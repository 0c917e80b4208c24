"""The O(log N) complexity claim (paper contribution (c)), counted.

WF2Q+ does O(log N) work per packet, and H-WF2Q+ does that work once per
node on the packet's path.  The tests count the work instead of timing
it: every scheduler here changes its priority queues only through
:class:`~repro.dstruct.heap.IndexedHeap`, so patching the three
:mod:`heapq` calls that module makes (``heappush``, ``heappop``,
``heapreplace``) to add ``log2(max(2, len(heap)))`` per call charges
each sift its depth.  Counts are deterministic, so the bounds are tight
and the series in ``benchmarks/results/complexity_*.txt`` are rewritten
byte for byte by every run.

* flat WF2Q+ under saturated churn: work per packet <= A*log2(N) + B;
* a busy-period boundary costs O(1): bursts over 8 of N registered flows
  do the same work per packet at every N, counting each write of a
  flow's start tag too, which a busy-period tag reset makes;
* H-WF2Q+ on balanced trees: work per packet <= A*depth*log2(fanout) + B,
  and the work per level does not grow with depth;
* WFQ's exact GPS pays O(N): one advance handles the session-empty
  events of all N sessions that drain together.

The teeth: a node policy that selects by scanning its children, charged
to the same counter, breaks both bounds, as a one-level tree (a flat
scheduler) and inside deeper trees; and a WF2Q+ that zeroes every flow's
tags when a busy period starts does work per packet that grows with N.
"""

from fractions import Fraction
from math import log2

import pytest

import repro.dstruct.heap as heap_module
from repro.config.hierarchy_spec import leaf, node
from repro.core.hierarchy import HPFQScheduler, NodePolicy
from repro.core.packet import Packet
from repro.core.scheduler import FlowState
from repro.core.wf2qplus import WF2QPlusScheduler
from repro.core.wfq import WFQScheduler

from benchmarks.conftest import run_once

#: Work per packet <= A * (sum over the path of log2(fanout)) + B.
A, B = 3.5, 4

LENGTH = 8000          # bits; an int, so H-WF2Q+ domains count quanta
RATE = Fraction(10**9)

FLAT_SIZES = (16, 64, 256, 1024, 4096)
#: depth x fanout, capped at 4096 leaves.
GRID = [(depth, fanout) for depth in (1, 2, 3, 4)
        for fanout in (2, 4, 8, 16, 32, 64) if fanout ** depth <= 4096]


class Work:
    """The shared counter: heap sifts and linear scans add to ``total``."""

    total = 0.0


@pytest.fixture
def counted_heaps(monkeypatch):
    """Charge every heapq call IndexedHeap makes its log2 sift depth."""
    for name in ("heappush", "heappop", "heapreplace"):
        op = getattr(heap_module, name)

        def call(heap, *args, op=op):
            Work.total += log2(max(2, len(heap)))
            return op(heap, *args)

        monkeypatch.setattr(heap_module, name, call)
    Work.total = 0.0


@pytest.fixture
def counted_tag_writes(monkeypatch):
    """Also charge 1 for every write of a flow's start tag."""
    slot = FlowState.start_tag

    class Counted:
        def __get__(self, obj, cls=None):
            return slot if obj is None else slot.__get__(obj, cls)

        def __set__(self, obj, value):
            Work.total += 1
            slot.__set__(obj, value)

    monkeypatch.setattr(FlowState, "start_tag", Counted())


class EagerResetWF2QPlus(WF2QPlusScheduler):
    """WF2Q+ that zeroes every flow's tags when a busy period starts,
    instead of bumping the epoch that zeroes each flow on its next use."""

    def _on_enqueue(self, state, packet, now, was_flow_empty, was_idle):
        if was_idle and now >= self._free_at:
            for other in self._flows.values():
                other.start_tag = other.finish_tag = 0
        super()._on_enqueue(state, packet, now, was_flow_empty, was_idle)


class LinearScanPolicy(NodePolicy):
    """H-WF2Q+'s node selection (SEFF, V = max(V, Smin) + L/r) done by
    scanning every headed child; each scan is charged to the counter."""

    name = "linear-scan"

    def __init__(self, node_obj):
        super().__init__(node_obj)
        self._headed = {}
        self._threshold = 0

    def child_head_set(self, child):
        self._headed[child] = None

    def child_head_cleared(self, child):
        self._headed.pop(child, None)

    def select(self):
        headed = self._headed
        Work.total += len(headed)
        if not headed:
            return None
        threshold = max(self.node.virtual,
                        min(child.start_tag for child in headed))
        self._threshold = threshold
        return min((child for child in headed
                    if child.start_tag <= threshold),
                   key=lambda child: (child.finish_tag, child.child_index))

    def on_select(self, child, length):
        node_obj = self.node
        node_obj.virtual = self._threshold + node_obj.own_span(length)
        node_obj.served += length


def flat(n, cls=WF2QPlusScheduler):
    sched = cls(RATE)
    for f in range(n):
        sched.add_flow(f, 1 + f % 3)
    return sched


def tree(depth, fanout, policy="wf2qplus"):
    """A balanced H-PFQ tree with ``fanout ** depth`` leaves."""
    names = iter(range(fanout ** depth))

    def build(level, label):
        if level == depth:
            name = next(names)
            return leaf(name, 1 + name % 3)
        return node(label, 1, [build(level + 1, f"{label}.{k}")
                               for k in range(fanout)])

    return HPFQScheduler(build(0, "root"), RATE, policy=policy)


def churn_work(sched, packets, backlog=2):
    """Work per packet of saturated churn: every flow starts with
    ``backlog`` packets and is sent a new one each time it is served."""
    for fid in sched.flow_ids:
        for _ in range(backlog):
            sched.enqueue(Packet(fid, LENGTH), now=0)
    Work.total = 0.0
    for _ in range(packets):
        rec = sched.dequeue()
        sched.enqueue(Packet(rec.flow_id, LENGTH), now=rec.finish_time)
    return Work.total / packets


def bursty_work(sched, bursts=150, burst_flows=8, per_flow=2):
    """Work per packet of bursts that each backlog ``burst_flows`` flows
    (rotating through the population) and then drain the system, so
    every burst starts a new busy period."""
    flow_ids = sched.flow_ids
    n = len(flow_ids)
    now = 0
    Work.total = 0.0
    for b in range(bursts):
        for j in range(burst_flows):
            fid = flow_ids[(b * burst_flows + j) % n]
            for _ in range(per_flow):
                sched.enqueue(Packet(fid, LENGTH), now=now)
        while not sched.is_empty:
            rec = sched.dequeue()
        now = rec.finish_time + 1
    return Work.total / (bursts * burst_flows * per_flow)


def wfq_boundary_events(n):
    """Session-empty events one GPS advance handles after n WFQ sessions
    with equal shares and lengths were served: their fluid service all
    ends at one instant, when the packet system sends its last bit."""
    sched = WFQScheduler(RATE)
    for f in range(n):
        sched.add_flow(f, 1)
    for f in range(n):
        sched.enqueue(Packet(f, LENGTH), now=0)
    while not sched.is_empty:
        rec = sched.dequeue()
    gps = sched.gps
    backlogged = len(gps.backlogged_flows())
    # Past that instant: int shares give float GPS tags, which can land
    # just after the exact Fraction time.
    gps.advance(rec.finish_time + 1)
    return backlogged - len(gps.backlogged_flows())


def bound(levels):
    """A * sum(log2 fanout) + B for a path through ``levels`` fanouts."""
    return A * sum(log2(fanout) for fanout in levels) + B


def flat_series(build, sizes=FLAT_SIZES):
    return [(n, churn_work(build(n), max(3000, 2 * n))) for n in sizes]


def grid_series(policy):
    """One packet per leaf, re-enqueued when served, until every leaf
    has been served twice."""
    return [(depth, fanout, churn_work(tree(depth, fanout, policy),
                                       2 * fanout ** depth, backlog=1))
            for depth, fanout in GRID]


def test_wf2qplus_work_is_logarithmic(benchmark, counted_heaps,
                                      results_writer):
    series = run_once(benchmark, flat_series, flat)
    results_writer("complexity_wf2qplus.txt", [
        "# WF2Q+ saturated churn: heap work per packet (sum of log2 heap"
        " size) vs N",
        *(f"{n:5d} {work:.3f}" for n, work in series),
    ])
    for n, work in series:
        assert work <= bound([n]), (n, work)


def test_wf2qplus_busy_period_boundary_is_constant(benchmark, counted_heaps,
                                                   counted_tag_writes,
                                                   results_writer):
    """Epoch-based lazy tag reset: a boundary costs O(1), not O(N)."""
    series = run_once(benchmark, lambda: [(n, bursty_work(flat(n)))
                                          for n in FLAT_SIZES])
    results_writer("complexity_bursty.txt", [
        "# WF2Q+ bursts of 8 flows: heap work plus start-tag writes per"
        " packet vs registered N",
        *(f"{n:5d} {work:.3f}" for n, work in series),
    ])
    assert max(work for _n, work in series) <= series[0][1], series


def test_hwf2qplus_work_is_logarithmic_per_level(benchmark, counted_heaps,
                                                 results_writer):
    series = run_once(benchmark, grid_series, "wf2qplus")
    results_writer("complexity_hwf2qplus.txt", [
        "# H-WF2Q+ balanced trees: heap work per packet, and per level,"
        " vs depth x fanout",
        "# depth fanout leaves work/pkt work/level",
        *(f"{d} {f:3d} {f ** d:5d} {work:8.3f} {work / d:7.3f}"
          for d, f, work in series),
    ])
    for depth, fanout, work in series:
        assert work <= bound([fanout] * depth), (depth, fanout, work)
    per_level = {}
    for depth, fanout, work in series:
        per_level.setdefault(fanout, []).append(work / depth)
    for fanout, levels in per_level.items():
        assert max(levels) <= levels[0], (fanout, levels)


def test_wfq_boundary_work_is_linear_in_n(benchmark, results_writer):
    """WFQ's exact GPS pays O(N) when all N sessions drain together."""
    rows = run_once(benchmark, lambda: [(n, wfq_boundary_events(n))
                                        for n in (16, 64, 256, 1024)])
    results_writer("complexity_wfq.txt", [
        "# WFQ: session-empty events handled by one GPS advance vs N",
        *(f"{n:5d} {events}" for n, events in rows),
    ])
    assert all(events == n for n, events in rows), rows


def test_linear_scan_breaks_the_flat_bound(counted_heaps):
    """A one-level tree selecting by linear scan: O(N) per packet."""
    series = flat_series(lambda n: tree(1, n, LinearScanPolicy),
                         sizes=(16, 64, 256))
    assert any(work > bound([n]) for n, work in series), series


def test_linear_scan_breaks_the_per_level_bound(counted_heaps):
    series = grid_series(LinearScanPolicy)
    assert any(work > bound([fanout] * depth)
               for depth, fanout, work in series), series


def test_eager_tag_reset_breaks_the_boundary_bound(counted_heaps,
                                                   counted_tag_writes):
    series = [(n, bursty_work(flat(n, EagerResetWF2QPlus)))
              for n in FLAT_SIZES]
    assert max(work for _n, work in series) > series[0][1], series
