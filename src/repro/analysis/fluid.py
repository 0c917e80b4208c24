"""Batched GPS fluid reference: whole-trace tag and finish computation.

:class:`~repro.core.gps.GPSFluidSystem` is an *online* fluid server — one
``arrive`` per packet, a heap push per tag, a heap-ordered session-empty
scan per ``advance``.  That is the right shape for the packet schedulers
that embed it, but the analysis suites use GPS differently: the whole
arrival trace is known up front and only the virtual tags and real fluid
finish times are wanted.  Driving the event loop packet-by-packet there
is pure overhead — it dominates the bound-validation tests, whose GPS
reference is recomputed for every (scheduler, N) cell.

:func:`fluid_finish_times` computes the same quantities trace-at-a-time:

1. **Tag pass** (sequential over *arrival instants*, vectorized within):
   packets of one flow arriving at one instant chain as
   ``F_k = F_{k-1} + L_k / (phi_i * r)`` from
   ``base = max(F_prev, V(t))`` — a cumulative sum, computed with numpy
   for large bursts and a plain loop otherwise.  Between instants the
   fluid state advances exactly like the online system (session-empty
   events from a lazily-invalidated heap), but there is one such event
   per *(flow, instant)* group rather than per packet.
2. **Polyline pass**: every continuous advance appends one segment
   ``(v_start, t_start, sum_phi)`` of the piecewise-linear ``V``; the
   trace's busy periods each own an ascending segment array.
3. **Finish pass** (vectorized): each packet's real fluid finish is its
   virtual finish mapped through its busy period's polyline —
   ``t_seg + (F - v_seg) * sum_phi_seg``, the very expression
   ``GPSFluidSystem._emit_departures`` evaluates, located with one
   ``searchsorted`` per busy period.

Numerics contract (pinned by ``tests/test_fluid_batch.py``): for float
inputs the batched path is **bit-equivalent** to driving
:class:`~repro.core.gps.GPSFluidSystem` — same IEEE-754 expression
sequence on the same operands in the same order (``numpy.cumsum``
accumulates left-to-right, matching the online chain).  ``exact=True``
bypasses the batching entirely and drives the online system, which is
also the path to use for ``Fraction`` inputs: the batched lanes coerce
nothing, but ``searchsorted``/``cumsum`` only see floats on the numpy
lane, so exact arithmetic stays a first-class citizen only through the
online system.  Assertions that need Fraction-faithful GPS (checkpoint
digests, exact-tie service order) should pass ``exact=True``.

numpy is optional: without it the same expressions run in plain loops
(both lanes pinned identical by the differential suite).  This is the
only module that imports it, so numpy loads only with ``repro.analysis``,
never on the simulator's import path.
"""

import heapq
import itertools
from bisect import bisect_left

from repro.core.gps import GPSFluidSystem, GPSPacket
from repro.errors import (
    ConfigurationError,
    DuplicateFlowError,
    UnknownFlowError,
)

try:
    import numpy as _np
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised on numpy-less hosts
    _np = None
    HAVE_NUMPY = False

__all__ = ["fluid_finish_times"]

#: Below this many elements the plain-Python loop beats the numpy call
#: overhead (ufunc dispatch + array creation).
NUMPY_MIN_CHUNK = 16


class _Flow:
    __slots__ = ("flow_id", "phi", "last_finish", "final_finish",
                 "backlogged")

    def __init__(self, flow_id):
        self.flow_id = flow_id
        self.phi = 0.0
        self.last_finish = 0
        self.final_finish = 0
        self.backlogged = False


class _Fluid:
    """The sequential fluid state of the tag pass (one per trace)."""

    __slots__ = ("rate", "flows", "t", "v", "sum_phi", "backlogged",
                 "events", "seq", "period", "v_starts", "t_starts", "phis")

    def __init__(self, rate, flows):
        self.rate = rate
        self.flows = flows
        self.t = 0
        self.v = 0
        self.sum_phi = 0
        self.backlogged = set()
        self.events = []            # (final_finish, seq, _Flow), lazy
        self.seq = itertools.count()
        self.period = -1            # current busy-period index
        # Per busy period: ascending polyline segment columns.
        self.v_starts = []
        self.t_starts = []
        self.phis = []

    # -- polyline ------------------------------------------------------
    def _segment(self):
        """Open a new polyline segment at the current (v, t, slope)."""
        self.v_starts[self.period].append(self.v)
        self.t_starts[self.period].append(self.t)
        self.phis[self.period].append(self.sum_phi)

    # -- event processing (mirrors GPSFluidSystem.advance) -------------
    def _peek(self):
        events = self.events
        while events:
            tag, _seq, flow = events[0]
            if flow.backlogged and tag == flow.final_finish:
                return tag, flow
            heapq.heappop(events)
        return None

    def advance(self, now):
        while self.backlogged:
            event = self._peek()
            if event is None:
                break
            tag, flow = event
            dt = (tag - self.v) * self.sum_phi
            t_reach = self.t + dt
            if t_reach <= now:
                if tag > self.v:
                    self._segment()
                    self.v = tag
                    self.t = t_reach
                flow.backlogged = False
                self.backlogged.discard(flow.flow_id)
                self.sum_phi -= flow.phi
                if not self.backlogged:
                    self.sum_phi = 0  # kill numeric residue
                heapq.heappop(self.events)
            else:
                break
        if self.backlogged and now > self.t:
            self._segment()
            self.v = self.v + (now - self.t) / self.sum_phi
        self.t = max(self.t, now)

    def drain(self):
        """Advance until the system empties (all tags crossed)."""
        while self.backlogged:
            event = self._peek()
            if event is None:
                break
            tag, _flow = event
            self.advance(self.t + (tag - self.v) * self.sum_phi)


def _group_tags(fluid, flow, lengths, rate):
    """Virtual tags of one (flow, instant) burst; returns (starts, finishes).

    The chain ``F_k = F_{k-1} + L_k / (phi * r)`` from
    ``base = max(F_prev, V)`` is exactly the online system's per-packet
    recurrence; numpy's left-to-right ``cumsum`` reproduces its rounding
    bit-for-bit, so the lanes differ only in speed.
    """
    base = flow.last_finish
    if fluid.v > base:
        base = fluid.v
    denom = flow.phi * rate
    n = len(lengths)
    if HAVE_NUMPY and n >= NUMPY_MIN_CHUNK:
        deltas = _np.empty(n + 1)
        deltas[0] = base
        _np.divide(_np.asarray(lengths, dtype=_np.float64), denom,
                   out=deltas[1:])
        finishes = _np.cumsum(deltas)[1:]
        starts = [base] + [float(f) for f in finishes[:-1]]
        finishes = [float(f) for f in finishes]
        return starts, finishes
    starts = []
    finishes = []
    acc = base
    for length in lengths:
        starts.append(acc)
        acc = acc + length / denom
        finishes.append(acc)
    return starts, finishes


def _map_finishes(fluid, packets, periods):
    """Fill ``finish_time`` by inverting F through each period's polyline."""
    by_period = {}
    for pkt, period in zip(packets, periods):
        by_period.setdefault(period, []).append(pkt)
    for period, members in by_period.items():
        v_starts = fluid.v_starts[period]
        t_starts = fluid.t_starts[period]
        phis = fluid.phis[period]
        if HAVE_NUMPY and len(members) >= NUMPY_MIN_CHUNK:
            v_arr = _np.asarray(v_starts)
            finishes = _np.asarray([p.virtual_finish for p in members],
                                   dtype=_np.float64)
            idx = _np.searchsorted(v_arr, finishes, side="left") - 1
            _np.clip(idx, 0, len(v_starts) - 1, out=idx)
            for pkt, i in zip(members, idx):
                i = int(i)
                pkt.finish_time = (t_starts[i]
                                   + (pkt.virtual_finish - v_starts[i])
                                   * phis[i])
        else:
            for pkt in members:
                i = bisect_left(v_starts, pkt.virtual_finish) - 1
                if i < 0:
                    i = 0
                pkt.finish_time = (t_starts[i]
                                   + (pkt.virtual_finish - v_starts[i])
                                   * phis[i])


def _exact(flows, arrivals, rate):
    system = GPSFluidSystem(rate)
    for flow_id, share in flows:
        system.add_flow(flow_id, share)
    packets = [system.arrive(flow_id, length, when)
               for flow_id, length, when in arrivals]
    system.finish_order()  # drain: fills every finish_time in place
    return packets


def fluid_finish_times(flows, arrivals, rate, exact=False):
    """GPS virtual tags and real fluid finish times for a whole trace.

    ``flows`` is ``[(flow_id, share), ...]``; ``arrivals`` is
    ``[(flow_id, length, arrival_time), ...]`` with non-decreasing
    arrival times.  Returns one :class:`~repro.core.gps.GPSPacket` per
    arrival **in input order**, with ``virtual_start`` /
    ``virtual_finish`` / ``finish_time`` filled — the quantities the
    WFI/delay analyses compare packet systems against.

    ``exact=True`` drives the online
    :class:`~repro.core.gps.GPSFluidSystem` instead (required for
    ``Fraction``-faithful results; bit-identical for floats — see the
    module docstring).
    """
    arrivals = list(arrivals)
    if exact:
        return _exact(flows, arrivals, rate)
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate!r}")
    registry = {}
    total = 0
    for flow_id, share in flows:
        if share <= 0:
            raise ConfigurationError(
                f"flow {flow_id!r}: share must be positive, got {share!r}")
        if flow_id in registry:
            raise DuplicateFlowError(flow_id)
        registry[flow_id] = _Flow(flow_id)
        total += share
    for flow_id, share in flows:
        registry[flow_id].phi = share / total
    fluid = _Fluid(rate, registry)

    packets = []
    periods = []
    uids = itertools.count()
    index = 0
    n = len(arrivals)
    last_t = None
    while index < n:
        when = arrivals[index][2]
        if last_t is not None and when < last_t:
            raise ValueError(
                f"arrival times must be non-decreasing: {when!r} after "
                f"{last_t!r}")
        last_t = when
        # One instant: every arrival sharing this timestamp.
        stop = index
        while stop < n and arrivals[stop][2] == when:
            stop += 1
        fluid.advance(when)
        if not fluid.backlogged:
            # New system busy period: V restarts at zero and every stale
            # finish tag is irrelevant (all packets served).
            fluid.v = 0
            for flow in registry.values():
                flow.last_finish = 0
            fluid.period += 1
            fluid.v_starts.append([])
            fluid.t_starts.append([])
            fluid.phis.append([])
        # Group the instant's packets by flow (per-flow chaining is
        # interleaving-independent: V is frozen within the instant).
        groups = {}
        for k in range(index, stop):
            flow_id, length, _t = arrivals[k]
            if length <= 0:
                raise ValueError(
                    f"length must be positive, got {length!r}")
            if flow_id not in registry:
                raise UnknownFlowError(flow_id)
            groups.setdefault(flow_id, ([], []))
            groups[flow_id][0].append(length)
            groups[flow_id][1].append(k)
        slots = [None] * (stop - index)
        for flow_id, (lengths, where) in groups.items():
            flow = registry[flow_id]
            starts, finishes = _group_tags(fluid, flow, lengths, rate)
            for length, k, s, f in zip(lengths, where, starts, finishes):
                slots[k - index] = GPSPacket(
                    next(uids), flow_id, length, when, s, f)
            flow.last_finish = finishes[-1]
            flow.final_finish = finishes[-1]
            heapq.heappush(fluid.events,
                           (finishes[-1], next(fluid.seq), flow))
            if not flow.backlogged:
                flow.backlogged = True
                fluid.backlogged.add(flow_id)
                fluid.sum_phi += flow.phi
        packets.extend(slots)
        periods.extend([fluid.period] * (stop - index))
        index = stop
    fluid.drain()
    _map_finishes(fluid, packets, periods)
    return packets
