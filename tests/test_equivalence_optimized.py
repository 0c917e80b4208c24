"""Packet-for-packet equivalence of the optimized hot paths.

The hot-path engineering (epoch-based lazy busy-period resets, cached
inverse rates, single-sift ``replace_top``/``update`` heap re-keying) must
be *observably invisible*: the optimized WF2Q+ and H-WF2Q+ must produce
exactly the same service order, service times and virtual tags as a naive
transliteration of the paper's equations.

This file keeps two deliberately naive references:

* :class:`NaiveWF2QPlus` — eqs. (27)-(29) with O(N) list scans, an eager
  O(N) tag sweep at every busy-period boundary, and plain divisions by
  ``r_i``;
* :class:`NaiveWF2QPlusNodePolicy` — the RESTART-NODE selection rule with
  list scans and divisions, plugged into the shared H-PFQ shell.

Arithmetic note: the optimized code computes ``L * (1/r)`` where the
naive code computes ``L / r``.  The float workloads therefore use shares
and link rates chosen so every guaranteed rate is a power of two (both
expressions are then exact and bit-identical), and one workload runs
entirely under :class:`fractions.Fraction`, where all arithmetic is exact
regardless of the shares — that run uses the awkward shares.
"""

import random
from fractions import Fraction as Fr

from repro.config import leaf, node
from repro.core.hierarchy import HPFQScheduler, NodePolicy
from repro.core.packet import Packet
from repro.core.scheduler import PacketScheduler, ScheduledPacket
from repro.core.wf2qplus import WF2QPlusScheduler


# ----------------------------------------------------------------------
# Naive references
# ----------------------------------------------------------------------
class NaiveWF2QPlus(PacketScheduler):
    """WF2Q+ by direct transliteration: scans, sweeps and divisions."""

    name = "WF2Q+naive"
    seff = True

    def __init__(self, rate):
        super().__init__(rate)
        self._virtual = 0
        self._virtual_stamp = 0

    def _r(self, state):
        return state.config.share / self._total_share * self.rate

    def _set_head_tags(self, state, was_flow_empty):
        head = state.head()
        if was_flow_empty:
            state.start_tag = max(state.finish_tag, self._virtual)
        else:
            state.start_tag = state.finish_tag
        state.finish_tag = state.start_tag + head.length / self._r(state)

    def _on_enqueue(self, state, packet, now, was_flow_empty, was_idle):
        if was_idle and now >= self._free_at:
            # Eager busy-period boundary: sweep every flow's tags.
            self._virtual = 0
            self._virtual_stamp = now
            for st in self._flows.values():
                st.start_tag = 0
                st.finish_tag = 0
        if was_flow_empty:
            self._virtual = self._virtual + (now - self._virtual_stamp)
            self._virtual_stamp = now
            self._set_head_tags(state, True)

    def _select_flow(self, now):
        backlogged = [st for st in self._flows.values() if st.queue]
        # eq. (27) with the min-S floor, by scan.
        v = self._virtual + (now - self._virtual_stamp)
        min_start = min(st.start_tag for st in backlogged)
        if min_start > v:
            v = min_start
        self._virtual = v
        self._virtual_stamp = now
        eligible = [st for st in backlogged if st.start_tag <= v]
        return min(eligible, key=lambda st: (st.finish_tag, st.index))

    def _on_dequeued(self, state, packet, now):
        if state.queue:
            self._set_head_tags(state, False)

    def _make_record(self, state, packet, now, finish):
        return ScheduledPacket(
            packet, now, finish,
            virtual_start=state.start_tag,
            virtual_finish=state.finish_tag,
        )

    def system_virtual_time(self, now=None):
        return self._virtual


class NaiveWF2QPlusNodePolicy(NodePolicy):
    """RESTART-NODE selection with list scans and divisions."""

    name = "wf2qplus-naive"

    def __init__(self, node_obj):
        super().__init__(node_obj)
        self._headed = []

    def child_head_set(self, child):
        if child not in self._headed:
            self._headed.append(child)

    def child_head_cleared(self, child):
        if child in self._headed:
            self._headed.remove(child)

    def select(self):
        headed = self._headed
        if not headed:
            return None
        threshold = max(self.node.virtual,
                        min(c.start_tag for c in headed))
        eligible = [c for c in headed if c.start_tag <= threshold]
        return min(eligible, key=lambda c: (c.finish_tag, c.child_index))

    def on_select(self, child, length):
        node_obj = self.node
        smin = min(c.start_tag for c in self._headed)
        node_obj.virtual = max(node_obj.virtual, smin) + length / node_obj.rate
        node_obj.served += length

    def reset(self):
        self._headed.clear()


class _NullSink:
    """Minimal observer: forces the eager reset path in H-PFQ."""

    def accept(self, event):
        pass


# ----------------------------------------------------------------------
# Workload driving
# ----------------------------------------------------------------------
def drive(sched, arrivals):
    """Feed sorted ``(time, seq, flow_id, length)`` arrivals; greedy server.

    Returns the observable transcript: one
    ``(flow_id, start_time, finish_time, virtual_start, virtual_finish)``
    tuple per transmitted packet.
    """
    out = []
    idx, n = 0, len(arrivals)
    while idx < n or not sched.is_empty:
        next_arr = arrivals[idx][0] if idx < n else None
        if sched.is_empty:
            t, _seq, fid, length = arrivals[idx]
            idx += 1
            sched.enqueue(Packet(fid, length, arrival_time=t), now=t)
            continue
        free = max(sched.clock, sched.busy_until)
        if next_arr is not None and next_arr <= free:
            t, _seq, fid, length = arrivals[idx]
            idx += 1
            sched.enqueue(Packet(fid, length, arrival_time=t), now=t)
        else:
            rec = sched.dequeue()
            out.append((rec.flow_id, rec.start_time, rec.finish_time,
                        rec.virtual_start, rec.virtual_finish))
    return out


def fig2_style_arrivals(one=1):
    """One dominant flow with a back-to-back train, 10 one-packet flows."""
    arrivals = [(0 * one, k, "A", one) for k in range(11)]
    arrivals += [(0 * one, 100 + i, f"f{i}", one) for i in range(1, 11)]
    return sorted(arrivals)


def bursty_arrivals(flow_ids, seed=3, bursts=40, one=1.0):
    """Small on/off bursts with guaranteed-drain gaps between them."""
    rng = random.Random(seed)
    arrivals, t, seq = [], 0.0, 0
    for _ in range(bursts):
        active = rng.sample(flow_ids, rng.randint(1, 4))
        for fid in active:
            for _ in range(rng.randint(1, 2)):
                arrivals.append(
                    (t + rng.random() * 0.25, seq, fid,
                     rng.choice([one / 2, one, 2 * one])))
                seq += 1
        # 8 packets x at most 2 bits at rate 16 always drain within 1 s.
        t += 2.5 + rng.random()
    return sorted(arrivals)


def _add_pow2_flows(sched):
    """Shares summing to 16 with per-flow rates that are powers of two."""
    for i, share in enumerate([4, 2, 1, 1, 4, 2, 1, 1]):
        sched.add_flow(f"f{i}", share)


def pow2_tree():
    """Two-level spec whose node rates are all powers of two (rate=16)."""
    return node("root", 1, [
        node("g0", 1, [leaf("a", 1), leaf("b", 1), leaf("c", 2)]),
        node("g1", 1, [leaf("d", 2), leaf("e", 2), leaf("f", 4)]),
    ])


def awkward_tree():
    """Two-level spec with non-binary shares (Fraction workloads only)."""
    return node("root", 1, [
        node("g0", 2, [leaf("a", 1), leaf("b", 2), leaf("c", 3)]),
        node("g1", 1, [leaf("d", 3), leaf("e", 1)]),
    ])


# ----------------------------------------------------------------------
# Flat WF2Q+ equivalence
# ----------------------------------------------------------------------
class TestFlatWF2QPlus:
    def test_fig2_style_exact_fraction(self):
        """Awkward shares, exact arithmetic: tags must match exactly."""
        arrivals = fig2_style_arrivals(one=Fr(1))
        opt = WF2QPlusScheduler(Fr(1))
        ref = NaiveWF2QPlus(Fr(1))
        for s in (opt, ref):
            s.add_flow("A", 10)
            for i in range(1, 11):
                s.add_flow(f"f{i}", 1)
        assert drive(opt, arrivals) == drive(ref, arrivals)

    def test_bursty_float_pow2_rates(self):
        """Many busy-period boundaries: the lazy epoch reset must be
        indistinguishable from the naive eager sweep (bit-identical)."""
        flow_ids = [f"f{i}" for i in range(8)]
        arrivals = bursty_arrivals(flow_ids, seed=3)
        opt = WF2QPlusScheduler(16.0)
        ref = NaiveWF2QPlus(16.0)
        _add_pow2_flows(opt)
        _add_pow2_flows(ref)
        assert drive(opt, arrivals) == drive(ref, arrivals)

    def test_saturated_churn_float_pow2_rates(self):
        """Steady state: the replace_top re-keying path, packet for packet."""
        opt = WF2QPlusScheduler(16.0)
        ref = NaiveWF2QPlus(16.0)
        _add_pow2_flows(opt)
        _add_pow2_flows(ref)
        rng = random.Random(11)
        arrivals = sorted(
            (rng.random() * 0.1, i, f"f{rng.randrange(8)}",
             rng.choice([0.5, 1.0, 2.0]))
            for i in range(200))
        assert drive(opt, arrivals) == drive(ref, arrivals)

    def test_bursty_exact_fraction(self):
        flow_ids = [f"f{i}" for i in range(8)]
        arrivals = [(Fr(t).limit_denominator(1 << 12), seq, fid, Fr(ln))
                    for t, seq, fid, ln in
                    bursty_arrivals(flow_ids, seed=7, bursts=25)]
        opt = WF2QPlusScheduler(Fr(7))
        ref = NaiveWF2QPlus(Fr(7))
        for s in (opt, ref):
            for i in range(8):
                s.add_flow(f"f{i}", 1 + (i % 3))
        assert drive(opt, arrivals) == drive(ref, arrivals)


# ----------------------------------------------------------------------
# H-WF2Q+ equivalence
# ----------------------------------------------------------------------
def _hier_arrivals(leaves, seed, bursts, one=1.0):
    return bursty_arrivals(leaves, seed=seed, bursts=bursts, one=one)


class TestHierarchy:
    LEAVES = ["a", "b", "c", "d", "e", "f"]

    def test_naive_policy_matches_heap_policy_float(self):
        arrivals = _hier_arrivals(self.LEAVES, seed=5, bursts=40)
        opt = HPFQScheduler(pow2_tree(), 16.0, policy="wf2qplus")
        ref = HPFQScheduler(pow2_tree(), 16.0,
                            policy=NaiveWF2QPlusNodePolicy)
        assert drive(opt, arrivals) == drive(ref, arrivals)

    def test_naive_policy_matches_heap_policy_fraction(self):
        arrivals = [(Fr(t).limit_denominator(1 << 12), seq, fid, Fr(ln))
                    for t, seq, fid, ln in
                    _hier_arrivals(["a", "b", "c", "d", "e"], seed=9,
                                   bursts=25)]
        opt = HPFQScheduler(awkward_tree(), Fr(5), policy="wf2qplus")
        ref = HPFQScheduler(awkward_tree(), Fr(5),
                            policy=NaiveWF2QPlusNodePolicy)
        assert drive(opt, arrivals) == drive(ref, arrivals)

    def test_lazy_epoch_reset_matches_eager_sweep(self):
        """With an observer attached H-PFQ eagerly sweeps the whole tree
        at every drain; without one it only bumps the epoch.  Both must
        yield the same transcript across many busy-period boundaries."""
        arrivals = _hier_arrivals(self.LEAVES, seed=13, bursts=50)
        lazy = HPFQScheduler(pow2_tree(), 16.0, policy="wf2qplus")
        eager = HPFQScheduler(pow2_tree(), 16.0, policy="wf2qplus")
        eager.attach_observer(_NullSink())
        assert drive(lazy, arrivals) == drive(eager, arrivals)

    def test_flat_lazy_reset_matches_eager_reference_virtual_time(self):
        """After every drain both systems restart V at zero: spot-check
        the virtual clock alongside the transcript equality."""
        flow_ids = [f"f{i}" for i in range(8)]
        arrivals = bursty_arrivals(flow_ids, seed=21, bursts=10)
        opt = WF2QPlusScheduler(16.0)
        ref = NaiveWF2QPlus(16.0)
        _add_pow2_flows(opt)
        _add_pow2_flows(ref)
        assert drive(opt, arrivals) == drive(ref, arrivals)
        assert opt.system_virtual_time() == ref.system_virtual_time()
