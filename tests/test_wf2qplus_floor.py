"""The two-heap eq. (27) floor of flat WF2Q+, against the naive reference.

Flat WF2Q+ keeps no start-tag heap: every eligible flow has S <= V, so the
``min S_i`` arm of eq. (27) can only move V at a selection that finds the
eligible heap empty, and then min S_i is the ineligible heap's top key.
These cases drive exactly that selection — a flow re-backlogged with
S = F_old > V after the other flows drained, also after a ``set_share`` —
and compare tags, V and service order under ``Fraction`` with the
scan-based :class:`~tests.test_equivalence_optimized.NaiveWF2QPlus`,
through both the per-packet ``dequeue`` and the chunked ``drain_until``
kernel.  A checkpoint that still carries the ``"starts"`` heap of earlier
versions restores and continues identically.
"""

import random
from fractions import Fraction as Fr

import pytest

from repro.core.packet import Packet
from repro.core.wf2qplus import WF2QPlusScheduler
from tests.test_equivalence_optimized import NaiveWF2QPlus


class NaiveReference(NaiveWF2QPlus):
    """The naive scan reference plus the ``set_share`` rebase rule (start
    tags persist; each backlogged head's finish tag becomes S + L / r_i'),
    counting the selections at which the min-S floor raised V."""

    def __init__(self, rate):
        super().__init__(rate)
        self.floor_jumps = 0

    def _select_flow(self, now):
        slope = self._virtual + (now - self._virtual_stamp)
        state = super()._select_flow(now)
        if self._virtual > slope:
            self.floor_jumps += 1
        return state

    def _on_reconfigured(self):
        for state in self._flows.values():
            if state.queue:
                state.finish_tag = (state.start_tag
                                    + state.queue[0].length / self._r(state))


def build(cls, shares, rate=Fr(1)):
    sched = cls(rate)
    for flow_id, share in shares.items():
        sched.add_flow(flow_id, Fr(share))
    return sched


def run(sched, events, chunked=False, start=0, stop=None):
    """Greedy server over time-ordered ``(t, seq, kind, flow_id, value)``
    events: ``"pkt"`` arrivals of ``value`` bits, ``"share"`` changes.

    Returns ``(rows, index)``: one ``(flow_id, start, finish, S, F)`` row
    per packet — with V after the selection appended when not
    ``chunked`` — and the index of the next unapplied event.  Stops
    before applying event ``stop`` (a checkpoint cut) when given.
    """
    rows = []
    idx, n = start, len(events)
    while idx < n or not sched.is_empty:
        if idx == stop:
            break
        if idx < n and (sched.is_empty or events[idx][0]
                        <= max(sched.clock, sched.busy_until)):
            t, _seq, kind, flow_id, value = events[idx]
            idx += 1
            if kind == "pkt":
                sched.enqueue(Packet(flow_id, value, arrival_time=t), now=t)
            else:
                sched.set_share(flow_id, Fr(value))
        elif chunked:
            limit = events[idx][0] if idx < n else None
            rows.extend((r.flow_id, r.start_time, r.finish_time,
                         r.virtual_start, r.virtual_finish)
                        for r in sched.drain_until(limit))
        else:
            r = sched.dequeue()
            rows.append((r.flow_id, r.start_time, r.finish_time,
                         r.virtual_start, r.virtual_finish,
                         sched.system_virtual_time()))
    return rows, idx


def check_against_reference(shares, events, rate=Fr(1)):
    """Per-packet and chunked WF2Q+ both match the naive reference, tags
    and V included; returns (rows, reference floor jumps)."""
    ref = build(NaiveReference, shares, rate)
    expected, _ = run(ref, events)
    per_packet, _ = run(build(WF2QPlusScheduler, shares, rate), events)
    assert per_packet == expected
    chunked = build(WF2QPlusScheduler, shares, rate)
    rows, _ = run(chunked, events, chunked=True)
    assert rows == [row[:5] for row in expected]
    assert chunked.system_virtual_time() == ref.system_virtual_time()
    return expected, ref.floor_jumps


#: A (share 1) and B (share 3) on a unit-rate link.  A's first packet
#: leaves at t=2 with F_A = 4; both flows re-backlog at t=3/2, inside the
#: busy period, so A restarts at S = F_old = 4 > V = 3/2 (ineligible) and B
#: at S = V (eligible).  Once B drains, the selection at t=3 finds the
#: eligible heap empty and V jumps from 3 to A's start tag 4.
REBACKLOG = [
    (Fr(0), 0, "pkt", "A", Fr(1)),
    (Fr(0), 1, "pkt", "B", Fr(1)),
    (Fr(3, 2), 2, "pkt", "A", Fr(1)),
    (Fr(3, 2), 3, "pkt", "B", Fr(1)),
]


def test_rebacklogged_flow_lifts_v_to_its_start_tag():
    rows, jumps = check_against_reference({"A": 1, "B": 3}, REBACKLOG)
    assert rows == [
        ("B", 0, 1, 0, Fr(4, 3), 0),
        ("A", 1, 2, 0, 4, 1),
        ("B", 2, 3, Fr(3, 2), Fr(17, 6), 2),
        ("A", 3, 4, 4, 8, 4),
    ]
    assert jumps == 1


def test_rebacklogged_flow_after_set_share():
    # Mid-way through B's second packet A's share triples; A's parked head
    # keeps S = 4 and is rebased to F = 4 + 1 / (1/2) = 6, and the empty-
    # eligible selection at t=3 still lifts V to 4.
    events = REBACKLOG + [(Fr(5, 2), 4, "share", "A", 3)]
    rows, jumps = check_against_reference({"A": 1, "B": 3}, events)
    assert rows[-1] == ("A", 3, 4, 4, 6, 4)
    assert jumps == 1


def rebacklog_storm(seed, rounds=40):
    """Bursts of a few flows, each new burst landing while the previous one
    is still draining (S = F_old > V), some renegotiating shares."""
    rng = random.Random(seed)
    flows = ["a", "b", "c", "d"]
    events, t, seq = [], Fr(0), 0
    for _ in range(rounds):
        for flow_id in rng.sample(flows, rng.randint(1, 3)):
            for _ in range(rng.randint(1, 3)):
                events.append((t + Fr(rng.randint(0, 8), 16), seq, "pkt",
                               flow_id, Fr(rng.choice([1, 2, 3]), 2)))
                seq += 1
        if rng.random() < 0.3:
            events.append((t + Fr(rng.randint(0, 8), 16), seq, "share",
                           rng.choice(flows), rng.randint(1, 5)))
            seq += 1
        t += Fr(rng.randint(1, 12), 4)
    return sorted(events)


@pytest.mark.parametrize("seed", range(6))
def test_rebacklog_storm_matches_reference(seed):
    shares = {"a": 1, "b": 2, "c": 3, "d": 5}
    _rows, jumps = check_against_reference(shares, rebacklog_storm(seed),
                                           rate=Fr(3))
    assert jumps > 0


@pytest.mark.parametrize("chunked", [False, True])
def test_checkpoint_with_legacy_starts_heap_continues_identically(chunked):
    shares = {"a": 1, "b": 2, "c": 3, "d": 5}
    events = rebacklog_storm(11)
    full, _ = run(build(WF2QPlusScheduler, shares, Fr(3)), events, chunked)
    cut = len(events) // 2
    first = build(WF2QPlusScheduler, shares, Fr(3))
    head, idx = run(first, events, chunked, stop=cut)
    assert idx == cut and not first.is_empty
    snap = first.snapshot()
    # Earlier versions also checkpointed every backlogged flow in a
    # start-tag heap, as (S, seq, flow_id) entries.
    backlogged = [(fs["start_tag"], fid)
                  for fid, fs in snap["flows"].items() if fs["queue"]]
    snap["extra"]["starts"] = {
        "seq": len(backlogged),
        "entries": [(s, seq, fid) for seq, (s, fid) in enumerate(backlogged)],
    }
    second = build(WF2QPlusScheduler, shares, Fr(3))
    second.restore(snap)
    tail, _ = run(second, events, chunked, start=cut)
    assert head + tail == full
