"""H-PFQ service counts, reference times and the per-node ``L / r`` memo.

Every node counts its service ``W_n(0, t)`` in bits and derives the
reference time ``T_n = W_n / r_n`` (Section 4.1) on read; each node also
memoises ``L / r_n`` for the last integer packet length.  These tests pin:

* ``node_service`` is the exact bit count, also under float rates, and is
  untouched by share and link-rate changes, while ``node_reference_time``
  follows the current rate;
* the memo never serves a stale or wrongly typed product: after an equal
  float length, and across ``set_share``, ``set_link_rate``,
  ``attach_subtree`` and ``restore`` at other rates, tags and service
  order match a naive reference that divides by ``r_n`` every time, per
  packet and through the chunked kernel;
* a checkpoint written before ``W_n`` was kept in bits (node entries
  carrying ``reference`` instead of ``served``) restores and continues
  identically.
"""

import random
from fractions import Fraction as Fr

import pytest

from repro.config import leaf, node
from repro.core.hierarchy import HPFQScheduler, _HNode
from repro.core.packet import Packet

from tests.test_equivalence_optimized import NaiveWF2QPlusNodePolicy

#: The paper's Figure 7 packet size: 8 KB in bits.
L = 65536


def fraction_tree():
    """Two groups with non-binary shares; every rate is an exact Fraction
    and no ``L / r`` is a binary fraction."""
    return node("root", 1, [
        node("g0", 2, [leaf("a", 1), leaf("b", 2)]),
        node("g1", 1, [leaf("c", 3), leaf("d", 1)]),
    ])


def float_tree():
    """Float shares drawn in [1, 3), like the end-to-end ``hier_cbr``."""
    rng = random.Random(4)
    return node("root", 1, [
        node(f"g{g}", rng.uniform(1, 3), [
            leaf(f"g{g}l{k}", rng.uniform(1, 3)) for k in range(4)])
        for g in range(3)])


def subtree_bits(sched, records):
    """Bits transmitted through every node, from the service records."""
    bits = {name: 0 for name in sched._nodes}
    for rec in records:
        for hop in sched._nodes[rec.flow_id].path:
            bits[hop.name] += rec.packet.length
    return bits


# ----------------------------------------------------------------------
# W_n in bits, T_n derived
# ----------------------------------------------------------------------
def test_float_rates_count_service_in_exact_bits():
    sched = HPFQScheduler(float_tree(), 1e9)
    leaves = [f"g{g}l{k}" for g in range(3) for k in range(4)]
    rng = random.Random(7)
    records = []
    for i in range(3000):
        t = sched.clock
        sched.enqueue(Packet(rng.choice(leaves), 8000, arrival_time=t), now=t)
        if i % 3 == 2:
            records.append(sched.dequeue())
    records.extend(sched.drain())
    bits = subtree_bits(sched, records)
    assert bits["root"] == 3000 * 8000
    for name, want in bits.items():
        got = sched.node_service(name)
        # Exactly the bits, as an int: no reference-time round trip.
        assert type(got) is int and got == want, name


def test_fraction_reference_time_is_service_over_current_rate():
    sched = HPFQScheduler(fraction_tree(), Fr(7))
    names = list(sched._nodes)

    def check():
        for name in names:
            assert (sched.node_reference_time(name)
                    == sched.node_service(name) / sched.guaranteed_rate(name))

    for k in range(6):
        for flow_id in "abcd":
            sched.enqueue(Packet(flow_id, L, seqno=k), now=Fr(0))
    records = [sched.dequeue() for _ in range(7)]
    before = {name: sched.node_service(name) for name in names}
    rate_a = sched.guaranteed_rate("a")
    sched.set_share("a", 5)  # mid-busy-period
    assert sched.guaranteed_rate("a") != rate_a
    assert {name: sched.node_service(name) for name in names} == before
    check()
    records += [sched.dequeue() for _ in range(5)]
    before = {name: sched.node_service(name) for name in names}
    sched.set_link_rate(Fr(11))
    assert {name: sched.node_service(name) for name in names} == before
    check()
    records += sched.drain()
    check()
    assert {name: sched.node_service(name)
            for name in names} == subtree_bits(sched, records)


# ----------------------------------------------------------------------
# The L / r memo against a dividing naive reference
# ----------------------------------------------------------------------
class DividingNode(_HNode):
    """A node that divides by r_n for every ``L / r_n``: no memo, no
    cached inverse."""

    __slots__ = ()

    def span(self, length):
        return length / self.rate


class NaiveHPFQ(HPFQScheduler):
    """The naive H-WF2Q+ reference: scan-based node policy
    (:class:`NaiveWF2QPlusNodePolicy`) and dividing nodes throughout."""

    def __init__(self, spec, rate):
        super().__init__(spec, rate, policy=NaiveWF2QPlusNodePolicy)
        self._divide()

    def attach_subtree(self, parent_name, subtree):
        result = super().attach_subtree(parent_name, subtree)
        self._divide()
        return result

    def _divide(self):
        for node_obj in self._nodes.values():
            node_obj.__class__ = DividingNode


def run(sched, events, chunked=False, start=0, stop=None):
    """Greedy server over time-ordered ``(t, seq, kind, name, value)``
    events: ``"pkt"`` arrivals of ``value`` bits at leaf ``name``,
    ``"share"`` changes, ``"link"`` rate changes and ``"attach"`` of the
    subtree ``value`` under ``name``.

    Returns ``(rows, index)``: one ``(flow_id, start, finish, S, F)`` row
    per packet and the index of the next unapplied event.  Stops before
    applying event ``stop`` (a checkpoint cut) when given.
    """
    rows = []
    idx, n = start, len(events)
    while idx < n or not sched.is_empty:
        if idx == stop:
            break
        if idx < n and (sched.is_empty or events[idx][0]
                        <= max(sched.clock, sched.busy_until)):
            t, _seq, kind, name, value = events[idx]
            idx += 1
            if kind == "pkt":
                sched.enqueue(Packet(name, value, arrival_time=t), now=t)
            elif kind == "share":
                sched.set_share(name, value)
            elif kind == "link":
                sched.set_link_rate(value)
            else:
                sched.attach_subtree(name, value)
            continue
        if chunked:
            limit = events[idx][0] if idx < n else None
            records = sched.drain_until(limit)
        else:
            records = [sched.dequeue()]
        rows.extend((r.flow_id, r.start_time, r.finish_time,
                     r.virtual_start, r.virtual_finish) for r in records)
    return rows, idx


def check_against_naive(events, rate=Fr(7)):
    """Per-packet and chunked H-WF2Q+ both match the naive reference;
    returns the reference rows."""
    expected, _ = run(NaiveHPFQ(fraction_tree(), rate), events)
    for chunked in (False, True):
        rows, _ = run(HPFQScheduler(fraction_tree(), rate), events, chunked)
        assert rows == expected, f"chunked={chunked}"
    return expected


def backlog(t, seq, flows="abcd", count=2, length=L):
    """``count`` same-instant packets of ``length`` bits per flow."""
    return [(t, seq + k * len(flows) + i, "pkt", flow_id, length)
            for k in range(count) for i, flow_id in enumerate(flows)]


def test_float_length_after_equal_int_length_skips_memo():
    sched = HPFQScheduler(fraction_tree(), Fr(7))
    sched.enqueue(Packet("a", L), now=Fr(0))
    sched.enqueue(Packet("a", float(L)), now=Fr(0))
    first, second = sched.dequeue(), sched.dequeue()
    inv_rate = 1 / sched.guaranteed_rate("a")
    assert first.virtual_finish == L * inv_rate
    # What the tag update computes without a memo: a float product.  A
    # memo keyed on ``65536 == 65536.0`` would return the exact Fraction.
    assert second.virtual_start == first.virtual_finish
    assert type(second.virtual_finish) is float
    assert second.virtual_finish == first.virtual_finish + float(L) * inv_rate
    assert second.virtual_finish != first.virtual_finish + L * inv_rate
    g0 = sched._nodes["g0"]
    assert type(g0.finish_tag) is float
    assert g0.finish_tag == g0.start_tag + float(L) * g0.inv_rate


def test_set_share_between_equal_length_packets():
    # a's first packet is on the link when its share changes; its second,
    # equal-length packet is tagged at the new rate by RESET-PATH.  Later
    # changes land while heads are committed (rebased finish tags).
    events = backlog(Fr(0), 0) + [
        (Fr(L, 14), 100, "share", "a", 3),
        (Fr(3 * L, 7), 101, "share", "g1", 4),
        (Fr(5 * L, 7), 102, "share", "a", 1),
    ] + backlog(Fr(6 * L, 7), 200)
    rows = check_against_naive(sorted(events))
    assert rows[0][:3] == ("a", 0, Fr(L, 7))


def test_root_link_rate_change():
    events = backlog(Fr(0), 0, count=3) + [
        (Fr(2 * L, 7), 100, "link", None, Fr(5)),
        (Fr(4 * L, 5), 101, "link", None, Fr(13)),
    ] + backlog(Fr(2 * L), 200)
    check_against_naive(sorted(events))


def test_attach_subtree_shrinks_sibling_rates():
    events = backlog(Fr(0), 0, count=3) + [
        (Fr(3 * L, 7), 100, "attach", "g0", leaf("e", 3)),
        (Fr(3 * L, 7), 101, "pkt", "e", L),
        (Fr(5 * L, 7), 102, "attach", "root",
         node("g2", 2, [leaf("f", 1), leaf("h", 1)])),
        (Fr(5 * L, 7), 103, "pkt", "f", L),
    ] + backlog(Fr(L), 200, flows="abcdefh")
    check_against_naive(sorted(events))


def storm(seed, rounds=30):
    """Fixed-size bursts on random leaves, some renegotiating shares."""
    rng = random.Random(seed)
    events, t, seq = [], Fr(0), 0
    for _ in range(rounds):
        for flow_id in rng.sample("abcd", rng.randint(1, 3)):
            for _ in range(rng.randint(1, 3)):
                events.append((t + Fr(rng.randint(0, 8) * L, 16), seq,
                               "pkt", flow_id, L))
                seq += 1
        if rng.random() < 0.4:
            events.append((t + Fr(rng.randint(0, 8) * L, 16), seq, "share",
                           rng.choice(["a", "b", "c", "d", "g0", "g1"]),
                           rng.randint(1, 5)))
            seq += 1
        t += Fr(rng.randint(1, 6) * L, 4)
    return sorted(events)


@pytest.mark.parametrize("seed", range(3))
def test_share_storm_matches_naive(seed):
    check_against_naive(storm(seed))


@pytest.mark.parametrize("chunked", [False, True])
def test_restore_of_snapshot_taken_at_other_rates(chunked):
    events = storm(5)
    shares = [i for i, event in enumerate(events) if event[2] == "share"]
    assert len(shares) >= 2
    expected, _ = run(NaiveHPFQ(fraction_tree(), Fr(7)), events)
    # The snapshot is cut after the rates have moved away from the spec's.
    cut = shares[1] + 1
    first = HPFQScheduler(fraction_tree(), Fr(7))
    head, idx = run(first, events, chunked, stop=cut)
    assert idx == cut and not first.is_empty
    snap = first.snapshot()
    # The restoring scheduler has memoised L / r at the original rates.
    second = HPFQScheduler(fraction_tree(), Fr(7))
    run(second, events, chunked, stop=shares[0])
    assert any(second._nodes[name].rate != first._nodes[name].rate
               and second._nodes[name].memo_length == L
               for name in second._nodes)
    second.restore(snap)
    tail, _ = run(second, events, chunked, start=cut)
    assert head + tail == expected


# ----------------------------------------------------------------------
# Checkpoints from before W_n was kept in bits
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunked", [False, True])
def test_checkpoint_with_legacy_reference_times_continues_identically(
        chunked):
    events = storm(11)
    whole = HPFQScheduler(fraction_tree(), Fr(7))
    full, _ = run(whole, events, chunked)
    cut = len(events) // 2
    first = HPFQScheduler(fraction_tree(), Fr(7))
    head, idx = run(first, events, chunked, stop=cut)
    assert idx == cut and not first.is_empty
    snap = first.snapshot()
    # Earlier versions checkpointed each node's reference time
    # T_n = W_n / r_n under "reference" and no "served" entry.
    for entry in snap["extra"]["nodes"].values():
        entry["reference"] = entry.pop("served") / entry["rate"]
    assert any(entry["reference"] for entry in snap["extra"]["nodes"].values())
    second = HPFQScheduler(fraction_tree(), Fr(7))
    second.restore(snap)
    tail, _ = run(second, events, chunked, start=cut)
    assert head + tail == full
    for name in whole._nodes:
        assert second.node_service(name) == whole.node_service(name), name
