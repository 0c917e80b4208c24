"""Quantum domains: integer H-WF2Q+ tags in units of ``1/D_n``.

An H-WF2Q+ node whose rate and children's rates are all exact keeps
``V_n`` and its children's tags as ``int`` counts of ``1/D_n`` (see
"Time units" in :mod:`repro.core.hierarchy`).  These tests pin:

* the ``Fraction`` work this removes from the paper's Figure 7 run, and
  the float root's ``float + Fraction`` tag adds that it leaves;
* what ``==`` cannot see: ``Fraction(0, 1) == 0``, but digests render the
  two differently, so every record tag and virtual time must have the
  *repr* of the seconds path, which the exact-type rule keeps for any
  subclass of :class:`HPFQScheduler`; the shard ``hier`` digest holds;
* the transitions, against that seconds oracle: a float link rate or a
  float packet length mid-busy-period, a 1000-change share storm (and the
  bound on ``D_n``), an observer attached mid-busy-period;
* checkpoints stay in seconds and restore across the two paths;
* random exact trees that mix all of the above match the oracle.
"""

import copy
import random
from collections import Counter
from fractions import Fraction as Fr
from math import lcm

import pytest

from repro.config import HierarchySpec, leaf, node
from repro.core.hierarchy import HPFQScheduler
from repro.experiments.delay import (
    FIG3_LINK_RATE,
    build_fig3_spec,
    build_sources,
)
from repro.core.packet import Packet
from repro.obs.invariants import InvariantChecker
from repro.obs.sinks import CallbackSink
from repro.shard.driver import run_sharded
from repro.sim.engine import Simulator
from repro.sim.link import Link

from tests.test_hierarchy_service import (
    L,
    backlog,
    fraction_tree,
    run,
    storm,
)


class SecondsHPFQ(HPFQScheduler):
    """The seconds oracle: quantum domains engage only when the scheduler
    is exactly :class:`HPFQScheduler`, so this subclass runs every node
    in seconds, as every node ran before quantum domains existed."""


def quantum_nodes(sched):
    return [n for n in sched._nodes.values() if n.den]


def reprs(rows):
    """``run`` rows with both tags repr'd.  (Service times are compared
    by value: the chunked kernel's clock may be ``0`` where the per-packet
    path's is ``Fraction(0, 1)``, with or without quantum domains.)"""
    return [(flow_id, start, finish, repr(vstart), repr(vfinish))
            for flow_id, start, finish, vstart, vfinish in rows]


def virtual_times(sched):
    return {name: repr(sched.node_virtual_time(name)) for name in sched._nodes}


def both(events, rate=Fr(7), chunked=False, tree=fraction_tree):
    """Run ``events`` on the quantum and the seconds path; assert every
    record and virtual time has the same repr; return both schedulers."""
    fast = HPFQScheduler(tree(), rate)
    oracle = SecondsHPFQ(tree(), rate)
    assert quantum_nodes(fast) and not quantum_nodes(oracle)
    rows, _ = run(fast, events, chunked)
    expected, _ = run(oracle, events)
    assert reprs(rows) == reprs(expected), f"chunked={chunked}"
    assert virtual_times(fast) == virtual_times(oracle)
    return fast, oracle


# ----------------------------------------------------------------------
# The Fraction work per packet on the paper's Figure 7 run
# ----------------------------------------------------------------------
COUNTED = ("__add__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def count_fraction_calls(monkeypatch, seconds=5):
    counts = Counter()
    for name in COUNTED + ("__radd__",):
        original = getattr(Fr, name)

        def counted(self, other, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, other)

        monkeypatch.setattr(Fr, name, counted)
    sched = HPFQScheduler(build_fig3_spec(), FIG3_LINK_RATE)
    sim = Simulator()
    link = Link(sim, sched)
    for source in build_sources(3, seed=1):
        source.attach(sim, link).start()
    sim.run(until=seconds)
    monkeypatch.undo()
    return counts, link.packets_sent


def test_fig7_tags_make_almost_no_fraction_calls(monkeypatch):
    counts, packets = count_fraction_calls(monkeypatch)
    assert packets == 3051
    # Seconds tags made 6.54 calls per packet here (1.24 adds, 2.24 ==
    # from heapq's tuple compares, 3.06 ordering compares); what is left
    # is the float root's occasional Fraction-vs-float compare.
    assert sum(counts[name] for name in COUNTED) / packets < 0.3


def test_fig7_float_root_tag_adds_are_pinned(monkeypatch):
    # N-2 and PS-n are tagged in the float root's seconds: S is a float
    # once V_root is, and S + L * Fraction(1, r) is float.__add__ handing
    # over to Fraction.__radd__.  An exact root rate would remove these.
    counts, packets = count_fraction_calls(monkeypatch)
    assert 1.15 < counts["__radd__"] / packets < 1.17


# ----------------------------------------------------------------------
# What == cannot see
# ----------------------------------------------------------------------
def test_shard_hier_digest_is_unchanged():
    # Integer link rate and shares: every cell's tree is exact.
    assert run_sharded("hier", shards=1)["digest"] == (
        "b8927f27aba2a49515fcf6dc996374c381a38494fa6b73404dd068bf9562e166")


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_storm_tags_have_the_seconds_repr(seed, chunked):
    fast, _ = both(storm(seed), chunked=chunked)
    assert quantum_nodes(fast)


@pytest.mark.parametrize("chunked", [False, True])
def test_attach_tags_have_the_seconds_repr(chunked):
    events = backlog(Fr(0), 0, count=3) + [
        (Fr(3 * L, 7), 100, "attach", "g0", leaf("e", 3)),
        (Fr(3 * L, 7), 101, "pkt", "e", L),
        (Fr(5 * L, 7), 102, "attach", "root",
         node("g2", 2, [leaf("f", 1), leaf("h", 1)])),
        (Fr(5 * L, 7), 103, "pkt", "f", L),
    ] + backlog(Fr(L), 200, flows="abcdefh")
    fast, _ = both(sorted(events), chunked=chunked)
    assert fast._nodes["g2"].den


# ----------------------------------------------------------------------
# Transitions against the seconds oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunked", [False, True])
def test_float_link_rate_mid_busy_period_leaves_quanta(chunked):
    events = sorted(backlog(Fr(0), 0, count=3) + [
        (Fr(2 * L, 7), 100, "link", None, 9.5),
        (Fr(4 * L, 7), 101, "link", None, Fr(11)),
    ] + backlog(Fr(40 * L), 200))
    float_at, exact_at = [i for i, e in enumerate(events) if e[2] == "link"]
    fast = HPFQScheduler(fraction_tree(), Fr(7))
    rows, idx = run(fast, events, chunked, stop=exact_at)
    assert idx == exact_at and not fast.is_empty
    assert not quantum_nodes(fast)
    more, idx = run(fast, events, chunked, start=idx, stop=exact_at + 1)
    # Exact rates again, but float tags are live: seconds until the drain.
    assert not quantum_nodes(fast) and fast._unsettled
    rest, _ = run(fast, events, chunked, start=idx)
    expected, _ = run(SecondsHPFQ(fraction_tree(), Fr(7)), events)
    assert reprs(rows + more + rest) == reprs(expected)
    assert any(type(row[4]) is float for row in expected)
    # The second busy period started empty under exact rates.
    assert len(quantum_nodes(fast)) == 3 and not fast._unsettled
    assert all(type(row[4]) is Fr for row in rest[-8:])


@pytest.mark.parametrize("chunked", [False, True])
def test_float_length_mid_busy_period_leaves_quanta(chunked):
    events = sorted(backlog(Fr(0), 0, count=2) + [
        (Fr(L, 7), 100, "pkt", "a", float(L)),
    ] + backlog(Fr(L, 7), 101, count=2) + backlog(Fr(60 * L), 200))
    fast, _ = both(events, chunked=chunked)
    # The drain rebuilt every domain the float length had moved.
    assert len(quantum_nodes(fast)) == 3 and not fast._unsettled


def test_float_length_moves_only_the_domains_it_reaches():
    fast = HPFQScheduler(fraction_tree(), Fr(7))

    def names():
        return [n.name for n in quantum_nodes(fast)]

    for flow_id in "abcd":
        fast.enqueue(Packet(flow_id, L), now=Fr(0))
    assert fast.dequeue().flow_id == "a"
    fast.enqueue(Packet("c", float(L)), now=Fr(0))
    # Queued behind c's int head, the float packet touches no domain.
    assert fast.dequeue().flow_id == "c"
    assert names() == ["root", "g0", "g1"]
    # As c's head it is tagged in g1's domain ...
    assert fast.dequeue().flow_id == "b"
    assert names() == ["root", "g0"]
    assert fast.dequeue().flow_id == "d"
    # ... and once g1 selects it, in the root's; g0 never sees it.
    record = fast.dequeue()
    assert record.flow_id == "c" and type(record.virtual_finish) is float
    assert names() == ["g0"]
    assert type(fast.node_virtual_time("g0")) is Fr
    fast.sync()  # the final RESET-PATH: the tree drains
    assert names() == ["root", "g0", "g1"] and not fast._unsettled


@pytest.mark.parametrize("chunked", [False, True])
def test_share_churn_keeps_the_quantum_bounded(chunked):
    rng = random.Random(16)
    events, t, seq, shares = [], Fr(0), 0, 0
    while shares < 1000:
        for flow_id in rng.sample("abcd", rng.randint(1, 4)):
            for _ in range(rng.randint(1, 2)):
                events.append((t + Fr(rng.randint(0, 4) * L, 16), seq,
                               "pkt", flow_id, L))
                seq += 1
        for _ in range(rng.randint(1, 4)):
            # Some land mid-busy-period, some while the tree is idle.
            events.append((t + Fr(rng.randint(0, 40) * L, 16), seq,
                           "share", rng.choice("abcd") if rng.random() < 0.8
                           else rng.choice(["g0", "g1"]),
                           rng.randint(1, 9)))
            seq += 1
            shares += 1
        t += Fr(rng.randint(2, 4) * L, 1)
    events.append((t, seq, "pkt", "a", L))
    fast, _ = both(sorted(events), chunked=chunked)
    fast.sync()  # the final RESET-PATH: the tree drains
    for node_obj in fast._nodes.values():
        if not node_obj.is_leaf:
            numerators = [c.inv_rate.denominator for c in node_obj.children]
            want = lcm(node_obj.inv_rate.denominator, *numerators)
            assert node_obj.den == want, node_obj.name


@pytest.mark.parametrize("chunked", [False, True])
def test_observer_attached_mid_busy_period_sees_seconds(chunked):
    events = storm(7)
    streams = []
    for cls in (HPFQScheduler, SecondsHPFQ):
        sched = cls(fraction_tree(), Fr(7))
        cut = len(events) // 3
        head, idx = run(sched, events, chunked, stop=cut)
        assert not sched.is_empty
        if cls is HPFQScheduler:
            assert quantum_nodes(sched)
        seen = []
        sched.attach_observer(InvariantChecker(tolerance=0),
                              CallbackSink(seen.append))
        tail, _ = run(sched, events, chunked, start=idx)
        kinds = Counter(event.kind for event in seen)
        assert kinds["node-restart"] and kinds["virtual-time"]
        assert kinds["dequeue"] == len(tail)
        # Packet uids come from a process-wide counter: drop them.
        streams.append(([repr({k: v for k, v in e.to_dict().items()
                               if k != "packet_uid"}) for e in seen],
                        reprs(head + tail)))
    assert streams[0] == streams[1]


# ----------------------------------------------------------------------
# Checkpoints stay in seconds
# ----------------------------------------------------------------------
def seconds_fields(snap):
    """The snapshot's node entries and policy state, repr'd."""
    out = {}
    for name, entry in snap["extra"]["nodes"].items():
        out[name] = [repr(entry[field]) for field in
                     ("start_tag", "finish_tag", "virtual", "served")]
        if entry["policy"] is not None:
            out[name].append(repr(entry["policy"]))
    return out


@pytest.mark.parametrize("chunked", [False, True])
def test_snapshot_is_in_seconds_and_restores_across_paths(chunked):
    events = storm(5)
    whole, _ = run(SecondsHPFQ(fraction_tree(), Fr(7)), events)
    # A cut in a later busy period, after shares have moved the quanta,
    # so stale tags of earlier busy periods are in the snapshot too.
    cut = 3 * len(events) // 4
    snaps = {}
    for cls in (HPFQScheduler, SecondsHPFQ):
        sched = cls(fraction_tree(), Fr(7))
        head, idx = run(sched, events, chunked, stop=cut)
        assert idx == cut and not sched.is_empty
        snaps[cls] = sched.snapshot()
        if cls is HPFQScheduler:
            assert quantum_nodes(sched)
            # A stale tag that its domain's current quantum cannot count
            # is held in seconds.
            assert any(n.parent and n.parent.den and type(n.start_tag) is Fr
                       for n in sched._nodes.values())
    assert seconds_fields(snaps[HPFQScheduler]) == seconds_fields(
        snaps[SecondsHPFQ])
    for source, target in ((HPFQScheduler, SecondsHPFQ),
                           (SecondsHPFQ, HPFQScheduler)):
        sched = target(fraction_tree(), Fr(7))
        sched.restore(snaps[source])
        assert seconds_fields(sched.snapshot()) == seconds_fields(
            snaps[source])
        tail, _ = run(sched, events, chunked, start=cut)
        assert reprs(head + tail) == reprs(whole), (source, target)


# ----------------------------------------------------------------------
# Random workloads mixing every transition
# ----------------------------------------------------------------------
def random_exact_tree(rng, depth=1):
    kids = []
    for i in range(rng.randint(1, 3)):
        if depth >= 2 or rng.random() < 0.4:
            kids.append(leaf(f"n{depth}.{rng.random():.6f}", rng.randint(1, 6)))
        else:
            kids.append(node(f"m{depth}.{rng.random():.6f}", rng.randint(1, 6),
                             random_exact_tree(rng, depth + 1)))
    return kids if depth > 1 else node("root", 1, kids)


def random_events(rng, spec):
    """Bursts of mostly-int packets (some float or Fraction lengths),
    with share and link-rate changes (some float), live attaches,
    checkpoint swaps and an observer joining, in time order."""
    names = [n.name for n in spec.walk() if n.name != "root"]
    leaves = [n.name for n in spec.walk() if not n.children]
    interior = [n.name for n in spec.walk() if n.children]
    events, t, seq = [], Fr(0), 0

    def add(kind, name, value, at):
        nonlocal seq
        events.append((at, seq, kind, name, value))
        seq += 1

    for _ in range(rng.randint(5, 25)):
        for _ in range(rng.randint(1, 6)):
            length = (rng.choice([1000, 1500, 4000]) if rng.random() > 0.05
                      else rng.choice([1000.0, Fr(2001, 2)]))
            add("pkt", rng.choice(leaves), length, t + Fr(rng.randint(0, 20), 1000))
        at = t + Fr(rng.randint(0, 20), 1000)
        r = rng.random()
        if r < 0.3:
            add("share", rng.choice(names), rng.randint(1, 7), at)
        elif r < 0.36:
            add("link", None, rng.choice([Fr(rng.randint(5, 20) * 1000),
                                          9500.5]), at)
        elif r < 0.42:
            add("snap", None, None, at)
        elif r < 0.45:
            add("obs", None, None, at)
        elif r < 0.55:
            name = f"x{seq}"
            add("attach", rng.choice(interior), (name, rng.randint(1, 6)), at)
            add("pkt", name, 1000, at)
        t += Fr(rng.randint(1, 40), 100)
    return sorted(events, key=lambda e: e[:2])


def replay(cls, spec, events, rate, chunked, other, tolerance):
    """Greedy server over ``events``; a ``"snap"`` replaces the scheduler
    by a fresh ``other`` restored from its snapshot (after checking the
    round trip).  Returns the rows, final virtual times, snapshot node
    entries and observed events, tags repr'd."""
    sched = cls(copy.deepcopy(spec), rate)
    rows, seen, attached = [], [], []

    def observe(target):
        target.attach_observer(InvariantChecker(tolerance=tolerance),
                               CallbackSink(seen.append))

    idx, n = 0, len(events)
    while idx < n or not sched.is_empty:
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
            elif kind == "attach":
                sched.attach_subtree(name, leaf(*value))
                attached.append((name, value))
            elif kind == "obs" and sched._obs is None:
                observe(sched)
            elif kind == "snap":
                nodes = sched.snapshot()["extra"]["nodes"]
                fresh = other(copy.deepcopy(spec), rate)
                for parent_name, value in attached:
                    fresh.attach_subtree(parent_name, leaf(*value))
                fresh.restore(sched.snapshot())
                assert repr(fresh.snapshot()["extra"]["nodes"]) == repr(nodes)
                if sched._obs is not None:
                    observe(fresh)
                sched = fresh
                rows.append(repr({
                    name: [entry[f] for f in ("start_tag", "finish_tag",
                                              "virtual", "served", "policy")]
                    for name, entry in nodes.items()}))
            continue
        if chunked:
            records = sched.drain_until(events[idx][0] if idx < n else None)
        else:
            records = [sched.dequeue()]
        rows.extend(reprs([(r.flow_id, r.start_time, r.finish_time,
                            r.virtual_start, r.virtual_finish)
                           for r in records]))
    return (rows, virtual_times(sched),
            [repr({k: v for k, v in e.to_dict().items() if k != "packet_uid"})
             for e in seen])


@pytest.mark.parametrize("seed", range(40))
def test_random_workloads_match_the_seconds_path(seed):
    rng = random.Random(seed)
    spec = HierarchySpec(random_exact_tree(rng))
    events = random_events(rng, spec)
    rate = Fr(rng.randint(5, 20) * 1000)
    chunked = rng.random() < 0.5
    # Snapshots restore into the quantum class or across to the oracle.
    other = rng.choice([HPFQScheduler, SecondsHPFQ])
    floats = any(type(e[4]) is float for e in events)
    tolerance = 1e-9 if floats else 0
    got = replay(HPFQScheduler, spec, events, rate, chunked, other, tolerance)
    want = replay(SecondsHPFQ, spec, events, rate, False, SecondsHPFQ,
                  tolerance)
    assert got == want
