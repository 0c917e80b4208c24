"""Differential suite for the batch scheduling core.

Two equivalence claims are pinned here:

* **batch == per-packet** — any mix of ``enqueue_batch`` /
  ``dequeue_batch`` / ``drain_until`` produces exactly the records the
  equivalent per-packet call sequence produces: same service order, same
  times, same virtual tags (exact under ``Fraction``), same drop
  ledgers, and the same observer event stream when a bus is attached.
* **the sim layer batch path is invisible** — the batch burst drain
  yields the same services and counters as the per-packet stepping path
  (forced via a non-passive sink), and ``Simulator.advance_over``
  enforces the same validation rules as ``advance_to``.

The sim-layer section also pins that the burst drain actually runs the
exact WF2Q+ and H-PFQ ``drain_until`` kernels, so a kernel that silently
falls back to the per-packet loop fails here instead of only running
slower.
"""

import random
from fractions import Fraction as Fr

import pytest

from repro.config import leaf, node
from repro.core import (
    FIFOScheduler,
    HPFQScheduler,
    SCFQScheduler,
    SFQScheduler,
    WF2QPlusScheduler,
)
from repro.core.packet import Packet
from repro.errors import SimulationError
from repro.obs import CallbackSink, RingBufferSink
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import ServiceTrace
from repro.traffic.source import CBRSource, PacketTrainSource


def rec_tuple(rec):
    return (rec.flow_id, rec.packet.length, rec.start_time, rec.finish_time,
            rec.virtual_start, rec.virtual_finish)


def flat(cls, rate, flows=6):
    sched = cls(rate)
    for i in range(flows):
        sched.add_flow(str(i), 1 + i % 3)
    return sched


def tree(rate):
    spec = node("root", 1, [
        node("left", 2, [leaf("0", 1), leaf("1", 2), leaf("2", 1)]),
        node("right", 1, [leaf("3", 2), leaf("4", 1), leaf("5", 3)]),
    ])
    return HPFQScheduler(spec, rate, policy="wf2qplus")


#: (name, builder, exact) — exact builders run the Fraction workload.
BUILDERS = [
    ("FIFO", lambda rate: flat(FIFOScheduler, rate), True),
    ("WF2Q+", lambda rate: flat(WF2QPlusScheduler, rate), True),
    ("SFQ", lambda rate: flat(SFQScheduler, rate), True),
    ("SCFQ", lambda rate: flat(SCFQScheduler, rate), True),
    ("H-WF2Q+", tree, True),
]

LENGTHS = (500, 1000, 1500, 8000)


def make_ops(rng, flows=6, steps=60):
    """A deterministic mixed workload: bursts, chunked dequeues, drains.

    Times are relative ``gap`` values (both drivers resolve them against
    their own last finish time, identically while the runs agree), so
    the same op list drives the Fraction and float domains.
    """
    ops = []
    for _ in range(steps):
        r = rng.random()
        if r < 0.5:
            k = rng.choice((1, 2, 3, 7, 8, 12, 20, 40))
            pkts = [(str(rng.randrange(flows)), rng.choice(LENGTHS))
                    for _ in range(k)]
            # Mostly same-instant bursts inside the busy period; the
            # occasional large gap forces an idle boundary (epoch reset).
            gap = rng.choice((0, 0, 0, 0, (1, 1000), (3, 100)))
            ops.append(("enq", gap, pkts))
        elif r < 0.85:
            ops.append(("deq", rng.choice((1, 2, 5, 8, 16, 33))))
        else:
            ops.append(("drain", (rng.randrange(1, 50), 1000)))
    return ops


def _resolve(value, frac):
    if value == 0:
        return Fr(0) if frac else 0.0
    num, den = value
    return Fr(num, den) if frac else num / den


def apply_per_packet(sched, ops, frac):
    """The per-packet reference execution of an op list."""
    records = []
    t_last = Fr(0) if frac else 0.0
    for op in ops:
        if op[0] == "enq":
            _, gap, pkts = op
            base = records[-1].finish_time if records else t_last
            t = base + _resolve(gap, frac)
            if t < t_last:
                t = t_last
            t_last = t
            for fid, length in pkts:
                sched.enqueue(Packet(fid, length), now=t)
        elif op[0] == "deq":
            k = op[1]
            while k and not sched.is_empty:
                records.append(sched.dequeue())
                k -= 1
        else:
            if sched.is_empty:
                continue
            base = records[-1].finish_time if records else t_last
            limit = base + _resolve(op[1], frac)
            rec = sched.dequeue()
            records.append(rec)
            while rec.finish_time < limit and not sched.is_empty:
                rec = sched.dequeue()
                records.append(rec)
    while not sched.is_empty:
        records.append(sched.dequeue())
    return records


def apply_batched(sched, ops, frac):
    """The same op list through the batch APIs."""
    records = []
    t_last = Fr(0) if frac else 0.0
    for op in ops:
        if op[0] == "enq":
            _, gap, pkts = op
            base = records[-1].finish_time if records else t_last
            t = base + _resolve(gap, frac)
            if t < t_last:
                t = t_last
            t_last = t
            sched.enqueue_batch(
                [Packet(fid, length) for fid, length in pkts], now=t)
        elif op[0] == "deq":
            records.extend(sched.dequeue_batch(op[1]))
        else:
            if sched.is_empty:
                continue
            base = records[-1].finish_time if records else t_last
            sched.drain_until(base + _resolve(op[1], frac), into=records)
    sched.drain_until(None, into=records)
    return records


# ----------------------------------------------------------------------
# batch == per-packet
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("name,build,exact",
                         BUILDERS, ids=[b[0] for b in BUILDERS])
def test_batch_matches_per_packet(name, build, exact, seed):
    frac = exact
    rate = Fr(1_000_000) if frac else 1_000_000.0
    ops = make_ops(random.Random(seed))
    ref = apply_per_packet(build(rate), ops, frac)
    got = apply_batched(build(rate), ops, frac)
    assert [rec_tuple(r) for r in got] == [rec_tuple(r) for r in ref]
    assert len(ref) > 100  # the workload actually moved packets


def test_tags_stay_fraction_exact():
    """The batch kernels must not leak floats into a Fraction run.

    Fraction *shares* keep the guaranteed-rate division exact (int
    shares divide to float), so every tag must come out a Fraction.
    """
    sched = WF2QPlusScheduler(Fr(1_000_000))
    for i in range(6):
        sched.add_flow(str(i), Fr(1 + i % 3))
    sched.enqueue_batch(
        [Packet(str(i % 6), 1000) for i in range(24)], now=Fr(0))
    records = sched.dequeue_batch(24)
    assert len(records) == 24
    for rec in records:
        assert isinstance(rec.finish_time, Fr)
        assert isinstance(rec.virtual_finish, Fr)


def test_dequeue_batch_empty_and_zero():
    sched = flat(WF2QPlusScheduler, 1e6)
    assert sched.dequeue_batch(8) == []
    sched.enqueue(Packet("0", 1000), now=0.0)
    assert sched.dequeue_batch(0) == []
    assert len(sched.dequeue_batch(99)) == 1


def test_drain_until_crossing_semantics():
    sched = flat(WF2QPlusScheduler, 1e6, flows=4)
    sched.enqueue_batch([Packet(str(i % 4), 1000) for i in range(32)],
                        now=0.0)
    # 1000 bits at 1e6 bps = 1 ms per packet; the limit lands mid-burst.
    limit = 0.0105
    records = sched.drain_until(limit)
    assert all(r.finish_time < limit for r in records[:-1])
    assert records[-1].finish_time >= limit  # crossing packet included
    rest = sched.drain_until(None)
    assert len(records) + len(rest) == 32
    # ``into`` appends in place and returns the same list.
    sched.enqueue_batch([Packet("0", 1000) for _ in range(3)])
    out = []
    assert sched.drain_until(None, into=out) is out
    assert len(out) == 3


def test_enqueue_batch_respects_buffer_limits():
    def build():
        sched = flat(WF2QPlusScheduler, 1e6, flows=3)
        sched.set_buffer_limit("0", 2)
        sched.set_buffer_limit("1", 3)
        return sched

    burst = [(str(i % 3), 1000) for i in range(21)]
    ref = build()
    for fid, ln in burst:
        ref.enqueue(Packet(fid, ln), now=0.0)
    got = build()
    accepted = got.enqueue_batch(
        [Packet(fid, ln) for fid, ln in burst], now=0.0)
    assert accepted == ref.conservation()["arrivals"] - \
        ref.conservation()["drops"]
    assert got.conservation() == ref.conservation()
    assert [rec_tuple(r) for r in got.drain()] == \
        [rec_tuple(r) for r in ref.drain()]


def test_enqueue_batch_with_observer_same_event_stream():
    def run(batched):
        sched = flat(WF2QPlusScheduler, 1e6, flows=3)
        ring = RingBufferSink()
        sched.attach_observer(ring)
        pkts = [Packet(str(i % 3), 1000) for i in range(12)]
        if batched:
            sched.enqueue_batch(pkts, now=0.0)
            sched.dequeue_batch(12)
        else:
            for p in pkts:
                sched.enqueue(p, now=0.0)
            for _ in range(12):
                sched.dequeue()
        return [(type(e).__name__, getattr(e, "flow_id", None), e.time)
                for e in ring.events()]

    assert run(batched=True) == run(batched=False)


def test_batch_stats_counters():
    sched = flat(WF2QPlusScheduler, 1e6)
    sched.enqueue_batch([Packet(str(i % 6), 1000) for i in range(64)],
                        now=0.0)
    sched.dequeue_batch(1)
    sched.dequeue_batch(63)
    stats = sched.batch_stats()
    assert stats["batch_calls"] == 3
    assert stats["batch_packets"] == 128
    assert stats["batched_fraction"] == 1.0
    hist = stats["packets_per_batch"]
    assert sum(hist.values()) == stats["batch_calls"]
    assert hist["1"] == 1 and hist["64-511"] == 1 and hist["8-63"] == 1


# ----------------------------------------------------------------------
# sim layer
# ----------------------------------------------------------------------
def _pipeline(force_steps):
    sim = Simulator()
    sched = flat(WF2QPlusScheduler, 1e6, flows=4)
    if force_steps:
        # A non-passive sink forces the per-packet stepping drain.
        sched.attach_observer(CallbackSink(lambda event: None))
    trace = ServiceTrace()
    link = Link(sim, sched, trace=trace)
    for i in range(4):
        CBRSource(str(i), 2.2e5, 1000,
                  start_time=i * 1e-4).attach(sim, link).start()
    sim.run(until=0.25)
    return trace, link


def test_link_batch_drain_matches_stepping_drain():
    ref_trace, ref_link = _pipeline(force_steps=True)
    got_trace, got_link = _pipeline(force_steps=False)
    assert [rec_tuple(r) for r in got_trace.services] == \
        [rec_tuple(r) for r in ref_trace.services]
    assert (got_link.packets_sent, got_link.bits_sent) == \
        (ref_link.packets_sent, ref_link.bits_sent)
    assert got_link.busy_time == pytest.approx(ref_link.busy_time)
    assert len(got_trace.services) > 200


def test_batch_drain_respects_run_horizon():
    """A drain must not run past ``run(until=...)``: packets finishing
    after the horizon stay queued, exactly as on the stepping path."""
    sim = Simulator()
    sched = flat(WF2QPlusScheduler, 1e6, flows=2)
    trace = ServiceTrace()
    link = Link(sim, sched, trace=trace)
    sim.schedule(0.0, lambda: [link.send(Packet("0", 1000))
                               for _ in range(10)])
    sim.run(until=0.0055)
    assert sim.now == 0.0055
    assert all(r.finish_time <= 0.0055 for r in trace.services)
    assert link.packets_sent == 5
    sim.run()
    assert link.packets_sent == 10


def _train_dequeues(sched):
    """Run 4 overloaded packet-train flows through an unobserved Link for
    1 s; return (dequeue calls, departures).

    Offered load is 128% of the link, so the link starts from idle once
    and stays backlogged: every later packet leaves through the burst
    drain's ``drain_until``.  The instance-level wrapper counts every
    per-packet ``dequeue`` call, including the base drain loop's.
    """
    calls = []
    dequeue = sched.dequeue

    def counted(now=None):
        calls.append(now)
        return dequeue(now)

    sched.dequeue = counted
    sim = Simulator()
    link = Link(sim, sched)
    for i in range(4):
        PacketTrainSource(str(i), 1000, 8, 0.025, 8e6,
                          start_time=i * 1e-3).attach(sim, link).start()
    sim.run(until=1.0)
    return len(calls), sched.conservation()["departures"]


def _train_tree(cls):
    return cls(node("root", 1, [
        node("left", 1, [leaf("0", 1), leaf("1", 2)]),
        node("right", 2, [leaf("2", 1), leaf("3", 1)]),
    ]), 1_000_000, policy="wf2qplus")


class _SubWF2QPlus(WF2QPlusScheduler):
    """Same algorithm; the exact-type gate sends it to the base loop."""


class _SubHPFQ(HPFQScheduler):
    """Same algorithm; the exact-type gate sends it to the base loop."""


@pytest.mark.parametrize("exact,subclass,build", [
    (WF2QPlusScheduler, _SubWF2QPlus,
     lambda cls: flat(cls, 1_000_000, flows=4)),
    (HPFQScheduler, _SubHPFQ, _train_tree),
], ids=["WF2Q+", "H-WF2Q+"])
def test_burst_drain_runs_the_drain_kernel(exact, subclass, build):
    calls, departures = _train_dequeues(build(exact))
    # Only the start from idle dequeues per packet; the kernel serves
    # every later packet without calling dequeue.
    assert departures > 900
    assert calls == 1
    # The base loop calls dequeue once per departure: this side shows
    # the wrapper sees the drain whenever the kernel is not engaged.
    sub_calls, sub_departures = _train_dequeues(build(subclass))
    assert sub_departures == departures
    assert sub_calls == sub_departures


def test_advance_over_validates_like_advance_to():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.advance_over(2.0, 3)
    assert sim.now == 2.0
    assert sim.events_elided == 3
    with pytest.raises(SimulationError):
        sim.advance_over(1.0, 1)  # into the past
    with pytest.raises(SimulationError):
        sim.advance_over(6.0, 1)  # past the queue head
