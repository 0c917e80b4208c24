"""Batch APIs x checkpoint/restore: the interplay must stay exact.

The ``drain_until`` kernels and the Link's burst-drain path service
whole chunks between simulator events.  None of that may leak into
checkpoints: a snapshot taken mid-way through a batched workload must
restore to packet-for-packet identical continuations — Fraction tags,
conservation ledgers, source emission state, and fault timelines
included.
"""

import random
from fractions import Fraction

import pytest

from repro.config import leaf, node
from repro.core import HPFQScheduler, WF2QPlusScheduler
from repro.core.packet import Packet
from repro.faults import FaultInjector, FaultPlan, checkpoint, rollback
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import ServiceTrace
from repro.traffic import CBRSource

F = Fraction


def record_tuple(rec):
    return (rec.flow_id, rec.packet.length, rec.start_time,
            rec.finish_time, rec.virtual_start, rec.virtual_finish)


def build_flat(flows=6, rate=F(1_000_000)):
    sched = WF2QPlusScheduler(rate)
    for i in range(flows):
        sched.add_flow(str(i), F(1 + i % 3))
    return sched


def build_tree(rate=F(1_000_000)):
    spec = node("root", 1, [
        node("left", 2, [leaf("0", 1), leaf("1", 2), leaf("2", 1)]),
        node("right", 1, [leaf("3", 2), leaf("4", 1), leaf("5", 3)]),
    ])
    return HPFQScheduler(spec, rate, policy="wf2qplus")


BUILDERS = [("wf2q+", build_flat), ("h-wf2q+", build_tree)]


def batch_churn(sched, rng, flows=6, steps=40, clock=F(0)):
    """Drive the *batch* APIs with a seeded mixed workload.

    Decisions depend only on the RNG and the scheduler's emptiness, so
    two schedulers in identical states driven by identically-seeded RNGs
    take identical trajectories.  Returns (records, clock) so a caller
    can resume the clock across a snapshot boundary.
    """
    records = []
    for _ in range(steps):
        if sched.is_empty or rng.random() < 0.5:
            k = rng.choice((1, 3, 8, 17))
            packets = [Packet(str(rng.randrange(flows)),
                              rng.choice((500, 1000, 1500)))
                       for _ in range(k)]
            sched.enqueue_batch(packets, now=clock)
        else:
            out = sched.dequeue_batch(rng.choice((1, 2, 6, 12)))
            records.extend(out)
            if out:
                clock = max(clock, out[-1].finish_time)
        clock += F(rng.randrange(0, 5), 1000)
    return records, clock


def drain_tuples(sched):
    return [record_tuple(rec) for rec in sched.drain()]


@pytest.mark.parametrize("name,build", BUILDERS)
def test_midbatch_snapshot_roundtrip_exact(name, build):
    """Snapshot amid a batched workload; both continuations agree."""
    sched = build()
    _, clock = batch_churn(sched, random.Random(21), steps=50)
    # Land the snapshot mid-batch: a large burst just arrived and only
    # part of it has been served, so kernels have hot columnar state.
    sched.enqueue_batch([Packet(str(i % 6), 1000) for i in range(24)],
                        now=clock)
    served = sched.dequeue_batch(5)
    clock = max(clock, served[-1].finish_time)
    snap = sched.snapshot()
    ledger = dict(sched.conservation())

    first, _ = batch_churn(sched, random.Random(99), steps=30, clock=clock)
    first_tuples = [record_tuple(r) for r in first] + drain_tuples(sched)

    sched.restore(snap)
    assert dict(sched.conservation()) == ledger
    second, _ = batch_churn(sched, random.Random(99), steps=30, clock=clock)
    second_tuples = [record_tuple(r) for r in second] + drain_tuples(sched)

    assert first_tuples == second_tuples
    assert len(first_tuples) > 20
    for row in first_tuples:
        # Exactness: times *and* virtual tags stay Fraction throughout.
        assert all(isinstance(v, Fraction) for v in row[2:])


@pytest.mark.parametrize("name,build", BUILDERS)
def test_midbatch_snapshot_restores_into_fresh_instance(name, build):
    a = build()
    _, clock = batch_churn(a, random.Random(5), steps=60)
    snap = a.snapshot()
    b = build()
    b.restore(snap)
    ra, _ = batch_churn(a, random.Random(77), steps=25, clock=clock)
    rb, _ = batch_churn(b, random.Random(77), steps=25, clock=clock)
    assert ([record_tuple(r) for r in ra] + drain_tuples(a)
            == [record_tuple(r) for r in rb] + drain_tuples(b))
    assert dict(a.conservation()) == dict(b.conservation())


def test_snapshot_between_drain_until_chunks():
    """A checkpoint taken after a partial drain_until restores exactly."""
    sched = build_tree()
    sched.enqueue_batch([Packet(str(i % 6), 1000) for i in range(30)],
                        now=F(0))
    sched.drain_until(F(9, 1000))  # stop part-way through the backlog
    snap = sched.snapshot()
    first = drain_tuples(sched)
    assert first
    sched.restore(snap)
    assert drain_tuples(sched) == first


class TestJointCheckpointUnderBatchDrain:
    """checkpoint(sim, link) while the Link's burst-drain path is active."""

    END = 0.06

    def build(self):
        sched = WF2QPlusScheduler(1e6)
        for i in range(4):
            sched.add_flow(str(i), 1 + i % 2)
        sim = Simulator()
        trace = ServiceTrace()
        link = Link(sim, sched, trace=trace)
        sources = [
            CBRSource(str(i), 2.4e5, 1000, start_time=i * 1e-4,
                      stop_time=0.05).attach(sim, link).start()
            for i in range(4)
        ]
        return sim, link, trace, sources

    @staticmethod
    def _restore_sources(sources, snaps):
        # The simulator snapshot already holds each source's pending
        # emission event by reference, so restore only the counters and
        # RNG state — a re-schedule here would double-emit.
        for src, snap in zip(sources, snaps):
            src.restore(dict(snap, pending_time=None))

    def test_rollback_replays_services_and_arrivals(self):
        sim, link, trace, sources = self.build()
        sim.run(until=0.02)
        assert link.current is not None  # mid-transmission checkpoint
        snap = checkpoint(sim, link)
        src_snaps = [s.snapshot() for s in sources]
        n_srv, n_arr = len(trace.services), len(trace.arrivals)

        sim.run(until=self.END)
        tail_srv = [record_tuple(r) for r in trace.services[n_srv:]]
        tail_arr = trace.arrivals[n_arr:]
        ledger = dict(link.scheduler.conservation())
        assert len(tail_srv) >= 30

        rollback(sim, link, snap)
        self._restore_sources(sources, src_snaps)
        mark_srv, mark_arr = len(trace.services), len(trace.arrivals)
        sim.run(until=self.END)

        assert [record_tuple(r)
                for r in trace.services[mark_srv:]] == tail_srv
        assert trace.arrivals[mark_arr:] == tail_arr
        assert dict(link.scheduler.conservation()) == ledger

    def test_source_seqnos_replay_identically(self):
        sim, link, trace, sources = self.build()
        sim.run(until=0.02)
        snap = checkpoint(sim, link)
        src_snaps = [s.snapshot() for s in sources]
        n = len(trace.services)
        sim.run(until=self.END)
        tail = [(r.flow_id, r.packet.seqno) for r in trace.services[n:]]

        rollback(sim, link, snap)
        self._restore_sources(sources, src_snaps)
        mark = len(trace.services)
        sim.run(until=self.END)
        assert [(r.flow_id, r.packet.seqno)
                for r in trace.services[mark:]] == tail


class TestCheckpointUnderFaultPlan:
    """Rollback must also replay live set_share / link_rate faults."""

    END = 0.08

    def build(self):
        sched = WF2QPlusScheduler(1e6)
        for i in range(4):
            sched.add_flow(str(i), 1)
        sim = Simulator()
        trace = ServiceTrace()
        link = Link(sim, sched, trace=trace)
        sources = [
            CBRSource(str(i), 2.4e5, 1000, start_time=i * 1e-4,
                      stop_time=0.06).attach(sim, link).start()
            for i in range(4)
        ]
        plan = FaultPlan(seed=13)
        plan.set_share(0.01, "2", 5)        # before the checkpoint
        plan.link_rate(0.03, 6e5)           # after it: must replay
        plan.set_share(0.045, "0", 4)       # after it: must replay
        FaultInjector(plan, link).arm()
        return sim, link, trace, sources

    def test_rollback_replays_fault_timeline(self):
        sim, link, trace, sources = self.build()
        sim.run(until=0.02)
        snap = checkpoint(sim, link)
        src_snaps = [s.snapshot() for s in sources]
        n = len(trace.services)

        sim.run(until=self.END)
        tail = [record_tuple(r) for r in trace.services[n:]]
        rate_after = link.scheduler.rate
        ledger = dict(link.scheduler.conservation())
        assert rate_after == 6e5  # the post-checkpoint fault landed

        rollback(sim, link, snap)
        assert link.scheduler.rate == 1e6  # rolled back before the fault
        for src, s in zip(sources, src_snaps):
            src.restore(dict(s, pending_time=None))
        mark = len(trace.services)
        sim.run(until=self.END)

        assert [record_tuple(r) for r in trace.services[mark:]] == tail
        assert link.scheduler.rate == rate_after
        assert dict(link.scheduler.conservation()) == ledger
