"""Differential suite: burst-drain fast path vs the plain event loop.

The link's event-eliding fast path (``Link(burst_drain=True)``, the
default) must never be observable except as wall-clock speed: the same
simulation run with ``burst_drain=False`` has to produce packet-for-packet
identical service traces, identical obs event streams, and an identical
drop ledger — exactly, not approximately (and bit-exactly under
``Fraction`` inputs).

Every scenario here runs the *same* configuration twice, once per path,
with the global packet-uid counter reset so even the uids line up, then
compares everything the simulation can externally exhibit.
"""

import itertools
from fractions import Fraction

import pytest

import repro.core.packet as packet_mod
from repro.config import leaf, node
from repro.core import FIFOScheduler, HPFQScheduler, WF2QPlusScheduler
from repro.core.packet import Packet
from repro.faults.checkpoint import checkpoint, rollback
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import ServiceTrace
from repro.traffic.source import (
    CBRSource,
    OnOffSource,
    PacketTrainSource,
    PoissonSource,
)
from tests.test_traffic import PARENT_SOURCES, arrivals, parent_snapshot

RATE = 1e6          # bps
LENGTH = 1000.0     # bits -> 1 ms per packet at full rate
FLOWS = ["f0", "f1", "f2", "f3", "f4", "f5"]


class RecordingSink:
    """Minimal obs sink: keeps every event in arrival order."""

    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)


def _tree_spec():
    return node("root", 1, [
        node("left", 2, [leaf("f0", 3), leaf("f1", 1), leaf("f2", 2)]),
        node("right", 1, [leaf("f3", 1), leaf("f4", 2), leaf("f5", 1)]),
    ])


def make_scheduler(kind, rate=RATE):
    if kind == "fifo":
        sched = FIFOScheduler(rate)
    elif kind == "wf2qplus":
        sched = WF2QPlusScheduler(rate)
    else:
        return HPFQScheduler(_tree_spec(), rate, policy="wf2qplus")
    for i, fid in enumerate(FLOWS):
        sched.add_flow(fid, 1 + (i % 3))
    return sched


def make_sources(profile, rate=RATE, length=LENGTH):
    if profile == "churn":
        # Oversubscribed mixed arrivals: steady CBR plus Poisson chatter.
        return [
            CBRSource("f0", 0.35 * rate, length, start_time=0.0),
            CBRSource("f1", 0.30 * rate, length, start_time=0.0007),
            CBRSource("f2", 0.25 * rate, length, start_time=0.0013),
            PoissonSource("f3", 0.30 * rate, length, seed=7),
            PoissonSource("f4", 0.25 * rate, length, seed=11),
            CBRSource("f5", 0.20 * rate, length, start_time=0.002),
        ]
    # Bursty: back-to-back trains and duty-cycled peaks, so busy periods
    # end (every boundary crosses the drain's engage/disengage edges).
    return [
        PacketTrainSource("f0", length, train_length=12, train_interval=0.05,
                          line_rate=8 * rate),
        PacketTrainSource("f1", length, train_length=8, train_interval=0.04,
                          line_rate=8 * rate, start_time=0.011,
                          jitter=0.002, jitter_seed=3),
        OnOffSource("f2", 0.8 * rate, length, on_duration=0.01,
                    off_duration=0.03),
        OnOffSource("f3", 0.6 * rate, length, on_duration=0.015,
                    off_duration=0.025, start_time=0.004),
        PoissonSource("f4", 0.15 * rate, length, seed=23),
        CBRSource("f5", 0.10 * rate, length),
    ]


def run_pipeline(burst_drain, sched_kind, profile, duration=0.6,
                 buffer_limit=25, fault=None):
    """One full end-to-end run; returns everything observable."""
    packet_mod._packet_ids = itertools.count()
    sim = Simulator()
    sched = make_scheduler(sched_kind)
    if buffer_limit is not None:
        for fid in FLOWS:
            sched.set_buffer_limit(fid, buffer_limit)
    trace = ServiceTrace()
    link = Link(sim, sched, trace=trace, burst_drain=burst_drain)
    sink = RecordingSink()
    link.attach_observer(sink)
    dropped = []
    link.drop_callback = lambda p, t: dropped.append((p.flow_id, p.seqno, t))
    for src in make_sources(profile):
        src.attach(sim, link).start()
    if fault is not None:
        fault(sim, link)
    sim.run(until=duration)
    return {
        "sim": sim,
        "link": link,
        "trace": trace,
        "events": sink.events,
        "dropped": dropped,
    }


def trace_signature(trace):
    return (
        list(trace.arrivals),
        [(r.packet.uid, r.packet.flow_id, r.packet.seqno, r.packet.length,
          r.packet.arrival_time, r.start_time, r.finish_time,
          r.virtual_start, r.virtual_finish)
         for r in trace.services],
    )


def assert_equivalent(fast, plain):
    assert trace_signature(fast["trace"]) == trace_signature(plain["trace"])
    assert fast["events"] == plain["events"]
    assert fast["dropped"] == plain["dropped"]
    assert fast["link"].packets_dropped == plain["link"].packets_dropped
    assert fast["link"].packets_sent == plain["link"].packets_sent
    assert fast["link"].bits_sent == plain["link"].bits_sent
    assert fast["link"].busy_time == pytest.approx(plain["link"].busy_time)
    assert fast["sim"].now == plain["sim"].now


@pytest.mark.parametrize("sched_kind", ["fifo", "wf2qplus", "hwf2qplus"])
@pytest.mark.parametrize("profile", ["churn", "bursty"])
def test_fast_path_equivalence(sched_kind, profile):
    fast = run_pipeline(True, sched_kind, profile)
    plain = run_pipeline(False, sched_kind, profile)
    # The scenario must be non-trivial on both axes: the fast path really
    # elided events, and the workload really transmitted and dropped.
    assert fast["sim"].events_elided > 0
    assert plain["sim"].events_elided == 0
    assert fast["link"].packets_sent > 100
    if profile == "churn":
        assert fast["link"].packets_dropped > 0
    assert_equivalent(fast, plain)


@pytest.mark.parametrize("sched_kind", ["fifo", "wf2qplus"])
def test_fast_path_equivalence_under_pause_resume(sched_kind):
    def fault(sim, link):
        for k in range(4):
            sim.schedule(0.05 + 0.1 * k, link.pause)
            sim.schedule(0.08 + 0.1 * k, link.resume)

    fast = run_pipeline(True, sched_kind, "bursty", fault=fault)
    plain = run_pipeline(False, sched_kind, "bursty", fault=fault)
    assert fast["sim"].events_elided > 0
    assert_equivalent(fast, plain)


@pytest.mark.parametrize("profile", ["churn", "bursty"])
def test_fast_path_equivalence_under_set_rate(profile):
    def fault(sim, link):
        sim.schedule(0.15, link.set_rate, RATE / 2)
        sim.schedule(0.35, link.set_rate, RATE * 2)
        sim.schedule(0.5, link.set_rate, RATE)

    fast = run_pipeline(True, "wf2qplus", profile, fault=fault)
    plain = run_pipeline(False, "wf2qplus", profile, fault=fault)
    assert fast["sim"].events_elided > 0
    assert_equivalent(fast, plain)


@pytest.mark.parametrize("sched_kind", ["fifo", "wf2qplus", "hwf2qplus"])
def test_fast_path_equivalence_under_checkpoint_rollback(sched_kind):
    def run(burst_drain):
        packet_mod._packet_ids = itertools.count()
        sim = Simulator()
        sched = make_scheduler(sched_kind)
        trace = ServiceTrace()
        link = Link(sim, sched, trace=trace, burst_drain=burst_drain)
        sink = RecordingSink()
        link.attach_observer(sink)
        for src in make_sources("bursty"):
            src.attach(sim, link).start()
        sim.run(until=0.2)
        snap = checkpoint(sim, link)
        sim.run(until=0.4)
        rollback(sim, link, snap)
        sim.run(until=0.45)
        return {"sim": sim, "link": link, "trace": trace,
                "events": sink.events, "dropped": []}

    fast = run(True)
    plain = run(False)
    assert fast["sim"].events_elided > 0
    assert_equivalent(fast, plain)


class TestFractionExactness:
    """The equivalence is exact arithmetic, not approximate timing."""

    def build(self, burst_drain):
        packet_mod._packet_ids = itertools.count()
        rate = Fraction(10**6)
        length = Fraction(1000)
        sim = Simulator()
        sched = WF2QPlusScheduler(rate)
        for i, fid in enumerate(FLOWS[:4]):
            sched.add_flow(fid, 1 + i)
        trace = ServiceTrace()
        link = Link(sim, sched, trace=trace, burst_drain=burst_drain)
        sources = [
            CBRSource("f0", Fraction(2, 5) * rate, length,
                      start_time=Fraction(0)),
            CBRSource("f1", Fraction(3, 10) * rate, length,
                      start_time=Fraction(1, 1000)),
            OnOffSource("f2", Fraction(4, 5) * rate, length,
                        on_duration=Fraction(1, 100),
                        off_duration=Fraction(3, 100),
                        start_time=Fraction(0)),
            CBRSource("f3", Fraction(1, 5) * rate, length,
                      start_time=Fraction(1, 500)),
        ]
        for src in sources:
            src.attach(sim, link).start()
        sim.run(until=Fraction(1, 2))
        return sim, trace

    def test_fraction_traces_identical(self):
        sim_fast, fast = self.build(True)
        sim_plain, plain = self.build(False)
        assert sim_fast.events_elided > 0
        fast_sig = trace_signature(fast)
        plain_sig = trace_signature(plain)
        assert fast_sig == plain_sig
        # Exactness: service timestamps stayed rational end to end.
        services = fast.services
        assert len(services) > 50
        for record in services:
            assert isinstance(record.finish_time, Fraction)


class TestTimetableEquivalence:
    """Pre-drawn arrivals must not be observable either: a snapshot
    written while a source pre-drew its arrivals in growing refills
    restores to the uninterrupted stream, in both shapes that code wrote
    (``legacy``: the whole refill and a cursor)."""

    @pytest.mark.parametrize("kind", ["poisson", "train", "cbr", "onoff"])
    @pytest.mark.parametrize("legacy", [False, True], ids=["tail", "legacy"])
    def test_snapshot_restore_during_growth(self, kind, legacy):
        whole = arrivals(PARENT_SOURCES[kind]())
        for cut in (2, 5, 10):
            snap = parent_snapshot(kind, cut, "table" if legacy else "tail")
            owed = snap["timetable"][snap["timetable_idx"]:]
            assert owed, cut
            rest = arrivals(PARENT_SOURCES[kind](), snap)
            assert rest == whole[cut:], cut
            # The owed times are emitted as written, after the pending one.
            assert [t for *_rest, t in rest[:1 + len(owed)]] == (
                [snap["pending_time"]] + owed), cut


class TestDrainBoundaries:
    """Targeted edge cases for the drain's engage/disengage conditions."""

    def setup_link(self, burst_drain=True, **kw):
        sim = Simulator()
        sched = FIFOScheduler(1000.0)
        sched.add_flow("a", 1)
        trace = ServiceTrace()
        link = Link(sim, sched, trace=trace, burst_drain=burst_drain, **kw)
        return sim, sched, link, trace

    def test_equal_time_event_disengages_drain(self):
        # An event at exactly a packet's finish time must see the same
        # world as in the plain path: the finish (priority -1) first.
        order = []

        def run(burst_drain):
            sim, _sched, link, trace = self.setup_link(burst_drain)
            for k in range(4):
                sim.schedule(0.0, lambda k=k: link.send(Packet("a", 100)))
            # t=0.2 is exactly the second packet's finish time.
            sim.schedule(0.2, lambda: order.append(
                (burst_drain, link.packets_sent, sim.now)))
            sim.run()
            return trace

        fast = run(True)
        plain = run(False)
        assert [r.finish_time for r in fast.services] == \
            [r.finish_time for r in plain.services]
        assert order[0][1:] == order[1][1:] == (2, 0.2)

    def test_receiver_disables_drain(self):
        sim, _sched, link, _trace = self.setup_link()
        link.receiver = lambda p, t: None
        for _ in range(5):
            sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.run()
        assert sim.events_elided == 0
        assert link.packets_sent == 5

    def test_event_hook_disables_drain(self):
        sim, _sched, link, _trace = self.setup_link()
        hooked = []
        sim.event_hook = hooked.append
        for _ in range(5):
            sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.run()
        assert sim.events_elided == 0
        # One emission event per send plus one finish event per packet.
        assert len(hooked) == 10

    def test_max_events_disables_drain(self):
        sim, _sched, link, _trace = self.setup_link()
        for _ in range(5):
            sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.run(max_events=1000)
        assert sim.events_elided == 0
        assert link.packets_sent == 5

    def test_run_until_bounds_drain(self):
        # Backlog that would drain past `until` must stop at the horizon
        # with the in-flight packet's finish event pending, exactly like
        # the plain path.
        def run(burst_drain):
            sim, _sched, link, trace = self.setup_link(burst_drain)
            for _ in range(10):
                sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
            sim.run(until=0.45)
            return sim, link, trace

        sim_f, link_f, trace_f = run(True)
        sim_p, link_p, trace_p = run(False)
        assert sim_f.now == sim_p.now == 0.45
        assert link_f.packets_sent == link_p.packets_sent == 4
        assert [r.finish_time for r in trace_f.services] == \
            [r.finish_time for r in trace_p.services]
        # Continue: the remaining backlog must still transmit identically.
        sim_f.run()
        sim_p.run()
        assert link_f.packets_sent == link_p.packets_sent == 10
        assert [r.finish_time for r in trace_f.services] == \
            [r.finish_time for r in trace_p.services]

    def test_drain_counts_elisions(self):
        sim, _sched, link, _trace = self.setup_link()
        sim.schedule(0.0, lambda: [link.send(Packet("a", 100))
                                   for _ in range(8)])
        sim.run()
        # First packet is a scheduled finish event; the remaining 7 drain.
        assert sim.events_elided == 7
        assert link.packets_sent == 8
