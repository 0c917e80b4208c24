"""Tests for the Link component and the measurement probes."""

import pytest

from repro.core.fifo import FIFOScheduler
from repro.core.packet import Packet
from repro.core.wf2qplus import WF2QPlusScheduler
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import DelayMonitor, ServiceTrace


def setup(rate=1000.0, scheduler_cls=FIFOScheduler, **link_kw):
    sim = Simulator()
    sched = scheduler_cls(rate)
    sched.add_flow("a", 1)
    sched.add_flow("b", 1)
    trace = ServiceTrace()
    link = Link(sim, sched, trace=trace, **link_kw)
    return sim, sched, link, trace


class TestLink:
    def test_transmission_pacing(self):
        sim, _sched, link, trace = setup(rate=1000.0)
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.schedule(0.0, lambda: link.send(Packet("a", 200)))
        sim.run()
        f = [r.finish_time for r in trace.services]
        assert f == [pytest.approx(0.1), pytest.approx(0.3)]
        assert link.bits_sent == 300
        assert link.packets_sent == 2

    def test_work_conserving_after_idle(self):
        sim, _sched, link, trace = setup()
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.schedule(5.0, lambda: link.send(Packet("a", 100)))
        sim.run()
        starts = [r.start_time for r in trace.services]
        assert starts == [0.0, 5.0]

    def test_receiver_called_on_delivery(self):
        sim, _sched, link, _trace = setup()
        got = []
        link.receiver = lambda p, t: got.append((p.flow_id, t))
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.run()
        assert got == [("a", pytest.approx(0.1))]

    def test_propagation_delay(self):
        sim, _sched, link, _trace = setup(propagation_delay=0.5)
        got = []
        link.receiver = lambda p, t: got.append(t)
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.run()
        assert got == [pytest.approx(0.6)]

    def test_negative_propagation_rejected(self):
        sim = Simulator()
        sched = FIFOScheduler(1.0)
        with pytest.raises(SimulationError):
            Link(sim, sched, propagation_delay=-1)

    def test_nan_propagation_rejected(self):
        sim = Simulator()
        sched = FIFOScheduler(1000.0)
        with pytest.raises(SimulationError):
            Link(sim, sched, propagation_delay=float("nan"))

    def test_drops_counted_and_callbacked(self):
        sim, sched, link, trace = setup()
        sched.set_buffer_limit("a", 1)
        dropped = []
        link.drop_callback = lambda p, t: dropped.append(p)
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.run()
        # First packet enters service immediately, freeing the buffer slot;
        # the second waits; the third finds the buffer full.
        assert link.packets_dropped == 1
        assert len(dropped) == 1
        assert len(trace.arrivals) == 2

    def test_utilization(self):
        sim, _sched, link, _trace = setup(rate=1000.0)
        sim.schedule(0.0, lambda: link.send(Packet("a", 500)))
        sim.run(until=1.0)
        assert link.utilization == pytest.approx(0.5)

    def test_utilization_across_rate_change(self):
        # Busy time must be integrated per transmission: 0.5 s at 1000 bps
        # plus 1.0 s at 500 bps = 1.5 s busy out of 4 s.  The old
        # ``bits_sent / (rate * now)`` formula would report
        # 1000 / (500 * 4) = 0.5 after the rate drop.
        sim, _sched, link, _trace = setup(rate=1000.0)
        sim.schedule(0.0, lambda: link.send(Packet("a", 500)))
        sim.schedule(1.0, lambda: link.set_rate(500.0))
        sim.schedule(1.0, lambda: link.send(Packet("a", 500)))
        sim.run(until=4.0)
        assert link.busy_time == pytest.approx(1.5)
        assert link.utilization == pytest.approx(1.5 / 4.0)

    def test_utilization_counts_packet_in_flight(self):
        sim, _sched, link, _trace = setup(rate=1000.0)
        sim.schedule(0.0, lambda: link.send(Packet("a", 500)))
        sim.run(until=0.25)
        # Mid-transmission: the in-flight portion counts.
        assert link.utilization == pytest.approx(1.0)
        sim.run(until=2.0)
        assert link.utilization == pytest.approx(0.25)


class TestServiceTrace:
    def make_trace(self):
        sim, _sched, link, trace = setup(rate=100.0, scheduler_cls=WF2QPlusScheduler)
        for k in range(3):
            sim.schedule(k * 1.0, lambda k=k: link.send(Packet("a", 100, seqno=k)))
        sim.schedule(0.5, lambda: link.send(Packet("b", 100, seqno=0)))
        sim.run()
        return trace

    def test_flows_and_counts(self):
        trace = self.make_trace()
        assert trace.flows() == ["a", "b"]
        assert trace.packets_served() == 4
        assert trace.packets_served("a") == 3
        assert trace.bits_served("b") == 100

    def test_delays(self):
        trace = self.make_trace()
        d = trace.delays("a")
        assert len(d) == 3
        assert d[0] == (0.0, pytest.approx(1.0))
        assert trace.max_delay("a") >= trace.mean_delay("a") > 0
        assert trace.max_delay("nope") == 0.0

    def test_curves_are_monotone_steps(self):
        trace = self.make_trace()
        ac = trace.arrival_curve("a")
        sc = trace.service_curve("a")
        assert [v for _t, v in ac] == [1, 2, 3]
        assert [v for _t, v in sc] == [1, 2, 3]
        assert all(t1 <= t2 for (t1, _), (t2, _) in zip(sc, sc[1:]))

    def test_bits_served_until(self):
        trace = self.make_trace()
        assert trace.bits_served("a", until=1.01) == 100

    def test_curve_units(self):
        trace = self.make_trace()
        bits_curve = trace.arrival_curve("a", unit="bits")
        assert [v for _t, v in bits_curve] == [100, 200, 300]


class TestDelayMonitor:
    def test_streaming_stats(self):
        mon = DelayMonitor()
        sim, _sched, link, trace = setup(rate=100.0)
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.schedule(0.0, lambda: link.send(Packet("a", 100)))
        sim.run()
        for rec in trace.services:
            mon.observe(rec)
        assert mon.count("a") == 2
        assert mon.maximum("a") == pytest.approx(2.0)
        assert mon.mean("a") == pytest.approx(1.5)
        assert mon.flows() == ["a"]

    def test_unstamped_packets_skipped(self):
        mon = DelayMonitor()

        class Rec:
            packet = Packet("x", 1)
            finish_time = 1.0
            flow_id = "x"
        Rec.packet.arrival_time = None
        mon.observe(Rec)
        assert mon.count("x") == 0
