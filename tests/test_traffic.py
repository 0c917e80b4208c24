"""Tests for the traffic source models."""

import pytest

from repro.core.fifo import FIFOScheduler
from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import ServiceTrace
from repro.traffic.source import (
    CBRSource,
    IntervalSource,
    OnOffSource,
    PacketTrainSource,
    PoissonSource,
    ShapedSource,
    TraceSource,
)


def harness(rate=1_000_000.0):
    sim = Simulator()
    sched = FIFOScheduler(rate)
    sched.add_flow("f", 1)
    trace = ServiceTrace()
    link = Link(sim, sched, trace=trace)
    return sim, link, trace


class TestSourceBase:
    def test_requires_attach(self):
        src = CBRSource("f", rate=1000, packet_length=100)
        with pytest.raises(ConfigurationError):
            src.start()

    def test_bad_packet_length(self):
        with pytest.raises(ConfigurationError):
            CBRSource("f", rate=1000, packet_length=0)

    @pytest.mark.parametrize("make", [
        lambda nan: CBRSource("f", nan, 100),
        lambda nan: PoissonSource("f", nan, 100),
        lambda nan: CBRSource("f", 1000, nan),
        lambda nan: OnOffSource("f", nan, 100, 0.1, 0.1),
        lambda nan: OnOffSource("f", 1000, 100, nan, 0.1),
        lambda nan: OnOffSource("f", 1000, 100, 0.1, nan),
        lambda nan: PacketTrainSource("f", 100, 5, nan, 1e6),
        lambda nan: PacketTrainSource("f", 100, 5, 0.1, nan),
    ], ids=["cbr-rate", "poisson-rate", "length", "onoff-peak", "onoff-on",
            "onoff-off", "train-interval", "train-line-rate"])
    def test_nan_parameter_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make(float("nan"))

    def test_stop_before_start_rejected(self):
        with pytest.raises(ConfigurationError):
            CBRSource("f", 1000, 100, start_time=5, stop_time=4)


class TestCBR:
    def test_rate_and_spacing(self):
        sim, link, trace = harness()
        CBRSource("f", rate=1000.0, packet_length=100).attach(sim, link).start()
        sim.run(until=1.0)
        times = [t for _f, t, _l in trace.arrivals]
        assert len(times) == 11  # t = 0, 0.1, ..., 1.0 inclusive
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(0.1) for g in gaps)

    def test_stop_time(self):
        sim, link, trace = harness()
        CBRSource("f", rate=1000.0, packet_length=100,
                  stop_time=0.35).attach(sim, link).start()
        sim.run(until=1.0)
        assert len(trace.arrivals) == 4  # t = 0, .1, .2, .3

    def test_counters(self):
        sim, link, _trace = harness()
        src = CBRSource("f", rate=1000.0, packet_length=100).attach(sim, link).start()
        sim.run(until=0.55)
        assert src.packets_sent == 6
        assert src.bits_sent == 600


class TestPoisson:
    def test_mean_rate(self):
        sim, link, trace = harness()
        PoissonSource("f", rate=100_000.0, packet_length=1000,
                      seed=42).attach(sim, link).start()
        sim.run(until=50.0)
        bits = sum(length for _f, _t, length in trace.arrivals)
        assert bits / 50.0 == pytest.approx(100_000, rel=0.1)

    def test_deterministic_given_seed(self):
        def times(seed):
            sim, link, trace = harness()
            PoissonSource("f", 100_000.0, 1000, seed=seed).attach(sim, link).start()
            sim.run(until=1.0)
            return [t for _f, t, _l in trace.arrivals]
        assert times(7) == times(7)
        assert times(7) != times(8)


class TestOnOff:
    def test_emissions_confined_to_on_periods(self):
        sim, link, trace = harness()
        src = OnOffSource("f", peak_rate=100_000.0, packet_length=1000,
                          on_duration=0.025, off_duration=0.075,
                          start_time=0.2).attach(sim, link).start()
        sim.run(until=1.0)
        for _f, t, _l in trace.arrivals:
            phase = (t - 0.2) % 0.1
            # Float modulo can report a phase of ~0.0999 for an emission at
            # an exact cycle boundary (phase 0); accept both.
            in_on = phase < 0.025 + 1e-9 or 0.1 - phase < 1e-6
            assert in_on, f"emission at off-phase {phase}"
        assert src.packets_sent > 0

    def test_is_on(self):
        src = OnOffSource("f", 1000, 100, on_duration=1, off_duration=1,
                          start_time=10)
        assert not src.is_on(5)
        assert src.is_on(10.5)
        assert not src.is_on(11.5)
        assert src.is_on(12.5)

    def test_average_rate_is_duty_scaled(self):
        sim, link, trace = harness()
        OnOffSource("f", peak_rate=400_000.0, packet_length=1000,
                    on_duration=0.025, off_duration=0.075).attach(sim, link).start()
        sim.run(until=10.0)
        bits = sum(length for _f, _t, length in trace.arrivals)
        # ~quarter duty cycle -> ~100 kbps.
        assert bits / 10.0 == pytest.approx(100_000, rel=0.15)

    def test_float_phase_boundary_does_not_stall(self):
        """Regression: 0.3 % 0.1 == 0.0999... used to wedge the clock."""
        sim, link, trace = harness()
        OnOffSource("f", peak_rate=36e6, packet_length=65536,
                    on_duration=0.025, off_duration=0.075,
                    start_time=0.2).attach(sim, link).start()
        sim.run(until=2.0, max_events=100_000)
        assert sim.now == 2.0  # reached the horizon, no stall

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            OnOffSource("f", 0, 100, 1, 1)
        with pytest.raises(ConfigurationError):
            OnOffSource("f", 10, 100, 0, 1)


class TestIntervalSource:
    def test_emits_only_inside_intervals(self):
        sim, link, trace = harness()
        IntervalSource("f", peak_rate=100_000.0, packet_length=1000,
                       intervals=[(0.0, 0.1), (0.5, 0.6)]).attach(sim, link).start()
        sim.run(until=2.0)
        for _f, t, _l in trace.arrivals:
            assert t < 0.1 or 0.5 <= t < 0.6

    def test_open_ended_final_interval(self):
        sim, link, trace = harness()
        IntervalSource("f", 100_000.0, 1000,
                       intervals=[(0.0, None)], stop_time=0.5).attach(sim, link).start()
        sim.run(until=1.0)
        assert all(t <= 0.5 for _f, t, _l in trace.arrivals)
        assert len(trace.arrivals) > 10

    def test_is_on(self):
        src = IntervalSource("f", 1000, 100, intervals=[(1, 2), (3, None)])
        assert not src.is_on(0.5)
        assert src.is_on(1.5)
        assert not src.is_on(2.5)
        assert src.is_on(100)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalSource("f", 1000, 100, intervals=[(0, 2), (1, 3)])
        with pytest.raises(ConfigurationError):
            IntervalSource("f", 1000, 100, intervals=[(2, 1)])
        with pytest.raises(ConfigurationError):
            IntervalSource("f", 1000, 100, intervals=[])


class TestPacketTrain:
    def test_train_structure(self):
        sim, link, trace = harness(rate=100e6)
        PacketTrainSource("f", packet_length=1000, train_length=5,
                          train_interval=0.1,
                          line_rate=1_000_000.0).attach(sim, link).start()
        sim.run(until=0.35)
        times = [t for _f, t, _l in trace.arrivals]
        assert len(times) == 20  # 4 trains of 5
        # Within a train: 1ms spacing; between trains: large gap.
        gaps = [b - a for a, b in zip(times, times[1:])]
        in_train = [g for g in gaps if g < 0.01]
        between = [g for g in gaps if g >= 0.01]
        assert all(g == pytest.approx(0.001) for g in in_train)
        assert len(between) == 3

    def test_average_rate_property(self):
        src = PacketTrainSource("f", 1000, train_length=5,
                                train_interval=0.1, line_rate=1e6)
        assert src.average_rate == pytest.approx(50_000)

    def test_interval_too_short_rejected(self):
        # Rejected at construction, before any packet is sent.
        with pytest.raises(ConfigurationError):
            PacketTrainSource("f", 1000, train_length=100,
                              train_interval=0.01, line_rate=1e4)
        # A train that exactly fills its interval leaves no idle gap.
        with pytest.raises(ConfigurationError):
            PacketTrainSource("f", 1000, train_length=11,
                              train_interval=1.0, line_rate=1e4)

    def test_jitter_reproducible(self):
        def times(seed):
            sim, link, trace = harness()
            PacketTrainSource("f", 1000, 3, 0.1, 1e6, jitter=0.01,
                              jitter_seed=seed).attach(sim, link).start()
            sim.run(until=1.0)
            return [t for _f, t, _l in trace.arrivals]
        assert times(1) == times(1)
        assert times(1) != times(2)


class TestTraceSource:
    def test_exact_times(self):
        sim, link, trace = harness()
        TraceSource("f", [0.5, 0.1, 0.9], packet_length=100).attach(sim, link).start()
        sim.run()
        times = [t for _f, t, _l in trace.arrivals]
        assert times == [0.1, 0.5, 0.9]

    def test_per_packet_lengths(self):
        sim, link, trace = harness()
        TraceSource("f", [(0.1, 200), (0.2, 300)], packet_length=100).attach(sim, link).start()
        sim.run()
        lengths = [length for _f, _t, length in trace.arrivals]
        assert lengths == [200, 300]

    def test_simultaneous_arrivals(self):
        sim, link, trace = harness()
        TraceSource("f", [1.0, 1.0, 1.0], packet_length=100).attach(sim, link).start()
        sim.run()
        assert len(trace.arrivals) == 3


class TestShapedSource:
    def test_output_conforms_to_bucket(self):
        sim, link, trace = harness(rate=10e6)
        inner = TraceSource("f", [0.0] * 20, packet_length=1000)
        ShapedSource(inner, sigma=2000, rho=10_000).attach(sim, link).start()
        sim.run()
        times = [t for _f, t, _l in trace.arrivals]
        assert len(times) == 20
        # Envelope check: A(t1, t2) <= sigma + rho (t2 - t1).
        for i in range(len(times)):
            for j in range(i, len(times)):
                arrived = (j - i + 1) * 1000
                assert arrived <= 2000 + 10_000 * (times[j] - times[i]) + 1e-6

    def test_conforming_traffic_passes_untouched(self):
        sim, link, trace = harness()
        inner = TraceSource("f", [0.0, 1.0, 2.0], packet_length=100)
        ShapedSource(inner, sigma=1000, rho=1000).attach(sim, link).start()
        sim.run()
        times = [t for _f, t, _l in trace.arrivals]
        assert times == [0.0, 1.0, 2.0]
