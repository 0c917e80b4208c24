"""Tests for the traffic source models."""

import random

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
        lambda nan: CBRSource("f", 1000, 100, start_time=nan),
        lambda nan: CBRSource("f", 1000, 100, stop_time=nan),
        lambda nan: PoissonSource("f", 1000, 100, start_time=nan,
                                  stop_time=1.0),
    ], ids=["cbr-rate", "poisson-rate", "length", "onoff-peak", "onoff-on",
            "onoff-off", "train-interval", "train-line-rate", "start-time",
            "stop-time", "start-time-with-stop"])
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


# ----------------------------------------------------------------------
# Snapshots written when sources pre-drew their arrival times
# ----------------------------------------------------------------------
#: The four sources whose snapshots used to carry pre-drawn times.
PARENT_SOURCES = {
    "cbr": lambda: CBRSource("x", 2e5, 1000.0, start_time=0.0003),
    "poisson": lambda: PoissonSource("x", 1e5, 1000.0, seed=5,
                                     stop_time=0.5),
    "onoff": lambda: OnOffSource("x", 8e4, 1000.0, on_duration=0.0315,
                                 off_duration=0.0185, start_time=0.009),
    "train": lambda: PacketTrainSource("x", 1000.0, train_length=5,
                                       train_interval=0.004, line_rate=1e7,
                                       jitter=0.001, jitter_seed=2),
}

#: The seed of each random source's generator.
PARENT_SEEDS = {"poisson": 5, "train": 2}

#: Snapshots of the sources above, as written by the code that pre-drew
#: arrivals in refills of 1, 2, 4, 8, ... times, cut after the 2nd, 5th
#: and 10th emission (inside refills of 2, 4 and 8).  Each cut appears in
#: the two shapes that code wrote: only the times still to come after the
#: pending one (``timetable_idx`` 0), and, before that, the whole refill
#: with a cursor.  Every field is verbatim except ``rng``: the generator
#: state (625 words) is given as the number of draws from the seed.
PARENT_SNAPSHOTS = {
    ("cbr", 2, "tail"): {
        "flow_id": "x", "packets_sent": 2, "bits_sent": 2000.0,
        "pending_time": 0.0103, "timetable": [0.015300000000000001],
        "timetable_idx": 0, "extra": None},
    ("cbr", 2, "table"): {
        "flow_id": "x", "packets_sent": 2, "bits_sent": 2000.0,
        "pending_time": 0.0103,
        "timetable": [0.0103, 0.015300000000000001],
        "timetable_idx": 1, "extra": None},
    ("cbr", 5, "tail"): {
        "flow_id": "x", "packets_sent": 5, "bits_sent": 5000.0,
        "pending_time": 0.025300000000000003,
        "timetable": [0.030300000000000004, 0.035300000000000005],
        "timetable_idx": 0, "extra": None},
    ("cbr", 5, "table"): {
        "flow_id": "x", "packets_sent": 5, "bits_sent": 5000.0,
        "pending_time": 0.025300000000000003,
        "timetable": [0.020300000000000002, 0.025300000000000003,
                      0.030300000000000004, 0.035300000000000005],
        "timetable_idx": 2, "extra": None},
    ("cbr", 10, "tail"): {
        "flow_id": "x", "packets_sent": 10, "bits_sent": 10000.0,
        "pending_time": 0.0503,
        "timetable": [0.055299999999999995, 0.06029999999999999, 0.0653,
                      0.0703, 0.0753],
        "timetable_idx": 0, "extra": None},
    ("cbr", 10, "table"): {
        "flow_id": "x", "packets_sent": 10, "bits_sent": 10000.0,
        "pending_time": 0.0503,
        "timetable": [0.0403, 0.0453, 0.0503, 0.055299999999999995,
                      0.06029999999999999, 0.0653, 0.0703, 0.0753],
        "timetable_idx": 3, "extra": None},
    ("poisson", 2, "tail"): {
        "flow_id": "x", "packets_sent": 2, "bits_sent": 2000.0,
        "pending_time": 0.023292197809436904,
        "timetable": [0.039149097491177676],
        "timetable_idx": 0, "extra": None, "rng": 3},
    ("poisson", 2, "table"): {
        "flow_id": "x", "packets_sent": 2, "bits_sent": 2000.0,
        "pending_time": 0.023292197809436904,
        "timetable": [0.023292197809436904, 0.039149097491177676],
        "timetable_idx": 1, "extra": None, "rng": 3},
    ("poisson", 5, "tail"): {
        "flow_id": "x", "packets_sent": 5, "bits_sent": 5000.0,
        "pending_time": 0.08116699450790033,
        "timetable": [0.10671921231563121, 0.10701355426700576],
        "timetable_idx": 0, "extra": None, "rng": 7},
    ("poisson", 5, "table"): {
        "flow_id": "x", "packets_sent": 5, "bits_sent": 5000.0,
        "pending_time": 0.08116699450790033,
        "timetable": [0.06770015823909423, 0.08116699450790033,
                      0.10671921231563121, 0.10701355426700576],
        "timetable_idx": 2, "extra": None, "rng": 7},
    ("poisson", 10, "tail"): {
        "flow_id": "x", "packets_sent": 10, "bits_sent": 10000.0,
        "pending_time": 0.15245886905168232,
        "timetable": [0.17557517704992456, 0.1767766023229604,
                      0.18310783531979394, 0.1859390645665082,
                      0.19378644632084557],
        "timetable_idx": 0, "extra": None, "rng": 15},
    ("poisson", 10, "table"): {
        "flow_id": "x", "packets_sent": 10, "bits_sent": 10000.0,
        "pending_time": 0.15245886905168232,
        "timetable": [0.1132800847653345, 0.14198990345209495,
                      0.15245886905168232, 0.17557517704992456,
                      0.1767766023229604, 0.18310783531979394,
                      0.1859390645665082, 0.19378644632084557],
        "timetable_idx": 3, "extra": None, "rng": 15},
    ("onoff", 2, "tail"): {
        "flow_id": "x", "packets_sent": 2, "bits_sent": 2000.0,
        "pending_time": 0.034, "timetable": [0.059000000000000004],
        "timetable_idx": 0, "extra": None},
    ("onoff", 2, "table"): {
        "flow_id": "x", "packets_sent": 2, "bits_sent": 2000.0,
        "pending_time": 0.034, "timetable": [0.034, 0.059000000000000004],
        "timetable_idx": 1, "extra": None},
    ("onoff", 5, "tail"): {
        "flow_id": "x", "packets_sent": 5, "bits_sent": 5000.0,
        "pending_time": 0.084, "timetable": [0.109, 0.1215],
        "timetable_idx": 0, "extra": None},
    ("onoff", 5, "table"): {
        "flow_id": "x", "packets_sent": 5, "bits_sent": 5000.0,
        "pending_time": 0.084,
        "timetable": [0.07150000000000001, 0.084, 0.109, 0.1215],
        "timetable_idx": 2, "extra": None},
    ("onoff", 10, "tail"): {
        "flow_id": "x", "packets_sent": 10, "bits_sent": 10000.0,
        "pending_time": 0.17150000000000004,
        "timetable": [0.18400000000000005, 0.20900000000000002,
                      0.22150000000000003, 0.23400000000000004, 0.259],
        "timetable_idx": 0, "extra": None},
    ("onoff", 10, "table"): {
        "flow_id": "x", "packets_sent": 10, "bits_sent": 10000.0,
        "pending_time": 0.17150000000000004,
        "timetable": [0.134, 0.15900000000000003, 0.17150000000000004,
                      0.18400000000000005, 0.20900000000000002,
                      0.22150000000000003, 0.23400000000000004, 0.259],
        "timetable_idx": 3, "extra": None},
    ("train", 2, "tail"): {
        "flow_id": "x", "packets_sent": 2, "bits_sent": 2000.0,
        "pending_time": 0.0002, "timetable": [0.00030000000000000003],
        "timetable_idx": 0, "extra": {"position": 3}, "rng": 0},
    ("train", 2, "table"): {
        "flow_id": "x", "packets_sent": 2, "bits_sent": 2000.0,
        "pending_time": 0.0002,
        "timetable": [0.0002, 0.00030000000000000003],
        "timetable_idx": 1, "extra": {"position": 3}, "rng": 0},
    ("train", 5, "tail"): {
        "flow_id": "x", "packets_sent": 5, "bits_sent": 5000.0,
        "pending_time": 0.004912068543778499,
        "timetable": [0.005012068543778499, 0.0051120685437785],
        "timetable_idx": 0, "extra": {"position": 2}, "rng": 1},
    ("train", 5, "table"): {
        "flow_id": "x", "packets_sent": 5, "bits_sent": 5000.0,
        "pending_time": 0.004912068543778499,
        "timetable": [0.0004, 0.004912068543778499, 0.005012068543778499,
                      0.0051120685437785],
        "timetable_idx": 2, "extra": {"position": 2}, "rng": 1},
    ("train", 10, "tail"): {
        "flow_id": "x", "packets_sent": 10, "bits_sent": 10000.0,
        "pending_time": 0.009807723517897198,
        "timetable": [0.009907723517897198, 0.010007723517897197,
                      0.010107723517897196, 0.010207723517897196,
                      0.012920826253350812],
        "timetable_idx": 0, "extra": {"position": 0}, "rng": 3},
    ("train", 10, "table"): {
        "flow_id": "x", "packets_sent": 10, "bits_sent": 10000.0,
        "pending_time": 0.009807723517897198,
        "timetable": [0.0052120685437785, 0.0053120685437785,
                      0.009807723517897198, 0.009907723517897198,
                      0.010007723517897197, 0.010107723517897196,
                      0.010207723517897196, 0.012920826253350812],
        "timetable_idx": 3, "extra": {"position": 0}, "rng": 3},
}

#: Horizon of every arrival stream compared below.
HORIZON = 0.5


class Collector:
    """Stands in for the link: records (seqno, length, time) per packet."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def send(self, packet):
        self.sent.append((packet.seqno, packet.length, self.sim.now))
        return True


def arrivals(source, snap=None, until=HORIZON):
    """Run ``source`` (started, or restored from ``snap``) to ``until``."""
    sim = Simulator()
    collector = Collector(sim)
    source.attach(sim, collector)
    if snap is None:
        source.start()
    else:
        source.restore(snap)
    sim.run(until=until)
    return collector.sent


def parent_snapshot(kind, cut, shape):
    """The literal snapshot, with its generator state rebuilt."""
    snap = dict(PARENT_SNAPSHOTS[kind, cut, shape])
    draws = snap.pop("rng", None)
    if draws is not None:
        # expovariate and uniform each take one random() per draw.
        rng = random.Random(PARENT_SEEDS[kind])
        for _ in range(draws):
            rng.random()
        snap["rng"] = rng.getstate()
    return snap


class TestParentTimetableSnapshots:
    """A snapshot that still owes pre-drawn times emits them, then
    resumes ``next_gap``: the stream is the uninterrupted one.  That each
    snapshot above restores to it is checked by
    ``tests/test_sim_fastpath.py::TestTimetableEquivalence``."""

    @pytest.mark.parametrize("kind", sorted(PARENT_SOURCES))
    @pytest.mark.parametrize("shape", ["tail", "table"])
    def test_snapshot_again_before_the_owed_times_run_out(self, kind, shape):
        whole = arrivals(PARENT_SOURCES[kind]())
        snap = parent_snapshot(kind, 10, shape)
        owed = snap["timetable"][snap["timetable_idx"]:]
        # Emit the pending time and two owed ones, then cut: the third
        # owed time is pending and two more are still owed.
        cut = (owed[1] + owed[2]) / 2
        sim = Simulator()
        first = Collector(sim)
        source = PARENT_SOURCES[kind]().attach(sim, first).restore(snap)
        sim.run(until=cut)
        again = source.snapshot()
        assert again["pending_time"] == owed[2]
        assert again["timetable"] == owed[3:]
        assert again["timetable_idx"] == 0
        rest = arrivals(PARENT_SOURCES[kind](), again)
        assert first.sent + rest == whole[10:]

    @pytest.mark.parametrize("kind", sorted(PARENT_SOURCES))
    def test_snapshot_keeps_its_keys_and_owes_nothing(self, kind):
        sim = Simulator()
        source = PARENT_SOURCES[kind]().attach(sim, Collector(sim)).start()
        sim.run(until=0.05)
        snap = source.snapshot()
        assert {"flow_id", "packets_sent", "bits_sent", "pending_time",
                "timetable", "timetable_idx", "extra"} <= set(snap)
        assert snap["timetable"] == []
        assert snap["timetable_idx"] == 0
        whole = arrivals(PARENT_SOURCES[kind]())
        rest = arrivals(PARENT_SOURCES[kind](), snap)
        assert rest == whole[source.packets_sent:]
