"""The GPS fluid reference for a whole trace.

:func:`repro.analysis.fluid.fluid_finish_times` drives the online
:class:`~repro.core.gps.GPSFluidSystem`; these tests pin what the
analyses rely on: packets come back in input order with their tags and
finish times, per-flow chaining at one instant, busy-period resets,
exact ``Fraction`` results, an ``exact`` keyword that changes nothing,
and the validation errors.
"""

import random
from fractions import Fraction as Fr

import pytest

import repro.analysis as analysis
from repro.analysis.fluid import fluid_finish_times
from repro.errors import (
    ConfigurationError,
    DuplicateFlowError,
    UnknownFlowError,
)


class TestBatchedVsExact:
    """One whole-trace call, with and without ``exact`` (which changes
    nothing): order, tags, finish times and busy periods."""

    def test_exact_keyword_changes_nothing(self):
        rng = random.Random(1)
        flows = [(f"f{i}", rng.choice([1, 2, 3, 5])) for i in range(4)]
        arrivals, t = [], 0.0
        for _ in range(200):
            t += rng.choice([0.0, 0.01, 0.3, 2.5])
            arrivals.append((f"f{rng.randrange(4)}",
                             rng.choice([1, 2, 5, 10]) * 100.0, t))
        plain = fluid_finish_times(flows, arrivals, 100.0)
        exact = fluid_finish_times(flows, arrivals, 100.0, exact=True)
        assert [repr((p.virtual_start, p.virtual_finish, p.finish_time))
                for p in plain] == [
            repr((p.virtual_start, p.virtual_finish, p.finish_time))
            for p in exact]

    def test_interleaved_same_instant_arrivals(self):
        # Tags chain per flow at one instant, whatever the interleaving:
        # each flow has phi = 1/2, so r_i = 2.5 bit/s and L / r_i is 4
        # for a's 10-bit packets, 8 for b's and 12 for a's last.
        flows = [("a", 1), ("b", 1)]
        arrivals = [("a", 10, 0), ("b", 20, 0), ("a", 10, 0),
                    ("b", 20, 0), ("a", 30, 0)]
        pkts = fluid_finish_times(flows, arrivals, 5)
        assert [(p.virtual_start, p.virtual_finish) for p in pkts] == [
            (0, 4), (0, 8), (4, 8), (8, 16), (8, 20)]
        # V runs at slope 1 while both flows are backlogged (b's last bit
        # at V = 16, t = 16), then at slope 2 with a alone: 90 bits at 5
        # bit/s end at t = 18.
        assert [p.finish_time for p in pkts] == [4, 8, 8, 16, 18]

    def test_input_order_and_uids(self):
        flows = [("a", 1), ("b", 1)]
        arrivals = [("b", 10.0, 0.0), ("a", 20.0, 0.0), ("b", 5.0, 1.0)]
        pkts = fluid_finish_times(flows, arrivals, 1.0)
        assert [p.flow_id for p in pkts] == ["b", "a", "b"]
        assert [p.uid for p in pkts] == [0, 1, 2]
        assert [p.length for p in pkts] == [10.0, 20.0, 5.0]

    def test_busy_period_resets_virtual_time(self):
        flows = [("a", 1), ("b", 1)]
        # Burst drains fully (20 bits at rate 10 -> idle by t=2), so the
        # packet at t=100 restarts V at zero: same tags as the first.
        arrivals = [("a", 10.0, 0.0), ("b", 10.0, 0.0)]
        again = arrivals + [("a", 10.0, 100.0)]
        pkts = fluid_finish_times(flows, again, 10.0)
        assert pkts[2].virtual_start == pkts[0].virtual_start
        assert pkts[2].virtual_finish == pkts[0].virtual_finish
        assert pkts[2].finish_time == pytest.approx(100.0 + 1.0)

    def test_exact_mode_accepts_fractions(self):
        flows = [("a", Fr(1, 3)), ("b", Fr(2, 3))]
        arrivals = [("a", Fr(1), Fr(0)), ("b", Fr(1), Fr(0))]
        pkts = fluid_finish_times(flows, arrivals, Fr(1), exact=True)
        assert pkts[0].virtual_finish == Fr(3)
        assert isinstance(pkts[0].finish_time, Fr)


class TestValidation:
    def test_rejects_bad_rate_and_shares(self):
        with pytest.raises(ConfigurationError):
            fluid_finish_times([("a", 1)], [], 0.0)
        with pytest.raises(ConfigurationError):
            fluid_finish_times([("a", 0)], [], 1.0)
        with pytest.raises(DuplicateFlowError):
            fluid_finish_times([("a", 1), ("a", 2)], [], 1.0)

    def test_rejects_unknown_flow_and_bad_lengths(self):
        with pytest.raises(UnknownFlowError):
            fluid_finish_times([("a", 1)], [("zz", 1.0, 0.0)], 1.0)
        with pytest.raises(ValueError):
            fluid_finish_times([("a", 1)], [("a", 0.0, 0.0)], 1.0)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            fluid_finish_times(
                [("a", 1)], [("a", 1.0, 1.0), ("a", 1.0, 0.5)], 1.0)

    def test_empty_trace(self):
        assert fluid_finish_times([("a", 1)], [], 1.0) == []

    def test_exported_from_analysis_package(self):
        assert analysis.fluid_finish_times is fluid_finish_times
