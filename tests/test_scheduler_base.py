"""Tests for the PacketScheduler base machinery (via FIFO, the thinnest
subclass) and the FIFO algorithm itself."""

import pytest

from repro.core.fifo import FIFOScheduler
from repro.core.packet import Packet
from repro.errors import (
    ConfigurationError,
    DuplicateFlowError,
    EmptySchedulerError,
    UnknownFlowError,
)


@pytest.fixture
def sched():
    s = FIFOScheduler(rate=1000)
    s.add_flow("a", 1)
    s.add_flow("b", 3)
    return s


class TestRegistration:
    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            FIFOScheduler(rate=0)

    def test_nan_rate_and_share_rejected(self, sched):
        nan = float("nan")
        with pytest.raises(ConfigurationError):
            FIFOScheduler(rate=nan)
        with pytest.raises(ConfigurationError):
            sched.set_link_rate(nan)
        with pytest.raises(ConfigurationError):
            sched.add_flow("c", nan)
        with pytest.raises(ConfigurationError):
            sched.set_share("a", nan)
        assert sched.rate == 1000
        assert sched.flow_ids == ["a", "b"]
        assert sched.guaranteed_rate("a") == 250

    def test_duplicate_flow(self, sched):
        with pytest.raises(DuplicateFlowError):
            sched.add_flow("a", 1)

    def test_unknown_flow_enqueue(self, sched):
        with pytest.raises(UnknownFlowError):
            sched.enqueue(Packet("zzz", 10), now=0)

    def test_flow_ids(self, sched):
        assert sched.flow_ids == ["a", "b"]

    def test_guaranteed_rate_and_share(self, sched):
        assert sched.guaranteed_rate("a") == pytest.approx(250)
        assert sched.guaranteed_rate("b") == pytest.approx(750)
        assert sched.normalized_share("b") == pytest.approx(0.75)

    def test_remove_flow(self, sched):
        sched.remove_flow("a")
        assert sched.flow_ids == ["b"]
        assert sched.guaranteed_rate("b") == pytest.approx(1000)

    def test_remove_backlogged_flow_rejected(self, sched):
        sched.enqueue(Packet("a", 10), now=0)
        with pytest.raises(ConfigurationError):
            sched.remove_flow("a")

    def test_registration_indices_monotonic(self, sched):
        assert sched._flows["a"].index < sched._flows["b"].index


class TestEnqueueDequeue:
    def test_empty_dequeue_raises(self, sched):
        with pytest.raises(EmptySchedulerError):
            sched.dequeue()

    def test_counts(self, sched):
        sched.enqueue(Packet("a", 10), now=0)
        sched.enqueue(Packet("b", 20), now=0)
        assert sched.backlog == 2
        assert sched.backlog_bits == 30
        assert sched.queue_length("a") == 1
        assert sched.queued_bits("b") == 20
        assert set(sched.backlogged_flows()) == {"a", "b"}
        sched.dequeue()
        assert sched.backlog == 1

    def test_clock_monotonicity_enforced(self, sched):
        sched.enqueue(Packet("a", 10), now=5.0)
        with pytest.raises(ValueError):
            sched.enqueue(Packet("a", 10), now=4.0)
        with pytest.raises(ValueError):
            sched.dequeue(now=4.0)

    def test_arrival_time_stamped(self, sched):
        p = Packet("a", 10)
        sched.enqueue(p, now=3.0)
        assert p.arrival_time == 3.0

    def test_enqueue_uses_packet_arrival_time(self, sched):
        sched.enqueue(Packet("a", 10, arrival_time=2.0))
        assert sched.clock == 2.0

    def test_record_timing(self, sched):
        sched.enqueue(Packet("a", 100), now=0)
        rec = sched.dequeue(now=1.0)
        assert rec.start_time == 1.0
        assert rec.finish_time == pytest.approx(1.1)  # 100 bits / 1000 bps
        assert rec.delay == pytest.approx(1.1)

    def test_default_dequeue_time_is_back_to_back(self, sched):
        sched.enqueue(Packet("a", 100), now=0)
        sched.enqueue(Packet("a", 100), now=0)
        r1 = sched.dequeue()
        r2 = sched.dequeue()
        assert r1.start_time == 0
        assert r2.start_time == pytest.approx(r1.finish_time)

    def test_drain_returns_everything(self, sched):
        for k in range(5):
            sched.enqueue(Packet("a", 10, seqno=k), now=0)
        records = sched.drain()
        assert [r.packet.seqno for r in records] == list(range(5))
        assert sched.is_empty

    def test_drain_empty(self, sched):
        assert sched.drain() == []


class TestBufferLimits:
    def test_drop_tail(self, sched):
        sched.set_buffer_limit("a", 2)
        assert sched.enqueue(Packet("a", 10), now=0) is True
        assert sched.enqueue(Packet("a", 10), now=0) is True
        assert sched.enqueue(Packet("a", 10), now=0) is False
        assert sched.backlog == 2
        assert sched.drops("a") == 1
        assert sched.drops() == 1

    def test_limit_lifts(self, sched):
        sched.set_buffer_limit("a", 1)
        sched.set_buffer_limit("a", None)
        for _ in range(5):
            assert sched.enqueue(Packet("a", 10), now=0)

    def test_invalid_limit(self, sched):
        with pytest.raises(ConfigurationError):
            sched.set_buffer_limit("a", 0)
        with pytest.raises(UnknownFlowError):
            sched.set_buffer_limit("zzz", 5)

    def test_nan_limit_rejected(self, sched):
        with pytest.raises(ConfigurationError):
            sched.set_buffer_limit("a", float("nan"))
        with pytest.raises(ConfigurationError):
            sched.set_shared_buffer(float("nan"))

    def test_dequeue_frees_space(self, sched):
        sched.set_buffer_limit("a", 1)
        sched.enqueue(Packet("a", 10), now=0)
        sched.dequeue()
        assert sched.enqueue(Packet("a", 10), now=1) is True


class TestFIFOOrder:
    def test_global_arrival_order(self, sched):
        sched.enqueue(Packet("a", 10, seqno=0), now=0)
        sched.enqueue(Packet("b", 10, seqno=0), now=1e-4)
        sched.enqueue(Packet("a", 10, seqno=1), now=2e-4)
        order = [r.flow_id for r in sched.drain()]
        assert order == ["a", "b", "a"]

    def test_shares_ignored(self):
        s = FIFOScheduler(1000)
        s.add_flow("small", 1)
        s.add_flow("big", 100)
        s.enqueue(Packet("small", 10), now=0)
        s.enqueue(Packet("big", 10), now=0)
        assert s.dequeue().flow_id == "small"


class TestRemoveFlowHygiene:
    """A removed flow id must leave no per-flow state behind."""

    def test_buffer_limit_does_not_survive_reregistration(self, sched):
        sched.set_buffer_limit("a", 1)
        sched.remove_flow("a")
        sched.add_flow("a", 2)
        # The old 1-packet cap must not silently apply to the new flow.
        assert sched.enqueue(Packet("a", 10), now=0) is True
        assert sched.enqueue(Packet("a", 10), now=0) is True
        assert sched.drops("a") == 0

    def test_drop_counter_does_not_survive_reregistration(self, sched):
        sched.set_buffer_limit("a", 1)
        sched.enqueue(Packet("a", 10), now=0)
        sched.enqueue(Packet("a", 10), now=0)  # dropped
        assert sched.drops("a") == 1
        sched.dequeue()
        sched.remove_flow("a")
        sched.add_flow("a", 1)
        assert sched.drops("a") == 0
        assert sched.drops() == 0


class TestEmptyShareQueries:
    """Rate/share queries with no registered flows must fail loudly and
    typed — not with a bare ZeroDivisionError or KeyError."""

    def test_guaranteed_rate_after_removing_all_flows(self, sched):
        sched.remove_flow("a")
        sched.remove_flow("b")
        with pytest.raises(ConfigurationError):
            sched.guaranteed_rate("a")

    def test_normalized_share_after_removing_all_flows(self, sched):
        sched.remove_flow("a")
        sched.remove_flow("b")
        with pytest.raises(ConfigurationError):
            sched.normalized_share("a")

    def test_queries_recover_after_reregistration(self, sched):
        sched.remove_flow("a")
        sched.remove_flow("b")
        sched.add_flow("c", 2)
        assert sched.normalized_share("c") == 1.0
        assert sched.guaranteed_rate("c") == 1000
