"""Tests for the discrete-event simulator core."""

import random
from fractions import Fraction

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, out.append, "b")
        sim.schedule(1.0, out.append, "a")
        sim.schedule(3.0, out.append, "c")
        sim.run()
        assert out == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_priority_orders_simultaneous_events(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "late", priority=1)
        sim.schedule(1.0, out.append, "early", priority=-1)
        sim.schedule(1.0, out.append, "mid")
        sim.run()
        assert out == ["early", "mid", "late"]

    def test_fifo_among_equal_time_and_priority(self):
        sim = Simulator()
        out = []
        for name in "abc":
            sim.schedule(1.0, out.append, name)
        sim.run()
        assert out == ["a", "b", "c"]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(4.0, lambda: None)

    def test_schedule_in(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: sim.schedule_in(0.5, lambda: out.append(sim.now)))
        sim.run()
        assert out == [1.5]
        with pytest.raises(SimulationError):
            sim.schedule_in(-1, lambda: None)

    def test_nan_time_rejected(self):
        # NaN compares false with everything, so a plain `time < now`
        # guard would queue it, and it would fire between 1.0 and 2.0.
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, 1.0)
        sim.schedule(2.0, out.append, 2.0)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: out.append(sim.now))
        with pytest.raises(SimulationError):
            sim.schedule_in(float("nan"), lambda: out.append(sim.now))
        sim.run()
        assert out == [1.0, 2.0]


class TestRun:
    def test_until_stops_and_advances_clock(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, 1)
        sim.schedule(5.0, out.append, 5)
        sim.run(until=3.0)
        assert out == [1]
        assert sim.now == 3.0
        sim.run()
        assert out == [1, 5]

    @pytest.mark.parametrize("run", [
        lambda sim, until: sim.run(until=until),
        lambda sim, until: sim.run(until=until, max_events=5),
        lambda sim, until: sim.run_guarded(until),
        lambda sim, until: sim.run_guarded(until, max_wall=10.0),
    ], ids=["run", "run-max-events", "run-guarded", "run-guarded-wall"])
    def test_nan_horizon_rejected(self, run):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, 1)
        sim.schedule(5.0, out.append, 5)
        with pytest.raises(SimulationError):
            run(sim, float("nan"))
        # A run with no event budget fires nothing, but checks its horizon.
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"), max_events=0)
        assert out == []
        assert sim.now == 0.0
        # The simulator is still usable, and a past horizon is a no-op.
        run(sim, 3.0)
        assert out == [1]
        run(sim, 2.0)
        assert out == [1]
        assert sim.now == 3.0

    def test_max_events(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule(float(i), out.append, i)
        sim.run(max_events=3)
        assert out == [0, 1, 2]

    def test_callbacks_can_chain(self):
        sim = Simulator()
        out = []

        def tick(n):
            out.append(n)
            if n < 5:
                sim.schedule_in(1.0, tick, n + 1)

        sim.schedule(0.0, tick, 0)
        sim.run()
        assert out == [0, 1, 2, 3, 4, 5]
        assert sim.events_processed == 6

    def test_not_reentrant(self):
        sim = Simulator()

        def bad():
            sim.run()

        sim.schedule(0.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_not_reentrant(self):
        # step() from inside a callback must not fire the next event
        # nested in it (the outer callback's clock would jump).
        sim = Simulator()
        seen = []

        def outer():
            with pytest.raises(SimulationError):
                sim.step()
            seen.append(sim.now)

        sim.schedule(1.0, outer)
        sim.schedule(2.0, seen.append, "later")
        sim.run()
        assert seen == [1.0, "later"]

    def test_event_exactly_at_until_fires(self):
        # run(until=t) serves events at exactly t and leaves anything
        # later queued.
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "before")
        sim.schedule(2.0, out.append, "at")
        sim.schedule(2.0, out.append, "at-too")
        sim.schedule(2.0 + 5e-9, out.append, "after")
        sim.run(until=2.0)
        assert out == ["before", "at", "at-too"]
        assert sim.now == 2.0
        assert sim.pending == 1
        sim.run()
        assert out[-1] == "after"

    def test_max_events_budget_never_moves_clock_backwards(self):
        # A run cut short by its budget has not reached the horizon, so
        # the clock stays at the last fired event instead of snapping to
        # `until` (which the next run would then rewind).
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, 1.0)
        sim.schedule(2.0, out.append, 2.0)
        assert sim.run(until=10.0, max_events=1) == 1.0
        assert out == [1.0]
        sim.schedule(5.0, out.append, 5.0)  # not in the past
        clocks = []
        sim.event_hook = lambda _event: clocks.append(sim.now)
        sim.run(until=10.0)
        assert out == [1.0, 2.0, 5.0]
        assert clocks == sorted(clocks)
        assert sim.now == 10.0  # horizon reached this time

    def test_max_events_counts_fired_callbacks_only(self):
        sim = Simulator()
        out = []
        events = [sim.schedule(float(i), out.append, i) for i in range(10)]
        for ev in events[:3]:
            ev.cancel()
        sim.run(max_events=3)
        assert out == [3, 4, 5]
        assert sim.events_processed == 3

    def test_mixed_churn_replays_deterministically(self):
        def churn(seed=3):
            rng = random.Random(seed)
            sim = Simulator()
            out = []
            handles = []

            def fire(label):
                out.append((sim.now, label))
                if len(out) < 4000:
                    if rng.random() < 0.3:
                        handles.append(sim.schedule_in(
                            rng.uniform(0.0, 2.0), fire, len(out)))
                    else:
                        sim.schedule_in(rng.choice((0.0, 0.5, 1.0)), fire,
                                        -len(out))
                    if handles and rng.random() < 0.2:
                        handles.pop(rng.randrange(len(handles))).cancel()

            for i in range(64):
                sim.schedule(rng.uniform(0.0, 1.0), fire, i)
            sim.run(until=400.0)
            return out, sim.events_processed, sim.now

        first, second = churn(), churn()
        assert first == second
        times = [t for t, _label in first[0]]
        assert times == sorted(times)


class TestRunGuarded:
    def _timeline(self, n=20):
        sim = Simulator()
        out = []
        for i in range(n):
            sim.schedule(float(i + 1), out.append, i)
        return sim, out

    def test_stall_stops_after_check_every_events(self):
        sim, out = self._timeline()
        # One read fixes the deadline, the next is the first budget check.
        reads = iter([0.0, 100.0])
        done = sim.run_guarded(50.0, max_wall=1.0, check_every=5,
                               wall_clock=lambda: next(reads))
        assert done is False
        assert out == [0, 1, 2, 3, 4]
        assert sim.now == 5.0  # not snapped to the horizon
        assert sim.events_processed == 5

    def test_budget_renews_while_wall_time_remains(self):
        sim, out = self._timeline()
        reads = []

        def wall():
            reads.append(len(out))
            return 0.0

        assert sim.run_guarded(50.0, max_wall=1.0, check_every=5,
                               wall_clock=wall) is True
        assert out == list(range(20))
        assert reads == [0, 5, 10, 15, 20]
        assert sim.now == 50.0

    def test_disables_elision(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim._inline_ok))
        assert sim.run_guarded(2.0) is True
        assert seen == [False]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        out = []
        ev = sim.schedule(1.0, out.append, "x")
        sim.schedule(2.0, out.append, "y")
        ev.cancel()
        sim.run()
        assert out == ["y"]

    def test_cancel_inside_callback(self):
        sim = Simulator()
        out = []
        later = sim.schedule(2.0, out.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert out == []

    def test_step(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, 1)
        sim.schedule(2.0, out.append, 2)
        ev = sim.step()
        assert out == [1]
        assert ev.time == 1.0
        sim.step()
        assert sim.step() is None


def _queued_entries(sim):
    """The queued (live + tombstone) heap entries."""
    return list(sim._queue)


class TestLazyCompaction:
    """Bulk cancellation must shrink the queue, not just tombstone it."""

    def test_bulk_cancel_compacts_the_queue(self):
        sim = Simulator()
        keep = sim.schedule(10.0, lambda: None)
        doomed = [sim.schedule(1.0 + i * 1e-6, lambda: None)
                  for i in range(1000)]
        assert sim.pending == 1001
        for ev in doomed:
            ev.cancel()
        # The tombstones were reclaimed eagerly: the internal queue holds
        # only the live event, and pending agrees.
        assert len(_queued_entries(sim)) < Simulator.COMPACT_MIN_CANCELLED
        assert sim.pending == 1
        assert any(entry[3] is keep for entry in _queued_entries(sim))

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
        events[0].cancel()
        events[3].cancel()
        assert sim.pending == 6  # below the floor: no compaction yet
        assert len(_queued_entries(sim)) == 8

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending == 1

    def test_cancel_after_firing_is_a_noop(self):
        sim = Simulator()
        out = []
        ev = sim.schedule(1.0, out.append, "x")
        sim.schedule(2.0, out.append, "y")
        sim.step()
        ev.cancel()  # already fired: must not corrupt the live count
        assert out == ["x"]
        assert sim.pending == 1
        sim.run()
        assert out == ["x", "y"]

    def test_bulk_cancelled_tombstones_never_fire(self):
        # Cancel a third of a large population, keep scheduling across a
        # wider span (compaction rebuilds the heap in between), then
        # drain: survivors fire in order and no tombstone ever fires.
        rng = random.Random(11)
        sim = Simulator()
        out = []
        doomed = []
        for i in range(900):
            t = rng.uniform(0.0, 10.0)
            ev = sim.schedule(t, out.append, (t, i))
            if i % 3 == 0:
                doomed.append((ev, (t, i)))
        for ev, _ in doomed:
            ev.cancel()
        for i in range(900, 2400):
            t = rng.uniform(0.0, 1000.0)
            sim.schedule(t, out.append, (t, i))
        sim.run()
        dead = {payload for _, payload in doomed}
        assert not dead & set(out)
        assert out == sorted(out)
        assert len(out) == 2400 - len(doomed)
        assert sim.pending == 0

    def test_compaction_preserves_run_order(self):
        sim = Simulator()
        out = []
        doomed = [sim.schedule(1.0 + i * 1e-6, out.append, "bad")
                  for i in range(200)]
        survivors = [5.0, 3.0, 4.0]
        for t in survivors:
            sim.schedule(t, out.append, t)
        for ev in doomed:
            ev.cancel()
        sim.run()
        assert out == sorted(survivors)


class TestAdvanceTo:
    """The bounded inline clock advance behind the link's burst-drain."""

    def run_with(self, body, until=None):
        """Run `body` from inside a callback so _inline_ok is active."""
        sim = Simulator()
        out = []
        sim.schedule(1.0, body, sim, out)
        sim.run(until=until)
        return sim, out

    def test_advance_moves_clock_and_counts(self):
        def body(sim, out):
            sim.advance_to(1.5)
            out.append(sim.now)
            sim.advance_to(1.75)
            out.append(sim.now)

        sim, out = self.run_with(body)
        assert out == [1.5, 1.75]
        assert sim.events_elided == 2

    def test_advance_backwards_rejected(self):
        def body(sim, out):
            with pytest.raises(SimulationError):
                sim.advance_to(0.5)

        self.run_with(body)

    def test_advance_cannot_overtake_pending_event(self):
        def body(sim, out):
            sim.schedule(2.0, out.append, "pending")
            sim.advance_to(2.0)  # exactly at the event is fine
            with pytest.raises(SimulationError):
                sim.advance_to(2.5)

        sim, out = self.run_with(body)
        assert out == ["pending"]

    def test_advance_cannot_overtake_run_horizon(self):
        def body(sim, out):
            sim.advance_to(3.0)  # exactly at the horizon is fine
            with pytest.raises(SimulationError):
                sim.advance_to(3.1)

        sim, _out = self.run_with(body, until=3.0)
        assert sim.now == 3.0

    def test_advance_ignores_cancelled_head(self):
        def body(sim, out):
            doomed = sim.schedule(2.0, out.append, "doomed")
            sim.schedule(4.0, out.append, "live")
            doomed.cancel()
            sim.advance_to(3.0)  # past the tombstone, before the live event
            out.append(sim.now)

        sim, out = self.run_with(body)
        assert out == [3.0, "live"]

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        doomed = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.peek_time() == 1.0
        doomed.cancel()
        assert sim.peek_time() == 2.0

    def test_run_horizon_cleared_after_run(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        assert sim._run_until is None
        assert sim._inline_ok is False


class TestSnapshot:
    def test_rollback_replays_identically(self):
        # Snapshots capture callbacks by reference, so the rollback
        # happens on the same simulator.
        sim = Simulator()
        out = []

        def tick(n, dt):
            out.append((sim.now, n))
            if sim.now < 30.0:
                sim.schedule_in(dt, tick, n, dt)

        for i in range(40):
            sim.schedule_in(0.1 + i * 0.01, tick, i, 0.7 + i * 0.013)
        sim.run(until=10.0)
        snap = sim.snapshot()
        prefix = list(out)
        sim.run()
        want = list(out)

        sim.restore(snap)
        out[:] = prefix
        sim.run()
        assert out == want
        assert sim.now == want[-1][0]


class TestPipelines:
    """Whole source -> scheduler -> link runs on the one event loop."""

    def test_fraction_pipeline_keeps_fraction_tags(self):
        # With Fraction rates and start times every event timestamp and
        # every virtual tag stays a Fraction end to end.
        from repro.core import WF2QPlusScheduler
        from repro.sim.link import Link
        from repro.sim.monitor import ServiceTrace
        from repro.traffic.source import CBRSource

        sim = Simulator()
        sched = WF2QPlusScheduler(Fraction(10 ** 6))
        trace = ServiceTrace()
        link = Link(sim, sched, trace=trace)
        for i in range(6):
            # Fraction shares: int shares divide to float (see
            # test_batch) and would poison the virtual tags.
            sched.add_flow(str(i), Fraction(1 + i))
            src = CBRSource(str(i), Fraction(10 ** 5), 4000,
                            start_time=Fraction(i, 10 ** 4))
            src.attach(sim, link)
            src.start()
        sim.run(until=Fraction(1, 10))
        rows = [(r.start_time, r.finish_time, r.virtual_start,
                 r.virtual_finish) for r in trace.services]
        assert rows
        for r in rows:
            # Exact rationals only (ints are the pristine initial tags);
            # a single float would mean the exact pipeline leaked.
            assert all(isinstance(v, (int, Fraction)) and
                       not isinstance(v, bool) for v in r), r
        assert any(isinstance(r[3], Fraction) for r in rows)

    def test_drop_ledger_balanced_under_finite_buffers(self):
        from repro.core import WF2QPlusScheduler
        from repro.sim.link import Link
        from repro.traffic.source import CBRSource

        sim = Simulator()
        sched = WF2QPlusScheduler(1e6)
        for i in range(8):
            sched.add_flow(str(i), 1 + (i % 3))
            sched.set_buffer_limit(str(i), 3)
        link = Link(sim, sched)
        for i in range(8):
            src = CBRSource(str(i), 2.5e5, 8000.0, start_time=i * 1e-4)
            src.attach(sim, link)
            src.start()
        sim.run(until=0.4)
        drops = {fid: sched.drops(fid) for fid in sched.flow_ids}
        ledger = sched.conservation()
        assert sum(drops.values()) > 0, "workload must actually drop"
        assert sum(drops.values()) == link.packets_dropped
        assert ledger["drops"] == link.packets_dropped
        assert ledger["balanced"]
