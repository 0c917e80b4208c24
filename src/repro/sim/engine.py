"""The event loop: a deterministic discrete-event simulator.

Events are (time, priority, sequence) ordered; equal-time events run in
(priority, scheduling order), which makes every simulation reproducible —
an essential property when comparing two schedulers on the *same* arrival
pattern, as the paper's Figures 4-7 do.

Usage::

    sim = Simulator()
    sim.schedule(0.5, lambda: print("hello at", sim.now))
    sim.run(until=10.0)

Callbacks may schedule further events.  ``schedule`` returns an
:class:`Event` handle with ``cancel()``.

The pending-event set
---------------------
A binary heap of raw ``(time, priority, seq, event)`` tuples via
:mod:`heapq` — the NETSIM-style event heap: O(log n) per operation with
C-level constants.  :meth:`Simulator.run`, :meth:`Simulator.run_guarded`
and :meth:`Simulator.step` are thin front ends to one private loop that
differ only in the budget they hand it: none, a wall-clock stall check
every ``check_every`` events, a ``max_events`` count, or a single event.

Event elision
-------------
Components that can compute their own next state change (the
:class:`~repro.sim.link.Link` during a busy period) may skip the
schedule/pop round-trip entirely and move the clock themselves with
:meth:`Simulator.advance_to` — a *bounded* advance that refuses to
overtake the earliest pending event or the ``until`` horizon of the
running loop, which is exactly the condition under which eliding an
event is unobservable.  :attr:`Simulator.events_elided` counts these
inline advances.  Elision is enabled only under a plain ``run()``
without ``max_events``: a budget counts fired callbacks, which elision
would skew.
"""

import heapq
from heapq import heappop, heappush
from time import monotonic

from repro.errors import SimulationError

__all__ = ["Simulator", "Event"]


class Event:
    """A scheduled callback; ``cancel()`` before it fires to skip it.

    The simulator's queue holds ``(time, priority, seq, event)`` tuples,
    not the events themselves: ``seq`` is unique, so ordering comparisons
    resolve at the tuple level in C and never invoke a Python method —
    the dominant cost of a pure-Python event loop.  The :class:`Event` is
    the *handle* riding along in the entry.

    A cancelled event's entry stays queued (removal from the middle of a
    heap is O(n)); the simulator counts tombstones and compacts the queue
    once they dominate, so workloads that cancel in bulk (e.g. timers
    rescheduled every packet) stay O(live events).

    ``epoch`` stamps which simulator timeline the event belongs to: a
    :meth:`Simulator.restore` abandons every previously issued handle and
    bumps the simulator's epoch, so holders can tell a still-queued event
    from an abandoned one in O(1) (``event.sim is sim and event.epoch ==
    sim.epoch``) instead of scanning the queue.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "sim", "epoch")

    def __init__(self, time, priority, seq, callback, args, sim=None,
                 epoch=0):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim
        self.epoch = epoch

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            # Detach first: a second cancel() (or one after the event has
            # fired) must not count the tombstone twice.
            self.sim = None
            sim._note_cancelled()

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r}, prio={self.priority}{state})"


class Simulator:
    """A single-threaded discrete-event simulator with a monotonic clock."""

    #: Compaction floor: below this many tombstones the queue is left
    #: alone (filtering a tiny queue costs more than the pops it saves).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self):
        self._queue = []
        #: Monotone event sequence number.  A plain int (not
        #: itertools.count) so :meth:`snapshot` can capture and
        #: :meth:`restore` reinstate it — FIFO tie-breaking must replay
        #: identically after a checkpoint rollback.
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._processed = 0
        self._cancelled = 0
        self._elided = 0
        #: Timeline generation, bumped by :meth:`restore`; see
        #: :class:`Event`.
        self._epoch = 0
        #: ``until`` horizon of the currently running loop (None outside
        #: run() or when running unbounded) — :meth:`advance_to` must not
        #: overtake it.
        self._run_until = None
        #: True while a run() without ``max_events`` is in progress: the
        #: condition under which inline event elision (burst-drain) keeps
        #: exact event-per-event semantics.  ``max_events`` counts fired
        #: callbacks, which elision would skew.
        self._inline_ok = False
        #: Optional callable ``hook(event)`` invoked after each processed
        #: event — the observability/profiling tap into the event loop
        #: (e.g. counting callbacks per simulated second).  ``None`` keeps
        #: the loop on the fast path.
        self.event_hook = None

    @property
    def now(self):
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self):
        return self._processed

    @property
    def events_elided(self):
        """Clock advances performed inline via :meth:`advance_to` — each
        one is a heap round-trip + callback the fast path avoided."""
        return self._elided

    @property
    def epoch(self):
        """Timeline generation; bumped by :meth:`restore`."""
        return self._epoch

    @property
    def pending(self):
        """Number of live (not-yet-fired, not-cancelled) events."""
        return len(self._queue) - self._cancelled

    def _note_cancelled(self):
        """A queued event was cancelled; compact once tombstones dominate.

        Lazy compaction keeps ``cancel()`` O(1) amortised: the queue is
        rebuilt from its live events only when more than half of it is
        tombstones (and at least :data:`COMPACT_MIN_CANCELLED` of them),
        so the rebuild cost is covered by the cancellations it reclaims.
        The heap rebuild mutates the list in place: the run loop holds a
        local alias of the queue, and rebinding would strand it.
        """
        self._cancelled += 1
        if (self._cancelled >= self.COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(self._queue)):
            self._queue[:] = [e for e in self._queue if not e[3].cancelled]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def schedule(self, time, callback, *args, priority=0, pooled=False):
        """Run ``callback(*args)`` at absolute ``time``.

        ``priority`` orders simultaneous events (lower runs first).
        Scheduling in the past, or at NaN, raises :class:`SimulationError`.
        ``pooled`` is accepted for compatibility and ignored.
        """
        if not time >= self._now:  # also True for NaN
            raise SimulationError(
                f"cannot schedule at {time!r}: clock is already {self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, self, self._epoch)
        heappush(self._queue, (time, priority, seq, event))
        return event

    def schedule_in(self, delay, callback, *args, priority=0, pooled=False):
        """Run ``callback(*args)`` after ``delay`` seconds."""
        if not delay >= 0:  # also True for NaN
            raise SimulationError(f"negative delay: {delay!r}")
        # Inlined schedule(): a non-negative delay from `now` can never
        # land in the past, so the past-check is skipped on this path.
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        event = Event(time, priority, seq, callback, args, self, self._epoch)
        heappush(self._queue, (time, priority, seq, event))
        return event

    def peek_time(self):
        """Time of the earliest live pending event, or None when idle.

        Pops any cancelled tombstones sitting at the head as a side
        effect (they are dead weight either way).
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[3].cancelled:
                heappop(queue)
                self._cancelled -= 1
                continue
            return head[0]
        return None

    def advance_to(self, time):
        """Move the clock to ``time`` without processing an event.

        Bounded: refuses to overtake the earliest pending event or the
        ``until`` horizon of the currently running loop, so an inline
        advance can never reorder itself past work the event loop still
        owes.  This is the primitive behind the link's burst-drain fast
        path — eliding a finish event is only legal while its time
        precedes everything else the simulator would run.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot advance to {time!r}: clock is already {self._now!r}"
            )
        head = self.peek_time()
        if head is not None and time > head:
            raise SimulationError(
                f"advance_to({time!r}) would overtake the pending event "
                f"at {head!r}"
            )
        until = self._run_until
        if until is not None and time > until:
            raise SimulationError(
                f"advance_to({time!r}) would overtake the run horizon "
                f"{until!r}"
            )
        self._now = time
        self._elided += 1

    def advance_over(self, time, count):
        """Move the clock to ``time``, accounting ``count`` elided events.

        The bulk form of :meth:`advance_to` for the link's batch drain: a
        whole chunk of transmissions was computed ahead of time, so one
        validated advance covers all of them.  The same bounds apply —
        ``time`` may not overtake the earliest pending event or the run
        horizon — but they are checked once per chunk instead of once per
        packet.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot advance to {time!r}: clock is already {self._now!r}"
            )
        head = self.peek_time()
        if head is not None and time > head:
            raise SimulationError(
                f"advance_over({time!r}) would overtake the pending event "
                f"at {head!r}"
            )
        until = self._run_until
        if until is not None and time > until:
            raise SimulationError(
                f"advance_over({time!r}) would overtake the run horizon "
                f"{until!r}"
            )
        self._now = time
        self._elided += count

    def _loop(self, until, stop_at, inline, deadline=None, check_every=0,
              wall_clock=None):
        """The one event loop: fire live events up to ``until`` in order.

        ``stop_at`` is the fired-callback count at which the loop pauses
        (-1: never).  With no ``deadline`` the pause is final — the
        ``max_events`` or :meth:`step` budget.  With one, the loop reads
        ``wall_clock`` and either stops (wall budget exhausted) or moves
        the mark ``check_every`` events further.  Either budget costs one
        integer comparison per event.  Cancelled tombstones are skipped
        and never count.  ``inline`` enables event elision for the
        duration of the loop.

        Returns None when the horizon was reached (the queue drained or
        its next event lies beyond ``until``), after snapping the clock
        to ``until``; otherwise the last event fired before a budget
        stopped the loop, with the clock left at that event.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until != until:  # NaN: no event time compares against it
            raise SimulationError("run horizon is NaN")
        self._running = True
        self._run_until = until
        self._inline_ok = inline
        queue = self._queue
        pop = heappop
        processed = 0
        stopped = None
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if until is not None and time > until:
                    break
                pop(queue)
                event = entry[3]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.sim = None  # fired: a late cancel() is a no-op
                self._now = time
                event.callback(*event.args)
                processed += 1
                # Re-read each iteration so a hook attached mid-run takes
                # effect immediately.
                hook = self.event_hook
                if hook is not None:
                    hook(event)
                if processed == stop_at:
                    if deadline is None or wall_clock() > deadline:
                        stopped = event
                        break
                    stop_at += check_every
        finally:
            self._running = False
            self._inline_ok = False
            self._run_until = None
            self._processed += processed
        if stopped is None and until is not None and self._now < until:
            self._now = until
        return stopped

    def run(self, until=None, max_events=None):
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have run.  Returns the final clock value.

        When the horizon is reached, the clock is advanced to exactly
        ``until`` even if the last event fires earlier (convenient for
        measurement windows).  A run cut short by ``max_events`` leaves
        the clock at the last event it fired, so a later run resumes from
        there without moving time backwards.  A NaN ``until`` raises
        :class:`SimulationError`.
        """
        if max_events is None:
            self._loop(until, -1, True)
        elif max_events > 0:
            self._loop(until, max_events, False)
        elif until != until:  # no budget skips _loop and its NaN check
            raise SimulationError("run horizon is NaN")
        return self._now

    def run_guarded(self, until, max_wall=None, check_every=1024,
                    wall_clock=None):
        """Like :meth:`run(until=...)`, but with a wall-clock stall guard.

        Every ``check_every`` processed events the guard compares wall
        time against ``max_wall`` seconds; if the budget is exhausted the
        loop aborts and returns ``False`` *without* snapping the clock to
        ``until`` — the caller needs the true progress point to decide
        whether simulated time is advancing at all.  Returns ``True``
        when the horizon was reached (queue drained or overtaken, clock
        snapped to ``until``).

        ``wall_clock`` is injectable (defaults to ``time.monotonic``) so
        stall detection is testable without real waiting.  The guarded
        loop never enables inline elision: a stalled component could
        otherwise hide arbitrarily many advances between budget checks.
        """
        if max_wall is None:
            return self._loop(until, -1, False) is None
        if wall_clock is None:
            wall_clock = monotonic
        return self._loop(until, check_every, False, wall_clock() + max_wall,
                          check_every, wall_clock) is None

    def step(self):
        """Process exactly one (non-cancelled) event; returns it or None.

        Like :meth:`run`, it may not be called from inside a running
        callback.
        """
        return self._loop(None, 1, False)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot(self, keep=None):
        """Checkpoint the clock, sequence counter and live event queue.

        Callbacks and their argument tuples are captured *by reference*,
        so the snapshot supports in-process rollback (re-running a fault
        scenario from a checkpoint), not cross-process persistence.
        ``keep`` optionally filters events (``keep(event) -> bool``); a
        joint Link+Simulator checkpoint excludes the link's in-flight
        finish event here and re-arms it from the link's own snapshot, so
        it is neither lost nor doubled.

        The event list is sorted into ``(time, priority, seq)`` order, so
        the same simulation state snapshots to a byte-identical payload
        whatever the heap's array layout.
        """
        events = [
            (e.time, e.priority, e.seq, e.callback, e.args)
            for _t, _p, _s, e in self._queue
            if not e.cancelled and (keep is None or keep(e))
        ]
        events.sort(key=lambda item: (item[0], item[1], item[2]))
        return {
            "now": self._now,
            "seq": self._seq,
            "processed": self._processed,
            "events": events,
        }

    def restore(self, snap):
        """Roll back to a :meth:`snapshot`.

        Must not be called from inside a running event loop.  Event
        handles issued before the snapshot refer to the abandoned
        timeline (their ``epoch`` no longer matches): do not ``cancel()``
        them after restoring.
        """
        if self._running:
            raise SimulationError("cannot restore while the loop is running")
        self._epoch += 1
        epoch = self._epoch
        self._queue = [
            (time, priority, seq,
             Event(time, priority, seq, callback, args, self, epoch))
            for time, priority, seq, callback, args in snap["events"]
        ]
        heapq.heapify(self._queue)
        self._cancelled = 0
        self._now = snap["now"]
        self._seq = snap["seq"]
        self._processed = snap["processed"]

    def __repr__(self):
        return f"Simulator(now={self._now!r}, pending={self.pending})"
