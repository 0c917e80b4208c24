"""An output link: the component that drives a scheduler in simulated time.

The :class:`Link` owns one :class:`~repro.core.scheduler.PacketScheduler`.
Sources push packets in with :meth:`Link.send`; whenever the transmitter is
idle and the scheduler backlogged, the link dequeues the scheduler's choice,
"transmits" it for ``length / rate`` seconds, then delivers it to the
``receiver`` callback (optionally after a fixed propagation delay) and asks
the scheduler for the next packet — i.e. the link is work-conserving.

Every completed transmission is appended to the attached
:class:`~repro.sim.monitor.ServiceTrace` (if any), which the analysis
modules consume.

Burst-drain fast path
---------------------
During a busy period the per-packet event round-trip (one
:class:`~repro.sim.engine.Event` allocation, one heap push, one heap pop,
one bound-method callback) is pure overhead: the link itself knows exactly
when each transmission ends.  When a transmission completes and the
scheduler is still backlogged, the link therefore *drains* consecutive
transmissions inline — advancing the clock with the simulator's bounded
:meth:`~repro.sim.engine.Simulator.advance_to` — for as long as each
computed finish time strictly precedes the earliest pending event (and the
run horizon).  The drain is unobservable by construction: no callback can
run inside the drained window, every dequeue happens at exactly the same
clock value as in the event-per-packet path, and the moment any consumer
needs event granularity (a receiver, an ``event_hook``, a simultaneous
event, a ``max_events`` budget, pause, or checkpointing's in-flight finish
handle) the link falls back to scheduling a real finish event.  The
drained burst is one
:meth:`~repro.core.scheduler.PacketScheduler.drain_until` call: an
amortized kernel on the exact WF2Q+ and H-PFQ schedulers, the base
per-packet loop on every other one.  ``tests/test_sim_fastpath.py``
proves packet-for-packet equivalence.
"""

from repro.errors import SimulationError

__all__ = ["Link"]


class Link:
    """A transmitter paced at the scheduler's configured rate.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.engine.Simulator`.
    scheduler:
        Any :class:`~repro.core.scheduler.PacketScheduler`; its ``rate`` is
        the link speed.
    receiver:
        Optional callable ``receiver(packet, time)`` invoked when a packet
        has fully arrived at the far end.
    propagation_delay:
        Seconds added between transmission completion and delivery.
    trace:
        Optional :class:`~repro.sim.monitor.ServiceTrace` recording every
        transmission.
    burst_drain:
        Enable the event-eliding fast path (default True).  Disabling it
        forces the event-per-packet loop; the results are identical either
        way (the differential suite enforces this), so False is only
        useful for A/B timing and the equivalence tests themselves.
    """

    def __init__(self, sim, scheduler, receiver=None, propagation_delay=0.0,
                 trace=None, burst_drain=True):
        if not propagation_delay >= 0:  # also True for NaN
            raise SimulationError(
                f"propagation delay must be >= 0, got {propagation_delay!r}"
            )
        self.sim = sim
        self.scheduler = scheduler
        self.receiver = receiver
        self.propagation_delay = propagation_delay
        self.trace = trace
        self.burst_drain = burst_drain
        self._transmitting = False
        #: (ScheduledPacket, finish Event) while transmitting, else None.
        self._current = None
        #: True while administratively down (fault injection): the packet
        #: in flight completes, but no new transmission starts until
        #: :meth:`resume`.
        self._paused = False
        self._bits_sent = 0
        self._packets_sent = 0
        self._packets_dropped = 0
        #: Transmission time integrated per completed packet, immune to
        #: mid-run rate changes (unlike ``bits_sent / rate``).
        self._busy_time = 0.0
        #: Optional callable ``drop_callback(packet, time)`` for tail drops.
        self.drop_callback = None

    @property
    def rate(self):
        return self.scheduler.rate

    # ------------------------------------------------------------------
    # Observability: a link's event stream is its scheduler's — arrivals,
    # drops, and transmissions all pass through enqueue/dequeue, so the
    # link simply forwards sink management to the scheduler.
    # ------------------------------------------------------------------
    def attach_observer(self, *sinks):
        """Subscribe sinks to this link's scheduler event stream."""
        return self.scheduler.attach_observer(*sinks)

    def detach_observer(self, sink=None):
        return self.scheduler.detach_observer(sink)

    @property
    def observer(self):
        return self.scheduler.observer

    @property
    def bits_sent(self):
        return self._bits_sent

    @property
    def packets_sent(self):
        return self._packets_sent

    @property
    def packets_dropped(self):
        return self._packets_dropped

    @property
    def busy_time(self):
        """Seconds spent transmitting (completed packets only)."""
        return self._busy_time

    @property
    def utilization(self):
        """Fraction of elapsed simulation time spent transmitting.

        Busy time is integrated per transmission (each packet contributes
        its own ``finish - start``, at whatever rate it was sent), so the
        figure stays correct across mid-run :meth:`set_rate` changes —
        dividing lifetime ``bits_sent`` by the *current* rate would not.
        The packet in flight contributes its elapsed portion.
        """
        now = self.sim.now
        if now <= 0:
            return 0.0
        busy = self._busy_time
        if self._current is not None:
            record = self._current[0]
            if now > record.start_time:
                busy += min(now, record.finish_time) - record.start_time
        return busy / now

    # ------------------------------------------------------------------
    def send(self, packet):
        """A packet arrives at the link's queueing point *now*.

        Returns False when a per-flow buffer cap drops the packet.
        """
        now = self.sim.now
        accepted = self.scheduler.enqueue(packet, now=now)
        if not accepted:
            self._packets_dropped += 1
            if self.drop_callback is not None:
                self.drop_callback(packet, now)
            return False
        if self.trace is not None:
            self.trace.record_arrival(packet, now)
        if not self._transmitting and not self._paused:
            # Always via a scheduled event here: send() runs inside some
            # other callback (a source emission), whose caller may read
            # the clock afterwards — the drain may only move the clock
            # from a callback that owns the rest of its event (_finish).
            self._start_next(now)
        return True

    def _start_next(self, now):
        record = self.scheduler.dequeue(now=now)
        self._transmitting = True
        event = self.sim.schedule(record.finish_time, self._finish, record,
                                  priority=-1)
        self._current = (record, event)

    def _finish(self, record):
        sim = self.sim
        now = sim.now
        self._current = None
        self._bits_sent += record.packet.length
        self._packets_sent += 1
        self._busy_time += now - record.start_time
        if self.trace is not None:
            self.trace.record_service(record)
        self._transmitting = False
        if not self._paused and not self.scheduler.is_empty:
            if (self.burst_drain and self.receiver is None
                    and sim._inline_ok and sim.event_hook is None):
                self._drain(sim, now)
            else:
                self._start_next(now)
        if self.receiver is not None:
            if self.propagation_delay > 0:
                sim.schedule(now + self.propagation_delay,
                             self.receiver, record.packet,
                             now + self.propagation_delay)
            else:
                self.receiver(record.packet, now)

    def _drain(self, sim, now):
        """Transmit consecutive packets inline while no event intervenes.

        Runs inside the finish callback, so nothing else can execute in
        the drained window: the drain is bounded *strictly* below the
        earliest pending event (equal-time events keep their heap-ordered
        semantics by falling back to a real finish event) and weakly by
        the run horizon (an event at exactly ``until`` still fires).
        Every dequeue happens at exactly the same clock value as in the
        event-per-packet path, so tags, traces, and obs events are
        bit-identical.

        With no observer — or only *passive* sinks (see
        :class:`~repro.obs.sinks.Sink`) — the whole burst is handed to
        the scheduler's
        :meth:`~repro.core.scheduler.PacketScheduler.drain_until` (an
        amortized kernel on the exact WF2Q+ and H-PFQ schedulers) and the
        clock is advanced once over the chunk.  A non-passive sink is
        arbitrary user code that may touch the simulator mid-burst, so it
        keeps the packet-at-a-time loop with a validated
        :meth:`~repro.sim.engine.Simulator.advance_to` per packet.
        """
        scheduler = self.scheduler
        obs = scheduler.observer
        if obs is not None and not obs.passive:
            self._drain_steps(sim, now, scheduler)
            return
        bound = sim.peek_time()
        horizon = sim._run_until
        # The drain stops *strictly* before the next event but only
        # *weakly* before the horizon, while drain_until's single limit
        # keeps the first packet whose finish merely reaches it.  Map the
        # tighter of the two onto that: when the event bound governs, its
        # crossing packet is exact; when the horizon governs, a packet
        # finishing exactly on it is in fact complete — handled below by
        # re-entering the drain (the outer while).
        if bound is None:
            limit = horizon
        elif horizon is None or bound <= horizon:
            limit = bound
        else:
            limit = horizon
        records = []
        try:
            while True:
                scheduler.drain_until(limit, now=now, into=records)
                last = records[-1]
                finish = last.finish_time
                if ((bound is not None and finish >= bound)
                        or (horizon is not None and finish > horizon)):
                    # Event granularity needed: the crossing packet goes
                    # back in flight with a real finish event.
                    records.pop()
                    self._transmitting = True
                    event = sim.schedule(finish, self._finish, last,
                                         priority=-1)
                    self._current = (last, event)
                    return
                if scheduler.is_empty:
                    return
                # Only reachable when the horizon cut the chunk at an
                # exactly-coincident finish: resume draining (the next
                # packet necessarily crosses).
                now = finish
        finally:
            # Everything left in `records` completed its transmission
            # inside the drained window — including a partially drained
            # chunk when a sink aborts mid-burst.
            if records:
                packets = len(records)
                bits = 0
                busy = 0.0
                for record in records:
                    bits += record.packet.length
                    busy += record.finish_time - record.start_time
                sim.advance_over(records[-1].finish_time, packets)
                self._bits_sent += bits
                self._packets_sent += packets
                self._busy_time += busy
                if self.trace is not None:
                    self.trace.record_services(records)

    def _drain_steps(self, sim, now, scheduler):
        """Packet-at-a-time drain under a non-passive observer."""
        dequeue = scheduler.dequeue
        trace = self.trace
        bound = sim.peek_time()
        horizon = sim._run_until
        # Obs sinks on this path are arbitrary user code (one could
        # schedule an event below the bound read above); advance_to
        # re-validates against the live heap and raises rather than
        # overtake it.
        advance = sim.advance_to
        packets = 0
        bits = 0
        busy = 0.0
        try:
            while True:
                record = dequeue(now=now)
                finish = record.finish_time
                if ((bound is not None and finish >= bound)
                        or (horizon is not None and finish > horizon)):
                    # Event granularity needed: back to the event loop.
                    self._transmitting = True
                    event = sim.schedule(finish, self._finish, record,
                                         priority=-1)
                    self._current = (record, event)
                    return
                advance(finish)
                now = finish
                bits += record.packet.length
                packets += 1
                busy += finish - record.start_time
                if trace is not None:
                    trace.record_service(record)
                if scheduler.is_empty:
                    return
        finally:
            self._bits_sent += bits
            self._packets_sent += packets
            self._busy_time += busy

    # ------------------------------------------------------------------
    # Fault injection: outage windows and live rate changes
    # ------------------------------------------------------------------
    @property
    def paused(self):
        return self._paused

    @property
    def current(self):
        """The :class:`ScheduledPacket` in flight, or None."""
        return self._current[0] if self._current is not None else None

    def pause(self):
        """Take the link down at packet granularity.

        The packet in flight (if any) finishes its transmission — its
        finish time was a contract with the scheduler's tag arithmetic —
        but no new transmission starts until :meth:`resume`.  Arrivals
        keep queueing (and the buffer caps keep dropping), so outage
        windows exercise exactly the backlog/conservation paths.
        """
        self._paused = True

    def resume(self):
        """Bring the link back up; restarts transmission if backlogged."""
        if not self._paused:
            return
        self._paused = False
        if not self._transmitting and not self.scheduler.is_empty:
            self._start_next(self.sim.now)

    def set_rate(self, rate):
        """Change the link rate mid-run (degradation / recovery).

        Delegates to the scheduler's :meth:`set_link_rate`, which rebases
        its tag state; the packet in flight completes at the old rate (its
        finish event is already scheduled), subsequent packets transmit at
        the new one.
        """
        self.scheduler.set_link_rate(rate)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot(self):
        """Checkpoint the link (including its scheduler) as plain data.

        For a joint checkpoint with the simulator, capture the simulator
        with ``sim.snapshot(keep=lambda e: e.callback != link._finish)``
        — the in-flight finish event is re-armed by :meth:`restore`, so
        excluding it there keeps it from firing twice.  (Equality, not
        identity: every ``link._finish`` access builds a fresh bound
        method.)  :func:`repro.faults.checkpoint` packages this recipe.
        """
        current = None
        if self._current is not None:
            record, _event = self._current
            current = {
                "packet": record.packet.to_dict(),
                "start_time": record.start_time,
                "finish_time": record.finish_time,
                "virtual_start": record.virtual_start,
                "virtual_finish": record.virtual_finish,
            }
        return {
            "transmitting": self._transmitting,
            "paused": self._paused,
            "bits_sent": self._bits_sent,
            "packets_sent": self._packets_sent,
            "packets_dropped": self._packets_dropped,
            "busy_time": self._busy_time,
            "current": current,
            "scheduler": self.scheduler.snapshot(),
        }

    def restore(self, snap, rearm=True):
        """Roll back to a :meth:`snapshot`; returns the packet uid map.

        Restore the simulator *first* (so the clock precedes the in-flight
        finish time), then the link.  ``rearm`` re-schedules the finish
        event for the in-flight packet; pass False only when the simulator
        snapshot deliberately retained the original finish event.
        """
        from repro.core.packet import Packet
        from repro.core.scheduler import ScheduledPacket

        uid_map = self.scheduler.restore(snap["scheduler"])
        if self._current is not None:
            # Drop the stale finish event of the abandoned timeline.  The
            # handle itself tells us in O(1) whether it is still queued:
            # a fired event detached from its simulator (sim is None), and
            # a simulator restore bumped the epoch past the handle's.  In
            # either of those cases cancel() would corrupt the tombstone
            # counter — neutralise the handle instead.
            stale = self._current[1]
            if stale.sim is self.sim and stale.epoch == self.sim.epoch:
                stale.cancel()
            else:
                stale.cancelled = True
                stale.sim = None
            self._current = None
        self._transmitting = snap["transmitting"]
        self._paused = snap["paused"]
        self._bits_sent = snap["bits_sent"]
        self._packets_sent = snap["packets_sent"]
        self._packets_dropped = snap["packets_dropped"]
        self._busy_time = snap.get("busy_time", 0.0)
        if snap["current"] is not None:
            cur = snap["current"]
            uid = cur["packet"]["uid"]
            packet = uid_map.get(uid)
            if packet is None:
                packet = Packet.from_dict(cur["packet"])
                uid_map[uid] = packet
            record = ScheduledPacket(
                packet, cur["start_time"], cur["finish_time"],
                virtual_start=cur["virtual_start"],
                virtual_finish=cur["virtual_finish"],
            )
            if rearm:
                event = self.sim.schedule(record.finish_time, self._finish,
                                          record, priority=-1)
                self._current = (record, event)
        return uid_map

    def __repr__(self):
        return (
            f"Link(rate={self.rate!r}, sent={self._packets_sent}, "
            f"busy={self._transmitting})"
        )
