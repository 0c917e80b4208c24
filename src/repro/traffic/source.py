"""Traffic source models.

A :class:`Source` generates :class:`~repro.core.packet.Packet` objects into
a :class:`~repro.sim.link.Link` according to its arrival process.  Sources
are attached once and started; they self-schedule on the simulator.

All sources share the conventions:

* ``packet_length`` is in bits (the paper uses 8 KB = 65536-bit packets);
* ``start_time`` / ``stop_time`` bound the emission window;
* randomness comes from a per-source ``random.Random(seed)`` so that two
  simulations of *different schedulers* see byte-identical arrivals — the
  property the paper's paired comparisons (H-WFQ vs H-WF2Q+) rely on.
"""

import random

from repro.core.flow import LeakyBucket
from repro.core.packet import Packet
from repro.errors import ConfigurationError

__all__ = [
    "Source",
    "CBRSource",
    "OnOffSource",
    "PoissonSource",
    "PacketTrainSource",
    "TraceSource",
    "ShapedSource",
]


class Source:
    """Base class: owns flow id, packet size, emission window, counters.

    Emission runs on one of two equivalent paths:

    * the classic path — every emission event calls :meth:`next_gap` to
      compute the next one (virtual dispatch + RNG machinery per packet);
    * the *timetable* path — arrival times are precomputed in chunks that
      double from 1 up to :attr:`TIMETABLE_CHUNK` (see :meth:`_next_times`)
      and each emission event just reads the next absolute time from the
      array.

    The timetable replicates the classic path's arithmetic operation for
    operation (same floating-point chaining, same RNG draw order), so the
    two produce bit-identical arrival streams; subclasses opt in by
    setting ``TIMETABLE_CHUNK > 0``, which is only valid when the arrival
    process does not depend on simulation state other than the previous
    emission time.
    """

    #: Largest refill of the precomputed-arrival fast path; 0 selects the
    #: classic per-packet ``next_gap()`` path.
    TIMETABLE_CHUNK = 0

    def __init__(self, flow_id, packet_length, start_time=0.0, stop_time=None):
        if not packet_length > 0:  # also True for NaN
            raise ConfigurationError(
                f"packet_length must be positive, got {packet_length!r}"
            )
        if stop_time is not None and stop_time < start_time:
            raise ConfigurationError("stop_time precedes start_time")
        self.flow_id = flow_id
        self.packet_length = packet_length
        self.start_time = start_time
        self.stop_time = stop_time
        self.sim = None
        self.link = None
        self.packets_sent = 0
        self.bits_sent = 0
        #: Handle of the next scheduled emission event (None before start
        #: or after the source ran dry); lets :meth:`snapshot` capture the
        #: exact time of the pending emission without scanning the queue.
        self._pending = None
        self._timetable = ()
        self._timetable_idx = 0

    def attach(self, sim, link):
        """Bind to a simulator and a link; call before :meth:`start`."""
        self.sim = sim
        self.link = link
        return self

    def start(self):
        """Schedule the first emission."""
        if self.sim is None:
            raise ConfigurationError("attach(sim, link) before start()")
        if self.TIMETABLE_CHUNK > 0:
            self._timetable = ()
            self._timetable_idx = 0
            self._pending = self.sim.schedule(self.start_time,
                                              self._emit_timetable)
        else:
            self._pending = self.sim.schedule(self.start_time, self._emit)
        return self

    # -- subclass API ----------------------------------------------------
    def _emit(self):
        """Emit one packet now and schedule the next one.

        Every exit either re-arms ``_pending`` or clears it, so the handle
        always names the next emission (or none).
        """
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            self._pending = None
            return
        self._send_packet(now)
        gap = self.next_gap()
        if gap is not None:
            self._pending = self.sim.schedule(now + gap, self._emit)
        else:
            self._pending = None

    def _emit_timetable(self):
        """Emit one packet now; the next time comes from the chunk buffer.

        Refills are sized to demand: the first draws one arrival and each
        later one twice the previous, capped at :attr:`TIMETABLE_CHUNK`,
        so a source never holds more than twice what it has emitted.
        Same ``_pending`` discipline as :meth:`_emit` — the handle is
        re-armed or cleared on every exit, and a stopped source frees its
        timetable.
        """
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            self._pending = None
            self._timetable = ()
            return
        self._send_packet(now)
        i = self._timetable_idx
        times = self._timetable
        if i >= len(times):
            times = self._timetable = self._next_times(
                now, min(2 * len(times) or 1, self.TIMETABLE_CHUNK))
            i = 0
            if not times:  # ran dry: the empty refill replaced the table
                self._pending = None
                return
        self._timetable_idx = i + 1
        self._pending = self.sim.schedule(times[i], self._emit_timetable)

    def _next_times(self, now, n):
        """Up to ``n`` upcoming absolute emission times after ``now``.

        The generic version chains :meth:`next_gap` calls, which is valid
        whenever the gap process never reads the simulator clock (CBR,
        Poisson, packet trains); clock-dependent processes must override
        (see :class:`OnOffSource`) or stay on the classic path.
        """
        out = []
        append = out.append
        next_gap = self.next_gap
        t = now
        for _ in range(n):
            gap = next_gap()
            if gap is None:
                break
            t = t + gap
            append(t)
        return out

    def _send_packet(self, now, length=None):
        length = length if length is not None else self.packet_length
        packet = Packet(self.flow_id, length, arrival_time=now,
                        seqno=self.packets_sent)
        self.packets_sent += 1
        self.bits_sent += length
        self.link.send(packet)
        return packet

    def next_gap(self):
        """Seconds until the next emission, or None to stop."""
        raise NotImplementedError

    # -- checkpoint / migration ------------------------------------------
    def snapshot(self):
        """Plain-data checkpoint of the emission state (picklable).

        Captures the counters, the remaining precomputed timetable, the
        RNG state (sources that draw randomness), and the absolute time of
        the pending emission event — everything a fresh process needs to
        resume the arrival stream bit-identically.  Restore into a source
        built from the *same* constructor arguments (the configuration is
        not captured), attached to a simulator whose clock has not passed
        the pending emission: :meth:`restore` re-schedules it there.
        Used by :mod:`repro.shard` for checkpoint-based shard migration.
        """
        pending = self._pending
        pending_time = None
        if (pending is not None and not pending.cancelled
                and pending.sim is self.sim
                and pending.epoch == self.sim.epoch):
            pending_time = pending.time
        snap = {
            "flow_id": self.flow_id,
            "packets_sent": self.packets_sent,
            "bits_sent": self.bits_sent,
            "pending_time": pending_time,
            # Only the unconsumed tail: emitted arrivals are history.
            "timetable": list(self._timetable[self._timetable_idx:]),
            "timetable_idx": 0,
            "extra": self._snapshot_extra(),
        }
        rng = getattr(self, "_rng", None)
        if rng is not None:
            snap["rng"] = rng.getstate()
        return snap

    def restore(self, snap):
        """Resume from a :meth:`snapshot`; re-schedules the pending emission.

        Call after :meth:`attach` *instead of* :meth:`start`.
        """
        if snap["flow_id"] != self.flow_id:
            raise ConfigurationError(
                f"snapshot is for flow {snap['flow_id']!r}, cannot restore "
                f"into source of flow {self.flow_id!r}"
            )
        if self.sim is None:
            raise ConfigurationError("attach(sim, link) before restore()")
        self.packets_sent = snap["packets_sent"]
        self.bits_sent = snap["bits_sent"]
        # Older snapshots hold the whole timetable plus a cursor; keep
        # only the tail either way.
        self._timetable = list(snap["timetable"][snap["timetable_idx"]:])
        self._timetable_idx = 0
        rng_state = snap.get("rng")
        if rng_state is not None:
            self._rng.setstate(rng_state)
        self._restore_extra(snap["extra"])
        pending_time = snap["pending_time"]
        if pending_time is not None:
            callback = (self._emit_timetable if self.TIMETABLE_CHUNK > 0
                        else self._emit)
            self._pending = self.sim.schedule(pending_time, callback)
        return self

    def _snapshot_extra(self):
        """Hook: subclass emission state beyond the base fields."""
        return None

    def _restore_extra(self, extra):
        """Hook: restore the state captured by :meth:`_snapshot_extra`."""


class CBRSource(Source):
    """Constant bit rate: one packet every ``packet_length / rate`` seconds."""

    TIMETABLE_CHUNK = 512

    def __init__(self, flow_id, rate, packet_length, start_time=0.0,
                 stop_time=None):
        super().__init__(flow_id, packet_length, start_time, stop_time)
        if not rate > 0:  # also True for NaN
            raise ConfigurationError(f"rate must be positive, got {rate!r}")
        self.rate = rate

    def next_gap(self):
        return self.packet_length / self.rate

    def _next_times(self, now, n):
        # Chained addition (t + gap, not now + k*gap): identical floating
        # point to the classic event-per-event accumulation.
        gap = self.packet_length / self.rate
        out = []
        append = out.append
        t = now
        for _ in range(n):
            t = t + gap
            append(t)
        return out


class PoissonSource(Source):
    """Poisson arrivals with mean rate ``rate`` (bits/second)."""

    TIMETABLE_CHUNK = 256

    def __init__(self, flow_id, rate, packet_length, seed=0, start_time=0.0,
                 stop_time=None):
        super().__init__(flow_id, packet_length, start_time, stop_time)
        if not rate > 0:  # also True for NaN
            raise ConfigurationError(f"rate must be positive, got {rate!r}")
        self.rate = rate
        self._rng = random.Random(seed)

    def next_gap(self):
        mean_gap = self.packet_length / self.rate
        return self._rng.expovariate(1.0 / mean_gap)

    def _next_times(self, now, n):
        # One draw per packet in the same order as next_gap(), with the
        # per-call recomputation of the rate parameter hoisted (it is the
        # same float every time).
        mean_gap = self.packet_length / self.rate
        lambd = 1.0 / mean_gap
        expovariate = self._rng.expovariate
        out = []
        append = out.append
        t = now
        for _ in range(n):
            t = t + expovariate(lambd)
            append(t)
        return out


class OnOffSource(Source):
    """Deterministic on/off: CBR at ``peak_rate`` during on periods.

    The duty cycle begins with an on period at ``start_time``.  RT-1 in
    Figure 3 is ``OnOffSource(..., on_duration=0.025, off_duration=0.075)``;
    the Figure 8 on/off sources toggle with second-scale periods.
    """

    TIMETABLE_CHUNK = 256

    def __init__(self, flow_id, peak_rate, packet_length, on_duration,
                 off_duration, start_time=0.0, stop_time=None):
        super().__init__(flow_id, packet_length, start_time, stop_time)
        if not peak_rate > 0:  # also True for NaN
            raise ConfigurationError(f"peak_rate must be positive, got {peak_rate!r}")
        if not (on_duration > 0 and off_duration >= 0):
            raise ConfigurationError("invalid on/off durations")
        self.peak_rate = peak_rate
        self.on_duration = on_duration
        self.off_duration = off_duration

    def is_on(self, now):
        """True if ``now`` falls in an on period of the duty cycle."""
        if now < self.start_time:
            return False
        phase = (now - self.start_time) % (self.on_duration + self.off_duration)
        return phase < self.on_duration

    def next_gap(self):
        gap = self.packet_length / self.peak_rate
        now = self.sim.now
        cycle = self.on_duration + self.off_duration
        phase = (now - self.start_time) % cycle
        # Floating-point modulo can land infinitesimally *below* the cycle
        # boundary (e.g. 0.3 % 0.1 == 0.09999...), which would make the
        # deferral gap ~1e-17 and stall the clock; snap such phases to 0.
        if cycle - phase < 1e-9 * cycle:
            phase = 0.0
        if phase + gap >= self.on_duration:
            # The next emission would fall in (or beyond) the off period:
            # defer it to the start of the next on period.
            return cycle - phase
        return gap

    def _next_times(self, now, n):
        # The gap depends on the emission time (duty-cycle phase), so the
        # generic gap-chaining precompute does not apply; this replays
        # next_gap()'s arithmetic with the running timetable time in place
        # of the simulator clock — operation for operation, including the
        # boundary snap, so the times are bit-identical.
        gap = self.packet_length / self.peak_rate
        cycle = self.on_duration + self.off_duration
        on = self.on_duration
        start = self.start_time
        snap = 1e-9 * cycle
        out = []
        append = out.append
        t = now
        for _ in range(n):
            phase = (t - start) % cycle
            if cycle - phase < snap:
                phase = 0.0
            if phase + gap >= on:
                t = t + (cycle - phase)
            else:
                t = t + gap
            append(t)
        return out


class IntervalSource(Source):
    """CBR at ``peak_rate`` during explicit [start, end) intervals.

    The Figure 8 on/off sources toggle at irregular, scripted times; this
    source takes that schedule directly: ``intervals`` is an iterable of
    (start, end) pairs (non-overlapping; end may be None for "until
    stop_time/forever" on the last interval).
    """

    def __init__(self, flow_id, peak_rate, packet_length, intervals,
                 stop_time=None):
        ivals = []
        for start, end in intervals:
            if end is not None and end <= start:
                raise ConfigurationError(f"bad interval ({start!r}, {end!r})")
            ivals.append((start, end))
        ivals.sort(key=lambda iv: iv[0])
        for (s1, e1), (s2, _e2) in zip(ivals, ivals[1:]):
            if e1 is None or e1 > s2:
                raise ConfigurationError("intervals overlap or are unordered")
        if not ivals:
            raise ConfigurationError("need at least one interval")
        super().__init__(flow_id, packet_length, start_time=ivals[0][0],
                         stop_time=stop_time)
        if not peak_rate > 0:  # also True for NaN
            raise ConfigurationError(f"peak_rate must be positive, got {peak_rate!r}")
        self.peak_rate = peak_rate
        self.intervals = ivals

    def is_on(self, now):
        for start, end in self.intervals:
            if start <= now and (end is None or now < end):
                return True
        return False

    def next_gap(self):
        gap = self.packet_length / self.peak_rate
        now = self.sim.now
        target = now + gap
        for start, end in self.intervals:
            if end is None or target < end:
                if target >= start:
                    return target - now      # stays inside this interval
                return start - now           # jump to the interval's start
        return None                          # no more intervals


class PacketTrainSource(Source):
    """Bursts ("trains") of back-to-back packets with idle gaps between.

    Models the CS-n sessions of Figure 3: traffic from several users merged
    by an upstream multiplexer arrives as trains of ``train_length`` packets
    spaced at the upstream line rate (``line_rate``), one train every
    ``train_interval`` seconds.  With ``jitter_seed`` set, intervals are
    uniformly jittered by +-``jitter`` to avoid perfect phase lock.
    """

    #: The gap process reads only internal state (train position, jitter
    #: RNG), never the simulator clock, so the generic gap-chaining
    #: timetable applies as-is.
    TIMETABLE_CHUNK = 256

    def __init__(self, flow_id, packet_length, train_length, train_interval,
                 line_rate, start_time=0.0, stop_time=None, jitter=0.0,
                 jitter_seed=None):
        super().__init__(flow_id, packet_length, start_time, stop_time)
        if train_length < 1:
            raise ConfigurationError("train_length must be >= 1")
        if not (train_interval > 0 and line_rate > 0):
            raise ConfigurationError("invalid train interval or line rate")
        if train_interval - (train_length - 1) * packet_length / line_rate <= 0:
            raise ConfigurationError(
                "train_interval shorter than the train itself"
            )
        self.train_length = train_length
        self.train_interval = train_interval
        self.line_rate = line_rate
        self.jitter = jitter
        self._rng = random.Random(jitter_seed) if jitter_seed is not None else None
        self._position = 0  # index within the current train

    def next_gap(self):
        self._position += 1
        if self._position < self.train_length:
            return self.packet_length / self.line_rate
        self._position = 0
        gap = self.train_interval - (self.train_length - 1) * self.packet_length / self.line_rate
        if self._rng is not None and self.jitter > 0:
            gap += self._rng.uniform(-self.jitter, self.jitter)
            gap = max(gap, 0.0)
        return gap

    @property
    def average_rate(self):
        return self.train_length * self.packet_length / self.train_interval

    def _snapshot_extra(self):
        return {"position": self._position}

    def _restore_extra(self, extra):
        self._position = extra["position"]


class MarkovOnOffSource(Source):
    """Two-state Markov (exponential on/off) source — bursty cross-traffic.

    On and off period lengths are exponentially distributed with the given
    means; during on periods packets leave at ``peak_rate``.  The classic
    voice/VBR model: mean rate ``peak * on / (on + off)`` with geometric
    burst lengths, i.e. far burstier than Poisson at the same mean.
    """

    def __init__(self, flow_id, peak_rate, packet_length, mean_on, mean_off,
                 seed=0, start_time=0.0, stop_time=None):
        super().__init__(flow_id, packet_length, start_time, stop_time)
        if not peak_rate > 0:  # also True for NaN
            raise ConfigurationError(f"peak_rate must be positive, got {peak_rate!r}")
        if not (mean_on > 0 and mean_off > 0):
            raise ConfigurationError("mean_on and mean_off must be positive")
        self.peak_rate = peak_rate
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._rng = random.Random(seed)
        self._on_until = None  # set when the first emission fires

    @property
    def average_rate(self):
        return self.peak_rate * self.mean_on / (self.mean_on + self.mean_off)

    def next_gap(self):
        now = self.sim.now
        if self._on_until is None:
            self._on_until = now + self._rng.expovariate(1.0 / self.mean_on)
        gap = self.packet_length / self.peak_rate
        if now + gap < self._on_until:
            return gap
        # Burst over: draw an off period, then a fresh on period.
        off = self._rng.expovariate(1.0 / self.mean_off)
        resume = self._on_until + off
        self._on_until = resume + self._rng.expovariate(1.0 / self.mean_on)
        return resume - now

    def _snapshot_extra(self):
        return {"on_until": self._on_until}

    def _restore_extra(self, extra):
        self._on_until = extra["on_until"]


class TraceSource(Source):
    """Emits packets at explicit times (optionally with per-packet lengths).

    ``schedule`` is an iterable of times, or of (time, length) pairs.
    """

    def __init__(self, flow_id, schedule, packet_length):
        entries = []
        for item in schedule:
            if isinstance(item, tuple):
                entries.append(item)
            else:
                entries.append((item, packet_length))
        entries.sort(key=lambda e: e[0])
        start = entries[0][0] if entries else 0.0
        super().__init__(flow_id, packet_length, start_time=start)
        self._entries = entries
        self._next = 0

    def _emit(self):
        now = self.sim.now
        entries = self._entries
        i = self._next
        n = len(entries)
        batch = []
        while i < n and entries[i][0] <= now:
            length = entries[i][1]
            batch.append(Packet(self.flow_id, length, arrival_time=now,
                                seqno=self.packets_sent))
            self.packets_sent += 1
            self.bits_sent += length
            i += 1
        self._next = i
        send = self.link.send
        for packet in batch:
            send(packet)
        if i < n:
            # Keep the handle: snapshot() needs the pending emission time
            # to make the trace stream resumable after a checkpoint.
            self._pending = self.sim.schedule(entries[i][0], self._emit)
        else:
            self._pending = None

    def next_gap(self):  # pragma: no cover - _emit is overridden
        return None

    def _snapshot_extra(self):
        # The trace itself is configuration (rebuilt by the constructor);
        # only the cursor is emission state.
        return {"next": self._next}

    def _restore_extra(self, extra):
        self._next = extra["next"]


class ShapedSource(Source):
    """Wrap any source with a (sigma, rho) leaky-bucket shaper.

    Packets produced by the inner source are delayed until they conform;
    the output is guaranteed leaky-bucket constrained, which is the
    hypothesis of the paper's delay-bound corollaries.  Implemented by
    interposing on the inner source's link: construct the shaper, then
    attach/start the *shaper* (it attaches the inner source to itself).
    """

    def __init__(self, inner, sigma, rho):
        super().__init__(inner.flow_id, inner.packet_length,
                         inner.start_time, inner.stop_time)
        self.inner = inner
        self.bucket = LeakyBucket(sigma, rho)
        self._release_at = 0.0  # shaper output must stay FIFO

    def attach(self, sim, link):
        super().attach(sim, link)
        self.inner.attach(sim, self)  # we impersonate the inner's link
        return self

    def start(self):
        if self.sim is None:
            raise ConfigurationError("attach(sim, link) before start()")
        self.inner.start()
        return self

    # The inner source calls .send() on us as if we were the link.
    def send(self, packet):
        now = self.sim.now
        # Keep the bucket's clock monotonic: packets leave the shaper FIFO,
        # so conformance is evaluated no earlier than the previous release.
        earliest = max(now, self._release_at)
        release = self.bucket.earliest_conforming_time(packet.length, earliest)
        self.bucket.consume(packet.length, release)
        self._release_at = release
        if release <= now:
            self._forward(packet)
        else:
            self.sim.schedule(release, self._forward, packet)

    def _forward(self, packet):
        packet.arrival_time = self.sim.now
        self.packets_sent += 1
        self.bits_sent += packet.length
        self.link.send(packet)

    def next_gap(self):  # pragma: no cover - emission is delegated
        return None

    def snapshot(self):
        raise NotImplementedError(
            "ShapedSource does not support checkpointing (in-flight shaped "
            "packets live in closure-scheduled events); checkpoint before "
            "starting shaped traffic or leave its cell unmigrated")
