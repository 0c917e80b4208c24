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

    Every emission event sends one packet and calls :meth:`next_gap` for
    the time of the next one.  The event's callback is bound once per
    source (``_emit_cb``), not once per emission.  A snapshot written
    when sources pre-drew their arrival times may still carry some of
    them; :meth:`restore` emits those first, then resumes
    :meth:`next_gap`, so the arrival stream and the RNG draw order stay
    the ones of an uninterrupted run.
    """

    def __init__(self, flow_id, packet_length, start_time=0.0, stop_time=None):
        if not packet_length > 0:  # also True for NaN
            raise ConfigurationError(
                f"packet_length must be positive, got {packet_length!r}"
            )
        if start_time != start_time or (stop_time is not None
                                        and stop_time != stop_time):
            raise ConfigurationError("start_time and stop_time must not be NaN")
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
        self._emit_cb = self._emit
        #: Arrival times a restored snapshot still owes, in order.
        self._owed = ()

    def attach(self, sim, link):
        """Bind to a simulator and a link; call before :meth:`start`."""
        self.sim = sim
        self.link = link
        return self

    def start(self):
        """Schedule the first emission."""
        if self.sim is None:
            raise ConfigurationError("attach(sim, link) before start()")
        self._pending = self.sim.schedule(self.start_time, self._emit_cb)
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
            self._pending = self.sim.schedule(now + gap, self._emit_cb)
        else:
            self._pending = None

    def _emit_owed(self):
        """Emit one packet now; the next time is the first one owed.

        The emission at the last owed time is an ordinary :meth:`_emit`,
        which draws the next gap from there.
        """
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            self._pending = None
            self._owed = ()
            return
        self._send_packet(now)
        owed = self._owed
        when = owed.pop(0)
        self._pending = self.sim.schedule(
            when, self._emit_owed if owed else self._emit_cb)

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

        Captures the counters, the RNG state (sources that draw
        randomness), and the absolute time of the pending emission event
        — everything a fresh process needs to resume the arrival stream
        bit-identically.  ``timetable`` holds the arrival times a restored
        snapshot still owes (usually none); the key and ``timetable_idx``
        keep the file layout older readers expect.  Restore into a source
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
            "timetable": list(self._owed),
            "timetable_idx": 0,
            "extra": self._snapshot_extra(),
        }
        rng = getattr(self, "_rng", None)
        if rng is not None:
            snap["rng"] = rng.getstate()
        return snap

    def restore(self, snap):
        """Resume from a :meth:`snapshot`; re-schedules the pending emission.

        Call after :meth:`attach` *instead of* :meth:`start`.  Snapshots
        of sources that pre-drew their arrivals hold the times still to
        come after the pending one: either only those (``timetable_idx``
        0) or the whole table and a cursor into it.  They are emitted
        first, exactly as drawn; the RNG state already stands after them.
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
        self._owed = list(snap["timetable"][snap["timetable_idx"]:])
        rng_state = snap.get("rng")
        if rng_state is not None:
            self._rng.setstate(rng_state)
        self._restore_extra(snap["extra"])
        pending_time = snap["pending_time"]
        if pending_time is not None:
            self._pending = self.sim.schedule(
                pending_time, self._emit_owed if self._owed else self._emit_cb)
        return self

    def _snapshot_extra(self):
        """Hook: subclass emission state beyond the base fields."""
        return None

    def _restore_extra(self, extra):
        """Hook: restore the state captured by :meth:`_snapshot_extra`."""


class CBRSource(Source):
    """Constant bit rate: one packet every ``packet_length / rate`` seconds."""

    def __init__(self, flow_id, rate, packet_length, start_time=0.0,
                 stop_time=None):
        super().__init__(flow_id, packet_length, start_time, stop_time)
        if not rate > 0:  # also True for NaN
            raise ConfigurationError(f"rate must be positive, got {rate!r}")
        self.rate = rate

    def next_gap(self):
        return self.packet_length / self.rate


class PoissonSource(Source):
    """Poisson arrivals with mean rate ``rate`` (bits/second)."""

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


class OnOffSource(Source):
    """Deterministic on/off: CBR at ``peak_rate`` during on periods.

    The duty cycle begins with an on period at ``start_time``.  RT-1 in
    Figure 3 is ``OnOffSource(..., on_duration=0.025, off_duration=0.075)``;
    the Figure 8 on/off sources toggle with second-scale periods.
    """

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
            self._pending = self.sim.schedule(entries[i][0], self._emit_cb)
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
