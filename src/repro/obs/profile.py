"""Opt-in wall-clock profiling of the scheduler hot path.

:class:`SchedulerProfiler` shadows a *single scheduler instance's*
``enqueue`` / ``dequeue`` with timing wrappers (instance attributes over
the class methods), so unprofiled schedulers keep the untouched fast path.
Use it as a context manager or call :meth:`detach` to restore the
original methods; ``summary()`` yields per-operation percentile
statistics, surfaced by ``python -m repro stats``.
"""

import math
import time

__all__ = ["SchedulerProfiler", "OpStats", "percentile"]


def percentile(sorted_samples, q):
    """Quantile ``q`` in (0, 1] of an already-sorted sample list."""
    if not sorted_samples:
        return 0.0
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q!r}")
    index = max(0, math.ceil(q * len(sorted_samples)) - 1)
    return sorted_samples[index]


class OpStats:
    """Summary of one operation's timing samples (seconds)."""

    __slots__ = ("count", "total", "mean", "p50", "p90", "p99", "max")

    def __init__(self, samples):
        self.count = len(samples)
        self.total = sum(samples)
        self.mean = self.total / self.count if samples else 0.0
        ordered = sorted(samples)
        self.p50 = percentile(ordered, 0.50)
        self.p90 = percentile(ordered, 0.90)
        self.p99 = percentile(ordered, 0.99)
        self.max = ordered[-1] if ordered else 0.0

    def to_dict(self):
        return {f: getattr(self, f) for f in self.__slots__}

    def __repr__(self):
        return (f"OpStats(n={self.count}, mean={1e6 * self.mean:.2f}us, "
                f"p99={1e6 * self.p99:.2f}us)")


class SchedulerProfiler:
    """Times every enqueue/dequeue of one scheduler instance.

    Parameters
    ----------
    scheduler:
        Any :class:`~repro.core.scheduler.PacketScheduler`.
    clock:
        Timer returning seconds (default :func:`time.perf_counter`).
    sim:
        Optional :class:`~repro.sim.engine.Simulator` whose event
        counters (processed and elided events) are appended to
        :meth:`format_report`.  Assignable after construction — the
        pipeline driver builds the simulator later.
    """

    def __init__(self, scheduler, clock=time.perf_counter, sim=None):
        self.scheduler = scheduler
        self.sim = sim
        self.enqueue_samples = []
        self.dequeue_samples = []
        #: One ``(seconds, packets)`` pair per batch-API call
        #: (enqueue_batch / dequeue_batch / drain_until).
        self.batch_samples = []
        self._attached = False
        self._clock = clock
        self.attach()

    def attach(self):
        if self._attached:
            return self
        sched = self.scheduler
        clock = self._clock
        orig_enqueue = sched.enqueue
        orig_dequeue = sched.dequeue
        orig_enqueue_batch = sched.enqueue_batch
        orig_dequeue_batch = sched.dequeue_batch
        orig_drain_until = sched.drain_until
        enq_samples = self.enqueue_samples
        deq_samples = self.dequeue_samples
        batch_samples = self.batch_samples

        def enqueue(packet, now=None):
            t0 = clock()
            try:
                return orig_enqueue(packet, now)
            finally:
                enq_samples.append(clock() - t0)

        def dequeue(now=None):
            t0 = clock()
            try:
                return orig_dequeue(now)
            finally:
                deq_samples.append(clock() - t0)

        # The batch wrappers record whole-chunk wall time plus the chunk
        # size; note a batch API that falls back to the per-packet loop
        # also feeds the per-packet wrappers above, so batch and
        # per-packet samples overlap rather than add.
        def enqueue_batch(packets, now=None):
            t0 = clock()
            accepted = orig_enqueue_batch(packets, now)
            batch_samples.append((clock() - t0, accepted))
            return accepted

        def dequeue_batch(n, now=None):
            t0 = clock()
            records = orig_dequeue_batch(n, now)
            batch_samples.append((clock() - t0, len(records)))
            return records

        def drain_until(limit, now=None, into=None):
            before = 0 if into is None else len(into)
            t0 = clock()
            records = orig_drain_until(limit, now, into)
            batch_samples.append((clock() - t0, len(records) - before))
            return records

        sched.enqueue = enqueue
        sched.dequeue = dequeue
        sched.enqueue_batch = enqueue_batch
        sched.dequeue_batch = dequeue_batch
        sched.drain_until = drain_until
        self._attached = True
        return self

    def detach(self):
        """Restore the scheduler's unwrapped methods."""
        if not self._attached:
            return
        # The wrappers are instance attributes shadowing the class methods;
        # deleting them reinstates the original (class-level) fast path.
        del self.scheduler.enqueue
        del self.scheduler.dequeue
        del self.scheduler.enqueue_batch
        del self.scheduler.dequeue_batch
        del self.scheduler.drain_until
        self._attached = False

    @property
    def attached(self):
        return self._attached

    def reset(self):
        """Discard collected samples (keeps the wrappers attached)."""
        self.enqueue_samples.clear()
        self.dequeue_samples.clear()
        self.batch_samples.clear()

    def summary(self):
        """``{"enqueue": OpStats, "dequeue": OpStats, "batch": OpStats}``.

        ``batch`` covers whole-chunk calls (one sample per batch-API
        call, however many packets it moved).
        """
        out = {
            "enqueue": OpStats(self.enqueue_samples),
            "dequeue": OpStats(self.dequeue_samples),
        }
        if self.batch_samples:
            out["batch"] = OpStats([s for s, _n in self.batch_samples])
        return out

    def batch_stats(self):
        """The profiled scheduler's own batch counters (see
        :meth:`~repro.core.scheduler.PacketScheduler.batch_stats`)."""
        return self.scheduler.batch_stats()

    def format_report(self):
        """Percentile table in microseconds (``python -m repro stats``)."""
        lines = [f"{'op':>8s} {'count':>9s} {'mean':>9s} {'p50':>9s} "
                 f"{'p90':>9s} {'p99':>9s} {'max':>9s}   (us)"]
        for op, stats in self.summary().items():
            lines.append(
                f"{op:>8s} {stats.count:9d} "
                f"{1e6 * stats.mean:9.3f} {1e6 * stats.p50:9.3f} "
                f"{1e6 * stats.p90:9.3f} {1e6 * stats.p99:9.3f} "
                f"{1e6 * stats.max:9.3f}"
            )
        batch = self.scheduler.batch_stats()
        if batch["batch_calls"]:
            hist = " ".join(f"{bucket}:{count}" for bucket, count
                            in batch["packets_per_batch"].items() if count)
            lines.append(
                f"batches: {batch['batch_calls']} calls, "
                f"{batch['batch_packets']} packets "
                f"({100 * batch['batched_fraction']:.1f}% of ops batched; "
                f"sizes {hist})")
        sim = self.sim
        if sim is not None:
            lines.append(f"events: {sim.events_processed} processed, "
                         f"{sim.events_elided} elided")
        return "\n".join(lines)

    def __enter__(self):
        return self.attach()

    def __exit__(self, exc_type, exc, tb):
        self.detach()
        return False

    def __repr__(self):
        state = "attached" if self._attached else "detached"
        return (f"SchedulerProfiler({self.scheduler.name!r}, {state}, "
                f"enq={len(self.enqueue_samples)}, "
                f"deq={len(self.dequeue_samples)})")
