"""Observability must be free when unused: the hot-path overhead guard.

The event hooks added to ``PacketScheduler``/``WF2QPlusScheduler`` are a
single ``self._obs is not None`` test per emission site.  This benchmark
pins that contract: a WF2Q+ run with *no sink attached* must stay within
5% of a seed-equivalent control — the same algorithm with the emission
sites deleted outright.

The control subclass below carries verbatim pre-instrumentation bodies of
the methods that gained emission sites (``enqueue``, ``dequeue``, the
busy-period reset in ``_on_enqueue``); its ``_advance_virtual`` is the
production two-heap eq. (27) floor with only the emission site removed.
Everything else is shared, so any measured gap is exactly the cost of the
guards.
"""

import time

from repro.core.packet import Packet
from repro.core.wf2qplus import WF2QPlusScheduler
from repro.errors import EmptySchedulerError


def saturated_churn(sched, n_flows, rounds):
    """Keep every flow backlogged; one enqueue+dequeue per slot (the
    complexity benchmark's steady-state workload)."""
    for f in range(n_flows):
        sched.enqueue(Packet(f, 100.0), now=0.0)
        sched.enqueue(Packet(f, 100.0), now=0.0)
    for _ in range(rounds):
        rec = sched.dequeue()
        sched.enqueue(Packet(rec.flow_id, 100.0), now=rec.finish_time)
    while not sched.is_empty:
        sched.dequeue()


N_FLOWS = 64
ROUNDS = 20000
REPS = 5  # interleaved best-of-REPS; min absorbs scheduler jitter


class SeedEquivalentWF2QPlus(WF2QPlusScheduler):
    """WF2Q+ exactly as it was before instrumentation: no ``_obs`` tests."""

    name = "WF2Q+-seed"

    def enqueue(self, packet, now=None):
        if now is None:
            now = packet.arrival_time
        if now is None:
            now = self._clock
        if now < self._clock:
            raise ValueError(
                f"enqueue time {now!r} precedes scheduler clock {self._clock!r}"
            )
        if packet.arrival_time is None:
            packet.arrival_time = now
        state = self._flow(packet.flow_id)
        self._clock = now
        limit = self._buffer_limits.get(packet.flow_id)
        if limit is not None and len(state.queue) >= limit:
            self._drops[packet.flow_id] = self._drops.get(packet.flow_id, 0) + 1
            return False
        was_idle = self.is_empty
        was_flow_empty = not state.queue
        state.queue.append(packet)
        state.bits_queued += packet.length
        self._backlog_packets += 1
        self._backlog_bits += packet.length
        self._enqueues += 1
        if was_idle:
            self._free_at = max(self._free_at, now)
        self._on_enqueue(state, packet, now, was_flow_empty, was_idle)
        return True

    def dequeue(self, now=None):
        if self.is_empty:
            raise EmptySchedulerError(f"{self.name}: dequeue on empty scheduler")
        if now is None:
            now = max(self._clock, self._free_at)
        if now < self._clock:
            raise ValueError(
                f"dequeue time {now!r} precedes scheduler clock {self._clock!r}"
            )
        self._clock = now
        state = self._select_flow(now)
        packet = state.queue.popleft()
        state.bits_queued -= packet.length
        self._backlog_packets -= 1
        self._backlog_bits -= packet.length
        self._dequeues += 1
        finish = now + packet.length / self.rate
        self._free_at = finish
        record = self._make_record(state, packet, now, finish)
        self._on_dequeued(state, packet, now)
        if self.is_empty:
            self._on_system_empty(now)
        return record

    def _advance_virtual(self, now, floor=True):
        tau = now - self._virtual_stamp
        v = self._virtual + tau
        if floor and not self._eligible.entries:
            ient = self._ineligible.entries
            if ient and ient[0][0][0] > v:
                v = ient[0][0][0]
        self._virtual = v
        self._virtual_stamp = now

    def _on_enqueue(self, state, packet, now, was_flow_empty, was_idle):
        if was_idle and now >= self._free_at:
            self._virtual = 0
            self._virtual_stamp = now
            for st in self._flows.values():
                st.start_tag = 0
                st.finish_tag = 0
        if was_flow_empty:
            self._advance_virtual(now, floor=False)
            self._set_head_tags(state, True, now)


def make(cls):
    sched = cls(rate=1e9)
    for f in range(N_FLOWS):
        sched.add_flow(f, 1 + (f % 3))
    return sched


def timed_run(cls):
    sched = make(cls)
    t0 = time.perf_counter()
    saturated_churn(sched, N_FLOWS, ROUNDS)
    return time.perf_counter() - t0


def test_unobserved_hot_path_within_5_percent_of_seed(results_writer):
    # 5% relative budget with a 100ns/packet absolute floor.  Interleaved
    # best-of-REPS runs absorb per-run jitter; up to 3 measurement rounds
    # (keeping the running minima) absorb machine-level noise bursts, so a
    # loaded CI runner cannot fail a hot path that is genuinely free.
    budget = lambda ctrl: 1.05 * ctrl + 100e-9 * ROUNDS
    timed_run(WF2QPlusScheduler)  # warm-up both code paths
    timed_run(SeedEquivalentWF2QPlus)
    t_ctrl = t_obs = float("inf")
    for _attempt in range(3):
        for _ in range(REPS):
            t_ctrl = min(t_ctrl, timed_run(SeedEquivalentWF2QPlus))
            t_obs = min(t_obs, timed_run(WF2QPlusScheduler))
        if t_obs <= budget(t_ctrl):
            break
    per_packet = t_obs / ROUNDS
    results_writer("obs_overhead.txt", [
        "# unobserved hot-path overhead vs seed-equivalent control",
        f"control      {t_ctrl:.6f} s  ({1e6 * t_ctrl / ROUNDS:.3f} us/pkt)",
        f"instrumented {t_obs:.6f} s  ({1e6 * per_packet:.3f} us/pkt)",
        f"ratio        {t_obs / t_ctrl:.4f}",
    ])
    assert t_obs <= budget(t_ctrl), (
        f"unobserved hot path is {t_obs / t_ctrl:.3f}x the seed-equivalent "
        f"control ({1e6 * per_packet:.3f} us/pkt) — emission guards are no "
        f"longer free"
    )


def test_events_flow_once_a_sink_attaches():
    """Sanity: the same workload with a sink attached does emit events."""
    from repro.obs.sinks import MetricsSink

    sched = make(WF2QPlusScheduler)
    metrics = MetricsSink()
    sched.attach_observer(metrics)
    saturated_churn(sched, N_FLOWS, 500)
    assert metrics.total("dequeues") == 500 + 2 * N_FLOWS
