"""First-In First-Out scheduling — the trivial baseline.

FIFO provides no isolation whatsoever: a burst from one flow delays every
other flow by the full burst length.  It exists here as the degenerate
reference point for the fairness and WFI measurements (its B-WFI is unbounded
as the backlog grows).
"""

from collections import deque

from repro.core.scheduler import (
    BATCH_KERNEL_MIN,
    PacketScheduler,
    ScheduledPacket,
    kernel_sized,
)

__all__ = ["FIFOScheduler"]

_INF = float("inf")


class FIFOScheduler(PacketScheduler):
    """Serve packets strictly in global arrival order.

    Flow shares are accepted (for interface compatibility) but ignored.
    """

    name = "FIFO"

    def __init__(self, rate):
        super().__init__(rate)
        self._order = deque()

    def _on_enqueue(self, state, packet, now, was_flow_empty, was_idle):
        self._order.append(packet)

    def _select_flow(self, now):
        packet = self._order.popleft()
        return self._flows[packet.flow_id]

    def _on_flow_removed(self, state):
        # An idle flow has no packets in the global order; nothing to do.
        pass

    # ------------------------------------------------------------------
    # Batch operations (amortized chunk kernels)
    # ------------------------------------------------------------------
    def enqueue_batch(self, packets, now=None):
        if (self._obs is not None or self._buffer_limits
                or self._shared_limit is not None
                or type(self)._on_enqueue is not FIFOScheduler._on_enqueue
                or not kernel_sized(packets)):
            return PacketScheduler.enqueue_batch(self, packets, now)
        # FIFO has no tags: every admitted packet just joins its flow
        # queue and the global order, so the whole enqueue inlines here.
        # Odd packets (unknown flow, exotic length, time error) flush the
        # hoisted counters and take the exact per-packet path.
        flows = self._flows
        order_append = self._order.append
        backlogged = self._backlogged
        clock = self._clock
        free_at = self._free_at
        backlog = self._backlog_packets
        backlog_bits = self._backlog_bits
        arrivals = enqueues = 0
        accepted = 0
        enqueue = self.enqueue
        for packet in packets:
            t = packet.arrival_time if now is None else now
            if t is None:
                t = clock
            state = flows.get(packet.flow_id)
            length = packet.length
            if (state is None or t < clock
                    or (length <= 0 if type(length) is int
                        else type(length) is not float
                        or not 0.0 < length < _INF)):
                self._clock = clock
                self._free_at = free_at
                self._arrivals += arrivals
                self._enqueues += enqueues
                self._backlog_packets = backlog
                self._backlog_bits = backlog_bits
                arrivals = enqueues = 0
                if enqueue(packet, t):
                    accepted += 1
                clock = self._clock
                free_at = self._free_at
                backlog = self._backlog_packets
                backlog_bits = self._backlog_bits
                continue
            if packet.arrival_time is None:
                packet.arrival_time = t
            clock = t
            arrivals += 1
            queue = state.queue
            if not queue:
                backlogged[packet.flow_id] = True
            queue.append(packet)
            state.bits_queued += length
            if backlog == 0 and t > free_at:
                free_at = t
            backlog += 1
            backlog_bits += length
            enqueues += 1
            order_append(packet)
            accepted += 1
        self._clock = clock
        self._free_at = free_at
        self._arrivals += arrivals
        self._enqueues += enqueues
        self._backlog_packets = backlog
        self._backlog_bits = backlog_bits
        self._count_batch(accepted)
        return accepted

    def dequeue_batch(self, n, now=None):
        if (type(self) is FIFOScheduler and self._obs is None
                and n >= BATCH_KERNEL_MIN):
            return self._dequeue_chunk(n, None, now, [])
        return PacketScheduler.dequeue_batch(self, n, now)

    def drain_until(self, limit, now=None, into=None):
        if type(self) is FIFOScheduler and self._obs is None:
            return self._dequeue_chunk(
                None, limit, now, [] if into is None else into)
        return PacketScheduler.drain_until(self, limit, now, into)

    def _dequeue_chunk(self, n, limit, now, records):
        """Amortized dequeue: pop the global order, no tags, no dispatch.

        Identical results to repeated :meth:`dequeue` calls; see
        :meth:`WF2QPlusScheduler._dequeue_chunk` for the shared contract
        (``n=None`` unbounded, crossing packet included, appends into
        ``records`` as it goes).
        """
        backlog = self._backlog_packets
        if backlog == 0 or (n is not None and n <= 0):
            self._count_batch(0)
            return records
        clock = self._clock
        if now is None:
            now = clock if clock > self._free_at else self._free_at
        elif now < clock:
            raise ValueError(
                f"dequeue time {now!r} precedes scheduler clock {clock!r}"
            )
        if n is None:
            n = backlog
        flows = self._flows
        backlogged = self._backlogged
        rate = self._rate
        order_popleft = self._order.popleft
        backlog_bits = self._backlog_bits
        append = records.append
        count = 0
        try:
            while count < n and backlog:
                packet = order_popleft()
                state = flows[packet.flow_id]
                queue = state.queue
                queue.popleft()
                length = packet.length
                state.bits_queued -= length
                backlog -= 1
                backlog_bits -= length
                if not queue:
                    del backlogged[packet.flow_id]
                finish = now + length / rate
                append(ScheduledPacket(packet, now, finish))
                count += 1
                clock = now
                now = finish
                if limit is not None and finish >= limit:
                    break
        finally:
            self._clock = clock
            self._free_at = now if count else self._free_at
            self._backlog_packets = backlog
            self._backlog_bits = backlog_bits
            self._dequeues += count
            self._count_batch(count)
        return records

    # ------------------------------------------------------------------
    # Robustness hooks (eviction / checkpoint)
    # ------------------------------------------------------------------
    def _evictable_idle(self, state, now):
        # FIFO keeps no per-flow algorithm state: an idle flow has no
        # packets in the global order and its (ignored) tags cannot
        # influence anything, so idle eviction is always exact.
        return True

    def _on_packet_evicted(self, state, packet, index, now):
        # Packets compare by identity, so this removes exactly the victim.
        self._order.remove(packet)

    def _snapshot_extra(self):
        return {"order": [p.uid for p in self._order]}

    def _restore_extra(self, extra, uid_map):
        self._order = deque(uid_map[uid] for uid in extra["order"])
