"""SCFQ — Self-Clocked Fair Queueing (Golestani, INFOCOM '94).

SCFQ avoids tracking the GPS fluid system entirely: the system virtual time
is simply the *finish tag of the packet currently in service*.  That makes
the virtual time O(1), but — as Section 3.4 of the paper points out — this
virtual time can have slope 0 for long stretches (while a long packet of a
small-share flow is in service), so SCFQ's delay bound is roughly
``sum over j != i of L_j,max / r`` worse than GPS, and its WFI grows with N.
SCFQ is included as the "cheap but loose" baseline.

Tags (per flow, updated at head-of-queue like WF2Q+):

    S_i = max(F_i, V)   on becoming backlogged;  S_i = F_i otherwise
    F_i = S_i + L / r_i

and the service policy is SFF (smallest finish tag, no eligibility test).
"""

from repro.core.scheduler import (
    BATCH_KERNEL_MIN,
    PacketScheduler,
    ScheduledPacket,
    kernel_sized,
)
from repro.dstruct.heap import IndexedHeap

__all__ = ["SCFQScheduler"]


class SCFQScheduler(PacketScheduler):
    """One-level Self-Clocked Fair Queueing server."""

    name = "SCFQ"

    def __init__(self, rate):
        super().__init__(rate)
        self._virtual = 0  # finish tag of the packet in (or last in) service
        self._heads = IndexedHeap()  # backlogged flows keyed by finish tag

    def _set_head_tags(self, state, was_flow_empty):
        head = state.head()
        if state.tag_epoch != self._tag_epoch:
            state.start_tag = 0  # lazy busy-period reset
            state.finish_tag = 0
            state.tag_epoch = self._tag_epoch
        if was_flow_empty:
            state.start_tag = max(state.finish_tag, self._virtual)
        else:
            state.start_tag = state.finish_tag
        state.finish_tag = state.start_tag + head.length * self._inv_rate(state)
        self._heads.push_or_update(
            state.flow_id, (state.finish_tag, state.index)
        )

    def _on_enqueue(self, state, packet, now, was_flow_empty, was_idle):
        # A new busy period starts only once the in-flight packet (if any)
        # has left the link; an arrival during transmission keeps the
        # current virtual time and tags.  Tag clearing is lazy (epoch bump;
        # each flow zeroes its own tags on next read) so the boundary is
        # O(1) instead of O(N).
        if was_idle and now >= self._free_at:
            self._virtual = 0
            self._tag_epoch += 1
        if was_flow_empty:
            self._set_head_tags(state, True)

    def _select_flow(self, now):
        flow_id = self._heads.peek_item()
        return self._flows[flow_id]

    def _on_dequeued(self, state, packet, now):
        # Self-clocking: V jumps to the tag of the packet entering service.
        self._virtual = state.finish_tag
        heads = self._heads
        if heads.peek_item() == state.flow_id:
            # The served flow is the heap top (finish-tag selection), so it
            # can be re-keyed in a single sift.
            if state.queue:
                start = state.finish_tag  # Q != 0: S = F
                state.start_tag = start
                finish = start + state.queue[0].length * self._inv_rate(state)
                state.finish_tag = finish
                heads.replace_top(state.flow_id, (finish, state.index))
            else:
                heads.pop()
        else:  # subclass with a different selection policy
            heads.remove(state.flow_id)
            if state.queue:
                self._set_head_tags(state, False)

    def _make_record(self, state, packet, now, finish):
        return ScheduledPacket(
            packet, now, finish,
            virtual_start=state.start_tag,
            virtual_finish=state.finish_tag,
        )

    def virtual_time(self):
        return self._virtual

    def system_virtual_time(self, now=None):
        return self._virtual

    # ------------------------------------------------------------------
    # Batch operations (amortized chunk kernels)
    # ------------------------------------------------------------------
    def enqueue_batch(self, packets, now=None):
        # _on_enqueue is a no-op for a packet joining a non-empty queue,
        # which is exactly the passive kernel's contract.
        if (self._obs is None and not self._buffer_limits
                and self._shared_limit is None
                and type(self)._on_enqueue is SCFQScheduler._on_enqueue
                and kernel_sized(packets)):
            return self._enqueue_batch_passive(packets, now)
        return PacketScheduler.enqueue_batch(self, packets, now)

    def dequeue_batch(self, n, now=None):
        if (type(self) is SCFQScheduler and self._obs is None
                and n >= BATCH_KERNEL_MIN):
            return self._dequeue_chunk(n, None, now, [])
        return PacketScheduler.dequeue_batch(self, n, now)

    def drain_until(self, limit, now=None, into=None):
        if type(self) is SCFQScheduler and self._obs is None:
            return self._dequeue_chunk(
                None, limit, now, [] if into is None else into)
        return PacketScheduler.drain_until(self, limit, now, into)

    def _dequeue_chunk(self, n, limit, now, records):
        """Amortized dequeue: smallest-finish selection, self-clocked V
        and the single-sift re-key inlined per packet; see
        :meth:`repro.core.wf2qplus.WF2QPlusScheduler._dequeue_chunk` for
        the shared contract.
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
        total_share = self._total_share
        gen = self._share_gen
        heads = self._heads
        hent = heads.entries
        replace_top = heads.replace_top
        virtual = self._virtual
        backlog_bits = self._backlog_bits
        append = records.append
        count = 0
        try:
            while count < n and backlog:
                flow_id = hent[0][2]
                state = flows[flow_id]
                queue = state.queue
                packet = queue.popleft()
                length = packet.length
                state.bits_queued -= length
                backlog -= 1
                backlog_bits -= length
                finish = now + length / rate
                start_tag = state.start_tag
                finish_tag = state.finish_tag
                append(ScheduledPacket(packet, now, finish,
                                       start_tag, finish_tag))
                virtual = finish_tag  # self-clocking: V = tag in service
                if queue:
                    start = finish_tag  # Q != 0: S = F
                    state.start_tag = start
                    if state.rate_gen != gen:
                        state.inv_rate = 1 / (
                            state.config.share / total_share * rate
                        )
                        state.rate_gen = gen
                    fin = start + queue[0].length * state.inv_rate
                    state.finish_tag = fin
                    replace_top(flow_id, (fin, state.index))
                else:
                    heads.pop()
                    del backlogged[flow_id]
                count += 1
                clock = now
                now = finish
                if limit is not None and finish >= limit:
                    break
        finally:
            self._clock = clock
            self._free_at = now if count else self._free_at
            self._virtual = virtual
            self._backlog_packets = backlog
            self._backlog_bits = backlog_bits
            self._dequeues += count
            self._count_batch(count)
        return records

    # ------------------------------------------------------------------
    # Robustness hooks (reconfiguration / eviction / checkpoint)
    # ------------------------------------------------------------------
    def _on_reconfigured(self):
        # Keep start tags, rebase finish tags under the new rates and
        # re-key the finish-ordered heap.
        heads = self._heads
        for state in self._flows.values():
            if not state.queue:
                continue
            finish = state.start_tag \
                + state.queue[0].length * self._inv_rate(state)
            state.finish_tag = finish
            heads.update(state.flow_id, (finish, state.index))

    def _on_packet_evicted(self, state, packet, index, now):
        if index != 0:
            return
        if state.queue:
            finish = state.start_tag \
                + state.queue[0].length * self._inv_rate(state)
            state.finish_tag = finish
            self._heads.update(state.flow_id, (finish, state.index))
        else:
            state.finish_tag = state.start_tag
            self._heads.discard(state.flow_id)

    def _snapshot_extra(self):
        return {"virtual": self._virtual, "heads": self._heads.snapshot()}

    def _restore_extra(self, extra, uid_map):
        self._virtual = extra["virtual"]
        self._heads.restore(extra["heads"])
