"""SFQ — Start-time Fair Queueing (Goyal, Vin & Cheng).

SFQ orders service by *start* tag instead of finish tag and sets the system
virtual time to the start tag of the packet in service.  Like SCFQ it needs
no fluid tracking (O(1) virtual time); unlike finish-tag schedulers it does
not privilege high-share flows during bursts, which gives it reasonable
(but still N-dependent) fairness and a delay bound looser than WFQ's.

It is included as another low-complexity baseline against which WF2Q+'s
simultaneous tight-delay + small-WFI + O(log N) combination is measured.

Tags (per flow, updated at head of queue):

    S_i = max(F_i, V)   on becoming backlogged;  S_i = F_i otherwise
    F_i = S_i + L / r_i

Policy: smallest *start* tag first; V = start tag of packet entering service.
"""

from repro.core.scheduler import PacketScheduler, ScheduledPacket
from repro.dstruct.heap import IndexedHeap

__all__ = ["SFQScheduler"]


class SFQScheduler(PacketScheduler):
    """One-level Start-time Fair Queueing server."""

    name = "SFQ"

    def __init__(self, rate):
        super().__init__(rate)
        self._virtual = 0
        self._heads = IndexedHeap()  # backlogged flows keyed by start tag

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
            state.flow_id, (state.start_tag, state.index)
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
        self._virtual = state.start_tag
        heads = self._heads
        if heads.peek_item() == state.flow_id:
            # The served flow is the heap top (start-tag selection), so it
            # can be re-keyed in a single sift.
            if state.queue:
                start = state.finish_tag  # Q != 0: S = F
                state.start_tag = start
                state.finish_tag = start + \
                    state.queue[0].length * self._inv_rate(state)
                heads.replace_top(state.flow_id, (start, state.index))
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
    # Robustness hooks (reconfiguration / eviction / checkpoint)
    # ------------------------------------------------------------------
    def _on_reconfigured(self):
        # The heap is keyed by start tags, which persist across a share or
        # rate change; only the derived finish tags need recomputing.
        for state in self._flows.values():
            if state.queue:
                state.finish_tag = state.start_tag \
                    + state.queue[0].length * self._inv_rate(state)

    def _on_packet_evicted(self, state, packet, index, now):
        if index != 0:
            return
        if state.queue:
            # Start tag (the heap key) is inherited; only F changes.
            state.finish_tag = state.start_tag \
                + state.queue[0].length * self._inv_rate(state)
        else:
            state.finish_tag = state.start_tag
            self._heads.discard(state.flow_id)

    def _snapshot_extra(self):
        return {"virtual": self._virtual, "heads": self._heads.snapshot()}

    def _restore_extra(self, extra, uid_map):
        self._virtual = extra["virtual"]
        self._heads.restore(extra["heads"])
