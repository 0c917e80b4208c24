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

from repro.core.scheduler import PacketScheduler, ScheduledPacket
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
