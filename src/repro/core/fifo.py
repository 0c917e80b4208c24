"""First-In First-Out scheduling — the trivial baseline.

FIFO provides no isolation whatsoever: a burst from one flow delays every
other flow by the full burst length.  It exists here as the degenerate
reference point for the fairness and WFI measurements (its B-WFI is unbounded
as the backlog grows).
"""

from collections import deque

from repro.core.scheduler import PacketScheduler

__all__ = ["FIFOScheduler"]


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
