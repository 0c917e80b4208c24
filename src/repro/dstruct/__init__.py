"""Core data structures used by the schedulers.

The only structure every PFQ algorithm needs is a priority queue over flows
keyed by a virtual-time tag, with support for *changing* a flow's key when a
new packet reaches the head of its queue.  :class:`IndexedHeap` provides
exactly that in O(log N) per operation, matching the complexity claim of
WF2Q+ (Section 3.4 of the paper).
"""

from repro.dstruct.heap import IndexedHeap

__all__ = ["IndexedHeap"]
