"""An indexed min-heap with updatable keys, on C :mod:`heapq`.

Fair queueing schedulers keep their backlogged sessions in priority queues
keyed by a virtual-time tag, and must change a session's key every time its
head-of-queue packet changes (its virtual finish tag moves).  :mod:`heapq`
sifts in C but cannot re-key an entry in place; :class:`IndexedHeap` keeps
heapq's list and adds *lazy invalidation*:

* every entry is a unique ``(key, seq, item)`` tuple, and ``pos`` maps each
  item to its one *live* entry;
* re-keying or removing the top entry is a single ``heapreplace`` /
  ``heappop``;
* re-keying or removing any other entry leaves the old tuple in the list as
  a *stale* entry (``pos`` no longer points at it); a re-key pushes a fresh
  entry beside it;
* a stale entry is popped as soon as it reaches the top, so ``entries[0]``
  is always live and a non-empty list always holds a live item;
* stale entries are swept in place (filter + ``heapify``) once there are at
  least :data:`SWEEP_MIN_STALE` of them and they fill more than half the
  list — the tombstone rule of :class:`~repro.sim.engine.Simulator` — so
  the list stays O(live items) and a sweep is paid for by the
  invalidations it reclaims.

Per operation, for N live items:

* ``push`` / ``pop`` / ``replace_top`` / ``move_top_to`` — O(log N)
* ``update`` / ``remove`` — O(log N) amortised (sweeps included)
* ``peek`` / ``min_key`` — O(1)

Ties are broken by insertion order (FIFO among equal keys), which the
schedulers rely on for deterministic, reproducible service order.
Re-keying an item (``update`` with a *changed* key) refreshes its
tiebreak, so it queues behind existing entries with the same key; an
``update`` to the key the item already has is a no-op and keeps its
position among ties.  ``(key, seq)`` is unique per heap, so pop order is a
total order that depends on neither the list layout nor the stale entries
in it, and a comparison never falls through to ``item`` (items need not
be comparable); every comparison is a C-level ``tuple.__lt__``, also when
``key`` is itself a tuple such as (tag, index).

Keys only need to support ``<``; items must be hashable and unique.

For the hottest loops (the per-level promotion scans of WF2Q+ and the
H-PFQ restart chain), :attr:`IndexedHeap.entries` exposes the raw entry
list itself: ``entries[0]`` is the min ``(key, seq, item)`` tuple and
``if entries:`` is a plain list truth test — zero method calls per probe.
Because stale entries may sit below the top, ``len(entries)`` is not the
item count: use ``len(heap)`` or ``len(heap.pos)``.  Both aliases are the
live backing stores; callers must treat them as read-only.
"""

from heapq import heapify, heappop, heappush, heapreplace

__all__ = ["IndexedHeap"]

#: Sweep floor: below this many stale entries the list is left alone
#: (filtering a small list costs more than the pops it saves); the same
#: floor as ``Simulator.COMPACT_MIN_CANCELLED``.
SWEEP_MIN_STALE = 64


class IndexedHeap:
    """Binary min-heap over unique hashable items with updatable keys."""

    __slots__ = ("_heap", "_pos", "_seq", "_stale", "entries", "pos")

    def __init__(self):
        #: Raw (key, seq, item) entry list; ``entries`` is a public
        #: read-only alias bound to the *same* list object (every mutation
        #: below is in place, so the alias never goes stale).  ``pos`` is
        #: the matching alias of the item -> live entry map, for membership
        #: probes (``item in heap.pos``) without a method call.
        self._heap = []
        self.entries = self._heap
        self._pos = {}
        self.pos = self._pos
        self._seq = 0
        #: Entries in the list that ``pos`` no longer points at.
        self._stale = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self._pos)

    def __contains__(self, item):
        return item in self._pos

    def __iter__(self):
        """Iterate over the items in ``pos`` order, which a
        :meth:`snapshot` / :meth:`restore` round trip preserves."""
        return iter(self._pos)

    def key_of(self, item):
        """Return the current key of ``item`` (KeyError if absent)."""
        return self._pos[item][0]

    def peek(self):
        """Return the (item, key) pair with the smallest key without removal."""
        if not self._heap:
            raise IndexError("peek from an empty heap")
        key, _seq, item = self._heap[0]
        return item, key

    def peek_item(self):
        """Return only the item with the smallest key."""
        if not self._heap:
            raise IndexError("peek from an empty heap")
        return self._heap[0][2]

    #: Alias with the list-index spelling used by hot paths.
    top_item = peek_item

    def min_key(self):
        """Return the smallest key currently in the heap."""
        if not self._heap:
            raise IndexError("peek from an empty heap")
        return self._heap[0][0]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, item, key):
        """Insert ``item`` with ``key``.  Raises ValueError if present."""
        pos = self._pos
        if item in pos:
            raise ValueError(f"item already in heap: {item!r}")
        entry = (key, self._seq, item)
        self._seq += 1
        pos[item] = entry
        heappush(self._heap, entry)

    def pop(self):
        """Remove and return the (item, key) pair with the smallest key."""
        heap = self._heap
        if not heap:
            raise IndexError("pop from an empty heap")
        key, _seq, item = heappop(heap)
        del self._pos[item]
        if self._stale:
            self._tidy()
        return item, key

    def replace_top(self, item, key):
        """Replace the smallest entry with ``(item, key)`` in one sift.

        Equivalent to ``pop()`` followed by ``push(item, key)`` — including
        the fresh FIFO tiebreak for the incoming entry — but with a single
        ``heapreplace``.  ``item`` may be the evicted item itself (re-keying
        the top) or any item not already in the heap; a duplicate raises
        ValueError and leaves the heap unchanged.  Returns the evicted
        ``(item, key)`` pair.
        """
        heap = self._heap
        if not heap:
            raise IndexError("replace_top on an empty heap")
        old_key, _seq, old_item = heap[0]
        pos = self._pos
        if item is not old_item and item in pos and item != old_item:
            raise ValueError(f"item already in heap: {item!r}")
        del pos[old_item]
        entry = (key, self._seq, item)
        self._seq += 1
        pos[item] = entry
        heapreplace(heap, entry)
        if self._stale:
            self._tidy()
        return old_item, old_key

    #: :func:`heapq.heapreplace` analogue (pop the min, push a new entry,
    #: one sift).  Same operation as :meth:`replace_top`.
    pop_push = replace_top

    def move_top_to(self, other, key):
        """Pop this heap's min item and push it into ``other`` under ``key``.

        Exactly ``item, _ = self.pop(); other.push(item, key)`` (including
        the fresh FIFO tiebreak in ``other``) fused into one call — the
        eligible/ineligible migrations of the schedulers are all top-to-heap
        moves, and the pair accounts for most of their heap traffic.  An
        item already in ``other`` raises ValueError before either heap
        changes.  Returns the moved item.
        """
        heap = self._heap
        if not heap:
            raise IndexError("move_top_to on an empty heap")
        item = heap[0][2]
        opos = other._pos
        if item in opos and other is not self:
            raise ValueError(f"item already in heap: {item!r}")
        heappop(heap)
        del self._pos[item]
        if self._stale:
            self._tidy()
        entry = (key, other._seq, item)
        other._seq += 1
        opos[item] = entry
        heappush(other._heap, entry)
        return item

    def update(self, item, key):
        """Change the key of ``item`` (KeyError if absent).

        A changed key refreshes the FIFO tiebreak (the item queues behind
        existing equal keys, as a fresh push would).  An *unchanged* key is
        a no-op: the item keeps its position among ties instead of being
        gratuitously reshuffled behind them.
        """
        pos = self._pos
        entry = pos[item]
        old_key = entry[0]
        if key < old_key or old_key < key:
            fresh = (key, self._seq, item)
            self._seq += 1
            pos[item] = fresh
            heap = self._heap
            if heap[0] is entry:
                heapreplace(heap, fresh)
            else:
                heappush(heap, fresh)
                self._stale += 1
            if self._stale:
                self._tidy()
        # else: keys compare equal — keep entry and tiebreak untouched.

    def push_or_update(self, item, key):
        """Insert ``item`` or change its key if already present."""
        if item in self._pos:
            self.update(item, key)
        else:
            self.push(item, key)

    def remove(self, item):
        """Remove ``item`` (KeyError if absent) and return its key."""
        entry = self._pos.pop(item)
        heap = self._heap
        if heap[0] is entry:
            heappop(heap)
        else:
            self._stale += 1
        if self._stale:
            self._tidy()
        return entry[0]

    def discard(self, item):
        """Remove ``item`` if present; return True if it was removed."""
        if item in self._pos:
            self.remove(item)
            return True
        return False

    def clear(self):
        """Remove every item."""
        self._heap.clear()
        self._pos.clear()
        self._stale = 0

    def rekey(self, convert):
        """Replace every live key ``k`` by ``convert(k)`` in place.

        For a change of the keys' unit: ``convert`` must preserve their
        order, so every entry keeps its seq and the pop order, ``pos``
        order and :meth:`snapshot` seqs are unchanged.  Stale entries are
        dropped.  O(N).
        """
        pos = self._pos
        for item in list(pos):
            key, seq, _item = pos[item]
            pos[item] = (convert(key), seq, item)
        heap = self._heap
        heap[:] = pos.values()
        heapify(heap)
        self._stale = 0

    def _tidy(self):
        """Re-establish a live top and the sweep rule after stale entries
        were made or the list shrank beneath them."""
        heap = self._heap
        pos = self._pos
        stale = self._stale
        if stale >= SWEEP_MIN_STALE and stale * 2 > len(heap):
            # In place: hot paths hold the ``entries`` alias.
            heap[:] = pos.values()
            heapify(heap)
            self._stale = 0
            return
        while heap:
            entry = heap[0]
            if pos.get(entry[2]) is entry:
                break
            heappop(heap)
            stale -= 1
        self._stale = stale

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def snapshot(self, item_token=None):
        """Plain-data copy of the heap for checkpoint/restore.

        Holds the live ``(key, seq, item)`` entries in ``pos`` order, plus
        the seq counter.  The ``(key, seq)`` pairs fix every future pop
        order (FIFO ties included), and ``pos`` order fixes iteration, so a
        restored heap replays identically.  ``item_token`` maps each stored
        item to a serialisable token (e.g. a node name); identity by
        default.
        """
        entries = list(self._pos.values())
        if item_token is not None:
            entries = [(key, seq, item_token(item))
                       for key, seq, item in entries]
        return {"seq": self._seq, "entries": entries}

    def restore(self, snap, item_resolve=None):
        """Rebuild the heap from a :meth:`snapshot` in place.

        Accepts the entries in any order, including the slot layout of
        snapshots taken by earlier versions of this class.  Mutates the
        existing list and map so the public ``entries``/``pos`` aliases
        held by hot paths stay valid.  ``item_resolve`` inverts the
        ``item_token`` used at snapshot time.
        """
        if item_resolve is None:
            entries = [tuple(e) for e in snap["entries"]]
        else:
            entries = [(key, seq, item_resolve(token))
                       for key, seq, token in snap["entries"]]
        pos = self._pos
        pos.clear()
        for entry in entries:
            pos[entry[2]] = entry
        heap = self._heap
        heap[:] = entries
        heapify(heap)
        self._seq = snap["seq"]
        self._stale = 0

    def check_invariants(self):
        """Validate heap order, the live count and a live top (for tests)."""
        heap = self._heap
        pos = self._pos
        for index in range(1, len(heap)):
            if heap[index] < heap[(index - 1) >> 1]:
                raise AssertionError(
                    f"heap order violated at index {index} vs its parent"
                )
        live = [entry for entry in heap if pos.get(entry[2]) is entry]
        if (len(live) != len(pos)
                or {id(e) for e in live} != {id(e) for e in pos.values()}):
            raise AssertionError(
                f"{len(live)} live entries in the list, {len(pos)} items "
                f"in the position map"
            )
        if len(heap) - len(live) != self._stale:
            raise AssertionError(
                f"stale count {self._stale}, actual {len(heap) - len(live)}"
            )
        if heap and pos.get(heap[0][2]) is not heap[0]:
            raise AssertionError(f"stale entry at the top: {heap[0]!r}")
