"""IndexedHeap under adversarial churn, differentially vs a model.

The reference model is a sorted list of (key, seq, item) triples — the
exact total order the heap promises (key, then FIFO insertion seq).  A
seeded op mix (push / pop / update / remove / replace_top / move_top_to /
peeks) runs against both; every observable result must match and
``check_invariants`` must hold throughout.  A snapshot is taken mid-storm
and later restored — the post-restore op tail must replay the *identical*
observable sequence, FIFO tie-breaks included.  A second, update/remove-
heavy churn over two heaps (the eligible/ineligible pair of WF2Q+) keeps
the lazily invalidated entries within the sweep rule after every op.
"""

import bisect
import random

import pytest

from repro.dstruct.heap import SWEEP_MIN_STALE, IndexedHeap


class ModelHeap:
    """Sorted-list oracle with IndexedHeap's exact tie-break semantics."""

    def __init__(self):
        self.entries = []   # sorted (key, seq, item)
        self.seq = 0

    def __len__(self):
        return len(self.entries)

    def __contains__(self, item):
        return any(e[2] == item for e in self.entries)

    def _locate(self, item):
        for index, entry in enumerate(self.entries):
            if entry[2] == item:
                return index
        raise KeyError(item)

    def push(self, item, key):
        if item in self:
            raise ValueError(item)
        bisect.insort(self.entries, (key, self.seq, item))
        self.seq += 1

    def pop(self):
        key, _seq, item = self.entries.pop(0)
        return item, key

    def peek(self):
        key, _seq, item = self.entries[0]
        return item, key

    def key_of(self, item):
        return self.entries[self._locate(item)][0]

    def update(self, item, key):
        index = self._locate(item)
        old_key = self.entries[index][0]
        if not (key < old_key or old_key < key):
            return  # equal keys keep the existing tiebreak
        del self.entries[index]
        bisect.insort(self.entries, (key, self.seq, item))
        self.seq += 1

    def remove(self, item):
        index = self._locate(item)
        key = self.entries[index][0]
        del self.entries[index]
        return key

    def replace_top(self, item, key):
        old_key, _seq, old_item = self.entries[0]
        if item != old_item and item in self:
            raise ValueError(item)
        del self.entries[0]
        bisect.insort(self.entries, (key, self.seq, item))
        self.seq += 1
        return old_item, old_key

    def snapshot(self):
        return {"entries": list(self.entries), "seq": self.seq}

    def restore(self, snap):
        self.entries = list(snap["entries"])
        self.seq = snap["seq"]


def drive(heap, model, rng, steps, log, next_id):
    """Apply ``steps`` random ops to both structures, appending every
    observable result to ``log``; returns the updated item counter."""
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.30 or not heap:
            item = f"i{next_id}"
            next_id += 1
            key = rng.randint(0, 20)   # small range → many FIFO ties
            heap.push(item, key)
            model.push(item, key)
            log.append(("push", item, key))
        elif roll < 0.50:
            popped = heap.pop()
            assert popped == model.pop()
            log.append(("pop", popped))
        elif roll < 0.70:
            item = rng.choice(list(heap))
            key = rng.randint(0, 20)
            heap.update(item, key)
            model.update(item, key)
            log.append(("update", item, key))
        elif roll < 0.80:
            item = rng.choice(list(heap))
            assert heap.remove(item) == model.remove(item)
            log.append(("remove", item))
        elif roll < 0.90:
            item = f"r{next_id}"
            next_id += 1
            key = rng.randint(0, 20)
            assert heap.replace_top(item, key) == model.replace_top(item, key)
            log.append(("replace", item, key))
        else:
            assert heap.peek() == model.peek()
            assert heap.min_key() == model.entries[0][0]
            log.append(("peek",))
        if heap:
            assert heap.peek() == model.peek()
        assert len(heap) == len(model)
        heap.check_invariants()
    return next_id


@pytest.mark.parametrize("seed", range(6))
def test_adversarial_churn_matches_model(seed):
    rng = random.Random(seed)
    heap, model = IndexedHeap(), ModelHeap()
    drive(heap, model, rng, steps=400, log=[], next_id=0)
    # Full drain must agree to the last FIFO tie.
    while heap:
        assert heap.pop() == model.pop()
    assert not model.entries


@pytest.mark.parametrize("seed", range(4))
def test_snapshot_restore_mid_churn_replays_identically(seed):
    rng = random.Random(1000 + seed)
    heap, model = IndexedHeap(), ModelHeap()
    next_id = drive(heap, model, rng, steps=150, log=[], next_id=0)

    heap_snap = heap.snapshot()
    model_snap = model.snapshot()
    tail_rng_state = rng.getstate()

    first_log = []
    next_after = drive(heap, model, rng, steps=150, log=first_log,
                       next_id=next_id)
    first_drain = []
    while heap:
        pair = heap.pop()
        assert pair == model.pop()
        first_drain.append(pair)

    # Rewind everything and replay the identical op tail.
    heap.restore(heap_snap)
    model.restore(model_snap)
    rng.setstate(tail_rng_state)
    second_log = []
    assert drive(heap, model, rng, steps=150, log=second_log,
                 next_id=next_id) == next_after
    second_drain = []
    while heap:
        pair = heap.pop()
        assert pair == model.pop()
        second_drain.append(pair)

    assert second_log == first_log
    assert second_drain == first_drain


def test_snapshot_tokens_roundtrip_objects():
    class Node:
        def __init__(self, name):
            self.name = name

    nodes = {name: Node(name) for name in "abcd"}
    heap = IndexedHeap()
    for rank, name in enumerate("badc"):
        heap.push(nodes[name], rank)
    snap = heap.snapshot(lambda n: n.name)
    fresh = IndexedHeap()
    fresh.restore(snap, lambda token: nodes[token])
    assert [fresh.pop()[0].name for _ in range(4)] == ["b", "a", "d", "c"]
    fresh.check_invariants()


def test_restore_preserves_public_aliases():
    heap = IndexedHeap()
    entries_alias, pos_alias = heap.entries, heap.pos
    heap.push("x", 1)
    heap.restore(heap.snapshot())
    assert heap.entries is entries_alias and heap.pos is pos_alias
    assert "x" in pos_alias


def stale_entries(heap):
    """Invalidated entries still in the list (public view)."""
    return len(heap.entries) - len(heap)


def drive_pair(heaps, models, rng, steps):
    """Update/remove-heavy churn over two heaps with cross-heap moves.

    Most ops touch non-top items, which leave stale entries behind; every
    op is checked against the models, and after each one both heaps must
    pass ``check_invariants`` and keep stale entries within the sweep rule.
    Returns how many sweeps were seen.
    """
    next_id = 0
    sweeps = 0
    for _ in range(steps):
        side = rng.randrange(2)
        heap, model = heaps[side], models[side]
        other, other_model = heaps[1 - side], models[1 - side]
        before = stale_entries(heap)
        roll = rng.random()
        if roll < 0.20 or len(heap) < 8:
            item = f"i{next_id}"
            next_id += 1
            key = rng.randint(0, 30)
            heap.push(item, key)
            model.push(item, key)
        elif roll < 0.55:
            item = rng.choice(list(heap))
            key = rng.randint(0, 30)
            heap.update(item, key)
            model.update(item, key)
        elif roll < 0.75:
            item = rng.choice(list(heap))
            assert heap.remove(item) == model.remove(item)
        elif roll < 0.85:
            assert heap.pop() == model.pop()
        else:
            key = rng.randint(0, 30)
            item, _key = model.pop()
            other_model.push(item, key)
            assert heap.move_top_to(other, key) == item
        if before >= SWEEP_MIN_STALE - 1 and stale_entries(heap) == 0:
            sweeps += 1
        for h, m in zip(heaps, models):
            h.check_invariants()
            stale = stale_entries(h)
            assert stale < SWEEP_MIN_STALE or 2 * stale <= len(h.entries)
            assert len(h) == len(m)
            if h:
                assert h.peek() == m.peek()
    return sweeps


@pytest.mark.parametrize("seed", range(4))
def test_rekey_heavy_churn_keeps_stale_entries_swept(seed):
    rng = random.Random(2000 + seed)
    heaps = [IndexedHeap(), IndexedHeap()]
    models = [ModelHeap(), ModelHeap()]
    assert drive_pair(heaps, models, rng, steps=3000) > 0
    for heap, model in zip(heaps, models):
        while heap:
            assert heap.pop() == model.pop()
        assert not model.entries and not heap.entries


#: A snapshot as the sift-loop heap of earlier versions wrote it: entries
#: in heap-slot order (neither sorted nor in insertion order), with gaps in
#: ``seq`` left by removed and re-keyed items.
SLOT_LAYOUT_SNAPSHOT = {
    "seq": 13,
    "entries": [(2, 3, "d"), (3, 12, "k"), (5, 8, "i"), (4, 0, "a"),
                (4, 9, "j"), (6, 4, "e"), (6, 6, "g"), (6, 11, "h")],
}


def test_slot_layout_snapshot_restores_and_replays_identically():
    logs = []
    for _ in range(2):
        heap, model = IndexedHeap(), ModelHeap()
        heap.restore(SLOT_LAYOUT_SNAPSHOT)
        model.restore({"seq": SLOT_LAYOUT_SNAPSHOT["seq"],
                       "entries": sorted(SLOT_LAYOUT_SNAPSHOT["entries"])})
        heap.check_invariants()
        log = []
        drive(heap, model, random.Random(77), steps=200, log=log,
              next_id=100)
        while heap:
            pair = heap.pop()
            assert pair == model.pop()
            log.append(("drain", pair))
        logs.append(log)
    assert logs[0] == logs[1]
    # Restored pop order is the snapshot's (key, seq) order, ties included.
    heap = IndexedHeap()
    heap.restore(SLOT_LAYOUT_SNAPSHOT)
    assert [heap.pop() for _ in range(len(heap))] == [
        (item, key) for key, _seq, item
        in sorted(SLOT_LAYOUT_SNAPSHOT["entries"])]


def test_move_top_to_duplicate_leaves_both_heaps_unchanged():
    source, target = IndexedHeap(), IndexedHeap()
    source.push("x", 1)
    source.push("y", 2)
    target.push("x", 5)
    before = (source.snapshot(), target.snapshot())
    with pytest.raises(ValueError):
        source.move_top_to(target, 0)
    assert (source.snapshot(), target.snapshot()) == before
    source.check_invariants()
    target.check_invariants()
    assert [source.pop(), source.pop()] == [("x", 1), ("y", 2)]
    assert target.pop() == ("x", 5)
