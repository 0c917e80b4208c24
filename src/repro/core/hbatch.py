"""Vectorized H-WF2Q+ backend: columnar node state + fused chunk kernels.

:class:`VectorHWF2QPlus` is the hierarchical sibling of
:class:`repro.core.batch.VectorWF2QPlus`: an opt-in float64 backend for
the flattened H-WF2Q+ tree that amortizes the per-packet ARRIVE /
RESET-PATH / RESTART-NODE walks over whole batches.  The exact
(Fraction-capable) :class:`~repro.core.hierarchy.HPFQScheduler` stays
the checkpoint truth — snapshots round-trip through the same node
table, and every fallback (observer attached, buffer limits, subclass,
small chunk) lands on the exact per-packet path.

Columnar layout
---------------
:class:`NodeColumns` extends the ``FlowColumns`` idea to the tree:
parallel ``array('d')`` columns for S / F / V / inv_rate / share keyed
by the dense preorder ``node_id`` from the flattening pass, plus the
static structure columns (parent ids, per-depth level index, CSR
node→root path arrays) that make level-ordered batch math possible
without touching node objects.  Two different roles, split on the
measured finding recorded in ``_HNode``:

* **static columns** (``inv_rate``, ``share``, ``parent``, ``levels``,
  ``path_ids``/``path_off``) are the *source* for vectorized gathers —
  the enqueue kernel reads per-leaf inverse rates with one fancy-index
  load instead of one attribute load per packet;
* **tag columns** (``start``/``finish``/``virtual``) are *mirrors* of
  the ``__slots__`` truth, synced level-by-level on demand
  (:meth:`VectorHWF2QPlus.sync_tag_columns`) for introspection and the
  differential suites.  The per-packet dequeue walk keeps writing
  slots: a packet's leaf→root RESTART is a sequential dependency chain,
  and PR 3 measured ``list[i]``-style indexed state *slower* than slot
  access for exactly that walk, so scattering every tag write into the
  columns would tax the hot path to feed a mirror nobody reads per
  packet.

Batch kernels
-------------
* ``enqueue_batch`` stages every packet that newly heads a leaf under a
  *busy* parent (the common case in a loaded hierarchy) and tags the
  whole group with one vectorized ``S = max(F_old, V_parent)``,
  ``F = S + L * inv_rate`` sweep — numpy when importable, ``array('d')``
  scalar fallback otherwise, both pinned identical by the differential
  suite.  Head tags in H-WF2Q+ depend only on the leaf's previous
  finish tag and the parent's virtual time (never on the arrival
  clock), and a busy parent's virtual time cannot move while arrivals
  are being admitted, so one group may span every arrival between two
  transmission completions.  SEFF eligibility is re-derived for the
  whole group as the vector mask ``S <= V_parent``; heap pushes replay
  in packet order so the policy heaps stay byte-identical to the exact
  path's.
* ``_dequeue_chunk`` fuses RESET-PATH and the bottom-up RESTART into a
  single unconditional walk over the completed leaf's path.  Every node
  on the active chain is busy with a committed head (an ARRIVE cannot
  displace a busy root's head), which statically discharges the
  per-level branches the exact kernel must keep: ``parent.head`` is
  None until this walk sets it, stale-epoch checks cannot fire inside a
  busy period, and the retag rule is always the busy-case
  ``S = F_node``.  The WF2Q+ ``reselect`` (fused re-key + SEFF select +
  eq. 27 threshold) is inlined per level with the same heap operation
  sequence as :meth:`WF2QPlusNodePolicy.reselect`, so tags *and* heap
  layouts match the exact scheduler bit-for-bit on float workloads.

Exactness contract
------------------
Identical expression sequences over float64 make the vector backend
bit-identical to ``HPFQScheduler(spec, float(rate))`` — the
differential suite pins records, tags and heap contents exactly.
Against the *Fraction*-rate exact scheduler the usual float contract
applies: power-of-two shares/rates/lengths stay exact, anything else is
float-approximate (documented tolerance in the tests).
"""

from array import array

from repro.core.batch import HAVE_NUMPY, NUMPY_MIN_CHUNK
from repro.core.hierarchy import (
    HPFQScheduler,
    WF2QPlusNodePolicy,
)
from repro.core.scheduler import (
    BATCH_KERNEL_MIN,
    PacketScheduler,
    ScheduledPacket,
    kernel_sized,
)
from repro.errors import ConfigurationError, HierarchyError

if HAVE_NUMPY:  # pragma: no branch - import guard
    import numpy as _np
else:  # pragma: no cover - exercised by the numpy-less CI leg
    _np = None

__all__ = ["NodeColumns", "VectorHWF2QPlus", "make_vhwf2qplus"]

_INF = float("inf")


class NodeColumns:
    """Parallel per-node columns keyed by dense ``node_id``.

    Float columns are ``array('d')`` buffers (zero-copy numpy views via
    :meth:`view`); structure columns are ``array('l')``.  The tree's
    topology only changes on cold paths (attach/detach), so columns are
    rebuilt wholesale by :meth:`rebuild` rather than grown per node.
    """

    __slots__ = (
        # float64 state columns (S / F / V mirrors + static rate data)
        "start", "finish", "virtual", "inv_rate", "share",
        # static structure: parent ids, per-depth grouping, CSR paths
        "parent", "depth", "levels", "path_ids", "path_off",
        "size",
    )

    def __init__(self):
        self.size = 0
        for name in ("start", "finish", "virtual", "inv_rate", "share"):
            setattr(self, name, array("d"))
        self.parent = array("l")
        self.depth = array("l")
        self.levels = ()
        self.path_ids = array("l")
        self.path_off = array("l", [0])

    def rebuild(self, order):
        """Re-derive every column from ``order`` (nodes by ``node_id``)."""
        size = len(order)
        self.size = size
        self.inv_rate = array("d", (float(node.inv_rate) for node in order))
        self.share = array("d", (float(node.share) for node in order))
        self.start = array("d", bytes(8 * size))
        self.finish = array("d", bytes(8 * size))
        self.virtual = array("d", bytes(8 * size))
        self.parent = array("l", (
            -1 if node.parent is None else node.parent.node_id
            for node in order))
        depth = array("l", (len(node.path) - 1 for node in order))
        self.depth = depth
        levels = [array("l") for _ in range(max(depth, default=-1) + 1)]
        for node in order:
            levels[len(node.path) - 1].append(node.node_id)
        self.levels = tuple(levels)
        path_ids = array("l")
        path_off = array("l", [0])
        for node in order:
            for hop in node.path:
                path_ids.append(hop.node_id)
            path_off.append(len(path_ids))
        self.path_ids = path_ids
        self.path_off = path_off

    def sync_static(self, order):
        """Refresh rate-derived columns after a live reconfiguration."""
        inv_rate = self.inv_rate
        share = self.share
        for node in order:
            node_id = node.node_id
            inv_rate[node_id] = float(node.inv_rate)
            share[node_id] = float(node.share)

    def sync_tags(self, order, epoch):
        """Mirror S/F/V from the slots truth, level by level.

        Nodes whose ``epoch`` predates the current busy period read as
        zero — the same lazily-applied reset ``_touch`` would perform —
        so the columns show the *semantic* tag state, not stale storage.
        """
        start = self.start
        finish = self.finish
        virtual = self.virtual
        for ids in self.levels:
            for node_id in ids:
                node = order[node_id]
                if node.epoch != epoch:
                    start[node_id] = 0.0
                    finish[node_id] = 0.0
                    virtual[node_id] = 0.0
                else:
                    start[node_id] = float(node.start_tag)
                    finish[node_id] = float(node.finish_tag)
                    virtual[node_id] = float(node.virtual)

    def path(self, node_id):
        """The node→root id chain of ``node_id`` (CSR slice)."""
        return self.path_ids[self.path_off[node_id]:
                             self.path_off[node_id + 1]]

    def view(self, name):
        """Zero-copy numpy float64 view of a float column."""
        return _np.frombuffer(getattr(self, name), dtype=_np.float64)


class VectorHWF2QPlus(HPFQScheduler):
    """Float64 columnar H-WF2Q+ (see the module docstring).

    Drop-in for ``HPFQScheduler(spec, rate, policy="wf2qplus")`` with the
    link rate coerced to float; only the homogeneous WF2Q+ policy is
    supported (the fused kernels inline its reselect).  Subclasses and
    observed instances transparently fall back to the exact paths.
    """

    def __init__(self, spec, rate, policy="wf2qplus", policy_overrides=None):
        if self._resolve_policy(policy) is not WF2QPlusNodePolicy:
            raise ConfigurationError(
                f"{type(self).__name__} supports only the wf2qplus node "
                f"policy, got {policy!r}; use HPFQScheduler for other "
                f"hierarchies"
            )
        if policy_overrides:
            raise ConfigurationError(
                f"{type(self).__name__} does not accept policy overrides "
                f"(the fused kernels inline the WF2Q+ reselect at every "
                f"interior node)"
            )
        self._cols = None
        self._node_order = ()
        #: Packets that went through the vector kernels (vs the exact
        #: per-packet fallbacks) — surfaced by :meth:`vector_stats`.
        self._vector_enqueued = 0
        self._vector_dequeued = 0
        super().__init__(spec, float(rate), policy="wf2qplus")
        self.name = "VH-WF2Q+"
        self._cols = NodeColumns()
        self._rebuild_columns()

    # ------------------------------------------------------------------
    # Column maintenance (cold paths)
    # ------------------------------------------------------------------
    def _rebuild_columns(self):
        order = sorted(self._nodes.values(), key=lambda node: node.node_id)
        self._node_order = order
        self._cols.rebuild(order)

    def _flatten(self):
        super()._flatten()
        if self._cols is not None:  # None only during __init__'s build
            self._rebuild_columns()

    def _rebase_subtree(self, top):
        super()._rebase_subtree(top)
        if self._cols is not None:
            self._cols.sync_static(self._node_order)

    def _restore_extra(self, extra, uid_map):
        # Restored snapshots may carry different shares/rates; topology
        # is name-checked identical, so a static resync suffices.
        super()._restore_extra(extra, uid_map)
        self._cols.sync_static(self._node_order)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_columns(self):
        """The :class:`NodeColumns` block (tag mirrors may be stale —
        call :meth:`sync_tag_columns` first for a coherent view)."""
        return self._cols

    def sync_tag_columns(self):
        """Mirror every node's S/F/V into the columns; returns them."""
        self._cols.sync_tags(self._node_order, self._tree_epoch)
        return self._cols

    def level_tags(self, depth):
        """``[(name, S, F, V), ...]`` for every node at ``depth``, in
        dense-id order — the level-synchronous view the differential
        suite compares against the recursive exact walk."""
        cols = self.sync_tag_columns()
        order = self._node_order
        return [
            (order[node_id].name, cols.start[node_id],
             cols.finish[node_id], cols.virtual[node_id])
            for node_id in cols.levels[depth]
        ]

    def vector_stats(self):
        """Vector-vs-exact engagement counters for ``stats --pipeline``."""
        return {
            "vector_enqueued": self._vector_enqueued,
            "vector_dequeued": self._vector_dequeued,
            "exact_enqueued": self._enqueues - self._vector_enqueued,
            "exact_dequeued": self._dequeues - self._vector_dequeued,
            "drain_chunk": self.drain_chunk,
        }

    # ------------------------------------------------------------------
    # Batched ARRIVE
    # ------------------------------------------------------------------
    def enqueue_batch(self, packets, now=None):
        if (type(self) is not VectorHWF2QPlus or self._obs is not None
                or self._buffer_limits or self._shared_limit is not None
                or not kernel_sized(packets)):
            return PacketScheduler.enqueue_batch(self, packets, now)
        # Same skeleton as the exact HPFQ kernel, plus head staging: a
        # packet that newly heads a leaf under a busy parent adopts the
        # head *immediately* (so a same-batch follower takes the plain
        # FIFO-append path) but defers tags + SEFF classification to the
        # vectorized flush.  The flush must run before anything that
        # could read the staged leaves' tags or heaps: a RESET-PATH, an
        # exact-path fallback, or the end of the batch.
        flows = self._flows
        nodes = self._nodes
        backlogged = self._backlogged
        clock = self._clock
        backlog = self._backlog_packets
        backlog_bits = self._backlog_bits
        arrivals = enqueues = 0
        accepted = 0
        enqueue = self.enqueue
        flush = self._flush_heads
        pending = []
        stage = pending.append
        for packet in packets:
            t = packet.arrival_time if now is None else now
            if t is None:
                t = clock
            if self._in_flight is not None and t >= self._free_at:
                if pending:
                    flush(pending)
                    pending = []
                    stage = pending.append
                # RESET-PATH's drained branch reads _backlog_packets.
                self._backlog_packets = backlog
                self._complete_transmission()
            state = flows.get(packet.flow_id)
            length = packet.length
            if (state is None or t < clock
                    or (length <= 0 if type(length) is int
                        else type(length) is not float
                        or not 0.0 < length < _INF)):
                if pending:
                    flush(pending)
                    pending = []
                    stage = pending.append
                self._clock = clock
                self._arrivals += arrivals
                self._enqueues += enqueues
                self._backlog_packets = backlog
                self._backlog_bits = backlog_bits
                arrivals = enqueues = 0
                if enqueue(packet, t):
                    accepted += 1
                clock = self._clock
                backlog = self._backlog_packets
                backlog_bits = self._backlog_bits
                continue
            leaf = nodes[packet.flow_id]
            if leaf.head is None:
                parent = leaf.path[1]
                if not parent.busy or not parent.policy.fast:
                    # Idle parent: ARRIVE restarts the chain bottom-up —
                    # inherently sequential, take the exact path.
                    if pending:
                        flush(pending)
                        pending = []
                        stage = pending.append
                    self._clock = clock
                    self._arrivals += arrivals
                    self._enqueues += enqueues
                    self._backlog_packets = backlog
                    self._backlog_bits = backlog_bits
                    arrivals = enqueues = 0
                    if enqueue(packet, t):
                        accepted += 1
                    clock = self._clock
                    backlog = self._backlog_packets
                    backlog_bits = self._backlog_bits
                    continue
                leaf.head = packet
                stage((leaf, parent, length))
            if packet.arrival_time is None:
                packet.arrival_time = t
            clock = t
            arrivals += 1
            queue = state.queue
            if not queue:
                # The leaf's last packet is still in flight (RESET-PATH
                # is lazy) or the head was just staged above; either way
                # the flow re-enters the backlogged index here.
                backlogged[packet.flow_id] = True
            queue.append(packet)
            state.bits_queued += length
            backlog += 1
            backlog_bits += length
            enqueues += 1
            accepted += 1
        if pending:
            flush(pending)
        self._clock = clock
        self._arrivals += arrivals
        self._enqueues += enqueues
        self._backlog_packets = backlog
        self._backlog_bits = backlog_bits
        self._vector_enqueued += enqueues
        self._count_batch(accepted)
        return accepted

    def _flush_heads(self, pending):
        """Tag + classify a group of staged ``(leaf, parent, length)``.

        Vectorized ARRIVE tail: ``S = max(F_old, V_parent)``,
        ``F = S + L * inv_rate`` over the whole group, with stale-epoch
        leaves reading ``F_old = 0`` (the lazy busy-period reset), then
        the SEFF mask ``S <= V_parent`` recomputed en masse.  Heap
        pushes replay in packet order so the policy heaps end up
        byte-identical to the sequential exact path.  The numpy and
        ``array('d')``-scalar branches evaluate the same expression
        sequence and are pinned identical by the differential suite.
        """
        epoch = self._tree_epoch
        m = len(pending)
        if HAVE_NUMPY and m >= NUMPY_MIN_CHUNK:
            cols = self._cols
            idx = _np.fromiter(
                (leaf.node_id for leaf, _, _ in pending),
                dtype=_np.intp, count=m)
            lengths = _np.fromiter(
                (float(length) for _, _, length in pending),
                dtype=_np.float64, count=m)
            old_finish = _np.fromiter(
                (leaf.finish_tag for leaf, _, _ in pending),
                dtype=_np.float64, count=m)
            stale = _np.fromiter(
                (leaf.epoch != epoch for leaf, _, _ in pending),
                dtype=bool, count=m)
            if stale.any():
                old_finish = _np.where(stale, 0.0, old_finish)
            parent_v = _np.fromiter(
                (parent.virtual for _, parent, _ in pending),
                dtype=_np.float64, count=m)
            start = _np.maximum(old_finish, parent_v)
            finish = start + lengths * cols.view("inv_rate")[idx]
            eligible = start <= parent_v
            cols.view("start")[idx] = start
            cols.view("finish")[idx] = finish
            for k in range(m):
                leaf, parent, _ = pending[k]
                # float() keeps tag slots and heap keys plain Python
                # floats (numpy scalars compare slower and would leak
                # into records and snapshots).
                s = float(start[k])
                f = float(finish[k])
                if leaf.epoch != epoch:
                    leaf.virtual = 0
                    leaf.epoch = epoch
                leaf.start_tag = s
                leaf.finish_tag = f
                pol = parent.policy
                if eligible[k]:
                    pol._ineligible.discard(leaf)
                    pol._eligible.push_or_update(
                        leaf, (f, leaf.child_index))
                else:
                    pol._eligible.discard(leaf)
                    pol._ineligible.push_or_update(
                        leaf, (s, leaf.child_index))
            return
        for leaf, parent, length in pending:
            if leaf.epoch != epoch:
                leaf.finish_tag = 0
                leaf.virtual = 0
                leaf.epoch = epoch
            start = leaf.finish_tag
            parent_v = parent.virtual
            if parent_v > start:
                start = parent_v
            finish = start + length * leaf.inv_rate
            leaf.start_tag = start
            leaf.finish_tag = finish
            pol = parent.policy
            if start <= parent_v:
                pol._ineligible.discard(leaf)
                pol._eligible.push_or_update(
                    leaf, (finish, leaf.child_index))
            else:
                pol._eligible.discard(leaf)
                pol._ineligible.push_or_update(
                    leaf, (start, leaf.child_index))

    # ------------------------------------------------------------------
    # Batched dequeue: fused RESET-PATH + RESTART chunk kernel
    # ------------------------------------------------------------------
    def dequeue_batch(self, n, now=None):
        # Re-evaluated on *every* call (like the enqueue guard above): an
        # observer or buffer cap attached mid-run must disengage the
        # vector kernel from the next batch onward, and drop-policy
        # evictions retag leaves behind the staged columns' back.
        if (type(self) is VectorHWF2QPlus and self._obs is None
                and not self._buffer_limits and self._shared_limit is None
                and n >= BATCH_KERNEL_MIN):
            return self._dequeue_chunk(n, None, now, [])
        return PacketScheduler.dequeue_batch(self, n, now)

    def drain_until(self, limit, now=None, into=None):
        if (type(self) is VectorHWF2QPlus and self._obs is None
                and not self._buffer_limits and self._shared_limit is None):
            return self._dequeue_chunk(
                self.drain_chunk, limit, now, [] if into is None else into)
        return PacketScheduler.drain_until(self, limit, now, into)

    def _dequeue_chunk(self, n, limit, now, records):
        """Amortized dequeue with the tree walk fused into the loop.

        Shared contract with the other ``_dequeue_chunk`` kernels.  The
        RESET-PATH + RESTART of each completed packet runs as one
        unconditional walk over the completed leaf's path, exploiting
        the active-chain invariant (every node on it is busy with a
        committed head and a current epoch — see the module docstring):
        no ``parent.head`` probes, no epoch touches, busy-case retag
        only, and the WF2Q+ reselect inlined with the exact heap
        operation sequence of :meth:`WF2QPlusNodePolicy.reselect`.
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
        nodes = self._nodes
        backlogged = self._backlogged
        rate = self._rate
        root = self._root
        backlog_bits = self._backlog_bits
        append = records.append
        in_flight = self._in_flight
        if in_flight is not None:
            leaf = nodes[in_flight.flow_id]
            path = leaf.path
        else:
            leaf = path = None
        count = 0
        try:
            while count < n and backlog:
                if in_flight is not None:
                    in_flight = None
                    # RESET at the leaf: adopt the next FIFO packet (the
                    # busy-case retag S = F) or clear the logical head.
                    queue = leaf.flow_state.queue
                    if queue:
                        head = queue[0]
                        leaf.head = head
                        start = leaf.finish_tag
                        leaf.start_tag = start
                        leaf.finish_tag = start + head.length * leaf.inv_rate
                        rekeyed = leaf
                    else:
                        leaf.head = None
                        path[1].policy.child_head_cleared(leaf)
                        rekeyed = None
                    plen = len(path)
                    index = 1
                    while True:
                        node = path[index]
                        pol = node.policy
                        eligible = pol._eligible
                        ineligible = pol._ineligible
                        eent = eligible.entries
                        ient = ineligible.entries
                        # -- inlined WF2QPlusNodePolicy.reselect --
                        if rekeyed is not None:
                            rs = rekeyed.start_tag
                            in_eligible = rekeyed in eligible.pos
                            if len(eligible.pos) > (1 if in_eligible else 0):
                                threshold = node.virtual
                            else:
                                smin = rs
                                if ient and ient[0][0][0] < smin:
                                    smin = ient[0][0][0]
                                threshold = node.virtual
                                if smin > threshold:
                                    threshold = smin
                            if rs > threshold:
                                ikey = (rs, rekeyed.child_index)
                                if in_eligible:
                                    if eent[0][2] is rekeyed:
                                        if ient and ient[0][0][0] <= threshold:
                                            child = ient[0][2]
                                            ineligible.replace_top(
                                                rekeyed, ikey)
                                            eligible.replace_top(
                                                child,
                                                (child.finish_tag,
                                                 child.child_index))
                                        else:
                                            eligible.move_top_to(
                                                ineligible, ikey)
                                    else:
                                        eligible.remove(rekeyed)
                                        ineligible.push(rekeyed, ikey)
                                else:
                                    ineligible.push(rekeyed, ikey)
                            elif in_eligible:
                                eligible.update(
                                    rekeyed,
                                    (rekeyed.finish_tag,
                                     rekeyed.child_index))
                            else:
                                eligible.push(
                                    rekeyed,
                                    (rekeyed.finish_tag,
                                     rekeyed.child_index))
                        elif eent:
                            threshold = node.virtual
                        elif ient:
                            threshold = node.virtual
                            smin = ient[0][0][0]
                            if smin > threshold:
                                threshold = smin
                        else:
                            threshold = None
                        if threshold is not None:
                            while ient and ient[0][0][0] <= threshold:
                                child = ient[0][2]
                                ineligible.move_top_to(
                                    eligible,
                                    (child.finish_tag, child.child_index))
                            child = eent[0][2]
                        else:
                            child = None
                        # -- RESTART bookkeeping at this level --
                        index += 1
                        if child is not None:
                            node.active_child = child
                            head = child.head
                            node.head = head
                            dt = head.length * node.inv_rate
                            if index < plen:
                                # Busy-case retag (the node never went
                                # idle inside the walk): S = F.
                                start = node.finish_tag
                                node.start_tag = start
                                node.finish_tag = start + dt
                            # Fused on_select: V <- threshold + L/r.
                            node.virtual = threshold + dt
                            node.served += head.length
                            if index == plen:
                                break
                            rekeyed = node
                        else:
                            node.active_child = None
                            node.busy = False
                            node.head = None
                            if index == plen:
                                break
                            path[index].policy.child_head_cleared(node)
                            rekeyed = None
                head = root.head
                if head is None:  # pragma: no cover - safety net
                    raise HierarchyError(
                        "H-PFQ invariant violated: backlog exists but no "
                        "selection"
                    )
                flow_id = head.flow_id
                leaf = nodes[flow_id]
                state = leaf.flow_state
                queue = state.queue
                packet = queue.popleft()
                if packet is not head:  # pragma: no cover - safety net
                    raise HierarchyError(
                        "H-PFQ invariant violated: dequeued packet is not "
                        "the root head"
                    )
                length = packet.length
                state.bits_queued -= length
                backlog -= 1
                backlog_bits -= length
                if not queue:
                    del backlogged[flow_id]
                finish = now + length / rate
                path = leaf.path
                append(ScheduledPacket(packet, now, finish,
                                       leaf.start_tag, leaf.finish_tag))
                leaf.served += length
                in_flight = packet
                count += 1
                clock = now
                now = finish
                if limit is not None and finish >= limit:
                    break
        finally:
            self._in_flight = in_flight
            self._clock = clock
            self._free_at = now if count else self._free_at
            self._backlog_packets = backlog
            self._backlog_bits = backlog_bits
            self._dequeues += count
            self._vector_dequeued += count
            self._count_batch(count)
        return records


def make_vhwf2qplus(spec, rate):
    """Vector-backend H-WF2Q+ (float64 columnar hierarchy)."""
    return VectorHWF2QPlus(spec, rate)
