"""H-PFQ: hierarchical packet fair queueing from one-level PFQ building
blocks (Section 4 of the paper).

The scheduler is a tree (:class:`~repro.config.hierarchy_spec.HierarchySpec`)
whose root is the physical link, interior nodes are link-sharing classes and
leaves hold the physical packet queues.  Every non-root node ``n`` is
connected to its parent by a *logical queue* that stores only a reference to
the packet at its head (``Q_n`` in the paper); the physical packet stays in
its leaf queue until the link finishes transmitting it.

The three operations follow the paper's pseudocode:

* ``ARRIVE``     (our :meth:`HPFQScheduler._arrive`): a packet reaching an
  empty leaf becomes the leaf's logical head, gets tags
  ``s = max(f, V_parent)``, ``f = s + L / r_leaf``, and restarts the parent
  if it is idle.
* ``RESTART-NODE`` (:meth:`HPFQScheduler._restart_path`): a node picks the
  next child by its policy (SEFF for WF2Q+ nodes, SFF for WFQ/SCFQ nodes),
  adopts the child's head packet, updates its own tags
  (``s = f`` while busy, ``s = max(f, V_parent)`` from idle), advances its
  virtual time, and propagates upward while the parent has no selection.
* ``RESET-PATH`` (:meth:`HPFQScheduler._complete_transmission`): when the
  link finishes a packet, the active path is cleared; at the leaf the next
  packet (if any) becomes head with ``s = f``, and the leaf's parent is
  restarted, which re-selects bottom-up through the cleared path.

Reference time (Section 4.1): node ``n``'s clock is
``T_n = W_n(0, t) / r_n``, where ``W_n`` is the number of bits the node has
selected.  Each node counts ``W_n`` in bits (``served += L`` per selection,
an int add for integer lengths) and derives ``T_n`` only when it is read
(:meth:`HPFQScheduler.node_reference_time`); no scheduling decision reads
either, and ``W_n`` stays put when ``r_n`` changes.  Consequently the whole
hierarchy is *event-driven* — no wall-clock input is needed beyond
busy-period boundaries.

Time units: virtual times and tags are seconds of the node's reference
time.  An H-WF2Q+ node ``n`` whose rate and children's rates are all
exact (``Fraction`` inverse rates) keeps ``V_n`` and its children's
``S``/``F`` tags as ``int`` counts of a *time quantum* ``1/D_n`` instead,
where ``D_n`` is the lcm of the numerators ``p`` of those rates ``p/q``:
``L / r_c`` for an integer length ``L`` is then the ``int``
``L * q_c * (D_n // p_c)``, so every tag add and heap-key comparison in
the node's *domain* runs in C.  The quantum is chosen where rates are set
(:meth:`HPFQScheduler._settle`); every other domain — float rates or
lengths, other node policies, subclasses of :class:`HPFQScheduler` — keeps
seconds.  Values convert back to seconds (``int`` 0 at a busy-period
start, ``Fraction`` otherwise) wherever they leave the scheduler: service
records, virtual-time queries, observability events and snapshots.

Hot-path layout
---------------
The tree is flattened at build time (dense ``node_id`` ids, precomputed
leaf→root ``path`` tuples), and the three operations above run as *iterative
loops over path tuples* — no recursion, no parent-pointer chasing.  At
WF2Q+ nodes the RESTART chain uses a fused re-selection
(:meth:`WF2QPlusNodePolicy.reselect`) that folds the served child's re-key,
the eligibility classification and the virtual-time advance into one pass
over the policy heaps; the classification against the *final* eligibility
threshold (instead of the pre-promotion virtual time) is packet-for-packet
equivalent because the threshold ``max(V_n, Smin_n)`` is non-decreasing
across consecutive selections of a busy period and heap keys
``(tag, child_index)`` are unique per child.  When an observability sink is
attached the generic (unfused) path runs instead, so event ordering is
byte-identical to the reference implementation and the fused kernels stay
zero-cost-when-off.

Per-node policies
-----------------
:class:`WF2QPlusNodePolicy` implements lines 1 and 12 of ``RESTART-NODE``:
eligibility ``s_m <= max(V_n, Smin_n)`` with smallest-finish selection, and
``V_n <- max(V_n, Smin_n) + L/r_n``.  :class:`WFQNodePolicy`,
:class:`SCFQNodePolicy` and :class:`SFQNodePolicy` provide the baselines the
paper compares against (H-WFQ's large-WFI nodes are what causes its delay
spikes in Figures 4-7).
"""

from fractions import Fraction
from functools import partial
from math import lcm

from repro.config.hierarchy_spec import HierarchySpec, NodeSpec
from repro.core.scheduler import PacketScheduler, ScheduledPacket
from repro.dstruct.heap import IndexedHeap
from repro.errors import ConfigurationError, HierarchyError
from repro.obs.events import NodeRestart, VirtualTimeUpdate

__all__ = [
    "HPFQScheduler",
    "NodeSpec",
    "NodePolicy",
    "WF2QPlusNodePolicy",
    "WFQNodePolicy",
    "SCFQNodePolicy",
    "SFQNodePolicy",
    "POLICIES",
    "make_hwf2qplus",
    "make_hwfq",
    "make_hscfq",
    "make_hsfq",
]


def _seconds(value, den):
    """A tag or virtual time of a domain with quantum ``1/den``, in seconds.

    An ``int`` is a count of quanta: ``0`` stays the ``int`` 0 of a
    busy-period start, anything else becomes ``Fraction(value, den)``.
    Other values are already seconds (every value when ``den`` is 0, and
    stale values of an earlier busy period kept in seconds when their
    domain changed quantum).
    """
    if den and type(value) is int:
        return Fraction(value, den) if value else 0
    return value


def _span(length, inv_rate, den):
    """``length * inv_rate`` in quanta of ``1/den`` (seconds when 0)."""
    if den:
        return length * inv_rate.numerator * (den // inv_rate.denominator)
    return length * inv_rate


def _rescaled(factor, value):
    """A quantum count rescaled to a quantum ``factor`` times finer."""
    return value * factor if type(value) is int else value


def _quanta(den, value):
    """Seconds as a count of ``1/den`` quanta where that is exact; stale
    values that do not fit stay in seconds."""
    kind = type(value)
    if kind is int:
        return value * den
    if kind is Fraction and den % value.denominator == 0:
        return value.numerator * (den // value.denominator)
    return value


class _HNode:
    """Runtime state of one tree node (leaf or interior).

    The tree is *flattened* at build time: every node gets a dense
    integer ``node_id`` (preorder) and a precomputed ``path`` tuple — the
    chain ``(self, parent, ..., root)`` — so the per-packet ARRIVE /
    RESET-PATH / RESTART-NODE walks iterate over a tuple of direct
    references instead of chasing ``parent`` pointers or recursing.  All
    mutable per-node state (tags, virtual time, service, epoch) lives in
    ``__slots__``: one slot load per access, no instance dict.  (A
    parallel-array layout over ``node_id`` was measured too; in CPython
    ``list[i]`` indexing plus the id indirection costs more than the
    direct slot access, so the slots layout is the flat representation.)

    ``served`` is ``W_n(0, t)``, the bits selected through the node, kept
    as a plain sum of packet lengths; the reference time ``T_n = W_n /
    r_n`` is derived from it on read.  ``rate`` and ``inv_rate`` change
    only through :meth:`set_rate`.

    Time units (see the module docstring): ``den`` is ``D_n`` when the
    node's own domain — ``virtual`` and its children's tags — counts
    quanta of ``1/D_n``, else 0 (seconds), as set by
    :meth:`HPFQScheduler._settle`; ``owner`` is that scheduler.  The
    node's own ``start_tag``/``finish_tag`` are in its parent's unit, so
    :meth:`span` keeps ``L / r_n`` in both units.  The two differ in kind
    where a quantum domain meets a seconds one, e.g. below a float root,
    and otherwise only in ``D``.
    """

    __slots__ = (
        "name", "share", "rate", "inv_rate", "parent", "children", "is_leaf",
        "child_index",
        # L / r_n for the last integer length, in both units (see span)
        "memo_length", "memo_span", "vspan",
        # flattened-tree layout (assigned once by HPFQScheduler._flatten)
        "node_id", "path",
        # child-role state: the logical queue to the parent
        "head", "start_tag", "finish_tag",
        # server-role state
        "policy", "virtual", "served", "busy", "active_child",
        # lazy busy-period reset stamp (see HPFQScheduler._tree_epoch)
        "epoch",
        # leaf-role state (the physical queue lives in FlowState)
        "flow_state",
        # time units (see the class docstring); read on memo misses and
        # conversions only, so they sit after the per-packet slots
        "den", "owner",
    )

    def __init__(self, name, share, rate, parent, is_leaf):
        self.name = name
        self.share = share
        self.set_rate(rate)
        self.den = 0
        self.owner = None
        self.vspan = None
        self.parent = parent
        self.children = []
        self.child_index = 0
        self.node_id = -1
        self.path = ()
        self.is_leaf = is_leaf
        self.head = None
        self.start_tag = 0
        self.finish_tag = 0
        self.policy = None
        self.virtual = 0
        self.served = 0
        self.busy = False
        self.active_child = None
        self.epoch = 0
        self.flow_state = None

    def __repr__(self):  # pragma: no cover - debug aid
        return f"_HNode({self.name!r}, r={self.rate!r}, busy={self.busy})"

    def set_rate(self, rate):
        """Set r_n and its cached inverse, and forget the :meth:`span` memo.

        Every rate change (construction, a rebase after a share, link-rate
        or topology change, a restore) goes through here, so no memoised
        ``L / r_n`` can outlive the rate it was computed from.  The
        scheduler then re-settles the two domains the rate belongs to
        (the parent's and the node's own), which may change their units.
        """
        self.rate = rate
        #: 1 / r_n, so tag updates pay one multiply instead of a division.
        self.inv_rate = 1 / rate
        self.memo_length = None
        self.memo_span = None

    def span(self, length):
        """``L / r_n`` for a packet of ``length`` bits, in the unit of the
        node's tags; leaves the same time in the node's own unit (for
        ``V_n``) in ``vspan``.

        Memoised for the last ``int`` length: with fixed-size packets
        every tag update and virtual-time advance after the first reuses
        one product, which saves a multiply per level — a ``Fraction``
        multiply under exact rates in a seconds domain.  Other lengths
        bypass the memo: ``65536 == 65536.0``, but ``65536 * q`` is a
        ``Fraction`` while ``65536.0 * q`` is a float.  Such a length has
        no exact quantum count, so a quantum domain holding the node's
        tags first leaves for seconds; the node's own domain already has,
        through the child that brought the packet.
        """
        if type(length) is int:
            if length == self.memo_length:
                return self.memo_span
            self.memo_length = length
            inv = self.inv_rate
            parent = self.parent
            self.vspan = _span(length, inv, self.den)
            span = self.memo_span = _span(
                length, inv, 0 if parent is None else parent.den)
            return span
        parent = self.parent
        if parent is not None and parent.den:
            self.owner._settle(parent)
        self.memo_length = None
        span = self.vspan = length * self.inv_rate
        return span

    def own_span(self, length):
        """``L / r_n`` in the node's own unit (for ``V_n``); shares the
        :meth:`span` memo."""
        if length != self.memo_length or type(length) is not int:
            self.span(length)
        return self.vspan


# ----------------------------------------------------------------------
# Per-node policies
# ----------------------------------------------------------------------
class NodePolicy:
    """Selection + virtual-time policy of one interior node.

    The framework notifies the policy whenever a child's logical-queue head
    is set (with fresh ``start_tag``/``finish_tag``) or cleared; ``select``
    returns the child to serve next; ``on_select`` advances the node's
    virtual time for the chosen packet.
    """

    name = "abstract"

    #: True only on instances whose select/on_select pair can be fused by
    #: the iterative RESTART kernel (set per instance by HPFQScheduler for
    #: exact WF2QPlusNodePolicy objects; subclasses with overridden
    #: selection logic must keep the generic path).
    fast = False

    def __init__(self, node):
        self.node = node

    def child_head_set(self, child):
        raise NotImplementedError

    def child_head_cleared(self, child):
        raise NotImplementedError

    def select(self):
        """Return the child whose head packet is served next (or None)."""
        raise NotImplementedError

    def on_select(self, child, length):
        """Advance the node's virtual time and service for one packet."""
        raise NotImplementedError

    def reset(self):
        """Forget everything (system busy period ended)."""
        raise NotImplementedError

    # -- robustness (cold paths: reconfiguration and checkpointing) -----
    def reconfigure(self):
        """Hook: shares, rates or the child list of ``self.node`` changed.

        Policies holding share-derived state (WFQ's normalised phi table)
        refresh it here; tag-keyed policies need nothing because
        :meth:`rebuild` re-keys their heaps afterwards.
        """

    def rebuild(self):
        """Re-key every headed child after share/rate/index changes.

        Generic over all policies: drop each current child from the
        policy's book-keeping and re-admit it with its (possibly re-based)
        tags and child index.  For WF2Q+ the re-classification uses the
        current ``V_n``; a child that was parked ineligible but now has
        ``s <= V_n`` is promoted early, which ``select`` would have done
        anyway before the next choice — selection order is unchanged.
        """
        self.reconfigure()
        for child in self.node.children:
            self.child_head_cleared(child)
            if child.head is not None:
                self.child_head_set(child)

    def snapshot(self):
        """Plain-data checkpoint of the policy's mutable state.

        Children are tokenised by node name; :meth:`restore` resolves them
        back through the scheduler's node table.
        """
        raise NotImplementedError

    def restore(self, snap, nodes):
        raise NotImplementedError


class WF2QPlusNodePolicy(NodePolicy):
    """SEFF with the hierarchical WF2Q+ virtual time (pseudocode line 12).

    Two heaps, not three: a child in the eligible heap always has
    ``s_m <= V_n`` (it was classified against a threshold no larger than
    the current ``V_n``, which only grows within a busy period), so
    ``Smin_n <= V_n`` whenever the eligible heap is nonempty and the
    eligibility threshold ``max(V_n, Smin_n)`` degenerates to ``V_n``.
    Only when *every* headed child is ineligible does Smin matter — and
    then it is exactly the ineligible heap's top key.  A dedicated
    min-start heap (the paper's literal Smin) would be pure overhead.
    """

    name = "wf2qplus"

    def __init__(self, node):
        super().__init__(node)
        self._eligible = IndexedHeap()    # key = (finish tag, child index)
        self._ineligible = IndexedHeap()  # key = (start tag, child index)
        #: max(V_n, Smin_n) computed by the last ``select`` — consumed by
        #: the immediately following ``on_select`` (no mutation between).
        self._threshold = 0

    def child_head_set(self, child):
        if child.start_tag <= self.node.virtual:
            self._ineligible.discard(child)
            self._eligible.push_or_update(
                child, (child.finish_tag, child.child_index)
            )
        else:
            self._eligible.discard(child)
            self._ineligible.push_or_update(
                child, (child.start_tag, child.child_index)
            )

    def child_head_cleared(self, child):
        self._eligible.discard(child)
        self._ineligible.discard(child)

    def select(self):
        eligible = self._eligible
        ineligible = self._ineligible
        # E_n: children with s_m <= max(V_n, Smin_n).  The max with Smin
        # guarantees at least one eligible child (work conservation).
        if eligible:
            threshold = self.node.virtual
        elif ineligible:
            threshold = max(self.node.virtual, ineligible.min_key()[0])
        else:
            return None
        ient = ineligible.entries
        while ient and ient[0][0][0] <= threshold:
            child = ient[0][2]
            ineligible.move_top_to(
                eligible, (child.finish_tag, child.child_index)
            )
        self._threshold = threshold
        return eligible.peek_item()

    def reselect(self, rekeyed):
        """Fused ``child_head_set`` + ``select``: return ``(child, threshold)``.

        ``rekeyed`` is a child whose head/tags were just refreshed but not
        yet pushed into the policy heaps (or None when nothing changed).
        Instead of classifying it against ``V_n`` and then promoting it in
        ``select``, it is classified directly against the final eligibility
        threshold ``max(V_n, Smin_n)``.  This is exact: within a busy period
        the threshold is non-decreasing across consecutive selections
        (``on_select`` jumps ``V_n`` to threshold + dt), so any child that
        the two-step path would have parked in the ineligible heap and
        promoted later still crosses into the eligible heap before it can
        ever be selected; heap keys ``(tag, child_index)`` are unique per
        child, so the different insertion order is unobservable.

        The returned ``threshold`` lets the caller fuse ``on_select`` too:
        ``V_n <- threshold + L/r_n`` without re-reading Smin.  Returns
        ``(None, None)`` when no child is headed.
        """
        node = self.node
        eligible = self._eligible
        ineligible = self._ineligible
        eent = eligible.entries
        ient = ineligible.entries
        if rekeyed is not None:
            # ``rekeyed`` is either the just-served child (still sitting in
            # the eligible heap under its stale key — it was at the top
            # when selected) or a freshly headed child absent from both
            # heaps; it is never in the ineligible heap.
            rs = rekeyed.start_tag
            in_eligible = rekeyed in eligible.pos
            if len(eligible.pos) > (1 if in_eligible else 0):
                # Some *other* eligible child exists => Smin <= V_n.
                threshold = node.virtual
            else:
                smin = rs
                if ient and ient[0][0][0] < smin:
                    smin = ient[0][0][0]
                threshold = node.virtual
                if smin > threshold:
                    threshold = smin
            if rs > threshold:
                # The re-keyed child parks in the ineligible heap.  In the
                # saturated steady state it is the just-served child sitting
                # at the eligible top while the next child to promote sits
                # at the ineligible top, so both cross-heap moves collapse
                # into single-sift replace_top swaps (2 sifts, not 4).
                ikey = (rs, rekeyed.child_index)
                if in_eligible:
                    if eent[0][2] is rekeyed:
                        if ient and ient[0][0][0] <= threshold:
                            child = ient[0][2]
                            ineligible.replace_top(rekeyed, ikey)
                            eligible.replace_top(
                                child, (child.finish_tag, child.child_index)
                            )
                        else:
                            eligible.move_top_to(ineligible, ikey)
                    else:
                        eligible.remove(rekeyed)
                        ineligible.push(rekeyed, ikey)
                else:
                    ineligible.push(rekeyed, ikey)
            elif in_eligible:
                eligible.update(
                    rekeyed, (rekeyed.finish_tag, rekeyed.child_index)
                )
            else:
                eligible.push(
                    rekeyed, (rekeyed.finish_tag, rekeyed.child_index)
                )
        elif eent:
            threshold = node.virtual
        elif ient:
            threshold = node.virtual
            smin = ient[0][0][0]
            if smin > threshold:
                threshold = smin
        else:
            return None, None
        while ient and ient[0][0][0] <= threshold:
            child = ient[0][2]
            ineligible.move_top_to(
                eligible, (child.finish_tag, child.child_index)
            )
        # Smin's owner is eligible by construction, so the heap is nonempty.
        return eent[0][2], threshold

    def on_select(self, child, length):
        # V_n <- max(V_n, Smin_n) + L/r_n, with max(V_n, Smin_n) already
        # computed as the eligibility threshold by the paired ``select``.
        node = self.node
        node.virtual = self._threshold + node.own_span(length)
        node.served += length

    def reset(self):
        self._eligible.clear()
        self._ineligible.clear()
        self._threshold = 0

    def map_tags(self, convert):
        """Apply ``convert`` to every tag held here (heap keys and the
        threshold): the node's domain changed unit."""
        def rekey(key):
            return convert(key[0]), key[1]
        self._eligible.rekey(rekey)
        self._ineligible.rekey(rekey)
        self._threshold = convert(self._threshold)

    def snapshot(self):
        den = self.node.den
        snap = {
            "eligible": self._eligible.snapshot(lambda c: c.name),
            "ineligible": self._ineligible.snapshot(lambda c: c.name),
            "threshold": _seconds(self._threshold, den),
        }
        if den:
            # Checkpoints hold seconds whatever the node's unit.
            for heap in (snap["eligible"], snap["ineligible"]):
                heap["entries"] = [
                    ((_seconds(tag, den), index), seq, name)
                    for (tag, index), seq, name in heap["entries"]]
        return snap

    def restore(self, snap, nodes):
        self._eligible.restore(snap["eligible"], nodes.__getitem__)
        self._ineligible.restore(snap["ineligible"], nodes.__getitem__)
        self._threshold = snap["threshold"]


class WFQNodePolicy(NodePolicy):
    """SFF with the practical packet-backlog GPS virtual time.

    V advances at slope ``1 / sum(phi of headed children)`` with respect to
    the node's reference time — the classic implementable approximation of
    V_GPS (the exact fluid V is unavailable inside a hierarchy; Section 2.2).
    No eligibility test: this is what gives H-WFQ its O(N)-packet WFI and
    the delay spikes of Figures 4-7.
    """

    name = "wfq"

    def __init__(self, node):
        super().__init__(node)
        self._finishes = IndexedHeap()  # headed children, key = finish tag
        total = sum(c.share for c in node.children)
        self._phi = {c: c.share / total for c in node.children}
        self._active_phi = 0

    def child_head_set(self, child):
        if child not in self._finishes:
            self._active_phi += self._phi[child]
        self._finishes.push_or_update(
            child, (child.finish_tag, child.child_index)
        )

    def child_head_cleared(self, child):
        if self._finishes.discard(child):
            self._active_phi -= self._phi[child]
            if not self._finishes:
                self._active_phi = 0  # kill numeric residue

    def select(self):
        if not self._finishes:
            return None
        return self._finishes.peek_item()

    def on_select(self, child, length):
        node = self.node
        node.served += length
        if self._active_phi > 0:
            node.virtual += node.own_span(length) / self._active_phi

    def reset(self):
        self._finishes.clear()
        self._active_phi = 0

    def reconfigure(self):
        node = self.node
        total = sum(c.share for c in node.children)
        self._phi = {c: c.share / total for c in node.children}
        self._active_phi = sum(
            self._phi[c] for c in node.children if c in self._finishes
        )

    def snapshot(self):
        return {
            "finishes": self._finishes.snapshot(lambda c: c.name),
            "active_phi": self._active_phi,
        }

    def restore(self, snap, nodes):
        self._finishes.restore(snap["finishes"], nodes.__getitem__)
        node = self.node
        total = sum(c.share for c in node.children)
        self._phi = {c: c.share / total for c in node.children}
        self._active_phi = snap["active_phi"]


class SCFQNodePolicy(NodePolicy):
    """SFF with the self-clocked virtual time (V = finish tag in service)."""

    name = "scfq"

    def __init__(self, node):
        super().__init__(node)
        self._finishes = IndexedHeap()

    def child_head_set(self, child):
        self._finishes.push_or_update(
            child, (child.finish_tag, child.child_index)
        )

    def child_head_cleared(self, child):
        self._finishes.discard(child)

    def select(self):
        if not self._finishes:
            return None
        return self._finishes.peek_item()

    def on_select(self, child, length):
        node = self.node
        node.virtual = child.finish_tag
        node.served += length

    def reset(self):
        self._finishes.clear()

    def snapshot(self):
        return {"finishes": self._finishes.snapshot(lambda c: c.name)}

    def restore(self, snap, nodes):
        self._finishes.restore(snap["finishes"], nodes.__getitem__)


class SFQNodePolicy(NodePolicy):
    """Smallest-start-tag-first with V = start tag in service."""

    name = "sfq"

    def __init__(self, node):
        super().__init__(node)
        self._starts = IndexedHeap()

    def child_head_set(self, child):
        self._starts.push_or_update(
            child, (child.start_tag, child.child_index)
        )

    def child_head_cleared(self, child):
        self._starts.discard(child)

    def select(self):
        if not self._starts:
            return None
        return self._starts.peek_item()

    def on_select(self, child, length):
        node = self.node
        node.virtual = child.start_tag
        node.served += length

    def reset(self):
        self._starts.clear()

    def snapshot(self):
        return {"starts": self._starts.snapshot(lambda c: c.name)}

    def restore(self, snap, nodes):
        self._starts.restore(snap["starts"], nodes.__getitem__)


POLICIES = {
    "wf2qplus": WF2QPlusNodePolicy,
    "wfq": WFQNodePolicy,
    "scfq": SCFQNodePolicy,
    "sfq": SFQNodePolicy,
}


# ----------------------------------------------------------------------
# The hierarchical scheduler
# ----------------------------------------------------------------------
class HPFQScheduler(PacketScheduler):
    """H-PFQ server over a :class:`HierarchySpec`.

    Parameters
    ----------
    spec:
        The link-sharing tree.  Leaf names become the flow ids accepted by
        :meth:`enqueue`.
    rate:
        Link rate in bits per second.
    policy:
        Name in :data:`POLICIES` (or a NodePolicy subclass) applied at every
        interior node — ``"wf2qplus"`` builds H-WF2Q+, ``"wfq"`` H-WFQ, etc.
    policy_overrides:
        Optional mapping ``node name -> policy`` for mixed hierarchies.
    """

    def __init__(self, spec, rate, policy="wf2qplus", policy_overrides=None):
        super().__init__(rate)
        if not isinstance(spec, HierarchySpec):
            spec = HierarchySpec(spec)
        self.spec = spec
        overrides = dict(policy_overrides or {})
        self._nodes = {}
        self._build(spec.root, None)
        self._root = self._nodes[spec.root.name]
        for node_obj in self._nodes.values():
            if not node_obj.is_leaf:
                chosen = overrides.pop(node_obj.name, policy)
                pol = self._resolve_policy(chosen)(node_obj)
                # Exact type check on purpose: a subclass with overridden
                # select/on_select must not be silently bypassed by the
                # fused kernel.
                pol.fast = type(pol) is WF2QPlusNodePolicy
                node_obj.policy = pol
        if overrides:
            raise HierarchyError(
                f"policy overrides for unknown interior nodes: {sorted(overrides)}"
            )
        #: Default policy class; interior nodes of subtrees attached live
        #: (attach_subtree) get instances of this.
        self._policy_factory = self._resolve_policy(policy)
        self.policy_name = self._resolve_policy(policy).name
        self.name = f"H-PFQ[{self.policy_name}]"
        # Leaves double as flows of the base scheduler.
        for leaf_spec in spec.leaves:
            state = None
            config = self.add_flow(leaf_spec.name, leaf_spec.share)
            state = self._flows[config.flow_id]
            node_obj = self._nodes[leaf_spec.name]
            node_obj.flow_state = state
        #: The packet handed to the link by the previous dequeue; its
        #: RESET-PATH runs when the transmission completes.
        self._in_flight = None
        #: Busy-period epoch for the lazy whole-tree reset: bumped when the
        #: system drains; a node whose ``epoch`` is stale zeroes its own
        #: tags and virtual time on first touch, so the boundary costs O(1)
        #: instead of O(nodes).
        self._tree_epoch = 0
        self._flatten()
        #: Quantum domains are for this exact class only: a subclass may
        #: override the hot paths that count quanta (see _quantum).
        self._quantum_ok = type(self) is HPFQScheduler
        #: Domains whose quantum is not the lcm of their current rate
        #: numerators (rescaled, or left for seconds mid-busy-period);
        #: rebuilt when the tree next drains.  A dict for a stable order.
        self._unsettled = {}
        for node_obj in self._nodes.values():
            if not node_obj.is_leaf:
                self._settle(node_obj)

    @staticmethod
    def _resolve_policy(policy):
        if isinstance(policy, str):
            try:
                return POLICIES[policy]
            except KeyError:
                raise ConfigurationError(
                    f"unknown node policy {policy!r}; choose from {sorted(POLICIES)}"
                ) from None
        if isinstance(policy, type) and issubclass(policy, NodePolicy):
            return policy
        raise ConfigurationError(f"not a node policy: {policy!r}")

    def _build(self, spec_node, parent):
        rate = self.spec.guaranteed_rate(spec_node.name, self.rate)
        node_obj = _HNode(spec_node.name, spec_node.share, rate, parent,
                          spec_node.is_leaf)
        node_obj.owner = self
        self._nodes[spec_node.name] = node_obj
        if parent is not None:
            node_obj.child_index = len(parent.children)
            parent.children.append(node_obj)
        for child in spec_node.children:
            self._build(child, node_obj)

    def _flatten(self):
        """Assign dense preorder ``node_id`` ids and node→root ``path`` tuples.

        Rates, shares and the topology are fixed at construction, so the
        ancestor chain of every node can be materialised once; the ARRIVE /
        RESTART / RESET walks then iterate a tuple of direct references
        instead of chasing ``parent`` pointers per packet.
        """
        order = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(node.children))
        for node_id, node in enumerate(order):
            node.node_id = node_id
            chain = []
            cursor = node
            while cursor is not None:
                chain.append(cursor)
                cursor = cursor.parent
            node.path = tuple(chain)

    # ------------------------------------------------------------------
    # Time units (quantum domains)
    # ------------------------------------------------------------------
    def _quantum(self, node):
        """``D_n`` when ``node``'s domain may count quanta, else 0.

        A domain counts quanta exactly when the scheduler is this class,
        the node runs the fused WF2Q+ policy and the inverse rates of the
        node and of every child are ``Fraction`` values; ``D_n`` is the
        lcm of the rate numerators (the inverses' denominators).
        """
        if not self._quantum_ok or not node.policy.fast:
            return 0
        inv = node.inv_rate
        if type(inv) is not Fraction:
            return 0
        den = inv.denominator
        for child in node.children:
            inv = child.inv_rate
            if type(inv) is not Fraction:
                return 0
            den = lcm(den, inv.denominator)
        return den

    def _settle(self, node, rebuild=False):
        """Choose the unit of ``node``'s domain under its current rates.

        The domain is ``V_n``, the children's tags, and the policy's heap
        keys and threshold; every value is carried over exactly:

        * quanta → quanta (rates moved, all still exact): rescale by
          ``D'/D`` with ``D' = lcm(D, new numerators)``, an ``int``
          multiply;
        * quanta → seconds (a float rate, or a child headed by a packet
          whose length is not an ``int``): ``Fraction(k, D)``;
        * seconds → quanta mid-busy-period (a restore, or rates exact
          again): a quantum every live value fits;
        * ``rebuild`` (the tree is empty, so every value is stale or 0):
          ``D`` is the lcm of the current rate numerators again, so share
          churn cannot grow the integers without bound.

        Stale values of an earlier busy period that a new quantum cannot
        hold stay in seconds until the lazy reset zeroes them.
        """
        den = node.den
        want = self._quantum(node)
        target = want
        # A head whose length is not an int has no exact quantum count.
        if target and any(child.head is not None
                          and type(child.head.length) is not int
                          for child in node.children):
            target = 0
        if den and target and not rebuild:
            new = lcm(den, target)
            if new != den:
                self._map_domain(node, partial(_rescaled, new // den))
        else:
            if den:
                self._map_domain(node, partial(_seconds, den=den))
            new = target
            if new and not rebuild:
                new = self._live_quantum(node, new)
                if new:
                    self._map_domain(node, partial(_quanta, new))
        node.den = new
        node.memo_length = None
        for child in node.children:
            child.memo_length = None
        if new == want:
            self._unsettled.pop(node, None)
        else:
            self._unsettled[node] = None

    def _live_quantum(self, node, den):
        """The least multiple of ``den`` whose quanta count every live
        value of ``node``'s domain exactly; 0 when one is not rational.

        The policy's heap keys are live children's tags, so the tags
        cover them.
        """
        epoch = self._tree_epoch
        values = []
        if node.epoch == epoch:
            values.append(node.virtual)
        for child in node.children:
            if child.epoch == epoch:
                values += (child.start_tag, child.finish_tag)
        for value in values:
            kind = type(value)
            if kind is Fraction:
                den = lcm(den, value.denominator)
            elif kind is not int:
                return 0
        return den

    @staticmethod
    def _map_domain(node, convert):
        node.virtual = convert(node.virtual)
        for child in node.children:
            child.start_tag = convert(child.start_tag)
            child.finish_tag = convert(child.finish_tag)
        node.policy.map_tags(convert)

    # ------------------------------------------------------------------
    # Lazy busy-period reset
    # ------------------------------------------------------------------
    def _touch(self, node):
        """Zero a node's stale per-busy-period state on first use.

        The paper's semantics zero every node's tags and virtual time when
        the system drains; doing that eagerly is O(nodes) per boundary.
        Instead the drain bumps ``_tree_epoch`` and each node re-zeroes
        itself here the first time the new busy period reaches it.
        ``head``/``busy``/``active_child`` need no lazy handling: the final
        RESET-PATH already cleared them on every node, and the per-node
        policy heaps drained with them.  ``served`` is cumulative and
        deliberately survives (W_n(0, t)).
        """
        if node.epoch != self._tree_epoch:
            node.start_tag = 0
            node.finish_tag = 0
            node.virtual = 0
            node.epoch = self._tree_epoch

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _node(self, name):
        """The runtime node called ``name``; HierarchyError when unknown."""
        try:
            return self._nodes[name]
        except KeyError:
            raise HierarchyError(f"unknown node: {name!r}") from None

    def node_virtual_time(self, name):
        node = self._node(name)
        self._touch(node)
        return _seconds(node.virtual, node.den)

    def node_reference_time(self, name):
        """T_n = W_n(0, t) / r_n (Section 4.1), at the node's current rate."""
        node_obj = self._node(name)
        return node_obj.served / node_obj.rate

    def node_service(self, name):
        """W_n(0, t): bits selected for service through node ``name``.

        The plain sum of the selected packets' lengths, kept as it
        accrues, so a rate change does not touch it.
        """
        return self._node(name).served

    def guaranteed_rate(self, flow_id):
        """r_i of a node or leaf: its phi-fraction of the link rate."""
        return self._node(flow_id).rate

    def system_virtual_time(self, now=None):
        """The root node's virtual time (the hierarchy-wide clock)."""
        root = self._root
        self._touch(root)
        return _seconds(root.virtual, root.den)

    # ------------------------------------------------------------------
    # Observability (emission sites are guarded by the callers)
    # ------------------------------------------------------------------
    def _emit_head(self, node, child_name=None):
        """Emit a NodeRestart for a node that just adopted a head packet."""
        if node.parent is not None:
            den = node.parent.den
            start = _seconds(node.start_tag, den)
            finish = _seconds(node.finish_tag, den)
            rate = node.rate
        else:
            start = finish = rate = None  # the root has no logical queue
        self._obs.emit(NodeRestart(
            self._clock, self.name, node.name, child_name, start, finish,
            None if node.is_leaf else _seconds(node.virtual, node.den),
            node.head.length if node.head is not None else None, rate))

    # ------------------------------------------------------------------
    # ARRIVE
    # ------------------------------------------------------------------
    def enqueue(self, packet, now=None):
        # A transmission that ended strictly before this arrival must run
        # its RESET-PATH first (and see the pre-arrival queue state), so the
        # new packet is tagged under the correct busy/idle rule.
        arrival = now
        if arrival is None:
            arrival = packet.arrival_time
        if arrival is None:
            arrival = self._clock
        if self._in_flight is not None and arrival >= self._free_at:
            self._complete_transmission()
        return super().enqueue(packet, now=arrival)

    def _on_enqueue(self, state, packet, now, was_flow_empty, was_idle):
        leaf = self._nodes[packet.flow_id]
        if leaf.head is not None:
            return  # logical queue busy; the packet waits in the FIFO
        path = leaf.path
        parent = path[1]
        epoch = self._tree_epoch
        if leaf.epoch != epoch:
            leaf.start_tag = 0
            leaf.finish_tag = 0
            leaf.virtual = 0
            leaf.epoch = epoch
        if parent.epoch != epoch:
            parent.start_tag = 0
            parent.finish_tag = 0
            parent.virtual = 0
            parent.epoch = epoch
        leaf.head = packet
        # span first: an odd length moves the parent's domain to seconds.
        dt = leaf.span(packet.length)
        start = leaf.finish_tag
        if parent.virtual > start:
            start = parent.virtual
        leaf.start_tag = start
        leaf.finish_tag = start + dt
        if self._obs is None and not parent.busy and parent.policy.fast:
            # Defer the head-set into the parent's fused re-selection.
            self._restart_path(path, 1, leaf)
            return
        parent.policy.child_head_set(leaf)
        if self._obs is not None:
            self._emit_head(leaf)
        if not parent.busy:
            self._restart_path(path, 1, None)

    # ------------------------------------------------------------------
    # RESTART-NODE
    # ------------------------------------------------------------------
    def _restart(self, node):
        """RESTART-NODE at ``node`` (cold-path wrapper over the kernel)."""
        self._restart_path(node.path, 0, None)

    def _restart_path(self, path, index, rekeyed):
        """Iterative bottom-up RESTART along ``path[index:]``.

        ``rekeyed`` is a child of ``path[index]`` whose head/tags were just
        refreshed but not yet pushed into its parent's policy heaps: at
        fused (WF2Q+, unobserved) nodes the push rides along inside
        :meth:`WF2QPlusNodePolicy.reselect`, saving a separate classify +
        promote round trip per level.  With an observability sink attached
        every node takes the generic select/on_select path, so the emitted
        event stream is identical to the reference implementation.
        """
        obs = self._obs
        epoch = self._tree_epoch
        n = len(path)
        while index < n:
            node = path[index]
            parent = node.parent
            if node.epoch != epoch:
                node.start_tag = 0
                node.finish_tag = 0
                node.virtual = 0
                node.epoch = epoch
            if parent is not None and parent.epoch != epoch:
                parent.start_tag = 0
                parent.finish_tag = 0
                parent.virtual = 0
                parent.epoch = epoch
            pol = node.policy
            if obs is None and pol.fast:
                child, threshold = pol.reselect(rekeyed)
            else:
                if rekeyed is not None:
                    pol.child_head_set(rekeyed)
                child = pol.select()
                threshold = None
            rekeyed = None
            if child is not None:
                node.active_child = child
                head = child.head
                node.head = head
                length = head.length
                dt = node.span(length)
                if parent is not None:
                    if node.busy:
                        start = node.finish_tag
                    else:
                        start = node.finish_tag
                        if parent.virtual > start:
                            start = parent.virtual
                    node.start_tag = start
                    node.finish_tag = start + dt
                node.busy = True
                if threshold is not None:
                    # Fused on_select: V_n <- max(V_n, Smin_n) + L/r_n,
                    # with max(V, Smin) already computed as the threshold
                    # and L/r_n in the node's own unit left by span.
                    node.virtual = threshold + node.vspan
                    node.served += length
                else:
                    pol.on_select(child, length)
                if obs is not None:
                    self._emit_head(node, child.name)
                    obs.emit(VirtualTimeUpdate(
                        self._clock, self.name, node.name,
                        _seconds(node.virtual, node.den)))
                if parent is None:
                    return
                if parent.head is not None:
                    parent.policy.child_head_set(node)
                    return
                if obs is None and parent.policy.fast:
                    rekeyed = node  # defer into the parent's reselect
                else:
                    parent.policy.child_head_set(node)
            else:
                node.active_child = None
                node.busy = False
                if parent is None:
                    return
                parent.policy.child_head_cleared(node)
                if parent.head is not None:
                    return
            index += 1

    # ------------------------------------------------------------------
    # RESET-PATH
    # ------------------------------------------------------------------
    def _complete_transmission(self):
        """Run RESET-PATH for the packet returned by the previous dequeue."""
        self._in_flight = None
        root = self._root
        # root.head is the in-flight packet: an ARRIVE cannot displace a
        # busy root's head, so its flow id names the serving leaf and the
        # active root->leaf chain is exactly the leaf's path reversed.
        leaf = self._nodes[root.head.flow_id]
        path = leaf.path
        for node in path:
            node.head = None
            node.active_child = None
        # The physical packet was already popped by the base dequeue.
        queue = leaf.flow_state.queue
        parent = path[1]
        rekeyed = None
        obs = self._obs
        if queue:
            head = queue[0]
            leaf.head = head
            dt = leaf.span(head.length)
            start = leaf.start_tag = leaf.finish_tag
            leaf.finish_tag = start + dt
            if obs is None and parent.policy.fast:
                rekeyed = leaf
            else:
                parent.policy.child_head_set(leaf)
                if obs is not None:
                    self._emit_head(leaf)
        else:
            parent.policy.child_head_cleared(leaf)
        self._restart_path(path, 1, rekeyed)
        if root.head is None:
            if self._backlog_packets > 0:  # pragma: no cover - safety net
                raise HierarchyError(
                    "H-PFQ invariant violated: backlog but no selection after reset"
                )
            # The system drained: the busy period is over; the next one must
            # start fresh (V = T = tags = 0).  The final RESET-PATH already
            # cleared every head/busy/active_child and drained the policy
            # heaps, so only tags and virtual times remain stale — bump the
            # epoch and let each node zero itself lazily in _touch (O(1)
            # boundary instead of O(nodes)).  Reference times are left
            # alone: W_n(0, t) is cumulative.
            self._tree_epoch += 1
            if self._unsettled:
                # The domains are empty: rebuild each rescaled or
                # seconds-bound one from its current rates.
                for node_obj in list(self._unsettled):
                    self._settle(node_obj, rebuild=True)
            if self._obs is not None:
                # Observers expect explicit reset events, so pay the eager
                # sweep only when someone is watching.
                self._full_reset()

    def _full_reset(self):
        epoch = self._tree_epoch
        for node_obj in self._nodes.values():
            node_obj.head = None
            node_obj.start_tag = 0
            node_obj.finish_tag = 0
            node_obj.virtual = 0
            node_obj.busy = False
            node_obj.active_child = None
            node_obj.epoch = epoch
            if node_obj.policy is not None:
                node_obj.policy.reset()
        if self._obs is not None:
            for node_obj in self._nodes.values():
                if not node_obj.is_leaf:
                    self._obs.emit(VirtualTimeUpdate(
                        self._clock, self.name, node_obj.name, 0,
                        reset=True))

    # ------------------------------------------------------------------
    # Dequeue integration with the PacketScheduler template
    # ------------------------------------------------------------------
    def _select_flow(self, now):
        if self._in_flight is not None:
            self._complete_transmission()
        head = self._root.head
        if head is None:
            raise HierarchyError(
                "H-PFQ invariant violated: backlog exists but no selection"
            )
        return self._flows[head.flow_id]

    def _on_dequeued(self, state, packet, now):
        if packet is not self._root.head:  # pragma: no cover - safety net
            raise HierarchyError(
                "H-PFQ invariant violated: dequeued packet is not the root head"
            )
        # Leaves accrue service here (interior nodes accrue at their own
        # selections in the RESTART walk).
        self._nodes[packet.flow_id].served += packet.length
        self._in_flight = packet

    def _make_record(self, state, packet, now, finish):
        leaf = self._nodes[packet.flow_id]
        den = leaf.parent.den
        if den:
            # Live quantum counts: the finish tag is never 0.
            start = leaf.start_tag
            return ScheduledPacket(
                packet, now, finish,
                virtual_start=Fraction(start, den) if start else 0,
                virtual_finish=Fraction(leaf.finish_tag, den),
            )
        return ScheduledPacket(
            packet, now, finish,
            virtual_start=leaf.start_tag,
            virtual_finish=leaf.finish_tag,
        )

    def _on_system_empty(self, now):
        # The final RESET-PATH happens lazily (next enqueue/dequeue); the
        # tree still references the in-flight packet until then, which is
        # exactly the paper's model of a packet in transmission.
        pass

    # ------------------------------------------------------------------
    # Batch drain (amortized kernel)
    # ------------------------------------------------------------------
    def drain_until(self, limit, now=None, into=None):
        """Amortized :meth:`PacketScheduler.drain_until`: base bookkeeping
        and the select/record/service accrual inlined; the tree walks
        themselves stay in the iterative RESET-PATH / RESTART kernels.

        Packet-for-packet identical to repeated :meth:`dequeue` calls.
        Only this exact class runs it, and only with no observer; anything
        else takes the base loop.
        """
        if type(self) is not HPFQScheduler or self._obs is not None:
            return PacketScheduler.drain_until(self, limit, now, into)
        records = [] if into is None else into
        backlog = self._backlog_packets
        if backlog == 0:
            self._count_batch(0)
            return records
        clock = self._clock
        if now is None:
            now = clock if clock > self._free_at else self._free_at
        elif now < clock:
            raise ValueError(
                f"dequeue time {now!r} precedes scheduler clock {clock!r}"
            )
        flows = self._flows
        nodes = self._nodes
        backlogged = self._backlogged
        rate = self._rate
        root = self._root
        complete = self._complete_transmission
        backlog_bits = self._backlog_bits
        append = records.append
        count = 0
        try:
            while backlog:
                if self._in_flight is not None:
                    # RESET-PATH's drained branch reads _backlog_packets.
                    self._backlog_packets = backlog
                    complete()
                head = root.head
                if head is None:  # pragma: no cover - safety net
                    raise HierarchyError(
                        "H-PFQ invariant violated: backlog exists but no "
                        "selection"
                    )
                flow_id = head.flow_id
                state = flows[flow_id]
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
                leaf = nodes[flow_id]
                den = leaf.parent.den
                if den:
                    # Live quantum counts: the finish tag is never 0.
                    start = leaf.start_tag
                    append(ScheduledPacket(
                        packet, now, finish,
                        Fraction(start, den) if start else 0,
                        Fraction(leaf.finish_tag, den)))
                else:
                    append(ScheduledPacket(packet, now, finish,
                                           leaf.start_tag, leaf.finish_tag))
                leaf.served += length
                self._in_flight = packet
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

    def sync(self, now=None):
        """Run a pending RESET-PATH whose transmission has completed.

        The tree defers the final RESET of a busy period until the next
        enqueue/dequeue; a caller about to test quiescence (e.g. a
        detach_subtree retry after the system drained) settles it here.
        """
        if now is None:
            now = self._free_at
        if self._in_flight is not None and now >= self._free_at:
            if now > self._clock:
                self._clock = now
            self._complete_transmission()

    # ------------------------------------------------------------------
    # Live reconfiguration (share renegotiation, rate changes, topology)
    # ------------------------------------------------------------------
    def _rebase_subtree(self, top):
        """Recompute guaranteed rates below ``top`` and rebase derived state.

        Called after a share, link-rate or topology change.  For every
        descendant whose rate changed:

        * :meth:`_HNode.set_rate` refreshes ``inv_rate`` and drops the
          ``L / r`` memo;
        * a headed child keeps its start tag (service owed is a baseline,
          exactly as in flat WF2Q+'s :meth:`set_share`) and gets its finish
          tag recomputed as ``F = S + L / r_new``, keeping eq. (27)'s
          ``min S_i`` arm and the SEFF eligibility test consistent.

        The service count ``W_n(0, t)`` is the work already received, an
        invariant of the change, so it needs no rebase; the reference time
        ``T_n = W_n / r_n`` (Section 4.1) follows the new rate on read.

        Before the finish tags are recomputed, ``top``'s domain and every
        domain a changed rate belongs to is re-settled
        (:meth:`_settle`): rescaled to a quantum the new rates fit, moved
        to seconds, or — when the tree is empty — rebuilt.

        Policy heaps below ``top`` are then rebuilt so every key reflects
        the fresh tags, child indices and (for WFQ nodes) phi weights.
        Cold path: O(subtree), which a reconfiguration is allowed to cost.
        """
        spec = self.spec
        rate = self._rate
        changed = []
        domains = {top: None}
        stack = list(top.children)
        while stack:
            node_obj = stack.pop()
            node_obj.share = spec[node_obj.name].share
            r_new = spec.guaranteed_rate(node_obj.name, rate)
            if r_new != node_obj.rate:
                node_obj.set_rate(r_new)
                changed.append(node_obj)
                domains[node_obj.parent] = None
                if not node_obj.is_leaf:
                    domains[node_obj] = None
            stack.extend(node_obj.children)
        empty = self._root.head is None
        for node_obj in domains:
            self._settle(node_obj, rebuild=empty)
        for node_obj in changed:
            head = node_obj.head
            if head is not None:
                dt = node_obj.span(head.length)
                node_obj.finish_tag = node_obj.start_tag + dt
        stack = [top]
        while stack:
            node_obj = stack.pop()
            if not node_obj.is_leaf:
                node_obj.policy.rebuild()
                stack.extend(node_obj.children)

    def set_share(self, name, share):
        """Renegotiate the share of any non-root node (leaf or interior).

        Rates of the node's whole sibling group (and their descendants)
        are re-derived from the spec and rebased by :meth:`_rebase_subtree`
        mid-busy-period.
        """
        spec_node = self.spec[name]  # raises HierarchyError when unknown
        node_obj = self._nodes[name]
        if node_obj is self._root:
            raise ConfigurationError(
                "the root's share is meaningless (it has no siblings)"
            )
        if not share > 0:  # also True for NaN
            raise ConfigurationError(
                f"node {name!r}: share must be positive, got {share!r}"
            )
        if share == spec_node.share:
            return
        spec_node.share = share
        if node_obj.is_leaf:
            from repro.core.flow import FlowConfig
            state = self._flows[name]
            self._total_share += share - state.config.share
            state.config = FlowConfig(name, share, name=state.config.name)
        self._share_gen += 1
        self._rebase_subtree(node_obj.parent)

    def _on_reconfigured(self):
        # set_link_rate already updated self.rate; propagate it down.
        root = self._root
        if self._rate != root.rate:
            root.set_rate(self._rate)
        self._rebase_subtree(root)

    def attach_subtree(self, parent_name, subtree):
        """Graft a :class:`NodeSpec` subtree under a live interior node.

        New interior nodes receive the scheduler's default policy; new
        leaves become enqueue-able flows immediately.  Existing siblings'
        rates shrink (their normalised shares change) and are rebased.
        """
        if not isinstance(subtree, NodeSpec):
            raise ConfigurationError(f"not a NodeSpec: {subtree!r}")
        parent = self._node(parent_name)
        self.spec.attach(parent_name, subtree)  # validates names/leafness
        self._build(subtree, parent)
        factory = self._policy_factory
        epoch = self._tree_epoch
        grafted = []
        stack = [self._nodes[subtree.name]]
        while stack:
            node_obj = stack.pop()
            node_obj.epoch = epoch
            if node_obj.is_leaf:
                config = self.add_flow(node_obj.name, node_obj.share)
                node_obj.flow_state = self._flows[config.flow_id]
            else:
                pol = factory(node_obj)
                pol.fast = type(pol) is WF2QPlusNodePolicy
                node_obj.policy = pol
                grafted.append(node_obj)
            stack.extend(node_obj.children)
        self._flatten()
        self._rebase_subtree(parent)
        for node_obj in grafted:
            self._settle(node_obj)
        return subtree

    def detach_subtree(self, name):
        """Prune an *idle* subtree; returns its :class:`NodeSpec`.

        Every node in the subtree must be quiescent — no logical head
        (which also covers the in-flight packet's active path) and no
        queued packets — so no tag state is destroyed.  Remaining
        siblings' child indices are compacted and their rates rebased.
        """
        node_obj = self._node(name)
        if node_obj is self._root:
            raise HierarchyError("cannot detach the root")
        names = []
        stack = [node_obj]
        while stack:
            cursor = stack.pop()
            names.append(cursor.name)
            if cursor.head is not None or (
                    cursor.flow_state is not None and cursor.flow_state.queue):
                raise ConfigurationError(
                    f"cannot detach busy subtree {name!r}: node "
                    f"{cursor.name!r} still has queued or in-flight work"
                )
            stack.extend(cursor.children)
        parent = node_obj.parent
        spec_node = self.spec.detach(name)  # validates root / last child
        parent.policy.child_head_cleared(node_obj)  # paranoia: idle anyway
        parent.children.remove(node_obj)
        for position, sibling in enumerate(parent.children):
            sibling.child_index = position
        for node_name in names:
            pruned = self._nodes.pop(node_name)
            self._unsettled.pop(pruned, None)
            if pruned.is_leaf:
                self.remove_flow(node_name)
        self._flatten()
        self._rebase_subtree(parent)
        return spec_node

    # ------------------------------------------------------------------
    # Graceful degradation: eviction safety in a hierarchy
    # ------------------------------------------------------------------
    # A leaf's queue head may be *committed*: adopted as the logical head
    # of the leaf (and possibly of ancestors up to the root).  Evicting it
    # would orphan tag state along the whole path, so drop-front starts at
    # slot 1 in that case and longest-queue-drop skips the flow when the
    # committed head is its only packet.  When the head packet is in
    # flight (popped from the queue but still referenced by the tree),
    # queue[0] is untagged and safely evictable.  Evicted non-head packets
    # carry no tags in H-PFQ, so no _on_packet_evicted hook is needed.
    def _evictable_front_index(self, state):
        queue = state.queue
        if not queue:
            return None
        if self._nodes[state.flow_id].head is queue[0]:
            return 1 if len(queue) > 1 else None
        return 0

    def _evictable_tail_index(self, state):
        queue = state.queue
        if not queue:
            return None
        last = len(queue) - 1
        if last == 0 and self._nodes[state.flow_id].head is queue[0]:
            return None
        return last

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def _snapshot_extra(self):
        # Tags and virtual times are checkpointed in seconds, whatever
        # the unit of their domain.
        nodes = {}
        for name, node_obj in self._nodes.items():
            den = 0 if node_obj.parent is None else node_obj.parent.den
            nodes[name] = {
                "share": node_obj.share,
                "rate": node_obj.rate,
                "head": None if node_obj.head is None else node_obj.head.uid,
                "start_tag": _seconds(node_obj.start_tag, den),
                "finish_tag": _seconds(node_obj.finish_tag, den),
                "virtual": _seconds(node_obj.virtual, node_obj.den),
                "served": node_obj.served,
                "busy": node_obj.busy,
                "active_child": (None if node_obj.active_child is None
                                 else node_obj.active_child.name),
                "epoch": node_obj.epoch,
                "policy": (None if node_obj.policy is None
                           else node_obj.policy.snapshot()),
            }
        return {
            "tree_epoch": self._tree_epoch,
            # The in-flight packet is in no queue (the base dequeue popped
            # it) but the tree still references it, so it travels in full.
            "in_flight": (None if self._in_flight is None
                          else self._in_flight.to_dict()),
            "nodes": nodes,
        }

    def _restore_extra(self, extra, uid_map):
        if set(extra["nodes"]) != set(self._nodes):
            mismatched = set(extra["nodes"]) ^ set(self._nodes)
            raise ConfigurationError(
                f"{self.name}: snapshot tree does not match this hierarchy "
                f"(mismatched nodes: {sorted(mismatched)})"
            )
        from repro.core.packet import Packet
        if extra["in_flight"] is not None:
            packet = Packet.from_dict(extra["in_flight"])
            uid_map[packet.uid] = packet
            self._in_flight = packet
        else:
            self._in_flight = None
        self._tree_epoch = extra["tree_epoch"]
        nodes = self._nodes
        # The snapshot holds seconds: every domain starts there and is
        # settled once the whole tree is back.
        self._unsettled.clear()
        for node_obj in nodes.values():
            node_obj.den = 0
        for name, ns in extra["nodes"].items():
            node_obj = nodes[name]
            node_obj.share = ns["share"]
            self.spec[name].share = ns["share"]
            if ns["rate"] != node_obj.rate:
                node_obj.set_rate(ns["rate"])
            node_obj.head = (None if ns["head"] is None
                             else uid_map[ns["head"]])
            node_obj.start_tag = ns["start_tag"]
            node_obj.finish_tag = ns["finish_tag"]
            node_obj.virtual = ns["virtual"]
            if "served" in ns:
                node_obj.served = ns["served"]
            else:
                # Snapshots from before W_n was kept in bits carry the
                # reference time T_n = W_n / r_n instead.
                node_obj.served = ns["reference"] * ns["rate"]
            node_obj.busy = ns["busy"]
            node_obj.active_child = (None if ns["active_child"] is None
                                     else nodes[ns["active_child"]])
            node_obj.epoch = ns["epoch"]
        # Policies second: heap items resolve through the node table and
        # phi tables read the already-restored shares.
        for name, ns in extra["nodes"].items():
            if ns["policy"] is not None:
                nodes[name].policy.restore(ns["policy"], nodes)
        for node_obj in nodes.values():
            if not node_obj.is_leaf:
                self._settle(node_obj)


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
def make_hwf2qplus(spec, rate, policy_overrides=None):
    """H-WF2Q+ — the paper's proposed hierarchical scheduler."""
    return HPFQScheduler(spec, rate, policy="wf2qplus",
                         policy_overrides=policy_overrides)


def make_hwfq(spec, rate, policy_overrides=None):
    """H-WFQ — the large-WFI baseline the paper argues against."""
    return HPFQScheduler(spec, rate, policy="wfq",
                         policy_overrides=policy_overrides)


def make_hscfq(spec, rate, policy_overrides=None):
    """H-SCFQ — hierarchical self-clocked fair queueing."""
    return HPFQScheduler(spec, rate, policy="scfq",
                         policy_overrides=policy_overrides)


def make_hsfq(spec, rate, policy_overrides=None):
    """H-SFQ — hierarchical start-time fair queueing."""
    return HPFQScheduler(spec, rate, policy="sfq",
                         policy_overrides=policy_overrides)
