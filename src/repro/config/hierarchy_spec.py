"""Declarative description of a link-sharing hierarchy.

A hierarchy (Figure 1 of the paper) is a tree: the root is the physical
link, interior nodes are link-sharing classes (agencies, service classes),
and leaves are sessions with physical packet queues.  Each node carries a
service share ``phi``; the paper assumes children's shares sum to their
parent's, which is equivalent to treating shares as *relative weights among
siblings* — the convention used here, so specs read naturally
(``leaf("rt", 3)`` next to ``leaf("be", 1)`` means 3:1).

Build a spec with the :func:`node` / :func:`leaf` helpers::

    spec = HierarchySpec(node("root", 1, [
        node("A1", 50, [leaf("rt", 30), leaf("be", 20)]),
        leaf("A2", 20),
        leaf("A3", 30),
    ]))

then feed it to :class:`~repro.core.hierarchy.HPFQScheduler` (packet system)
or :class:`~repro.core.hgps.HGPSFluidSystem` (fluid reference).  Leaf names
are the flow ids used for ``enqueue``.
"""

from fractions import Fraction

from repro.errors import HierarchyError

__all__ = ["NodeSpec", "HierarchySpec", "leaf", "node"]


class NodeSpec:
    """One node of a hierarchy spec: a name, a share, and children.

    A node with no children is a leaf (a session with a packet queue).
    """

    __slots__ = ("name", "share", "children")

    def __init__(self, name, share, children=None):
        if not share > 0:  # also True for NaN
            raise HierarchyError(
                f"node {name!r}: share must be positive, got {share!r}"
            )
        self.name = name
        self.share = share
        self.children = list(children) if children else []

    @property
    def is_leaf(self):
        return not self.children

    def __repr__(self):
        kind = "leaf" if self.is_leaf else f"node/{len(self.children)}"
        return f"NodeSpec({self.name!r}, share={self.share!r}, {kind})"


def leaf(name, share):
    """A session (physical queue) with the given sibling-relative share."""
    return NodeSpec(name, share)


def node(name, share, children):
    """An interior link-sharing class with the given children."""
    if not children:
        raise HierarchyError(f"node {name!r}: interior node needs children")
    return NodeSpec(name, share, children)


class HierarchySpec:
    """A validated hierarchy: unique names, positive shares, >= 1 leaf.

    Provides the derived quantities the theory needs: normalised shares,
    guaranteed rates (phi products down the path), depth, and ancestor
    paths (the ``p^h(i)`` notation of Section 3.2).
    """

    def __init__(self, root):
        if root.is_leaf:
            raise HierarchyError("the root must have at least one child")
        self.root = root
        self._by_name = {}
        self._parent = {}
        self._index(root, None)
        self.leaves = [n for n in self._by_name.values() if n.is_leaf]

    def _index(self, spec, parent):
        if spec.name in self._by_name:
            raise HierarchyError(f"duplicate node name: {spec.name!r}")
        self._by_name[spec.name] = spec
        self._parent[spec.name] = parent
        for child in spec.children:
            self._index(child, spec)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, name):
        return name in self._by_name

    def __getitem__(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise HierarchyError(f"unknown node: {name!r}") from None

    def parent(self, name):
        """Parent NodeSpec, or None for the root."""
        self[name]
        return self._parent[name]

    # ------------------------------------------------------------------
    # Live mutation (share renegotiation, subtree attach/detach)
    # ------------------------------------------------------------------
    def set_share(self, name, share):
        """Renegotiate a node's sibling-relative share.

        The root's share is meaningless (it has no siblings) and cannot
        change.  Callers holding derived state (guaranteed rates, policy
        weights) must rebase it themselves — see
        :meth:`~repro.core.hierarchy.HPFQScheduler.set_share`.
        """
        spec = self[name]
        if self._parent[name] is None:
            raise HierarchyError("the root has no siblings; its share is fixed")
        if not share > 0:  # also True for NaN
            raise HierarchyError(
                f"node {name!r}: share must be positive, got {share!r}"
            )
        spec.share = share

    @staticmethod
    def _subtree(spec):
        stack = [spec]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(current.children)

    def attach(self, parent_name, subtree):
        """Graft a :class:`NodeSpec` subtree under an existing interior node.

        Validates name uniqueness (within the subtree and against the
        existing tree) before mutating, so a failed attach leaves the spec
        untouched.
        """
        parent = self[parent_name]
        if parent.is_leaf:
            raise HierarchyError(
                f"cannot attach under leaf {parent_name!r}; only interior "
                f"nodes take children"
            )
        names = [n.name for n in self._subtree(subtree)]
        if len(set(names)) != len(names):
            raise HierarchyError(
                f"subtree {subtree.name!r} contains duplicate node names"
            )
        clashes = [n for n in names if n in self._by_name]
        if clashes:
            raise HierarchyError(
                f"subtree node names already in the hierarchy: {sorted(clashes)}"
            )
        parent.children.append(subtree)
        self._index(subtree, parent)
        self.leaves = [n for n in self._by_name.values() if n.is_leaf]
        return subtree

    def detach(self, name):
        """Prune the subtree rooted at ``name``; returns its NodeSpec.

        The root cannot be detached, and a parent must keep at least one
        child (an interior node without children would silently become a
        leaf and change its meaning).
        """
        spec = self[name]
        parent = self._parent[name]
        if parent is None:
            raise HierarchyError("cannot detach the root")
        if len(parent.children) == 1:
            raise HierarchyError(
                f"detaching {name!r} would leave interior node "
                f"{parent.name!r} childless"
            )
        parent.children.remove(spec)
        for pruned in self._subtree(spec):
            del self._by_name[pruned.name]
            del self._parent[pruned.name]
        self.leaves = [n for n in self._by_name.values() if n.is_leaf]
        return spec

    def leaf_names(self):
        return [n.name for n in self.leaves]

    def node_names(self):
        return list(self._by_name)

    def is_leaf(self, name):
        return self[name].is_leaf

    # ------------------------------------------------------------------
    # Derived shares and rates
    # ------------------------------------------------------------------
    def normalized_share(self, name):
        """Share of this node relative to its siblings (phi_n / phi_parent).

        Integer shares divide exactly (as a Fraction), so trees declared
        with whole-number weights keep exact arithmetic end to end; any
        other numeric type falls back to true division.
        """
        parent = self.parent(name)
        if parent is None:
            return 1
        share = self[name].share
        total = sum(c.share for c in parent.children)
        if isinstance(share, int) and isinstance(total, int):
            return Fraction(share, total)
        return share / total

    def guaranteed_fraction(self, name):
        """phi_n: the node's guaranteed fraction of the link."""
        fraction = 1
        current = name
        while self.parent(current) is not None:
            fraction = fraction * self.normalized_share(current)
            current = self.parent(current).name
        return fraction

    def guaranteed_rate(self, name, link_rate):
        """r_n = phi_n * link rate."""
        return self.guaranteed_fraction(name) * link_rate

    def ancestors(self, name):
        """[p(i), p^2(i), ..., root] — the path from parent to root."""
        path = []
        current = self.parent(name)
        while current is not None:
            path.append(current)
            current = self.parent(current.name)
        return path

    def depth(self, name):
        """Number of ancestors (H in the paper's notation)."""
        return len(self.ancestors(name))

    def max_depth(self):
        return max(self.depth(leaf_name) for leaf_name in self.leaf_names())

    def walk(self):
        """Yield every NodeSpec, parents before children."""
        stack = [self.root]
        while stack:
            spec = stack.pop()
            yield spec
            stack.extend(reversed(spec.children))

    def __repr__(self):
        return (
            f"HierarchySpec(nodes={len(self._by_name)}, "
            f"leaves={len(self.leaves)}, depth={self.max_depth()})"
        )
