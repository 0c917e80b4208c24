"""Tests for the declarative hierarchy specification."""

from fractions import Fraction as Fr

import pytest

from repro.config.hierarchy_spec import HierarchySpec, NodeSpec, leaf, node
from repro.errors import HierarchyError


def example():
    return HierarchySpec(node("root", 1, [
        node("A1", 50, [leaf("rt", 30), leaf("be", 20)]),
        leaf("A2", 20),
        leaf("A3", 30),
    ]))


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(HierarchyError):
            HierarchySpec(node("r", 1, [leaf("x", 1), leaf("x", 2)]))

    def test_leaf_root_rejected(self):
        with pytest.raises(HierarchyError):
            HierarchySpec(leaf("r", 1))

    def test_empty_interior_rejected(self):
        with pytest.raises(HierarchyError):
            node("n", 1, [])

    def test_nonpositive_share_rejected(self):
        with pytest.raises(HierarchyError):
            leaf("x", 0)
        with pytest.raises(HierarchyError):
            NodeSpec("x", -1)

    def test_nan_share_rejected(self):
        with pytest.raises(HierarchyError):
            leaf("x", float("nan"))
        with pytest.raises(HierarchyError):
            example().set_share("rt", float("nan"))

    def test_lookup(self):
        spec = example()
        assert "rt" in spec
        assert "nope" not in spec
        assert spec["A1"].share == 50
        with pytest.raises(HierarchyError):
            spec["nope"]

    def test_parent(self):
        spec = example()
        assert spec.parent("rt").name == "A1"
        assert spec.parent("A1").name == "root"
        assert spec.parent("root") is None

    def test_leaf_names(self):
        assert example().leaf_names() == ["rt", "be", "A2", "A3"]

    def test_is_leaf(self):
        spec = example()
        assert spec.is_leaf("rt")
        assert not spec.is_leaf("A1")

    def test_walk_parents_first(self):
        names = [n.name for n in example().walk()]
        assert names.index("root") < names.index("A1") < names.index("rt")
        assert len(names) == 6


class TestShares:
    def test_normalized_share(self):
        spec = example()
        assert spec.normalized_share("A1") == pytest.approx(0.5)
        assert spec.normalized_share("rt") == pytest.approx(0.6)
        assert spec.normalized_share("root") == 1

    def test_guaranteed_fraction_is_product(self):
        spec = example()
        assert spec.guaranteed_fraction("rt") == pytest.approx(0.3)
        assert spec.guaranteed_fraction("be") == pytest.approx(0.2)
        assert spec.guaranteed_fraction("A2") == pytest.approx(0.2)

    def test_fractions_sum_to_one_over_leaves(self):
        spec = example()
        total = sum(spec.guaranteed_fraction(n) for n in spec.leaf_names())
        assert total == pytest.approx(1.0)

    def test_guaranteed_rate(self):
        spec = example()
        assert spec.guaranteed_rate("rt", 10_000_000) == pytest.approx(3_000_000)

    def test_exact_with_fractions(self):
        spec = HierarchySpec(node("r", 1, [
            node("a", Fr(1, 2), [leaf("x", Fr(81)), leaf("y", Fr(19))]),
            leaf("b", Fr(1, 2)),
        ]))
        assert spec.guaranteed_fraction("x") == Fr(81, 200)


class TestTopology:
    def test_ancestors(self):
        spec = example()
        assert [a.name for a in spec.ancestors("rt")] == ["A1", "root"]
        assert spec.ancestors("root") == []

    def test_depth(self):
        spec = example()
        assert spec.depth("rt") == 2
        assert spec.depth("A2") == 1
        assert spec.max_depth() == 2

    def test_deep_tree(self):
        spec = HierarchySpec(node("r", 1, [
            node("a", 1, [node("b", 1, [node("c", 1, [leaf("x", 1)])])]),
            leaf("y", 1),
        ]))
        assert spec.depth("x") == 4
        assert spec.guaranteed_fraction("x") == pytest.approx(0.5)
