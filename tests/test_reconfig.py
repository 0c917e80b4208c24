"""Live reconfiguration: set_share, set_link_rate, attach/detach.

The contract (flat and hierarchical alike): start tags persist across a
reconfiguration — they record service already owed — while finish tags,
heap keys and reference times rebase against the new shares/rates, so
eq. (27)'s ``min S_i`` arm and SEFF classification stay consistent.  The
invariant checker runs over every reconfigured workload here.
"""

import random
from fractions import Fraction

import pytest

from repro.config import leaf, node
from repro.config.hierarchy_spec import HierarchySpec
from repro.core import (
    HPFQScheduler,
    WF2QPlusScheduler,
    WF2QScheduler,
    WFQScheduler,
)
from repro.core.packet import Packet
from repro.errors import (
    ConfigurationError,
    HierarchyError,
    UnknownFlowError,
)
from repro.obs import InvariantChecker

F = Fraction


def build_wf2qplus(rate=F(1000)):
    sched = WF2QPlusScheduler(rate)
    sched.add_flow("a", 1)
    sched.add_flow("b", 1)
    return sched


def build_tree(rate=F(1000), policy="wf2qplus"):
    spec = node("root", 1, [
        node("left", 1, [leaf("a", 1), leaf("b", 1)]),
        node("right", 1, [leaf("c", 2)]),
    ])
    return HPFQScheduler(spec, rate, policy=policy)


def saturate(sched, flows, per_flow=6, length=100, now=F(0)):
    for fid in flows:
        for _ in range(per_flow):
            sched.enqueue(Packet(fid, length), now=now)


class TestFlatSetShare:
    def test_share_change_shifts_service_proportions(self):
        sched = build_wf2qplus()
        sched.attach_observer(InvariantChecker(tolerance=0))
        saturate(sched, "ab", per_flow=20)
        for _ in range(10):
            sched.dequeue()
        sched.set_share("a", 3)
        tail = [sched.dequeue().flow_id for _ in range(20)]
        # 3:1 shares with equal packet lengths → a gets ~3 of every 4 slots.
        assert tail.count("a") >= 13

    def test_start_tags_survive_share_change(self):
        sched = build_wf2qplus()
        saturate(sched, "ab", per_flow=4)
        sched.dequeue()
        state = sched._flows["a"]
        start_before = state.start_tag
        sched.set_share("a", 5)
        assert state.start_tag == start_before
        assert state.finish_tag == start_before + F(100, 1) * state.share \
            or state.finish_tag >= start_before  # policy-specific F = S+L/phi

    def test_noop_and_invalid_shares(self):
        sched = build_wf2qplus()
        gen = sched._share_gen
        sched.set_share("a", 1)          # unchanged → no generation bump
        assert sched._share_gen == gen
        with pytest.raises(ConfigurationError):
            sched.set_share("a", 0)
        with pytest.raises(UnknownFlowError):
            sched.set_share("zz", 2)

    def test_nan_share_and_rate_rejected(self):
        sched = build_wf2qplus()
        with pytest.raises(ConfigurationError):
            WF2QPlusScheduler(float("nan"))
        with pytest.raises(ConfigurationError):
            sched.set_share("a", float("nan"))
        with pytest.raises(ConfigurationError):
            sched.set_link_rate(float("nan"))

    def test_checker_clean_across_random_renegotiations(self):
        sched = build_wf2qplus()
        sched.attach_observer(InvariantChecker(tolerance=0))
        rng = random.Random(6)
        saturate(sched, "ab", per_flow=30)
        for step in range(50):
            if rng.random() < 0.3:
                sched.set_share(rng.choice("ab"), rng.randint(1, 9))
            sched.dequeue()


class TestFlatSetLinkRate:
    def test_rate_change_rescales_future_finishes(self):
        sched = build_wf2qplus(rate=F(1000))
        saturate(sched, "ab", per_flow=2, length=500)
        first = sched.dequeue()
        assert first.finish_time - first.start_time == F(1, 2)
        sched.set_link_rate(F(2000))
        second = sched.dequeue()
        assert second.finish_time - second.start_time == F(1, 4)

    def test_checker_clean_across_rate_flaps(self):
        sched = build_wf2qplus(rate=F(1000))
        sched.attach_observer(InvariantChecker(tolerance=0))
        saturate(sched, "ab", per_flow=10)
        for step in range(16):
            if step == 5:
                sched.set_link_rate(F(500))
            elif step == 11:
                sched.set_link_rate(F(1000))
            sched.dequeue()


class TestExactGPSLimits:
    """WFQ/WF2Q embed a fluid GPS reference; they refuse live surgery."""

    @pytest.mark.parametrize("cls", [WFQScheduler, WF2QScheduler])
    def test_reconfiguration_refused(self, cls):
        sched = cls(F(1000))
        sched.add_flow("a", 1)
        with pytest.raises(ConfigurationError):
            sched.set_share("a", 2)
        with pytest.raises(ConfigurationError):
            sched.set_link_rate(F(2000))
        with pytest.raises(ConfigurationError):
            sched.snapshot()

    @pytest.mark.parametrize("cls", [WFQScheduler, WF2QScheduler])
    def test_tail_drop_allowed_evicting_policies_refused(self, cls):
        sched = cls(F(1000))
        sched.add_flow("a", 1)
        sched.set_buffer_limit("a", 2)            # plain tail-drop is fine
        sched.set_buffer_limit("a", None)
        with pytest.raises(ConfigurationError):
            sched.set_buffer_limit("a", 2, "front")
        with pytest.raises(ConfigurationError):
            sched.set_shared_buffer(4, "longest")


class TestSpecSurgery:
    def build_spec(self):
        return HierarchySpec(node("root", 1, [
            node("left", 1, [leaf("a", 1), leaf("b", 1)]),
            node("right", 1, [leaf("c", 2)]),
        ]))

    def test_set_share(self):
        spec = self.build_spec()
        spec.set_share("left", 5)
        assert spec["left"].share == 5
        with pytest.raises(HierarchyError):
            spec.set_share("root", 2)
        with pytest.raises(HierarchyError):
            spec.set_share("left", 0)

    def test_attach_and_detach(self):
        spec = self.build_spec()
        sub = node("guest", 1, [leaf("g1", 1), leaf("g2", 1)])
        spec.attach("right", sub)
        leaf_names = [n.name for n in spec.leaves]
        assert "g1" in leaf_names and spec.parent("guest").name == "right"
        removed = spec.detach("guest")
        assert removed.name == "guest"
        leaf_names = [n.name for n in spec.leaves]
        assert "g1" not in leaf_names and "guest" not in spec.node_names()

    def test_attach_validates_before_mutating(self):
        spec = self.build_spec()
        with pytest.raises(HierarchyError):
            spec.attach("a", node("x", 1, [leaf("y", 1)]))  # leaf parent
        with pytest.raises(HierarchyError):
            spec.attach("left", node("c", 1, [leaf("d", 1)]))  # name clash
        assert "d" not in spec.node_names()  # nothing half-applied

    def test_detach_protects_root_and_last_child(self):
        spec = self.build_spec()
        with pytest.raises(HierarchyError):
            spec.detach("root")
        with pytest.raises(HierarchyError):
            spec.detach("c")  # would leave "right" childless


class TestHPFQReconfig:
    @pytest.mark.parametrize("policy", ["wf2qplus", "wfq", "scfq", "sfq"])
    def test_leaf_and_interior_share_changes_stay_clean(self, policy):
        sched = build_tree(policy=policy)
        sched.attach_observer(InvariantChecker(tolerance=0))
        saturate(sched, "abc", per_flow=10)
        for step in range(24):
            if step == 4:
                sched.set_share("a", 4)
            elif step == 9:
                sched.set_share("left", 3)   # interior class
            elif step == 15:
                sched.set_share("right", 2)
            sched.dequeue()

    def test_leaf_share_shifts_service(self):
        sched = build_tree()
        saturate(sched, "ab", per_flow=24)
        for _ in range(4):
            sched.dequeue()
        sched.set_share("a", 7)
        tail = [sched.dequeue().flow_id for _ in range(16)]
        assert tail.count("a") > tail.count("b")

    def test_link_rate_change_stays_clean(self):
        sched = build_tree()
        sched.attach_observer(InvariantChecker(tolerance=0))
        saturate(sched, "abc", per_flow=6)
        for step in range(18):
            if step == 6:
                sched.set_link_rate(F(400))
            elif step == 12:
                sched.set_link_rate(F(1000))
            sched.dequeue()

    def test_set_share_validation(self):
        sched = build_tree()
        with pytest.raises(HierarchyError):
            sched.set_share("nope", 2)
        with pytest.raises(ConfigurationError):
            sched.set_share("root", 2)
        with pytest.raises(ConfigurationError):
            sched.set_share("a", -1)

    def test_nan_share_and_rate_rejected(self):
        sched = build_tree()
        with pytest.raises(ConfigurationError):
            sched.set_share("a", float("nan"))
        with pytest.raises(ConfigurationError):
            sched.set_link_rate(float("nan"))
        with pytest.raises(ConfigurationError):
            HPFQScheduler(sched.spec, float("nan"))

    def test_attach_route_traffic_detach(self):
        sched = build_tree()
        sched.attach_observer(InvariantChecker(tolerance=0))
        saturate(sched, "abc", per_flow=3)
        sched.dequeue()
        sub = node("guest", 2, [leaf("g", 1)])
        sched.attach_subtree("right", sub)
        now = sched.clock
        sched.enqueue(Packet("g", 100), now=now)
        sched.enqueue(Packet("g", 100), now=now)
        served = [rec.flow_id for rec in sched.drain()]
        assert served.count("g") == 2
        sched.sync()  # settle the deferred final RESET-PATH
        sched.detach_subtree("guest")
        assert "g" not in sched.flow_ids
        # The tree keeps working after the surgery.
        sched.enqueue(Packet("a", 100), now=sched.clock)
        assert sched.dequeue().flow_id == "a"

    def test_detach_refuses_backlogged_subtree(self):
        sched = build_tree()
        sched.enqueue(Packet("c", 100), now=F(0))
        with pytest.raises(ConfigurationError):
            sched.detach_subtree("right")

    def test_attach_rejects_duplicate_names(self):
        sched = build_tree()
        with pytest.raises(HierarchyError):
            sched.attach_subtree("right", node("left", 1, [leaf("q", 1)]))

    def test_reattach_same_name_after_detach(self):
        sched = build_tree()
        sub = node("guest", 1, [leaf("g", 1)])
        sched.attach_subtree("right", sub)
        sched.enqueue(Packet("g", 100), now=F(0))
        sched.dequeue()
        sched.sync()
        sched.detach_subtree("guest")
        sched.attach_subtree("left", node("guest", 1, [leaf("g", 1)]))
        sched.enqueue(Packet("g", 100), now=sched.clock)
        assert sched.dequeue().flow_id == "g"
