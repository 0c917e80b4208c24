"""Tests for the H-PFQ framework (Section 4) and its node policies."""

from fractions import Fraction as Fr

import pytest

from repro.config.hierarchy_spec import HierarchySpec, leaf, node
from repro.core.hierarchy import (
    HPFQScheduler,
    POLICIES,
    make_hscfq,
    make_hsfq,
    make_hwf2qplus,
    make_hwfq,
)
from repro.core.packet import Packet
from repro.errors import ConfigurationError, EmptySchedulerError, HierarchyError

from tests.conftest import assert_fifo_per_flow, assert_no_overlap


def two_level():
    return HierarchySpec(node("root", 1, [
        node("A", 8, [leaf("A1", 75), leaf("A2", 5)]),
        leaf("B", 2),
    ]))


def fill(s, per_flow, length=Fr(1), now=Fr(0)):
    for fid, n in per_flow.items():
        for k in range(n):
            s.enqueue(Packet(fid, length, seqno=k), now=now)


class TestConstruction:
    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            HPFQScheduler(two_level(), 1, policy="nope")

    def test_policy_override_unknown_node(self):
        with pytest.raises(HierarchyError):
            HPFQScheduler(two_level(), 1, policy_overrides={"zzz": "wfq"})

    def test_policy_override_applies(self):
        s = HPFQScheduler(two_level(), 1, policy="wf2qplus",
                          policy_overrides={"A": "scfq"})
        assert s._nodes["A"].policy.name == "scfq"
        assert s._nodes["root"].policy.name == "wf2qplus"

    def test_leaves_registered_as_flows(self):
        s = make_hwf2qplus(two_level(), 1)
        assert set(s.flow_ids) == {"A1", "A2", "B"}

    def test_guaranteed_rates_follow_tree(self):
        s = make_hwf2qplus(two_level(), Fr(10))
        assert s.guaranteed_rate("A1") == Fr(10) * Fr(8, 10) * Fr(75, 80)
        assert s.guaranteed_rate("B") == Fr(2)
        assert s.guaranteed_rate("A") == Fr(8)  # interior nodes work too

    def test_all_factories(self):
        for factory in (make_hwf2qplus, make_hwfq, make_hscfq, make_hsfq):
            s = factory(two_level(), 1)
            fill(s, {"A1": 2, "B": 2})
            assert len(s.drain()) == 4

    def test_policies_registry(self):
        assert set(POLICIES) == {"wf2qplus", "wfq", "scfq", "sfq"}


class TestBasicOperation:
    def test_empty_dequeue(self):
        s = make_hwf2qplus(two_level(), 1)
        with pytest.raises(EmptySchedulerError):
            s.dequeue()

    def test_single_packet_roundtrip(self):
        s = make_hwf2qplus(two_level(), Fr(1))
        s.enqueue(Packet("A1", Fr(1)), now=Fr(0))
        rec = s.dequeue()
        assert rec.flow_id == "A1"
        assert rec.finish_time == Fr(1)
        assert s.is_empty

    def test_fifo_per_leaf(self):
        s = make_hwf2qplus(two_level(), Fr(1))
        fill(s, {"A1": 5, "A2": 5, "B": 5})
        records = s.drain()
        assert_fifo_per_flow(records)
        assert_no_overlap(records, Fr(1))
        assert len(records) == 15

    def test_work_conserving_back_to_back(self):
        s = make_hwf2qplus(two_level(), Fr(2))
        fill(s, {"A1": 4, "B": 4})
        records = s.drain()
        assert records[-1].finish_time == Fr(4)  # 8 bits at rate 2, no gaps


class TestBandwidthDistribution:
    """Eq. (8)/(9): sibling service in proportion to shares."""

    @pytest.mark.parametrize("policy", ["wf2qplus", "wfq", "scfq", "sfq"])
    def test_hierarchy_beats_flat_shares(self, policy):
        """A2 (tiny share 0.05 overall) inherits A1's bandwidth through the
        hierarchy: with A1 idle it gets 80%, not 5/7 of nothing."""
        s = HPFQScheduler(two_level(), Fr(1), policy=policy)
        fill(s, {"A2": 40, "B": 40})
        served = {"A2": 0, "B": 0}
        for rec in s.drain():
            if rec.finish_time <= Fr(20):
                served[rec.flow_id] += 1
        # A2:B should be 4:1 (0.8 vs 0.2).
        assert served["A2"] + served["B"] == 20
        assert abs(served["A2"] - 16) <= 1

    @pytest.mark.parametrize("policy", ["wf2qplus", "wfq", "scfq", "sfq"])
    def test_all_active_split(self, policy):
        s = HPFQScheduler(two_level(), Fr(1), policy=policy)
        fill(s, {"A1": 80, "A2": 80, "B": 80})
        served = {"A1": 0, "A2": 0, "B": 0}
        for rec in s.drain():
            if rec.finish_time <= Fr(40):
                served[rec.flow_id] += 1
        # Shares 0.75 / 0.05 / 0.20 over 40 slots -> 30 / 2 / 8.
        assert abs(served["A1"] - 30) <= 1
        assert abs(served["B"] - 8) <= 1
        assert abs(served["A2"] - 2) <= 1

    def test_three_level_distribution(self):
        spec = HierarchySpec(node("r", 1, [
            node("x", 1, [
                node("y", 1, [leaf("d1", 1), leaf("d2", 1)]),
                leaf("m", 1),
            ]),
            leaf("t", 1),
        ]))
        s = make_hwf2qplus(spec, Fr(1))
        fill(s, {"d1": 64, "d2": 64, "m": 64, "t": 64})
        served = {k: 0 for k in ("d1", "d2", "m", "t")}
        for rec in s.drain():
            if rec.finish_time <= Fr(64):
                served[rec.flow_id] += 1
        # Fractions: t 1/2 = 32, m 1/4 = 16, d1 = d2 = 1/8 = 8.
        assert abs(served["t"] - 32) <= 1
        assert abs(served["m"] - 16) <= 1
        assert abs(served["d1"] - 8) <= 1
        assert abs(served["d2"] - 8) <= 1


class TestStateMachine:
    def test_busy_flags_cleared_when_idle(self):
        s = make_hwf2qplus(two_level(), Fr(1))
        fill(s, {"A1": 2})
        s.drain()
        # Trigger the lazy final RESET-PATH with a new arrival.
        s.enqueue(Packet("B", Fr(1)), now=Fr(10))
        for name in ("root", "A"):
            node_obj = s._nodes[name]
            assert node_obj.virtual >= 0
        rec = s.dequeue()
        assert rec.flow_id == "B"

    def test_virtual_times_reset_between_busy_periods(self):
        s = make_hwf2qplus(two_level(), Fr(1))
        fill(s, {"A1": 3})
        s.drain()
        s.enqueue(Packet("A1", Fr(1)), now=Fr(100))
        # V_A restarted at 0 and advanced by L/r_A = 1/(8/10) for the one
        # selection of the new busy period.
        assert s.node_virtual_time("A") == Fr(10, 8)
        leafnode = s._nodes["A1"]
        assert leafnode.start_tag == 0

    def test_reference_time_accumulates_service(self):
        s = make_hwf2qplus(two_level(), Fr(10))
        fill(s, {"B": 4})
        s.drain()
        # B's node served 4 bits at guaranteed rate 2 -> T = 2.
        assert s.node_reference_time("B") == Fr(2)
        assert s.node_service("B") == Fr(4)
        assert s.node_service("root") == Fr(4)

    @pytest.mark.parametrize("query", [
        "node_virtual_time", "node_reference_time", "node_service",
        "guaranteed_rate",
    ])
    def test_unknown_node_name_raises_hierarchy_error(self, query):
        s = make_hwf2qplus(two_level(), Fr(10))
        with pytest.raises(HierarchyError, match="unknown node: 'zz'"):
            getattr(s, query)("zz")

    def test_arrival_during_transmission_waits(self):
        s = make_hwf2qplus(two_level(), Fr(1))
        s.enqueue(Packet("B", Fr(1)), now=Fr(0))
        rec1 = s.dequeue(now=Fr(0))       # transmits during [0, 1)
        s.enqueue(Packet("A1", Fr(1)), now=Fr("0.5"))
        rec2 = s.dequeue()                # naturally at t=1
        assert rec1.flow_id == "B"
        assert rec2.flow_id == "A1"
        assert rec2.start_time == Fr(1)

    def test_backlog_but_no_selection_never_happens(self):
        """Stress the restart/reset cascade with adversarial arrivals."""
        s = make_hwf2qplus(two_level(), Fr(1))
        import random
        rng = random.Random(3)
        t = Fr(0)
        for step in range(200):
            if rng.random() < 0.6 or s.is_empty:
                fid = rng.choice(["A1", "A2", "B"])
                s.enqueue(Packet(fid, Fr(1)), now=t)
            else:
                rec = s.dequeue()
                t = max(t, rec.finish_time)
            if rng.random() < 0.3:
                t += Fr(rng.randint(0, 3))
        while not s.is_empty:
            s.dequeue()


class TestIsolation:
    def test_leaf_guaranteed_rate_lower_bound(self):
        """A continuously backlogged leaf gets at least its guaranteed rate
        minus the WFI slack over any busy window (Theorem 1 consequence)."""
        s = make_hwf2qplus(two_level(), Fr(1))
        fill(s, {"A1": 75, "A2": 50, "B": 50})
        served_bits = Fr(0)
        for rec in s.drain():
            if rec.flow_id == "A1" and rec.finish_time <= Fr(100):
                served_bits += rec.packet.length
        guaranteed = Fr(75, 100)  # phi_A1 = 0.75
        # alpha_H <= 2 packets here; allow 3 for the window edges.
        assert served_bits >= guaranteed * 75 - 3

    def test_buffer_limits_apply_to_leaves(self):
        s = make_hwf2qplus(two_level(), Fr(1))
        s.set_buffer_limit("B", 2)
        assert s.enqueue(Packet("B", Fr(1)), now=Fr(0))
        assert s.enqueue(Packet("B", Fr(1)), now=Fr(0))
        assert not s.enqueue(Packet("B", Fr(1)), now=Fr(0))
        assert s.drops("B") == 1
        assert len(s.drain()) == 2


class TestSingleLevelEquivalence:
    """A one-level hierarchy should distribute service like the standalone
    WF2Q+ scheduler (same SEFF policy, same tags up to virtual-time
    bookkeeping details)."""

    def test_same_service_counts_as_flat(self):
        from repro.core.wf2qplus import WF2QPlusScheduler
        spec = HierarchySpec(node("r", 1, [
            leaf("a", 3), leaf("b", 2), leaf("c", 1),
        ]))
        hier = HPFQScheduler(spec, Fr(6), policy="wf2qplus")
        flat = WF2QPlusScheduler(Fr(6))
        for fid, share in (("a", 3), ("b", 2), ("c", 1)):
            flat.add_flow(fid, share)
        import random
        rng = random.Random(11)
        arrivals = []
        t = Fr(0)
        for k in range(150):
            t += Fr(rng.randint(0, 2), 4)
            arrivals.append((rng.choice("abc"), t))
        for sched in (hier, flat):
            for fid, at in arrivals:
                sched.enqueue(Packet(fid, Fr(1)), now=at)
        rh = hier.drain()
        rf = flat.drain()
        # Same total work and same per-flow windowed service counts.
        assert rh[-1].finish_time == rf[-1].finish_time
        horizon = rh[-1].finish_time
        step = horizon / 10
        for w in range(1, 11):
            cutoff = step * w
            for fid in "abc":
                ch = sum(1 for r in rh if r.flow_id == fid and r.finish_time <= cutoff)
                cf = sum(1 for r in rf if r.flow_id == fid and r.finish_time <= cutoff)
                assert abs(ch - cf) <= 2, (fid, w, ch, cf)
