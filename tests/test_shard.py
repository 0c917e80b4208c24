"""Unit tests for repro.shard: planner, merge/digest, CLI, bench family.

The cross-process differential guarantees (sharded == single-process,
migration-invariant digests) live in ``test_shard_differential.py``;
this file covers the deterministic planning and merge layers that make
those guarantees possible, plus the ``repro sim`` / ``repro stats``
surface.
"""

import json
from fractions import Fraction

import pytest

from repro.cli import build_parser, main
from repro.config import HierarchySpec, leaf, node
from repro.core.packet import Packet
from repro.errors import ConfigurationError
from repro.shard import (
    SHARD_SCENARIOS,
    assign_shards,
    build_scenario,
    canonical_digest,
    cell_weight,
    connected_components,
    run_sharded,
    subtree_slices,
    validate_cells,
)
from repro.shard.worker import build_scheduler


def _cbr_cell(cid, flows, rate=1e6, duration=1.0, per_flow_rate=1e5):
    return {
        "cell": cid,
        "kind": "flat",
        "duration": duration,
        "scheduler": {"kind": "flat", "policy": "wf2qplus", "rate": rate,
                      "flows": [(fid, 1) for fid in flows]},
        "sources": [{"type": "cbr", "flow": fid, "length": 1000.0,
                     "rate": per_flow_rate} for fid in flows],
    }


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestCellWeight:
    def test_cbr_expected_packets(self):
        spec = _cbr_cell("c", ["a", "b"], duration=2.0, per_flow_rate=5e5)
        # Two flows x (5e5 bps x 2 s / 1000 bits) = 2000 packets.
        assert cell_weight(spec) == pytest.approx(2000.0)

    def test_window_respects_start_and_stop(self):
        spec = _cbr_cell("c", ["a"], duration=10.0, per_flow_rate=1e3)
        spec["sources"][0]["start"] = 1.0
        spec["sources"][0]["stop"] = 3.0
        assert cell_weight(spec) == pytest.approx(1e3 * 2.0 / 1000.0)

    def test_source_mean_rates(self):
        spec = {
            "cell": "c", "kind": "flat", "duration": 1.0,
            "scheduler": {"kind": "flat", "policy": "wf2qplus",
                          "rate": 1e6, "flows": [("a", 1)]},
            "sources": [
                {"type": "onoff", "flow": "a", "length": 1000.0,
                 "peak": 4e5, "on": 1.0, "off": 3.0},
                {"type": "markov", "flow": "a", "length": 1000.0,
                 "peak": 4e5, "mean_on": 1.0, "mean_off": 3.0, "seed": 1},
                {"type": "train", "flow": "a", "length": 1000.0,
                 "train_length": 10, "interval": 0.1, "line_rate": 1e9},
            ],
        }
        # onoff and markov both average peak/4 = 1e5 bps -> 100 pkt each;
        # the train emits 10 packets every 0.1 s -> 100 pkt.
        assert cell_weight(spec) == pytest.approx(300.0)

    def test_unknown_source_type_rejected(self):
        spec = _cbr_cell("c", ["a"])
        spec["sources"][0]["type"] = "fractal"
        with pytest.raises(ConfigurationError):
            cell_weight(spec)


class TestAssignShards:
    def test_plan_is_deterministic(self):
        cells = [_cbr_cell(f"c{i}", [f"f{i}"], per_flow_rate=(i + 1) * 1e5)
                 for i in range(7)]
        plan1 = assign_shards(cells, 3)
        plan2 = assign_shards(list(reversed(cells)), 3)
        assert plan1 == plan2  # input order must not matter

    def test_lpt_balances_loads(self):
        cells = [_cbr_cell(f"c{i}", [f"f{i}"], per_flow_rate=(i + 1) * 1e5)
                 for i in range(8)]
        plan = assign_shards(cells, 4)
        loads = plan["loads"]
        # Weights 100..800: LPT packs each shard to exactly 900 packets.
        assert all(load == pytest.approx(900.0) for load in loads)

    def test_every_cell_assigned_once(self):
        cells = [_cbr_cell(f"c{i}", [f"f{i}"]) for i in range(5)]
        plan = assign_shards(cells, 2)
        assert sorted(plan["assignment"]) == [f"c{i}" for i in range(5)]
        assert set(plan["assignment"].values()) <= {0, 1}

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_shards([_cbr_cell("c", ["a"])], 0)


class TestValidateCells:
    def test_duplicate_cell_id_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate cell id"):
            validate_cells([_cbr_cell("c", ["a"]), _cbr_cell("c", ["b"])])

    def test_overlapping_flows_rejected(self):
        with pytest.raises(ConfigurationError, match="disjoint"):
            validate_cells([_cbr_cell("c0", ["a", "b"]),
                            _cbr_cell("c1", ["b"])])

    def test_hpfq_leaves_count_as_flows(self):
        hier = {
            "cell": "g", "kind": "flat", "duration": 1.0,
            "scheduler": {"kind": "hpfq", "policy": "wf2qplus", "rate": 1e6,
                          "tree": ["g", 1, [["a", 1, []], ["b", 2, []]]]},
            "sources": [],
        }
        with pytest.raises(ConfigurationError, match="disjoint"):
            validate_cells([hier, _cbr_cell("c", ["b"])])

    def test_network_routes_count_as_flows(self):
        net = {
            "cell": "net0", "kind": "network", "duration": 1.0,
            "nodes": [], "routes": [("a", ["n1"], 1, None)], "sources": [],
        }
        with pytest.raises(ConfigurationError, match="disjoint"):
            validate_cells([net, _cbr_cell("c", ["a"])])


class TestConnectedComponents:
    def test_disjoint_chains_split(self):
        routes = [("x", ["a", "b"]), ("y", ["c", "d"]), ("z", ["b"])]
        comps = connected_components(routes)
        assert comps == [(["a", "b"], ["x", "z"]), (["c", "d"], ["y"])]

    def test_shared_node_merges(self):
        comps = connected_components(
            [("x", ["a", "b"]), ("y", ["b", "c"])])
        assert comps == [(["a", "b", "c"], ["x", "y"])]

    def test_unrouted_node_is_own_component(self):
        comps = connected_components([("x", ["a"])], nodes=["a", "lonely"])
        assert (["lonely"], []) in comps

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigurationError):
            connected_components([("x", [])])


class TestSubtreeSlices:
    def test_integer_shares_give_exact_fractions(self):
        spec = HierarchySpec(node("root", 1, [
            node("g0", 1, [leaf("a", 1)]),
            node("g1", 2, [leaf("b", 1)]),
        ]))
        slices = subtree_slices(spec, 10 ** 9)
        rates = {child.name: rate for child, rate in slices}
        assert rates["g0"] == Fraction(10 ** 9, 3)
        assert isinstance(rates["g0"], Fraction)
        assert rates["g1"] == Fraction(2 * 10 ** 9, 3)
        assert sum(rates.values()) == 10 ** 9  # no rounding loss


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
class TestScenarios:
    def test_registry_builds_valid_partitions(self):
        for name in SHARD_SCENARIOS:
            built = build_scenario(name)
            assert built["name"] == name
            validate_cells(built["cells"])  # must not raise

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            build_scenario("nope")

    def test_none_params_dropped(self):
        built = build_scenario("cbr_flat", flows=None, cells=2)
        assert len(built["cells"]) == 2  # cells honoured, flows defaulted

    def test_hier_cells_carry_fraction_rates(self):
        built = build_scenario("hier", flows=6, cells=3)
        rates = [c["scheduler"]["rate"] for c in built["cells"]]
        assert any(isinstance(r, Fraction) for r in rates)
        assert sum(rates) == 10 ** 9

    def test_poisson_seeds_fixed_at_plan_time(self):
        built = build_scenario("poisson_mix", flows=8, cells=2)
        seeds = [src["seed"] for cell in built["cells"]
                 for src in cell["sources"]]
        assert len(set(seeds)) == len(seeds)  # collision-safe per flow
        again = build_scenario("poisson_mix", flows=8, cells=2)
        assert [src["seed"] for cell in again["cells"]
                for src in cell["sources"]] == seeds


# ----------------------------------------------------------------------
# Scheduler specs, including keys written by earlier versions
# ----------------------------------------------------------------------
class TestBuildScheduler:
    def flat_spec(self, **extra):
        return {"kind": "flat", "policy": "wf2qplus", "rate": 8.0,
                "flows": [["a", 1], ["b", 1]], **extra}

    def hier_spec(self, **extra):
        return {"kind": "hpfq", "policy": "wf2qplus", "rate": 8,
                "tree": ["root", 1, [["a", 1, []], ["b", 3, []]]], **extra}

    @staticmethod
    def transcript(sched):
        for i in range(6):
            sched.enqueue(Packet("ab"[i % 2], 1, seqno=i), now=0)
        return [(r.flow_id, r.packet.seqno, r.finish_time)
                for r in sched.drain()]

    @pytest.mark.parametrize("backend", ["simd", "vector"])
    def test_build_scheduler_rejects_unknown_backend(self, backend):
        for spec in (self.flat_spec(backend=backend),
                     self.hier_spec(backend=backend)):
            with pytest.raises(ConfigurationError, match=backend) as err:
                build_scheduler(spec)
            assert "'vector' backend was removed" in str(err.value)

    @pytest.mark.parametrize("extra", [
        {"backend": "exact"}, {"chunk": 64}, {"chunk": "auto"},
    ], ids=["exact", "chunk", "chunk-auto"])
    def test_legacy_backend_and_chunk_keys_serve_the_same(self, extra):
        for make in (self.flat_spec, self.hier_spec):
            sched = build_scheduler(make(**extra))
            assert "drain_chunk" not in vars(sched)
            assert self.transcript(sched) == self.transcript(
                build_scheduler(make()))


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------
class TestDigest:
    @pytest.fixture(scope="class")
    def report(self):
        return run_sharded("cbr_flat", shards=1, flows=8, cells=2,
                           duration=0.002)

    def test_volatile_fields_excluded(self, report):
        mutated = dict(report)
        mutated["sim"] = {"events_processed": 0, "events_elided": 10 ** 9}
        mutated["wall_seconds"] = 123.0
        mutated["plan"] = {"shards": 64, "assignment": {}, "loads": []}
        assert canonical_digest(mutated) == report["digest"]

    def test_invariant_fields_included(self, report):
        mutated = json.loads(json.dumps(
            {k: v for k, v in report.items() if k != "digest"},
            default=str))
        cell = next(iter(mutated["cells"].values()))
        cell["links"]["link"]["link"]["packets_sent"] += 1
        assert canonical_digest(mutated) != report["digest"]

    def test_cell_iteration_order_irrelevant(self, report):
        reordered = dict(report)
        reordered["cells"] = dict(
            sorted(report["cells"].items(), reverse=True))
        assert canonical_digest(reordered) == report["digest"]

    def test_busy_time_excluded(self, report):
        mutated = dict(report)
        mutated["cells"] = {
            cid: {**res, "links": {
                name: {**lr, "link": {**lr["link"],
                                      "busy_time": 99.0}}
                for name, lr in res["links"].items()}}
            for cid, res in report["cells"].items()}
        assert canonical_digest(mutated) == report["digest"]


# ----------------------------------------------------------------------
# CLI: repro sim
# ----------------------------------------------------------------------
class TestSimParser:
    def test_defaults(self):
        args = build_parser().parse_args(["sim"])
        assert args.scenario == "cbr_flat"
        assert args.shards == 1
        assert args.migrate_at is None
        assert not args.verify

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim", "--scenario", "nope"])

    def test_zero_shards_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim", "--shards", "0"])


class TestRetryBudget:
    def test_negative_max_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            run_sharded("cbr_flat", shards=1, flows=8, cells=2,
                        duration=0.002, max_retries=-1)


class TestSimCommand:
    def test_single_process_report(self, capsys):
        assert main(["sim", "--flows", "8", "--cells", "2",
                     "--duration", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "digest:" in out
        assert "balanced" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["sim", "--flows", "8", "--cells", "2",
                     "--duration", "0.002", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["scenario"] == "cbr_flat"
        assert data["totals"]["balanced"] is True
        assert data["digest"]

    def test_migrate_cell_without_at_is_usage_error(self, capsys):
        assert main(["sim", "--migrate-cell", "c0"]) == 2

    def test_migrate_outside_window_rejected(self, capsys):
        assert main(["sim", "--flows", "4", "--cells", "1",
                     "--duration", "0.002", "--migrate-at", "5.0"]) == 2

    def test_multihop_migration_rejected(self, capsys):
        assert main(["sim", "--scenario", "multihop", "--cells", "1",
                     "--duration", "0.002", "--migrate-at", "0.001"]) == 2
        out = capsys.readouterr().out
        assert "flat cell" in out


# ----------------------------------------------------------------------
# CLI: repro stats ledger + --pipeline
# ----------------------------------------------------------------------
class TestStatsCommand:
    def test_churn_prints_conservation(self, capsys):
        assert main(["stats", "--flows", "4", "--packets", "200"]) == 0
        out = capsys.readouterr().out
        assert "conservation:" in out
        assert "balanced" in out

    def test_pipeline_prints_elision(self, capsys):
        assert main(["stats", "--pipeline", "--flows", "4",
                     "--packets", "200"]) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert "conservation:" in out
        assert "events: processed=" in out
        assert "elided=" in out


# ----------------------------------------------------------------------
# Bench family
# ----------------------------------------------------------------------
class TestShardedPipelineBench:
    def test_quick_points(self, monkeypatch):
        # Stub the driver: the real cross-process path is the
        # differential suite's job; here we pin the point layout.
        import repro.shard

        calls = []

        def fake_run(scenario, shards, **kwargs):
            calls.append(shards)
            return {"totals": {"packets_sent": 1000},
                    "wall_seconds": 0.001 * shards}

        monkeypatch.setattr(repro.shard, "run_sharded", fake_run)
        from repro.bench.scenarios import scenario_sharded_pipeline

        points = scenario_sharded_pipeline(quick=True)
        assert [p.params["shards"] for p in points] == [1, 2]
        for p in points:
            assert p.scenario == "sharded_pipeline"
            assert p.scheduler == "WF2Q+"
            assert p.packets == 1000
            assert p.ns_per_packet > 0

    def test_registered(self):
        from repro.bench.scenarios import SCENARIOS

        assert "sharded_pipeline" in SCENARIOS
