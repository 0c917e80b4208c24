"""Differential guarantees for repro.shard.

The subsystem's contract: how a scenario is *executed* — one simulator,
N fork/spawn workers, or a mid-run checkpoint migration — must not change
what it *computes*.  These tests pin that down three ways:

* per-cell results are identical whether a cell shares a simulator with
  every other cell (the shards=1 union run) or runs alone — exact
  equality of service rows, Fraction virtual tags included;
* the merged report digest is byte-identical across shard counts, with
  real worker processes (``fork`` context for start-up speed; the
  production ``spawn`` default is exercised by the CI shard-smoke job);
* checkpointing a cell mid-busy-period and resuming it — in-process or
  in a genuinely fresh worker process — leaves the digest unchanged.

Plus the layer the migration guarantee rests on: traffic-source
snapshot/restore reproduces the uninterrupted emission stream exactly
(pending emission, seqnos, and RNG state for the stochastic sources).
"""

import multiprocessing
from fractions import Fraction

import pytest

from repro.errors import ConfigurationError
from repro.shard import (
    build_scenario,
    canonical_digest,
    checkpoint_cell,
    resume_cell,
    run_cells,
    run_sharded,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="differential suite forks its worker pools")

FORK = "fork"

#: Small but non-trivial workloads; every partitioning rule represented.
SCEN_PARAMS = {
    "cbr_flat": dict(flows=12, cells=4, duration=0.003),
    "poisson_mix": dict(flows=12, cells=4, duration=0.003),
    "hier": dict(flows=12, cells=4, duration=0.003),
    "multihop": dict(cells=3, duration=0.004),
}


def _cell_digest(result, duration):
    """Digest of a single cell's result (grouping-invariant fields only)."""
    return canonical_digest({
        "scenario": "cell", "duration": duration,
        "cells": {result["cell"]: result}, "totals": {},
    })


# ----------------------------------------------------------------------
# Grouping invariance: union simulator vs isolated cells
# ----------------------------------------------------------------------
class TestGroupingInvariance:
    @pytest.mark.parametrize("name", sorted(SCEN_PARAMS))
    def test_union_equals_isolated_cells(self, name):
        built = build_scenario(name, **SCEN_PARAMS[name])
        duration = built["duration"]
        union, _ = run_cells(built["cells"], duration)
        assert len(union) == len(built["cells"])
        for spec in built["cells"]:
            alone, _ = run_cells([spec], duration)
            assert (_cell_digest(alone[spec["cell"]], duration)
                    == _cell_digest(union[spec["cell"]], duration)), (
                f"cell {spec['cell']!r} of {name} changed with grouping")

    def test_service_rows_exact_packet_for_packet(self):
        built = build_scenario("cbr_flat", flows=8, cells=2, duration=0.003)
        union, _ = run_cells(built["cells"], built["duration"])
        spec = built["cells"][0]
        alone, _ = run_cells([spec], built["duration"])
        rows_union = union[spec["cell"]]["links"]["link"]["services"]
        rows_alone = alone[spec["cell"]]["links"]["link"]["services"]
        assert rows_union == rows_alone  # list equality: every field exact
        assert len(rows_union) > 50

    def test_hier_virtual_tags_are_exact_fractions(self):
        built = build_scenario("hier", flows=8, cells=2, duration=0.002)
        union, _ = run_cells(built["cells"], built["duration"])
        spec = built["cells"][0]
        alone, _ = run_cells([spec], built["duration"])
        rows_union = union[spec["cell"]]["links"]["link"]["services"]
        rows_alone = alone[spec["cell"]]["links"]["link"]["services"]
        assert rows_union == rows_alone
        # The slice rates are Fractions, so the virtual finish tags must
        # still be exact rationals by the time they reach the trace.
        assert any(isinstance(row[-1], Fraction) for row in rows_union)

    def test_multihop_drop_ledger_has_content(self):
        built = build_scenario("multihop", **SCEN_PARAMS["multihop"])
        results, _ = run_cells(built["cells"], built["duration"])
        drops = sum(sum(lr["drops_by_flow"].values())
                    for r in results.values()
                    for lr in r["links"].values())
        assert drops > 0  # the capped single-hop flow must actually drop


# ----------------------------------------------------------------------
# Shard-count invariance: real worker processes
# ----------------------------------------------------------------------
class TestShardInvariance:
    @pytest.mark.parametrize("name", sorted(SCEN_PARAMS))
    def test_digest_independent_of_shard_count(self, name):
        params = SCEN_PARAMS[name]
        base = run_sharded(name, shards=1, **params)
        assert base["totals"]["balanced"]
        for shards in (2, 4):
            report = run_sharded(name, shards=shards, mp_context=FORK,
                                 **params)
            assert report["digest"] == base["digest"], (
                f"{name}: shards={shards} diverged from single-process")

    def test_report_carries_plan_and_throughput(self):
        report = run_sharded("cbr_flat", shards=2, mp_context=FORK,
                             **SCEN_PARAMS["cbr_flat"])
        assert report["plan"]["shards"] == 2
        assert set(report["plan"]["assignment"].values()) <= {0, 1}
        assert report["packets_per_second"] > 0
        assert report["totals"]["packets_sent"] > 0


# ----------------------------------------------------------------------
# Checkpoint-based migration
# ----------------------------------------------------------------------
class TestMigration:
    def test_in_process_migration_digest_unchanged(self):
        params = dict(flows=8, cells=2, duration=0.004)
        base = run_sharded("cbr_flat", shards=1, **params)
        migrated = run_sharded("cbr_flat", shards=1,
                               migrate={"cell": None, "at": 0.002},
                               **params)
        assert migrated["migrated"]["cell"] == "c0"  # first flat cell
        assert migrated["digest"] == base["digest"]

    def test_cross_process_migration_digest_unchanged(self):
        # Poisson sources: the resumed worker must also restore RNG
        # state exactly, not just the pending emission time.
        params = dict(flows=8, cells=2, duration=0.004)
        base = run_sharded("poisson_mix", shards=1, **params)
        migrated = run_sharded("poisson_mix", shards=2, mp_context=FORK,
                               migrate={"cell": "p1", "at": 0.002},
                               **params)
        assert migrated["migrated"] == {"cell": "p1", "at": 0.002}
        assert migrated["digest"] == base["digest"]

    def test_migration_cut_mid_busy_period(self):
        # The 92 % load keeps queues non-empty around the cut, so the
        # checkpoint must carry a backlogged scheduler and an in-flight
        # transmission — the hard case, not an idle link.
        params = dict(flows=6, cells=1, duration=0.003)
        built = build_scenario("cbr_flat", **params)
        spec = built["cells"][0]
        ckpt = checkpoint_cell(spec, 0.0015)
        backlog = ckpt["partial"]["links"]["link"]["ledger"]["backlog"]
        assert backlog > 0
        resumed = resume_cell(spec, ckpt, built["duration"])
        base = run_sharded("cbr_flat", shards=1, **params)
        dur = built["duration"]
        assert (_cell_digest(resumed["result"], dur)
                == _cell_digest(base["cells"][spec["cell"]], dur))

    def test_network_cell_checkpoint_refused(self):
        built = build_scenario("multihop", cells=1)
        with pytest.raises(ConfigurationError, match="flat cells only"):
            checkpoint_cell(built["cells"][0], 0.001)

    def test_checkpoint_cell_mismatch_rejected(self):
        built = build_scenario("cbr_flat", flows=4, cells=2, duration=0.004)
        first, second = built["cells"]
        ckpt = checkpoint_cell(first, 0.001)
        with pytest.raises(ConfigurationError, match="checkpoint is for"):
            resume_cell(second, ckpt, built["duration"])

    def test_migration_time_outside_run_rejected(self):
        with pytest.raises(ConfigurationError, match="must fall inside"):
            run_sharded("cbr_flat", shards=1, flows=4, cells=1,
                        duration=0.002, migrate={"cell": None, "at": 0.5})


# ----------------------------------------------------------------------
# Source snapshot/restore: the layer migration rests on
# ----------------------------------------------------------------------
class _Collector:
    """Minimal receiver: records (time, seqno, length) per emission."""

    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def send(self, packet):
        self.packets.append((self.sim.now, packet.seqno, packet.length))


def _roundtrip(make_source, cut, end):
    from repro.sim.engine import Simulator

    reference_sim = Simulator()
    reference = _Collector(reference_sim)
    make_source().attach(reference_sim, reference).start()
    reference_sim.run(until=end)

    first_sim = Simulator()
    first = _Collector(first_sim)
    original = make_source().attach(first_sim, first).start()
    first_sim.run(until=cut)
    snap = original.snapshot()

    second_sim = Simulator()
    second = _Collector(second_sim)
    make_source().attach(second_sim, second).restore(snap)
    second_sim.run(until=end)

    assert first.packets == [p for p in reference.packets if p[0] <= cut]
    assert first.packets + second.packets == reference.packets
    assert len(reference.packets) > 4


class TestSourceSnapshotRestore:
    def test_cbr(self):
        from repro.traffic.source import CBRSource

        _roundtrip(lambda: CBRSource("f", 1e6, 1000.0),
                   cut=0.0103, end=0.02)

    def test_poisson(self):
        from repro.traffic.source import PoissonSource

        _roundtrip(lambda: PoissonSource("f", 1e6, 1000.0, seed=7),
                   cut=0.0103, end=0.03)

    def test_packet_train(self):
        from repro.traffic.source import PacketTrainSource

        _roundtrip(lambda: PacketTrainSource("f", 1000.0, train_length=4,
                                             train_interval=0.005,
                                             line_rate=1e7),
                   cut=0.0112, end=0.03)

    def test_markov_onoff(self):
        from repro.traffic.source import MarkovOnOffSource

        _roundtrip(lambda: MarkovOnOffSource("f", 2e6, 1000.0,
                                             mean_on=0.004, mean_off=0.003,
                                             seed=3),
                   cut=0.0153, end=0.04)

    def test_restore_rejects_wrong_flow(self):
        from repro.sim.engine import Simulator
        from repro.traffic.source import CBRSource

        sim = Simulator()
        src = CBRSource("f", 1e6, 1000.0).attach(sim, _Collector(sim))
        src.start()
        sim.run(until=0.005)
        snap = src.snapshot()
        other = CBRSource("g", 1e6, 1000.0).attach(Simulator(),
                                                   _Collector(sim))
        with pytest.raises(ConfigurationError):
            other.restore(snap)

    def test_trace_source_roundtrips(self):
        times = [0.001 * k for k in range(20)]
        from repro.traffic.source import TraceSource

        _roundtrip(lambda: TraceSource("f", times, 1000.0),
                   cut=0.0085, end=0.03)

    def test_unsnapshottable_sources_refuse(self):
        from repro.traffic.source import CBRSource, ShapedSource

        with pytest.raises(NotImplementedError):
            ShapedSource(CBRSource("f", 1e6, 1000.0),
                         sigma=8000.0, rho=1e6).snapshot()
