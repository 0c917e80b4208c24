"""Named benchmark scenarios for the perf-regression harness.

Each scenario is a function ``(quick: bool) -> list[BenchPoint]``
registered in :data:`SCENARIOS`.  ``quick`` shrinks the workloads for CI
(same points, fewer packets/repeats) so a perf-smoke run finishes in
seconds while a full run produces the committed baseline.

The scenarios target the hot paths this repo optimises:

``saturated_churn``
    Every flow permanently backlogged; one dequeue + one enqueue per
    transmitted packet, swept over N.  This is the WF2Q+ steady state —
    per-packet cost must stay O(log N).
``bursty_onoff``
    A large registered population, but each burst backlogs only a small
    rotating subset and then drains completely, so *every* burst crosses
    a busy-period boundary.  Before the epoch-based lazy tag reset this
    boundary cost O(N) per burst, making per-packet cost grow with the
    registered population; it must now stay flat.
``hierarchy``
    H-WF2Q+ saturated churn over a balanced depth × fanout tree — the
    RESTART-NODE / RESET-PATH recursion cost.
``zoo``
    Every scheduler in the zoo on the same fixed churn workload, for
    cross-algorithm comparison (includes WFQ's O(N) exact-GPS tax).
``sim_pipeline``
    The full stack end to end — traffic sources scheduling themselves on
    the :class:`~repro.sim.engine.Simulator`, a :class:`~repro.sim.link.Link`
    draining the scheduler in simulated time.  This is what the
    experiment and chaos drivers actually run, and the scenario the
    event-elision/burst-drain fast path targets: cost here is event-loop
    + source + link overhead *around* the scheduler, not just tag
    arithmetic.
``sharded_pipeline``
    The sharded driver (:func:`repro.shard.run_sharded`) on the
    ``cbr_flat`` scenario at 1/2/4 shards, full collection pipeline
    included (service traces, metrics sinks, merge, digest).  The
    shards=1 point is the genuine single-process baseline; the ratio
    cost(1)/cost(N) is the scale-out speedup, which is only > 1 when the
    machine has spare cores — per-point regression tracking is what the
    gate checks, the speedup itself is a property of the host.
"""

from time import perf_counter_ns

from repro.bench.harness import BenchPoint, best_of
from repro.core.packet import Packet

__all__ = ["SCENARIOS", "run_scenarios", "zoo_registry"]

_LENGTH = 8000.0   # bits; one 1000-byte packet
_RATE = 1e9        # bps


# ----------------------------------------------------------------------
# Scheduler factories
# ----------------------------------------------------------------------
def _flat(cls, n_flows, **kwargs):
    sched = cls(_RATE, **kwargs)
    for i in range(n_flows):
        sched.add_flow(str(i), 1 + (i % 3))
    return sched


def _balanced_tree(depth, fanout):
    """Balanced H-WF2Q+ spec: ``fanout ** depth`` leaves."""
    from repro.config.hierarchy_spec import leaf, node

    counter = [0]

    def build(level):
        if level == depth:
            name = str(counter[0])
            counter[0] += 1
            return leaf(name, 1 + (counter[0] % 3))
        children = [build(level + 1) for _ in range(fanout)]
        return node(f"n{level}.{counter[0]}", 1, children)

    return build(0)


def zoo_registry():
    """name -> factory(n_flows) for every scheduler in the zoo."""
    from repro.core.drr import DRRScheduler
    from repro.core.ffq import FFQScheduler
    from repro.core.fifo import FIFOScheduler
    from repro.core.hierarchy import HPFQScheduler
    from repro.core.scfq import SCFQScheduler
    from repro.core.sfq import SFQScheduler
    from repro.core.virtual_clock import VirtualClockScheduler
    from repro.core.wf2q import WF2QScheduler
    from repro.core.wf2qplus import WF2QPlusScheduler
    from repro.core.wfq import WFQScheduler
    from repro.core.wrr import WRRScheduler

    def hier(policy):
        def build(n_flows):
            depth = 2
            fanout = max(2, round(n_flows ** (1 / depth)))
            return HPFQScheduler(
                _balanced_tree(depth, fanout), _RATE, policy=policy)
        return build

    return {
        "FIFO": lambda n: _flat(FIFOScheduler, n),
        "WRR": lambda n: _flat(WRRScheduler, n),
        "DRR": lambda n: _flat(DRRScheduler, n),
        "SCFQ": lambda n: _flat(SCFQScheduler, n),
        "SFQ": lambda n: _flat(SFQScheduler, n),
        "VirtualClock": lambda n: _flat(VirtualClockScheduler, n),
        "FFQ": lambda n: _flat(FFQScheduler, n),
        "WFQ": lambda n: _flat(WFQScheduler, n),
        "WF2Q": lambda n: _flat(WF2QScheduler, n),
        "WF2Q+": lambda n: _flat(WF2QPlusScheduler, n),
        "H-WF2Q+": hier("wf2qplus"),
        "H-WFQ": hier("wfq"),
    }


# ----------------------------------------------------------------------
# Workload drivers (the timed inner loops)
# ----------------------------------------------------------------------
def churn_cost(build, packets):
    """ns/packet of saturated churn on a freshly built scheduler.

    Every flow is pre-filled with two packets (so it never empties while
    being served), then the timed loop transmits ``packets`` packets,
    re-enqueueing one to the served flow after each dequeue.
    """
    sched = build()
    flow_ids = sched.flow_ids
    for fid in flow_ids:
        sched.enqueue(Packet(fid, _LENGTH), now=0.0)
        sched.enqueue(Packet(fid, _LENGTH), now=0.0)
    dequeue, enqueue = sched.dequeue, sched.enqueue
    t0 = perf_counter_ns()
    for _ in range(packets):
        rec = dequeue()
        enqueue(Packet(rec.flow_id, _LENGTH), now=rec.finish_time)
    return (perf_counter_ns() - t0) / packets


def bursty_cost(build, bursts, burst_flows=8, per_flow=2):
    """ns/packet of on/off bursts over a large registered population.

    Each burst backlogs ``burst_flows`` flows (rotating through the
    population) with ``per_flow`` packets, then drains the system
    completely — so the next burst starts a new busy period.
    """
    sched = build()
    flow_ids = sched.flow_ids
    n = len(flow_ids)
    packets = 0
    now = 0.0
    t0 = perf_counter_ns()
    for b in range(bursts):
        base = (b * burst_flows) % n
        for j in range(burst_flows):
            fid = flow_ids[(base + j) % n]
            for _ in range(per_flow):
                sched.enqueue(Packet(fid, _LENGTH), now=now)
        packets += burst_flows * per_flow
        rec = None
        while not sched.is_empty:
            rec = sched.dequeue()
        now = rec.finish_time + 1e-3  # idle gap: busy period over
    return (perf_counter_ns() - t0) / packets


def _pipeline_build(sched_name, workload, n_flows=36):
    """Scheduler + source list for one end-to-end pipeline point."""
    from repro.core.fifo import FIFOScheduler
    from repro.core.hierarchy import HPFQScheduler
    from repro.core.wf2qplus import WF2QPlusScheduler
    from repro.traffic.source import CBRSource, PacketTrainSource

    if sched_name == "FIFO":
        sched = _flat(FIFOScheduler, n_flows)
    elif sched_name == "WF2Q+":
        sched = _flat(WF2QPlusScheduler, n_flows)
    else:
        # depth 2 x fanout 6 = 36 leaves named "0".."35", same ids as _flat.
        sched = HPFQScheduler(_balanced_tree(2, 6), _RATE, policy="wf2qplus")

    sources = []
    if workload == "cbr":
        # Steady aggregate at 98 % load — the link is near-saturated, so
        # busy periods are long (the regime the burst-drain targets) —
        # with starts staggered so arrivals interleave instead of
        # phase-locking.
        rate = 0.98 * _RATE / n_flows
        stagger = _LENGTH / _RATE / n_flows
        for i in range(n_flows):
            sources.append(CBRSource(str(i), rate, _LENGTH,
                                     start_time=i * stagger))
    else:
        # Bursts: 32-packet trains at 8x the link rate, 85 % aggregate
        # load — long busy periods with frequent queue build-up/drain.
        per_flow = 0.85 * _RATE / n_flows
        interval = 32 * _LENGTH / per_flow
        for i in range(n_flows):
            sources.append(PacketTrainSource(
                str(i), _LENGTH, train_length=32, train_interval=interval,
                line_rate=8 * _RATE, start_time=i * interval / n_flows))
    return sched, sources


def pipeline_cost(build, duration):
    """(ns/packet, packets) of a full source->scheduler->link simulation."""
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

    sched, sources = build()
    sim = Simulator()
    link = Link(sim, sched)
    for src in sources:
        src.attach(sim, link)
        src.start()
    t0 = perf_counter_ns()
    sim.run(until=duration)
    elapsed = perf_counter_ns() - t0
    return elapsed / max(1, link.packets_sent), link.packets_sent


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_saturated_churn(quick):
    from repro.core.wf2qplus import WF2QPlusScheduler

    packets = 3000 if quick else 20000
    repeats = 3
    points = []
    for n in (16, 64, 256, 1024):
        cost = best_of(
            lambda: churn_cost(lambda: _flat(WF2QPlusScheduler, n), packets),
            repeats)
        points.append(BenchPoint(
            "saturated_churn", "WF2Q+", {"flows": n}, packets, cost))
    return points


def scenario_bursty_onoff(quick):
    from repro.core.wf2qplus import WF2QPlusScheduler

    bursts = 100 if quick else 600
    repeats = 3
    points = []
    for n in (16, 64, 256, 1024):
        cost = best_of(
            lambda: bursty_cost(lambda: _flat(WF2QPlusScheduler, n), bursts),
            repeats)
        points.append(BenchPoint(
            "bursty_onoff", "WF2Q+", {"flows": n}, bursts * 16, cost))
    return points


def scenario_hierarchy(quick):
    from repro.core.hierarchy import HPFQScheduler

    packets = 2000 if quick else 12000
    repeats = 3
    points = []
    for depth, fanout in ((2, 4), (2, 8), (3, 8)):
        def build(depth=depth, fanout=fanout):
            return HPFQScheduler(
                _balanced_tree(depth, fanout), _RATE, policy="wf2qplus")
        cost = best_of(lambda: churn_cost(build, packets), repeats)
        points.append(BenchPoint(
            "hierarchy", "H-WF2Q+",
            {"depth": depth, "fanout": fanout, "leaves": fanout ** depth},
            packets, cost))
    return points


def scenario_zoo(quick):
    packets = 1500 if quick else 6000
    repeats = 3
    n = 64
    points = []
    for name, factory in zoo_registry().items():
        cost = best_of(
            lambda: churn_cost(lambda: factory(n), packets), repeats)
        points.append(BenchPoint(
            "zoo", name, {"flows": n}, packets, cost))
    return points


def scenario_sim_pipeline(quick):
    repeats = 3
    durations = {"cbr": 0.02 if quick else 0.2,
                 "train": 0.05 if quick else 0.4}
    points = []
    for sched_name in ("FIFO", "WF2Q+", "H-WF2Q+"):
        for workload in ("cbr", "train"):
            duration = durations[workload]
            counts = []

            def once(sched_name=sched_name, workload=workload,
                     duration=duration, counts=counts):
                cost, n = pipeline_cost(
                    lambda: _pipeline_build(sched_name, workload), duration)
                counts.append(n)
                return cost

            cost = best_of(once, repeats)
            points.append(BenchPoint(
                "sim_pipeline", sched_name,
                {"workload": workload, "flows": 36}, counts[-1], cost))
    return points


def scenario_sharded_pipeline(quick):
    """Sharded scale-out driver, measured end to end (pool included).

    Quick mode runs the *same workload* as full mode — the fixed pool
    start-up cost would otherwise skew quick-vs-baseline ratios — and
    trims only the shard counts and repeats.  Workers fork where the
    platform allows (CI and the baseline machine are both Linux):
    start-up is milliseconds instead of a fresh interpreter per worker,
    so the measurement tracks simulation + merge cost.  Spawn
    correctness is the differential suite's job, not the bench's.
    """
    import multiprocessing

    # Read through the package, where tests stub it.
    from repro.shard import run_sharded

    flows, cells, duration = 256, 8, 0.05
    shard_counts = (1, 2) if quick else (1, 2, 4)
    # Whole-run wall clock (pool, collection, merge, GC) is noisier than
    # the scheduler-only inner loops; best-of-3 keeps the gate honest.
    repeats = 2 if quick else 3
    start = ("fork" if "fork" in multiprocessing.get_all_start_methods()
             else None)
    if multiprocessing.current_process().daemon:
        # A --jobs>1 sweep runs scenarios in daemonic pool workers, which
        # cannot spawn the shard pool; keep the in-process point and let
        # compare() report the rest as "missing" (not regressions).
        shard_counts = (1,)
    points = []
    for shards in shard_counts:
        counts = []

        def once(shards=shards, counts=counts):
            report = run_sharded("cbr_flat", shards=shards, flows=flows,
                                 cells=cells, duration=duration,
                                 mp_context=start)
            counts.append(report["totals"]["packets_sent"])
            return 1e9 * report["wall_seconds"] / max(1, counts[-1])

        cost = best_of(once, repeats)
        points.append(BenchPoint(
            "sharded_pipeline", "WF2Q+",
            {"shards": shards, "flows": flows, "cells": cells},
            counts[-1], cost))
    return points


SCENARIOS = {
    "saturated_churn": scenario_saturated_churn,
    "bursty_onoff": scenario_bursty_onoff,
    "hierarchy": scenario_hierarchy,
    "zoo": scenario_zoo,
    "sim_pipeline": scenario_sim_pipeline,
    "sharded_pipeline": scenario_sharded_pipeline,
}


def run_scenarios(names=None, quick=False, progress=None):
    """Run the named scenarios (all by default); return the points."""
    if names is None:
        names = list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}")
    points = []
    for name in names:
        if progress is not None:
            progress(name)
        points.extend(SCENARIOS[name](quick))
    return points
