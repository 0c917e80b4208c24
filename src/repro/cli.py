"""Command-line interface: run the paper's experiments from a shell.

Usage (also via ``python -m repro``)::

    python -m repro fig2
    python -m repro delay --scenario 1 --policy wfq --duration 6
    python -m repro linksharing --duration 10
    python -m repro bounds
    python -m repro stats --scheduler wf2qplus --flows 64 \
        --trace out.jsonl --check
    python -m repro stats --pipeline --packets 50000
    python -m repro sim --scenario cbr_flat --shards 4 --verify
    python -m repro sim --scenario hier --shards 2 --migrate-at 0.005
    python -m repro bench -o BENCH_core.json
    python -m repro bench --quick --compare BENCH_core.json \
        --report regressions.json
    python -m repro chaos
    python -m repro chaos --scenario link_flap --scheduler hwf2qplus

Each subcommand prints a compact text report; the benchmarks in
``benchmarks/`` remain the canonical figure-regeneration path (they also
persist the raw series).  ``stats`` is the observability entry point: it
drives a saturated churn workload through any scheduler in the zoo with
wall-clock profiling and per-flow metrics attached, optionally writing a
JSONL event trace (``--trace``) and/or running the full invariant checker
(``--check``); ``--pipeline`` drives the same workload through the
simulator+link stack instead, surfacing the event-elision and
drop-ledger counters.  ``sim`` is the sharded scale-out driver
(:mod:`repro.shard`): it fans a partition-closed scenario across
``--shards`` worker processes and prints the merged report's digest,
which ``--verify`` checks against the single-process run.  ``chaos`` is
the robustness gate: it runs the fault
scenarios from :mod:`repro.faults.chaos` under the invariant checker and
exits 1 unless every run ends violation-free with a balanced conservation
ledger.
"""

import argparse
import os
import sys

__all__ = ["main", "build_parser"]


def _stats_registry():
    """name -> scheduler factory for the ``stats`` subcommand."""
    from repro.config import leaf, node
    from repro.core import (
        DRRScheduler,
        FFQScheduler,
        FIFOScheduler,
        HPFQScheduler,
        SCFQScheduler,
        SFQScheduler,
        VirtualClockScheduler,
        WF2QPlusScheduler,
        WF2QScheduler,
        WFQScheduler,
        WRRScheduler,
    )

    def make_hier(policy):
        def build(rate, n_flows):
            # Balanced two-level tree: groups of up to 8 leaves.
            groups, chunk = [], 8
            for g in range(0, n_flows, chunk):
                leaves = [leaf(str(i), 1 + (i % 3))
                          for i in range(g, min(g + chunk, n_flows))]
                groups.append(node(f"g{g // chunk}", len(leaves), leaves))
            return HPFQScheduler(node("root", 1, groups), rate,
                                 policy=policy)
        return build

    def make_flat(cls):
        def build(rate, n_flows):
            sched = cls(rate)
            for i in range(n_flows):
                sched.add_flow(str(i), 1 + (i % 3))
            return sched
        return build

    registry = {
        "fifo": make_flat(FIFOScheduler),
        "wrr": make_flat(WRRScheduler),
        "drr": make_flat(DRRScheduler),
        "scfq": make_flat(SCFQScheduler),
        "sfq": make_flat(SFQScheduler),
        "vclock": make_flat(VirtualClockScheduler),
        "ffq": make_flat(FFQScheduler),
        "wfq": make_flat(WFQScheduler),
        "wf2q": make_flat(WF2QScheduler),
        "wf2qplus": make_flat(WF2QPlusScheduler),
        "hwf2qplus": make_hier("wf2qplus"),
        "hwfq": make_hier("wfq"),
    }
    return registry


STATS_SCHEDULERS = ("fifo", "wrr", "drr", "scfq", "sfq", "vclock", "ffq",
                    "wfq", "wf2q", "wf2qplus", "hwf2qplus", "hwfq")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not 0 < value < float("inf"):  # also False for NaN
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value


def _cmd_stats(args):
    from repro.core.packet import Packet
    from repro.obs import (
        InvariantChecker,
        JSONLSink,
        MetricsSink,
        SchedulerProfiler,
    )

    sched = _stats_registry()[args.scheduler](args.rate, args.flows)
    metrics = MetricsSink()
    sinks = [metrics]
    jsonl = None
    if args.trace:
        try:
            jsonl = JSONLSink(args.trace)
        except OSError as exc:
            print(f"repro stats: cannot open trace file: {exc}")
            return 2
        sinks.append(jsonl)
    checker = None
    if args.check:
        checker = InvariantChecker()
        sinks.append(checker)
    sched.attach_observer(*sinks)
    profiler = SchedulerProfiler(sched)

    sim = None
    if args.pipeline:
        # The same packet budget, but end to end: CBR sources scheduling
        # themselves on the simulator, the link draining the scheduler —
        # the path where the burst-drain fast path elides events.
        from repro.sim.engine import Simulator
        from repro.sim.link import Link
        from repro.traffic.source import CBRSource

        sim = Simulator()
        profiler.sim = sim
        link = Link(sim, sched)
        aggregate = 0.98 * args.rate
        stagger = args.length / args.rate / args.flows
        for i in range(args.flows):
            source = CBRSource(str(i), aggregate / args.flows, args.length,
                               start_time=i * stagger).attach(sim, link)
            source.start()
        sim.run(until=args.packets * args.length / aggregate)
    else:
        # Saturated churn: every flow stays backlogged; one enqueue + one
        # dequeue per transmitted packet (the complexity benchmark's
        # workload).
        for i in range(args.flows):
            sched.enqueue(Packet(str(i), args.length), now=0.0)
            sched.enqueue(Packet(str(i), args.length), now=0.0)
        for _ in range(args.packets):
            rec = sched.dequeue()
            sched.enqueue(Packet(rec.flow_id, args.length),
                          now=rec.finish_time)
        while not sched.is_empty:
            sched.dequeue()

    profiler.detach()
    workload = "pipeline" if args.pipeline else "churned"
    print(f"repro stats — {sched.name}, {args.flows} flows, "
          f"{args.packets} {workload} packets, {args.rate:g} bps")
    print()
    print(profiler.format_report())
    counters = sched.batch_stats()
    print(f"batch API: {counters['batch_calls']} calls moving "
          f"{counters['batch_packets']} packets")
    print()
    print(metrics.format_report())
    ledger = sched.conservation()
    print()
    print(f"conservation: arrivals={ledger['arrivals']} "
          f"departures={ledger['departures']} drops={ledger['drops']} "
          f"backlog={ledger['backlog']} "
          f"({'balanced' if ledger['balanced'] else 'IMBALANCED'})")
    if sim is not None:
        processed = sim.events_processed
        elided = sim.events_elided
        total = processed + elided
        share = 100.0 * elided / total if total else 0.0
        print(f"events: processed={processed} elided={elided} "
              f"({share:.1f}% of clock advances inline)")
    if checker is not None:
        print()
        print(f"invariants: OK ({checker.events_checked} events checked, "
              f"monotonic V + SEFF + backlog + tags)")
    if jsonl is not None:
        jsonl.close()
        print(f"trace: wrote {jsonl.events_written} events to {jsonl.path}")
    return 0


def _cmd_sim(args):
    import json

    from repro.errors import ConfigurationError
    from repro.shard import format_report, run_sharded

    migrate = None
    if args.migrate_at is not None:
        migrate = {"cell": args.migrate_cell, "at": args.migrate_at}
    elif args.migrate_cell is not None:
        print("repro sim: --migrate-cell requires --migrate-at")
        return 2
    params = {"flows": args.flows, "cells": args.cells, "rate": args.rate,
              "seed": args.seed}
    try:
        report = run_sharded(args.scenario, shards=args.shards,
                             duration=args.duration, migrate=migrate,
                             max_retries=args.max_retries,
                             **params)
    except ConfigurationError as exc:
        print(f"repro sim: {exc}")
        return 2
    print(format_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=str)
            fh.write("\n")
        print(f"wrote merged report to {args.json}")
    if args.verify and (args.shards > 1 or migrate is not None):
        baseline = run_sharded(args.scenario, shards=1,
                               duration=args.duration, **params)
        if baseline["digest"] != report["digest"]:
            print(f"verify: FAIL — single-process digest "
                  f"{baseline['digest']} != sharded {report['digest']}")
            return 1
        print(f"verify: OK — digest matches the single-process run")
    return 0


def _cmd_serve(args):
    from repro.errors import CheckpointError, ServiceError
    from repro.serve import (
        ServiceRunner,
        build_service_spec,
        format_soak,
        run_soak,
        supervise,
    )

    if args.soak:
        result = run_soak(flows=args.flows, duration=args.duration,
                          kills=args.kills, seed=args.seed, rate=args.rate,
                          checkpoint_every=args.checkpoint_every,
                          idle_ttl=args.idle_ttl,
                          directory=args.checkpoint_dir)
        print(format_soak(result))
        return 0 if result["ok"] else 1

    opts = {"checkpoint_every": args.checkpoint_every,
            "idle_ttl": args.idle_ttl, "stall_wall": args.stall_wall}
    try:
        if args.recover:
            if args.checkpoint_dir is None:
                print("repro serve: --recover requires --checkpoint-dir")
                return 2
            runner = ServiceRunner.recover(args.checkpoint_dir, **opts)
            print(f"recovered from checkpoint at t={runner.now:g}s "
                  f"(recovery #{runner.recoveries})")
            runner.run_to(runner.now + args.duration)
        elif args.checkpoint_dir is not None:
            spec = build_service_spec(flows=args.flows, rate=args.rate,
                                      duration=args.duration, seed=args.seed)
            def drive(r):
                r.run_to(args.duration)
                return r

            runner, supervisor = supervise(
                spec, drive, args.checkpoint_dir,
                max_restarts=args.max_restarts, **opts)
            if supervisor.restarts:
                print(f"supervisor: {supervisor.restarts} restart(s): "
                      f"{supervisor.failures}")
        else:
            spec = build_service_spec(flows=args.flows, rate=args.rate,
                                      duration=args.duration, seed=args.seed)
            runner = ServiceRunner(spec, **opts)
            runner.run_to(args.duration)
    except (ServiceError, CheckpointError) as exc:
        print(f"repro serve: {exc}")
        return 1
    status = runner.status()
    print(f"repro serve — {status['scheduler']}, cell {status['cell']!r}, "
          f"t={status['clock']:g}s")
    print(f"  served {status['rows']} packets "
          f"({status['arrivals']} arrivals, backlog {status['backlog']})")
    print(f"  digest: {status['digest']}")
    print(f"  flows: {status['live_flows']} live / {status['flows']} "
          f"registered (peak live {status['peak_live_flows']})")
    print(f"  checkpoints: {status['checkpoints_written']}  "
          f"commands: {status['commands_applied']}  "
          f"recoveries: {status['recoveries']}")
    if status["incidents"]:
        print(f"  incidents: {status['incidents']}")
    print(f"  conservation: "
          f"{'balanced' if status['conservation_balanced'] else 'IMBALANCED'}")
    return 0


def _cmd_bench(args):
    from repro.bench import (
        SCENARIOS,
        compare,
        format_compare,
        format_table,
        load,
        merge_best,
        run_scenarios,
        save,
        to_payload,
    )
    from repro.bench.parallel import run_scenarios_parallel

    if args.report and not args.compare:
        print("repro bench: --report requires --compare "
              "(it records the regression table)")
        return 2
    names = args.scenario or None
    try:
        if args.jobs > 1:
            points = run_scenarios_parallel(
                names=names, quick=args.quick, jobs=args.jobs,
                progress=lambda name: print(f"finished {name} ..."))
        else:
            points = run_scenarios(
                names=names, quick=args.quick,
                progress=lambda name: print(f"running {name} ..."))
    except ValueError as exc:
        print(f"repro bench: {exc}")
        return 2
    print()
    print(format_table(points))
    if args.output:
        payload = save(points, args.output)
        print(f"\nwrote {len(points)} points to {args.output}")
    else:
        payload = to_payload(points)
    if args.compare:
        try:
            baseline = load(args.compare)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro bench: cannot load baseline: {exc}")
            return 2
        overrides = {}
        for spec in args.threshold_scenario or ():
            name, sep, value = spec.partition("=")
            try:
                if not sep:
                    raise ValueError
                overrides[name] = float(value)
            except ValueError:
                print(f"repro bench: bad --threshold-scenario {spec!r} "
                      "(expected NAME=FRACTION)")
                return 2
        rows, regressions = compare(baseline, payload,
                                    threshold=args.threshold,
                                    scenario_thresholds=overrides)
        if regressions:
            # Re-measure the regressed scenarios once before failing:
            # on shared runners a single sample of a cheap point can be
            # off by far more than the threshold.  The minimum per point
            # wins (noise only ever adds time).
            retry = sorted({r["scenario"] for r in regressions}
                           & set(SCENARIOS))
            if retry:
                print(f"\npossible regression; re-measuring {retry} "
                      "to rule out timer noise ...")
                points = merge_best(
                    points, run_scenarios(names=retry, quick=args.quick))
                if args.output:
                    payload = save(points, args.output)
                else:
                    payload = to_payload(points)
                rows, regressions = compare(
                    baseline, payload, threshold=args.threshold,
                    scenario_thresholds=overrides)
        print()
        print(f"comparison against {args.compare} "
              f"(rev {baseline.get('git_rev', '?')}):")
        print(format_compare(rows, threshold=args.threshold))
        if args.report:
            import json

            report = {
                "baseline": args.compare,
                "baseline_rev": baseline.get("git_rev", "?"),
                "current_rev": payload.get("git_rev", "?"),
                "threshold": args.threshold,
                "scenario_thresholds": overrides,
                "ok": not regressions,
                "regressions": len(regressions),
                "rows": rows,
            }
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
            print(f"\nwrote per-scenario regression table to {args.report}")
        if regressions:
            return 1
    return 0


def _cmd_chaos(args):
    import json

    from repro.faults import CHAOS_SCHEDULERS, SCENARIOS, run_chaos

    scenarios = args.scenario or list(SCENARIOS)
    schedulers = args.scheduler or ["wf2qplus", "hwf2qplus"]
    results = []
    for scheduler in schedulers:
        for scenario in scenarios:
            result = run_chaos(
                scenario, scheduler=scheduler, seed=args.seed,
                duration=args.duration, flows=args.flows, rate=args.rate,
                load=args.load,
            )
            print(result.format())
            results.append(result)
    failed = [r for r in results if not r.ok]
    if args.json:
        payload = {
            "seed": args.seed,
            "duration": args.duration,
            "flows": args.flows,
            "ok": not failed,
            "results": [r.to_dict() for r in results],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {len(results)} results to {args.json}")
    print()
    if failed:
        print(f"FAIL: {len(failed)} of {len(results)} chaos runs violated "
              "an invariant or lost packets")
        return 1
    print(f"OK: {len(results)} chaos runs, zero invariant violations, "
          "conservation exact")
    return 0


def _cmd_fig2(args):
    from repro.core.wf2q import WF2QScheduler
    from repro.core.wf2qplus import WF2QPlusScheduler
    from repro.core.wfq import WFQScheduler
    from repro.experiments.fig2 import run_fig2

    out = run_fig2([WFQScheduler, WF2QScheduler, WF2QPlusScheduler])
    print("Figure 2 — service timelines (unit packets, unit rate)")
    for name in ("WFQ", "WF2Q", "WF2Q+"):
        order = " ".join(str(fid) for fid, _s, _f in out[name])
        print(f"  {name:6s} {order}")
    gps = " ".join(f"{fid}@{t}" for fid, t in out["GPS"])
    print(f"  GPS    {gps}")
    return 0


def _cmd_delay(args):
    from repro.analysis.bounds import hpfq_delay_bound
    from repro.experiments import delay as exp

    spec = exp.build_fig3_spec()
    bound = float(hpfq_delay_bound(
        spec, "RT-1", exp.RT1_SIGMA, exp.FIG3_LINK_RATE,
        lambda n: exp.FIG3_PACKET_LENGTH))
    trace = exp.run_delay_experiment(args.policy, args.scenario,
                                     duration=args.duration, seed=args.seed)
    delays = [d for _t, d in trace.delays("RT-1")]
    print(f"Figure {3 + args.scenario} scenario {args.scenario}, "
          f"H-{args.policy}, {args.duration:g}s")
    print(f"  RT-1 packets   : {len(delays)}")
    print(f"  max delay      : {1000 * max(delays):.2f} ms")
    print(f"  mean delay     : {1000 * sum(delays) / len(delays):.2f} ms")
    print(f"  Cor. 2 bound   : {1000 * bound:.2f} ms "
          f"({'holds' if max(delays) <= bound else 'exceeded'} "
          f"for H-wf2qplus; informative only for other policies)")
    if args.series:
        for t, d in trace.delays("RT-1"):
            print(f"{t:.4f} {1000 * d:.3f}")
    return 0


def _cmd_linksharing(args):
    from repro.analysis.bandwidth import mean_rate
    from repro.core.hgps import hierarchical_fair_rates
    from repro.experiments import linksharing as exp

    trace = exp.run_linksharing(args.policy, duration=args.duration)
    spec = exp.build_fig8_spec()
    watched = ["TCP-1", "TCP-5", "TCP-8", "TCP-10", "TCP-11"]
    print(f"Figure 9, H-{args.policy}, {args.duration:g}s "
          f"(measured/ideal Mbps)")
    print(f"  {'interval':16s}" + "".join(f"{f:>14s}" for f in watched))
    errs = []
    for t1, t2, active, demands in exp.ideal_intervals(args.duration):
        ideal = hierarchical_fair_rates(spec, active, exp.FIG8_LINK_RATE,
                                        demands)
        m1 = t1 + 0.3 * (t2 - t1)
        row = []
        for fid in watched:
            measured = mean_rate(trace, fid, m1, t2)
            target = float(ideal[fid])
            errs.append(abs(measured - target) / target)
            row.append(f"{measured / 1e6:5.2f}/{target / 1e6:5.2f}")
        print(f"  [{t1:5.2f},{t2:5.2f}) " + "".join(f"{c:>14s}" for c in row))
    print(f"  mean relative error: {sum(errs) / len(errs):.1%}")
    return 0


def _cmd_bounds(args):
    from repro.analysis.bounds import (
        hpfq_bwfi,
        hpfq_delay_bound,
        wf2q_wfi,
        wfq_wfi_lower_bound,
    )
    from repro.experiments import delay as exp

    spec = exp.build_fig3_spec()
    rate = exp.FIG3_LINK_RATE
    pkt = exp.FIG3_PACKET_LENGTH
    print("Closed-form bounds for the Figure 3 hierarchy (8 KB packets)")
    print(f"  link rate: {rate / 1e6:g} Mbps")
    for name in ("RT-1", "BE-1", "CS-1", "PS-1"):
        r_i = float(spec.guaranteed_rate(name, rate))
        alpha = float(hpfq_bwfi(spec, name, rate, lambda n: pkt))
        d = float(hpfq_delay_bound(spec, name, pkt, rate, lambda n: pkt))
        print(f"  {name:5s} r_i={r_i / 1e6:6.2f} Mbps  "
              f"B-WFI={alpha / 8:8.0f} B  D(sigma=1pkt)={1000 * d:8.2f} ms")
    print()
    print("One-level WFI comparison (uniform packets, r_i/r = 1/2):")
    print(f"  WF2Q/WF2Q+ : {wf2q_wfi(pkt, pkt, 0.5, 1.0) / 8:.0f} B "
          "(independent of N)")
    for n in (11, 101, 1001):
        print(f"  WFQ, N={n:5d}: >= "
              f"{wfq_wfi_lower_bound(n, pkt, 0.5, 1.0) / 8:.0f} B")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical Packet Fair Queueing (SIGCOMM '96) "
                    "experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig2", help="print the Figure 2 service timelines"
                   ).set_defaults(func=_cmd_fig2)

    p_delay = sub.add_parser("delay", help="run a Figures 4-7 scenario")
    p_delay.add_argument("--scenario", type=int, choices=(1, 2, 3), default=1)
    p_delay.add_argument("--policy", default="wf2qplus",
                         choices=("wf2qplus", "wfq", "scfq", "sfq"))
    p_delay.add_argument("--duration", type=_positive_float, default=6.0)
    p_delay.add_argument("--seed", type=int, default=1)
    p_delay.add_argument("--series", action="store_true",
                         help="also print the per-packet delay series")
    p_delay.set_defaults(func=_cmd_delay)

    p_ls = sub.add_parser("linksharing", help="run the Figure 9 experiment")
    p_ls.add_argument("--policy", default="wf2qplus",
                      choices=("wf2qplus", "wfq", "scfq", "sfq"))
    p_ls.add_argument("--duration", type=_positive_float, default=10.0)
    p_ls.set_defaults(func=_cmd_linksharing)

    sub.add_parser("bounds", help="print the closed-form bounds"
                   ).set_defaults(func=_cmd_bounds)

    p_stats = sub.add_parser(
        "stats",
        help="profile a scheduler's hot path with metrics/trace/invariants")
    p_stats.add_argument("--scheduler", default="wf2qplus",
                         choices=STATS_SCHEDULERS)
    p_stats.add_argument("--flows", type=_positive_int, default=64)
    p_stats.add_argument("--packets", type=_positive_int, default=20000,
                         help="churned packets after the warm-up fill")
    p_stats.add_argument("--length", type=_positive_float, default=8000.0,
                         help="packet length in bits")
    p_stats.add_argument("--rate", type=_positive_float, default=1e9,
                         help="link rate in bits per second")
    p_stats.add_argument("--trace", metavar="OUT.JSONL", default=None,
                         help="write the full event stream as JSON lines")
    p_stats.add_argument("--check", action="store_true",
                         help="run the invariant checker on every event")
    p_stats.add_argument("--pipeline", action="store_true",
                         help="drive the workload through the simulator+"
                              "link stack and report event-elision totals")
    p_stats.set_defaults(func=_cmd_stats)

    from repro.shard.scenarios import SHARD_SCENARIOS
    p_sim = sub.add_parser(
        "sim",
        help="run a partition-closed scenario across N shard workers and "
             "print the merged report digest")
    p_sim.add_argument("--scenario", default="cbr_flat",
                       choices=sorted(SHARD_SCENARIOS))
    p_sim.add_argument("--shards", type=_positive_int, default=1,
                       metavar="N",
                       help="worker processes (1 = single-process baseline)")
    p_sim.add_argument("--flows", type=_positive_int, default=None)
    p_sim.add_argument("--cells", type=_positive_int, default=None,
                       help="independent cells to split the scenario into")
    p_sim.add_argument("--duration", type=_positive_float, default=None,
                       help="simulated seconds (scenario default if unset)")
    p_sim.add_argument("--rate", type=_positive_float, default=None,
                       help="per-cell link rate in bits per second")
    p_sim.add_argument("--seed", type=int, default=1)
    from repro.shard.driver import DEFAULT_MAX_RETRIES
    p_sim.add_argument("--max-retries", type=_nonnegative_int,
                       default=DEFAULT_MAX_RETRIES,
                       metavar="N",
                       help="re-run a shard whose worker died up to N extra "
                            "times (exponential backoff) before failing")
    p_sim.add_argument("--migrate-at", type=float, default=None,
                       metavar="T",
                       help="checkpoint one cell at T and resume it in a "
                            "fresh worker")
    p_sim.add_argument("--migrate-cell", default=None, metavar="CELL",
                       help="cell to migrate (default: first flat cell)")
    p_sim.add_argument("--verify", action="store_true",
                       help="also run single-process and fail on digest "
                            "mismatch")
    p_sim.add_argument("--json", metavar="OUT.JSON", default=None,
                       help="write the merged report as JSON")
    p_sim.set_defaults(func=_cmd_sim)

    p_serve = sub.add_parser(
        "serve",
        help="run a cell as a crash-tolerant long-lived service with "
             "checkpoints, recovery, and the kill/recover soak gate")
    p_serve.add_argument("--flows", type=_positive_int, default=32)
    p_serve.add_argument("--duration", type=_positive_float, default=2.0,
                         help="simulated seconds to serve this invocation")
    p_serve.add_argument("--rate", type=_positive_float, default=1e6,
                         help="link rate in bits per second")
    p_serve.add_argument("--seed", type=int, default=1)
    p_serve.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="durable checkpoint directory (enables the "
                              "supervisor); omit for in-memory only")
    p_serve.add_argument("--checkpoint-every", type=_positive_float,
                         default=None, metavar="T",
                         help="checkpoint cadence in simulated seconds")
    p_serve.add_argument("--recover", action="store_true",
                         help="resume from the newest verifiable checkpoint "
                              "in --checkpoint-dir instead of starting fresh")
    p_serve.add_argument("--idle-ttl", type=_positive_float, default=None,
                         metavar="T",
                         help="evict per-flow state idle longer than T "
                              "simulated seconds (service order unchanged)")
    p_serve.add_argument("--stall-wall", type=_positive_float, default=None,
                         metavar="S",
                         help="watchdog: fail if simulated time stalls for "
                              "S wall seconds")
    p_serve.add_argument("--max-restarts", type=_positive_int, default=3,
                         metavar="N",
                         help="supervisor restart budget (with "
                              "--checkpoint-dir)")
    p_serve.add_argument("--soak", action="store_true",
                         help="run the kill/recover soak harness; exit 1 "
                              "unless the recovered digest matches the "
                              "uninterrupted run with zero violations")
    p_serve.add_argument("--kills", type=_positive_int, default=3,
                         help="hard kills to inject during --soak")
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = sub.add_parser(
        "bench",
        help="run the perf harness; optionally compare to a baseline JSON")
    p_bench.add_argument("--scenario", action="append", metavar="NAME",
                         help="run only this scenario (repeatable); "
                              "default: all")
    p_bench.add_argument("--quick", action="store_true",
                         help="CI-sized workloads (same points, fewer "
                              "packets/repeats)")
    p_bench.add_argument("-o", "--output", metavar="OUT.JSON", default=None,
                         help="write the results as a bench JSON document")
    p_bench.add_argument("--compare", metavar="BASELINE.JSON", default=None,
                         help="compare against a baseline; exit 1 on "
                              "regression")
    p_bench.add_argument("--threshold", type=float, default=0.25,
                         help="regression threshold as a fraction "
                              "(default 0.25 = +25%%)")
    p_bench.add_argument("--threshold-scenario", action="append",
                         metavar="NAME=FRAC", default=None,
                         help="override the threshold for one scenario "
                              "(repeatable), e.g. sharded_pipeline=0.6")
    p_bench.add_argument("--jobs", type=_positive_int, default=1,
                         metavar="N",
                         help="run scenarios across N worker processes "
                              "(same points and ordering as --jobs 1)")
    p_bench.add_argument("--report", metavar="OUT.JSON", default=None,
                         help="with --compare: also write the per-scenario "
                              "regression table as machine-readable JSON")
    p_bench.set_defaults(func=_cmd_bench)

    from repro.faults import CHAOS_SCHEDULERS, SCENARIOS as CHAOS_SCENARIOS
    p_chaos = sub.add_parser(
        "chaos",
        help="run fault-injection scenarios under the invariant checker; "
             "exit 1 on any violation or conservation mismatch")
    p_chaos.add_argument("--scenario", action="append", metavar="NAME",
                         choices=CHAOS_SCENARIOS,
                         help="run only this scenario (repeatable); "
                              "default: all")
    p_chaos.add_argument("--scheduler", action="append", metavar="NAME",
                         choices=CHAOS_SCHEDULERS,
                         help="scheduler under attack (repeatable); "
                              "default: wf2qplus and hwf2qplus")
    p_chaos.add_argument("--seed", type=int, default=1,
                         help="seed for traffic and the fault plan")
    p_chaos.add_argument("--duration", type=_positive_float, default=2.0,
                         help="traffic window in seconds")
    p_chaos.add_argument("--flows", type=_positive_int, default=8)
    p_chaos.add_argument("--rate", type=_positive_float, default=1e6,
                         help="link rate in bits per second")
    p_chaos.add_argument("--load", type=_positive_float, default=1.1,
                         help="offered load as a fraction of link capacity")
    p_chaos.add_argument("--json", metavar="OUT.JSON", default=None,
                         help="also write the results as JSON")
    p_chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # Flush inside the guard so a closed pipe raises here rather than
        # in the interpreter's exit-time flush.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro stats | head -1``).  Point stdout
        # at devnull so the exit-time flush has somewhere to go, and exit
        # 1, as the Python documentation's SIGPIPE note recommends.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status
