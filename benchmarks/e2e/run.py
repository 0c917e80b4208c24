"""End-to-end benchmark of the H-PFQ simulator: five workloads, checked.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --json out.json       # ... and save it
    python3 benchmarks/e2e/run.py --workload hier_cbr --seed 3 --trace 1
    python3 benchmarks/e2e/run.py --compare base.json new.json

Each repeat of a workload runs in a fresh interpreter (``child.py``), one
process at a time, with ``REPRO_ENGINE`` unset so every workload runs the
default configuration.  A run's timed region is split into slices of equal
simulated time; the simulator is deterministic, so slice *k* does the same
work in every repeat, and the estimator keeps each slice's minimum wall
time across repeats, because interference only adds time.

The outputs of every repeat are checked: the service digest, packet and
drop counts and delay percentile must match the committed reference
(``reference.json``) for its seed, or, for a seed without one, agree
across all repeats; the conservation ledger must balance and the service
order must be a valid schedule.  A repeat that raises or fails a check
counts as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names, units and bounds come from ``BENCHMARK.json`` at the repository
root.
"""

import argparse
import collections
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

#: Wall-clock limit for one repeat (seconds); a repeat that exceeds it
#: counts as failed.
CHILD_TIMEOUT = 120

#: Outputs that must be identical across repeats of one seed; the first
#: four are also pinned by the reference file.
REFERENCE_KEYS = ("digest", "packets", "drops", "delay_p99_us")
AGREE_KEYS = REFERENCE_KEYS + ("offered", "counts")

#: What a repeat is for: ``timed`` repeats give the end-to-end metrics;
#: each ``traced`` repeat runs right after a ``paired`` untraced one, and
#: the two sets give the per-layer metrics and ``trace.overhead``.
ROLES = ("timed", "paired", "traced")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources or spec)."""


def load_spec():
    if not SPEC.is_file():
        raise BenchmarkError(f"{SPEC} not found")
    with open(SPEC) as fh:
        return json.load(fh)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"]


def repeats_for(seconds):
    """(untraced repeats, traced pairs) for a run of ``seconds``.

    A repeat's timed region is about two seconds at scale 1, so ``seconds``
    buys ``seconds // 2`` untraced repeats (at least three, so the window
    minimum has something to choose from) and ``seconds // 5`` traced ones,
    each paired with an untraced repeat for ``trace.overhead``.
    """
    return max(3, seconds // 2), max(1, seconds // 5)


# ----------------------------------------------------------------------
# Running repeats
# ----------------------------------------------------------------------
def run_child(workload, seed, scale, trace, tmpdir):
    """One repeat in a fresh interpreter; returns its result dict.

    A repeat that exits non-zero or times out returns ``{"error": ...}``.
    """
    env = dict(os.environ)
    env.pop("REPRO_ENGINE", None)
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale),
           "--trace", "1" if trace else "0", "--tmpdir", str(tmpdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def make_plan(names, timed, pairs):
    """Repeats in run order, round-robin across workloads: ``timed``
    untraced repeats each, then ``pairs`` (untraced, traced) pairs each."""
    plan = [(name, "timed") for _ in range(timed) for name in names]
    plan += [(name, role) for _ in range(pairs) for name in names
             for role in ("paired", "traced")]
    return plan


def run_plan(plan, seed, scale, progress):
    """Run ``(workload, role)`` jobs in order; group results by workload.

    ``role`` is one of :data:`ROLES`; only ``"traced"`` repeats run with
    the tracer installed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"package sources not found under {SRC}")
    results = collections.defaultdict(list)
    base = ROOT / ".bench_build"
    base.mkdir(parents=True, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="e2e-", dir=base)
    try:
        for i, (workload, role) in enumerate(plan, 1):
            result = run_child(workload, seed, scale, role == "traced",
                               tmpdir)
            result["role"] = role
            results[workload].append(result)
            if progress:
                state = "FAILED: " + result["error"] if "error" in result \
                    else "ok"
                print(f"[{i}/{len(plan)}] {workload} {role} repeat: {state}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return results


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def window_minimums(walls):
    """Per-window minimum across repeats (``walls[r][k]`` = repeat r,
    window k).  Interference only adds time, so the minimum is the least
    disturbed observation of each window's fixed work."""
    return [min(column) for column in zip(*walls)]


def percentile(values, q):
    """Nearest-rank quantile ``q`` in (0, 1] of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def e2e_values(runs):
    """Every end-to-end metric from untraced repeats that passed."""
    mins = window_minimums([r["walls_ns"] for r in runs])
    return {
        "pkts_per_s": runs[0]["counts"][-1] / (sum(mins) / 1e9),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mib": statistics.median(r["rss_kib"] for r in runs) / 1024,
        "slice_p50_ms": percentile(mins, 0.50) / 1e6,
        "slice_p99_ms": percentile(mins, 0.99) / 1e6,
    }


def jackknife_spreads(runs):
    """Per metric: (max - min) / median of the estimate over every
    leave-one-repeat-out subset; how much a single repeat moves it.
    ``None`` with fewer than three repeats."""
    if len(runs) < 3:
        return {}
    subsets = [e2e_values(runs[:i] + runs[i + 1:]) for i in range(len(runs))]
    out = {}
    for name in subsets[0]:
        values = [s[name] for s in subsets]
        mid = statistics.median(values)
        out[name] = (max(values) - min(values)) / mid if mid else 0.0
    return out


def layer_values(paired, traced):
    """Per-layer metrics from traced repeats (window minimum per layer);
    ``trace.overhead`` compares them with the equally many untraced
    repeats interleaved with them."""
    first = traced[0]
    packets = first["counts"][-1]
    ns = {}
    for layer in first["layers"]:
        columns = zip(*(r["layers"][layer] for r in traced))
        ns[layer] = max(0.0, sum(min(column) for column in columns))

    def per_pkt(layer):
        return ns.get(layer, 0.0) / packets

    def ms_per_call(layer, calls):
        return ns.get(layer, 0.0) / calls / 1e6 if calls else 0.0

    calls = first["calls"]
    drain_calls, drained = first["drains"]
    saves = first["save_bytes"]
    traced_s = sum(window_minimums([r["walls_ns"] for r in traced]))
    untraced_s = sum(window_minimums([r["walls_ns"] for r in paired]))
    values = {
        "core.dequeue.ns_per_pkt": per_pkt("core.dequeue"),
        "core.enqueue.ns_per_pkt": per_pkt("core.enqueue"),
        "core.pkts_per_drain": drained / drain_calls if drain_calls else 0.0,
        "traffic.ns_per_pkt": per_pkt("traffic"),
        "sim.engine.schedule_ns_per_pkt": per_pkt("sim.engine.schedule"),
        "sim.engine.loop_ns_per_pkt": per_pkt("sim.engine.loop"),
        "sim.engine.events_per_pkt": first["events"] / packets,
        "sim.engine.pending_max": max(r["pending_max"] for r in traced),
        "sim.link.ns_per_pkt": per_pkt("sim.link"),
        "sim.link.elided_frac": first["elided"] / packets,
        "obs.ns_per_pkt": per_pkt("obs"),
        "obs.events_per_pkt": calls["obs"] / packets,
        "serve.digest.ns_per_pkt": per_pkt("serve.digest"),
        "serve.apply.ms_per_cmd": ms_per_call("serve.apply",
                                              first.get("commands", 0)),
        "serve.checkpoint.ms_per_ckpt": ms_per_call(
            "serve.checkpoint", calls["serve.checkpoint"]),
        "serve.runner.ns_per_pkt": per_pkt("serve.runner"),
        "faults.checkpoint.ms_per_save": ms_per_call("faults.checkpoint",
                                                     len(saves)),
        "faults.checkpoint.kib_per_save": (sum(saves) / len(saves) / 1024
                                           if saves else 0.0),
        "bench.recorder.ns_per_pkt": per_pkt("bench.recorder"),
        "trace.overhead": traced_s / untraced_s - 1,
    }
    total = sum(ns.values())
    shares = {layer: v / total for layer, v in ns.items() if total}
    return values, shares


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_runs(runs, expected):
    """Mark each repeat ``ok`` or record why it failed.

    ``expected`` is the committed reference for this workload and seed,
    or None; without one, repeats must agree with the most common result
    among them (traced and untraced alike).
    """
    def outcome(run):
        return tuple(json.dumps(run.get(k)) for k in AGREE_KEYS)

    clean = [r for r in runs if "error" not in r and not r["errors"]]
    consensus = None
    if clean:
        consensus = collections.Counter(
            outcome(r) for r in clean).most_common(1)[0][0]
    for run in runs:
        failures = []
        if "error" in run:
            failures.append(run["error"])
        else:
            failures.extend(run["errors"])
            if outcome(run) != consensus:
                failures.append("outputs differ from the other repeats")
            if expected is not None:
                for key in REFERENCE_KEYS:
                    if run[key] != expected[key]:
                        failures.append(f"{key} {run[key]!r} != reference "
                                        f"{expected[key]!r}")
        run["failures"] = failures
        run["ok"] = not failures
    return runs


def summarize(spec, workload, seed, scale, results, reference):
    """Check and reduce one workload's repeats to its metrics."""
    expected = None
    if scale == 1:
        expected = reference.get(workload, {}).get(str(seed))
    check_runs(results, expected)
    failed = sum(1 for r in results if not r["ok"])
    ok = {role: [r for r in results if r["ok"] and r["role"] == role]
          for role in ROLES}
    # Without timed repeats (a --trace 1 run), the paired ones stand in.
    untraced = ok["timed"] or ok["paired"]
    summary = {"attempted": len(results), "failed": failed,
               "failed_frac": failed / len(results),
               "correct": failed == 0,
               "failures": [f for r in results for f in r["failures"]],
               "metrics": {}, "layers": {}, "shares": {}, "info": {}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if untraced:
        values = e2e_values(untraced)
        spreads = jackknife_spreads(untraced)
        for name, unit in units.items():
            summary["metrics"][name] = {"value": values[name], "unit": unit,
                                        "spread": spreads.get(name)}
        first = untraced[0]
        raw = statistics.median(r["counts"][-1] / (sum(r["walls_ns"]) / 1e9)
                                for r in untraced)
        summary["info"] = {
            "digest": first["digest"], "packets": first["packets"],
            "sim_delay_p99_us": first["delay_p99_us"],
            "sim_loss_frac": (first["drops"] / first["offered"]
                              if first["offered"] else 0.0),
            "raw_median_pkts_per_s": raw,
            "slices": len(first["walls_ns"]),
        }
    if ok["traced"] and ok["paired"]:
        values, shares = layer_values(ok["paired"], ok["traced"])
        for m in spec["per_layer"]:
            summary["layers"][m["name"]] = {"value": values[m["name"]],
                                            "unit": m["unit"]}
        summary["shares"] = shares
    return summary


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def print_summary(workload, summary):
    info = summary["info"]
    print(f"== {workload}: {summary['attempted'] - summary['failed']}/"
          f"{summary['attempted']} repeats correct, failed_frac "
          f"{summary['failed_frac']:.3f} fraction")
    for failure in summary["failures"]:
        print(f"   FAILED: {failure}")
    if info:
        print(f"   digest {info['digest'][:16]}  packets {info['packets']}"
              f"  slices {info['slices']}")
        print(f"   sim_delay_p99_us {info['sim_delay_p99_us']:.3f} us  "
              f"sim_loss_frac {info['sim_loss_frac']:.5f} fraction  "
              f"raw_median {info['raw_median_pkts_per_s']:.1f} pkt/s "
              f"(checked or informational, not gated)")
    for name, m in summary["metrics"].items():
        spread = "" if m["spread"] is None else \
            f"   (repeat spread {100 * m['spread']:.1f}%)"
        print(f"   {name:<34s} {m['value']:>14.6g} {m['unit']}{spread}")
    for name, m in summary["layers"].items():
        print(f"   {name:<34s} {m['value']:>14.6g} {m['unit']}")
    if summary["shares"]:
        shares = ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in
            sorted(summary["shares"].items(), key=lambda kv: -kv[1])
            if share >= 0.0005)
        print(f"   layer shares of traced self time: {shares}")


def result_line(summary, key):
    """The last output line: correct, attempted, failed and metrics."""
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in summary[key].items()}
    return json.dumps({"correct": summary["correct"],
                       "attempted": summary["attempted"],
                       "failed": summary["failed"], "metrics": metrics})


def compare(spec, base, new, out=sys.stdout):
    """Apply each end-to-end bound to every metric x workload pair.

    Returns True when no pair is ``worse`` and neither side failed a
    repeat.  A pair is ``unresolved`` when either side's repeat spread
    exceeds the bound.
    """
    good = True
    for workload in (w["name"] for w in spec["workloads"]):
        b = base["workloads"].get(workload)
        n = new["workloads"].get(workload)
        if b is None or n is None:
            print(f"{workload}: missing from one side", file=out)
            good = False
            continue
        for side, data in (("base", b), ("new", n)):
            if data["failed"]:
                print(f"{workload}: {side} has {data['failed']} failed "
                      f"repeat(s)", file=out)
                good = False
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bound = metric["bound"]
            bv = b["metrics"][name]
            nv = n["metrics"][name]
            change = (nv["value"] - bv["value"]) / bv["value"]
            worse_by = change if metric["better"] == "lower" else -change
            if any(s is not None and s > bound
                   for s in (bv["spread"], nv["spread"])):
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                good = False
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"{workload:<18s} {name:<18s} {bv['value']:>12.6g} -> "
                  f"{nv['value']:>12.6g} {metric['unit']:<9s} "
                  f"{100 * change:+7.2f}% (bound {100 * bound:.0f}%) "
                  f"{verdict}", file=out)
    return good


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 prints the end-to-end "
                             "metrics, 1 the per-layer ones")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every simulated horizon "
                             "(reference digests exist for 1 only)")
    parser.add_argument("--json", metavar="OUT",
                        help="write the full results to OUT")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --json files and exit")
    parser.add_argument("--write-reference", type=int, metavar="N",
                        help="record reference outputs for seeds 0..N")
    return parser.parse_args(argv)


def write_reference(spec, last_seed):
    """Record one repeat per workload and seed 0..``last_seed``, scale 1."""
    names = [w["name"] for w in spec["workloads"]]
    table = {name: {} for name in names}
    for seed in range(last_seed + 1):
        results = run_plan(make_plan(names, 1, 0), seed, 1.0, progress=True)
        for name in names:
            run = results[name][0]
            if "error" in run or run["errors"]:
                raise BenchmarkError(
                    f"{name} seed {seed}: "
                    f"{run.get('error') or run['errors']}")
            table[name][str(seed)] = {k: run[k] for k in REFERENCE_KEYS}
    with open(REFERENCE, "w") as fh:
        json.dump({"scale": 1, "workloads": table}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            with open(args.compare[0]) as fh:
                base = json.load(fh)
            with open(args.compare[1]) as fh:
                new = json.load(fh)
            return 0 if compare(spec, base, new) else 1
        if args.write_reference is not None:
            write_reference(spec, args.write_reference)
            return 0
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {names}")
        seconds = args.seconds or spec["run_seconds"]
        timed, pairs = repeats_for(seconds)
        if args.trace == 1:
            timed = 0
        elif args.trace == 0:
            pairs = 0
        reference = load_reference()
        if args.workload is not None:
            names = [args.workload]
        results = run_plan(make_plan(names, timed, pairs), args.seed,
                           args.scale, progress=args.workload is None)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summaries = {}
    for name in names:
        summaries[name] = summarize(spec, name, args.seed, args.scale,
                                    results[name], reference)
        print_summary(name, summaries[name])
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "scale": args.scale,
                       "seconds": seconds, "workloads": summaries}, fh,
                      indent=1)
            fh.write("\n")
    correct = all(s["correct"] for s in summaries.values())
    if args.workload is not None:
        key = "layers" if args.trace == 1 else "metrics"
        print(result_line(summaries[args.workload], key))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
