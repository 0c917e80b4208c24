"""One repeat of one workload, in a fresh interpreter.

``run.py`` starts this script once per repeat and reads the JSON object it
prints as its last line.  The clock for ``setup_s`` starts before any
``repro`` import; the first slice of the workload is the first timed
event.  Everything after the last slice (digests, checks) is untimed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402


def run_repeat(name, seed, scale, trace, tmpdir, t0):
    """Build, run and check one repeat; returns a plain-data result."""
    import workloads

    workload = workloads.build(name, seed, scale,
                               tempfile.mkdtemp(dir=tmpdir))
    try:
        return _measure(workload, trace, t0)
    finally:
        workload.close()


def _measure(workload, trace, t0):
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.calibrate()
        tracer.install(workload)
    workload.start()
    if tracer is not None:
        tracer.reset()
    sim = workload.sim
    events0 = sim.events_processed
    # Read with a default: the elision counter is an optimisation detail
    # a later version of the simulator may rename or drop.
    elided0 = getattr(sim, "events_elided", 0)
    sent0 = workload.link.packets_sent
    clock = time.perf_counter_ns
    walls = []
    counts = []
    pending_max = 0
    layers = {} if tracer is None else {n: [] for n in tracer.layers}
    step = workload.step
    first_ns = clock()
    setup_s = time.perf_counter() - t0
    for k in range(workload.slices):
        t = clock()
        step(k)
        walls.append(clock() - t)
        counts.append(workload.link.packets_sent - sent0)
        pending = workload.sim.pending
        if pending > pending_max:
            pending_max = pending
        if tracer is not None:
            for layer, ns in tracer.window().items():
                layers[layer].append(ns)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sim = workload.sim
    result = {
        "setup_s": setup_s,
        "first_window_ns": first_ns,
        "walls_ns": walls,
        "counts": counts,
        "rss_kib": rss_kib,
        "events": sim.events_processed - events0,
        "elided": getattr(sim, "events_elided", 0) - elided0,
        "pending_max": pending_max,
    }
    result.update(workload.outputs())
    if workload.runner is not None:
        result["commands"] = workload.runner.commands_applied
    if tracer is not None:
        result["layers"] = {n: v for n, v in layers.items()
                            if tracer.layers[n][1]}
        result["calls"] = {n: acc[1] for n, acc in tracer.layers.items()}
        result["drains"] = list(tracer.drains)
        result["save_bytes"] = list(tracer.save_bytes)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmpdir", required=True)
    args = parser.parse_args(argv)
    result = run_repeat(args.workload, args.seed, args.scale,
                        bool(args.trace), args.tmpdir, T0)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
