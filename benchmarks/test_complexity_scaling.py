"""The O(log N) complexity claim (paper contribution (c)).

Measures per-packet scheduling cost (enqueue + dequeue through a saturated
server) as the number of sessions N grows, via the :mod:`repro.bench`
harness (best-of-repeats wall-clock timing):

* WF2Q+'s cost grows ~logarithmically (heap operations only) — asserted
  as a *ratio* between the largest and smallest N, with a CI-safe margin:
  64x more flows must cost far less than 64x per packet;
* a busy-period boundary must cost O(1), not O(N): the bursty on/off
  workload's per-packet cost may not grow materially across a 64x sweep
  of the registered population;
* WFQ's *worst-case* cost is O(N): a single GPS advance can process O(N)
  session-empty events (surfaced with the all-sessions-drain-at-once
  workload; recorded, sanity-checked only).

The measured points are written as plot series
(``benchmarks/results/complexity_*.txt``).  The one bench baseline is the
repo-root ``BENCH_core.json``, whose ``saturated_churn`` and
``bursty_onoff`` families run the same drivers; diff a fresh run against
it with ``python -m repro bench --compare BENCH_core.json``.

pytest-benchmark times the WF2Q+ steady-state path directly (the one
true micro-benchmark in the suite).
"""

import time

from repro.bench import BenchPoint, format_table
from repro.bench.harness import best_of
from repro.bench.scenarios import bursty_cost, churn_cost
from repro.core.packet import Packet
from repro.core.scfq import SCFQScheduler
from repro.core.wf2qplus import WF2QPlusScheduler
from repro.core.wfq import WFQScheduler

SIZES = (16, 64, 256, 1024)


def make(cls, n_flows):
    sched = cls(rate=1e9)
    for f in range(n_flows):
        sched.add_flow(f, 1 + (f % 3))
    return sched


def _measure_sweep(cost_fn, label, **kwargs):
    """One BenchPoint per N in SIZES using the repro.bench drivers."""
    points = []
    for n in SIZES:
        cost = best_of(
            lambda: cost_fn(lambda: make(WF2QPlusScheduler, n), **kwargs),
            repeats=3)
        points.append(BenchPoint(label, "WF2Q+", {"flows": n},
                                 kwargs.get("packets", 0), cost))
    return points


def test_wf2qplus_scaling_is_sublinear(benchmark, results_writer):
    points = benchmark.pedantic(
        _measure_sweep, args=(churn_cost, "saturated_churn"),
        kwargs={"packets": 3000}, rounds=1, iterations=1, warmup_rounds=0)
    results_writer("complexity_wf2qplus.txt", [
        "# WF2Q+ per-packet cost vs N (nanoseconds)",
        *(f"{p.params['flows']:5d} {p.ns_per_packet:.3e}" for p in points),
    ])
    print(format_table(points))
    # Ratio-based, CI-safe: 64x more flows must cost far less than 64x
    # per packet (log-ish growth; 8x leaves room for timer noise while
    # still failing hard on accidental O(N) behaviour).
    ratio = points[-1].ns_per_packet / points[0].ns_per_packet
    assert ratio < 8, (ratio, points)


def test_wf2qplus_busy_period_boundary_is_constant(benchmark,
                                                   results_writer):
    """Epoch-based lazy tag reset: boundaries cost O(1), not O(N).

    Each burst backlogs 8 of N registered flows and then drains, so every
    burst crosses a busy-period boundary.  With the old eager O(N) tag
    sweep the per-packet cost grew linearly in the *registered*
    population; with the epoch counter it must stay flat.
    """
    points = benchmark.pedantic(
        _measure_sweep, args=(bursty_cost, "bursty_onoff"),
        kwargs={"bursts": 150}, rounds=1, iterations=1, warmup_rounds=0)
    results_writer("complexity_bursty.txt", [
        "# WF2Q+ bursty on/off per-packet cost vs registered N (ns)",
        *(f"{p.params['flows']:5d} {p.ns_per_packet:.3e}" for p in points),
    ])
    # 64x more registered flows, same burst size: cost must not grow
    # materially (2.5x margin absorbs CI noise; O(N) would blow far past).
    ratio = points[-1].ns_per_packet / points[0].ns_per_packet
    assert ratio < 2.5, (ratio, points)


def test_wfq_busy_period_boundary_is_linear_in_n(benchmark, results_writer):
    """WFQ's GPS tracking pays O(N) at simultaneous session drains."""
    sizes = [16, 64, 256]
    rows = []

    def sweep():
        for n in sizes:
            sched = make(WFQScheduler, n)
            # All sessions get one packet; the GPS system then drains them
            # all at the same virtual instant -> one advance touches N
            # session-empty events.
            t0 = time.perf_counter()
            for f in range(n):
                sched.enqueue(Packet(f, 100.0), now=0.0)
            while not sched.is_empty:
                sched.dequeue()
            rows.append((n, time.perf_counter() - t0))

    benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    results_writer("complexity_wfq.txt", [
        "# WFQ whole-burst cost vs N (seconds)",
        *(f"{n:5d} {c:.3e}" for n, c in rows),
    ])
    # Just a sanity check that it completes and grows with N.
    assert rows[-1][1] > 0


def test_wf2qplus_steady_state_throughput(benchmark):
    """The headline micro-benchmark: WF2Q+ enqueue+dequeue at N=256."""
    sched = make(WF2QPlusScheduler, 256)
    for f in range(256):
        sched.enqueue(Packet(f, 100.0), now=0.0)

    def churn():
        rec = sched.dequeue()
        sched.enqueue(Packet(rec.flow_id, 100.0), now=rec.finish_time)

    benchmark(churn)


def test_scfq_steady_state_throughput(benchmark):
    """SCFQ is the O(1)-virtual-time baseline to compare against."""
    sched = make(SCFQScheduler, 256)
    for f in range(256):
        sched.enqueue(Packet(f, 100.0), now=0.0)

    def churn():
        rec = sched.dequeue()
        sched.enqueue(Packet(rec.flow_id, 100.0), now=rec.finish_time)

    benchmark(churn)
