"""Theorems 1-4 — measured WFI and delay against the closed forms.

Not a figure in the paper but the analytical backbone of Section 3: for
each one-level scheduler we measure the empirical B-WFI on the Figure 2
worst-case workload and on random backlog, and check

* WF2Q / WF2Q+ stay within the Theorem 3/4 value (independent of N),
* WFQ's and SCFQ's measured B-WFI grows ~linearly with N,
* the H-WF2Q+ session B-WFI stays within Theorem 1's weighted sum,
* every WFQ/WF2Q/WF2Q+ packet finishes within L_max/r of its GPS fluid
  finish (the Parekh-Gallager bound), with the GPS side computed by
  :func:`~repro.analysis.fluid.fluid_finish_times`, which drives the
  online :class:`~repro.core.gps.GPSFluidSystem`.
"""

from repro.analysis.bounds import hpfq_bwfi, wf2q_wfi
from repro.analysis.fluid import fluid_finish_times
from repro.analysis.wfi import empirical_bwfi
from repro.core.scfq import SCFQScheduler
from repro.core.wf2q import WF2QScheduler
from repro.core.wf2qplus import WF2QPlusScheduler
from repro.core.wfq import WFQScheduler
from repro.config.hierarchy_spec import HierarchySpec, leaf, node
from repro.core.hierarchy import HPFQScheduler
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import ServiceTrace
from repro.traffic.source import TraceSource

from benchmarks.conftest import run_once


def fig2_like_trace(make_sched, n_sessions):
    """Session 1 (share 1/2) bursts n_sessions packets; the other
    n_sessions-1 sessions (sharing the other 1/2) send one packet each."""
    sched = make_sched()
    sched.add_flow(1, 0.5)
    small = 0.5 / (n_sessions - 1)
    for j in range(2, n_sessions + 1):
        sched.add_flow(j, small)
    sim = Simulator()
    trace = ServiceTrace()
    link = Link(sim, sched, trace=trace)
    TraceSource(1, [0.0] * n_sessions, 1.0).attach(sim, link).start()
    for j in range(2, n_sessions + 1):
        TraceSource(j, [0.0], 1.0).attach(sim, link).start()
    sim.run(until=10.0 * n_sessions)
    return trace


def measure_all(sizes):
    out = {}
    for cls in (WFQScheduler, SCFQScheduler, WF2QScheduler,
                WF2QPlusScheduler):
        series = []
        for n in sizes:
            trace = fig2_like_trace(lambda: cls(1.0), n)
            series.append((n, empirical_bwfi(trace, 1, 0.5)))
        out[cls.name] = series
    return out


def test_wfi_vs_n(benchmark, results_writer):
    sizes = [6, 11, 21, 41]
    measured = run_once(benchmark, measure_all, sizes)

    lines = ["# Empirical B-WFI of session 1 (bits == packets) vs N",
             "# N " + " ".join(f"{name:>8s}" for name in measured)]
    for i, n in enumerate(sizes):
        row = f"{n:3d} " + " ".join(
            f"{measured[name][i][1]:8.3f}" for name in measured)
        lines.append(row)
    theory = wf2q_wfi(1.0, 1.0, 0.5, 1.0)
    lines.append(f"# Theorem 3/4 value for WF2Q/WF2Q+: {theory}")
    results_writer("wfi_vs_n.txt", lines)

    # WF2Q/WF2Q+ flat in N and within the theorem (plus epsilon).
    for name in ("WF2Q", "WF2Q+"):
        for _n, alpha in measured[name]:
            assert alpha <= theory + 1e-6
    # WFQ grows ~linearly: quadrupling N must at least triple the WFI.
    wfq = dict(measured["WFQ"])
    assert wfq[41] >= 3 * wfq[11]
    # And WFQ at N=41 dwarfs WF2Q+ at N=41.
    w2qp = dict(measured["WF2Q+"])
    assert wfq[41] > 5 * max(w2qp[41], theory)


def test_gps_relative_delay_bound(benchmark, results_writer):
    """Packet finishes stay within L_max/r of the GPS fluid finishes.

    The Parekh-Gallager property (eq. (1): d_p <= d_p^GPS + L_max/r)
    holds for WFQ, WF2Q and WF2Q+ packet by packet.  The GPS side is the
    batched fluid reference — two busy periods, a 120-packet burst each —
    which would previously have meant driving ``GPSFluidSystem`` through
    every one of the ~360 packets per scheduler; the whole-trace path
    computes the same (bit-identical) tags from three cumsum groups, and
    the exact online system cross-checks it inside the test.
    """
    n_small = 30
    rate = 1.0
    flows = [(1, 0.5)] + [(j, 0.5 / n_small) for j in range(2, n_small + 2)]
    # Mixed packet sizes keep the packet/fluid quantisation gap nonzero
    # (uniform sizes make every excess land at exactly zero).
    lengths = {fid: 1.0 if fid == 1 else 2.5 for fid, _share in flows}
    l_max = max(lengths.values())
    bursts = [(0.0, 120), (400.0, 60)]  # (instant, session-1 packets)
    arrivals = []
    for when, n_big in bursts:
        arrivals.extend([(1, lengths[1], when)] * n_big)
        arrivals.extend((j, lengths[j], when) for j in range(2, n_small + 2))

    def run():
        out = {}
        for cls in (WFQScheduler, WF2QScheduler, WF2QPlusScheduler):
            sched = cls(rate)
            for flow_id, share in flows:
                sched.add_flow(flow_id, share)
            sim = Simulator()
            trace = ServiceTrace()
            link = Link(sim, sched, trace=trace)
            times = {}
            for flow_id, _share in flows:
                times[flow_id] = [when for when, n_big in bursts
                                  for _ in range(n_big if flow_id == 1
                                                 else 1)]
            for flow_id, schedule in times.items():
                TraceSource(flow_id, schedule, lengths[flow_id]).attach(
                    sim, link).start()
            sim.run(until=1200.0)
            out[cls.name] = trace
        return out

    traces = run_once(benchmark, run)
    gps = fluid_finish_times(flows, arrivals, rate)
    check = fluid_finish_times(flows, arrivals, rate, exact=True)
    assert [p.finish_time for p in gps] == [p.finish_time for p in check]
    gps_by_flow = {}
    for pkt in gps:
        gps_by_flow.setdefault(pkt.flow_id, []).append(pkt.finish_time)

    lines = ["# max (packet finish - GPS fluid finish), bound = L_max/r"
             f" = {l_max / rate}"]
    for name, trace in traces.items():
        worst = -float("inf")
        for flow_id, fluid_finishes in gps_by_flow.items():
            served = trace.services_of(flow_id)
            assert len(served) == len(fluid_finishes)
            # Both systems serve each flow FIFO, so k-th record pairs
            # with k-th fluid packet.
            for record, fluid_finish in zip(served, fluid_finishes):
                worst = max(worst, record.finish_time - fluid_finish)
        lines.append(f"{name:8s} max_excess={worst:.6f}")
        assert worst <= l_max / rate + 1e-9
        assert worst > 0.0  # the workload genuinely exercises the bound
    results_writer("gps_relative_delay.txt", lines)


def test_hierarchical_wfi_theorem1(benchmark, results_writer):
    """Measured session B-WFI in a 3-level H-WF2Q+ stays within the
    Theorem 1 weighted sum of per-node WFIs."""
    spec = HierarchySpec(node("root", 1, [
        node("n2", 1, [
            node("n1", 3, [leaf("i", 1), leaf("s1", 1)]),
            leaf("s2", 1),
        ]),
        leaf("s3", 1),
    ]))

    def run():
        sched = HPFQScheduler(spec, 1.0, policy="wf2qplus")
        sim = Simulator()
        trace = ServiceTrace()
        link = Link(sim, sched, trace=trace)
        for name in ("i", "s1", "s2", "s3"):
            TraceSource(name, [0.0] * 120, 1.0).attach(sim, link).start()
        sim.run(until=600.0)
        return trace

    trace = run_once(benchmark, run)
    r_i = float(spec.guaranteed_rate("i", 1.0))
    alpha = empirical_bwfi(trace, "i", r_i)
    bound = float(hpfq_bwfi(spec, "i", 1.0, lambda n: 1.0))
    results_writer("wfi_hierarchical.txt", [
        "# 3-level H-WF2Q+ B-WFI for leaf 'i'",
        f"measured={alpha:.4f} theorem1_bound={bound:.4f} r_i={r_i:.4f}",
    ])
    assert alpha <= bound + 1e-6
