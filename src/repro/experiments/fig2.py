"""Figure 2: the canonical WFQ-vs-WF2Q example (Section 3.1).

Eleven sessions share a unit-rate link with unit packets.  Session 1 has
share 0.5 and sends 11 back-to-back packets at t=0; sessions 2-11 have
share 0.05 each and send one packet at t=0.

The paper's timelines:

* **GPS** finishes session-1 packet k at time 2k (k=1..10), packet 11 at 21,
  and every other session's packet at 20.
* **WFQ** (SFF) transmits session 1's first ten packets back to back
  (inaccuracy of N/2 packets), then the ten other packets, then p1^11.
* **WF2Q / WF2Q+** (SEFF) alternate session 1 with the others, never running
  more than one packet ahead of GPS.

All quantities here are exact when called with
:class:`fractions.Fraction` inputs (the default).
"""

from fractions import Fraction

from repro.core.gps import GPSFluidSystem
from repro.core.packet import Packet

__all__ = ["fig2_schedule", "fig2_gps_departures", "run_fig2",
           "FIG2_SESSIONS", "FIG2_BURST"]

#: Number of sessions in the example.
FIG2_SESSIONS = 11
#: Back-to-back packets sent by session 1.
FIG2_BURST = 11


def _shares():
    yield 1, Fraction(1, 2)
    for j in range(2, FIG2_SESSIONS + 1):
        yield j, Fraction(1, 20)


def _arrivals():
    """(flow_id, length, time) triplets of the example, in enqueue order."""
    for _k in range(FIG2_BURST):
        yield 1, Fraction(1), Fraction(0)
    for j in range(2, FIG2_SESSIONS + 1):
        yield j, Fraction(1), Fraction(0)


def fig2_schedule(scheduler_cls):
    """Run the example through a scheduler class; returns the list of
    (flow_id, start_time, finish_time) in service order."""
    sched = scheduler_cls(rate=Fraction(1))
    for flow_id, share in _shares():
        sched.add_flow(flow_id, share)
    for flow_id, length, t in _arrivals():
        sched.enqueue(Packet(flow_id, length), now=t)
    return [
        (rec.flow_id, rec.start_time, rec.finish_time)
        for rec in sched.drain()
    ]


def fig2_gps_departures():
    """The fluid GPS timeline: [(flow_id, finish_time)] in finish order."""
    gps = GPSFluidSystem(Fraction(1))
    for flow_id, share in _shares():
        gps.add_flow(flow_id, share)
    for flow_id, length, t in _arrivals():
        gps.arrive(flow_id, length, t)
    return [(p.flow_id, p.finish_time) for p in gps.finish_order()]


def run_fig2(scheduler_classes):
    """Run the example under several schedulers plus GPS.

    Returns ``{"GPS": [(flow, finish)], name: [(flow, start, finish)], ...}``
    keyed by each scheduler's ``name``.
    """
    out = {"GPS": fig2_gps_departures()}
    for cls in scheduler_classes:
        out[cls.name] = fig2_schedule(cls)
    return out


def service_discrepancy_vs_gps(schedule, horizon=None):
    """Max |bits served by the packet system - bits served by GPS| for
    session 1, sampled at each packet boundary of the schedule.

    For WF2Q this is < 1 packet (the Section 3.3 claim); for WFQ it reaches
    ~N/2 packets around t = 10.
    """
    gps = GPSFluidSystem(Fraction(1))
    for flow_id, share in _shares():
        gps.add_flow(flow_id, share)
    for flow_id, length, t in _arrivals():
        gps.arrive(flow_id, length, t)
    worst = Fraction(0)
    served = Fraction(0)
    for flow_id, _start, finish in schedule:
        if horizon is not None and finish > horizon:
            break
        if flow_id == 1:
            served += 1
        fluid = gps.service_received(1, finish)
        gap = abs(served - fluid)
        if gap > worst:
            worst = gap
    return worst
