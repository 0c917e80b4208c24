"""GPS fluid reference for a whole arrival trace.

:func:`fluid_finish_times` drives the online
:class:`~repro.core.gps.GPSFluidSystem` — one ``arrive`` per packet, then
a drain — and hands back the virtual tags and real fluid finish times of
eqs. (4)-(7) that the WFI and delay analyses compare packet systems
against.  The fluid system is numeric-type-agnostic, so ``Fraction``
inputs give an exact reference and float inputs a float one.
"""

from repro.core.gps import GPSFluidSystem

__all__ = ["fluid_finish_times"]


def fluid_finish_times(flows, arrivals, rate, exact=False):
    """GPS virtual tags and real fluid finish times for a whole trace.

    ``flows`` is ``[(flow_id, share), ...]``; ``arrivals`` is
    ``[(flow_id, length, arrival_time), ...]`` with non-decreasing
    arrival times.  Returns one :class:`~repro.core.gps.GPSPacket` per
    arrival **in input order**, with ``virtual_start`` /
    ``virtual_finish`` / ``finish_time`` filled.

    ``exact`` is accepted for older callers and changes nothing: there is
    one computation, and it is exact under ``Fraction`` inputs.
    """
    system = GPSFluidSystem(rate)
    for flow_id, share in flows:
        system.add_flow(flow_id, share)
    packets = [system.arrive(flow_id, length, when)
               for flow_id, length, when in arrivals]
    system.finish_order()  # drain: fills every finish_time in place
    return packets
