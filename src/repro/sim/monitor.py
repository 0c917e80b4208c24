"""Measurement probes: service traces and delay monitors.

:class:`ServiceTrace` is the primary artifact of every simulation — a list
of per-packet arrival and service records that the analysis modules turn
into the paper's figures:

* delay-vs-time series (Figures 4, 6, 7) via :meth:`ServiceTrace.delays`;
* arrival/service step curves (Figure 5) via :meth:`ServiceTrace.arrival_curve`
  and :meth:`ServiceTrace.service_curve`;
* bandwidth-vs-time (Figure 9) via
  :func:`repro.analysis.bandwidth.exponential_average`;
* empirical B-WFI / T-WFI via :mod:`repro.analysis.wfi`.
"""

from collections import defaultdict

__all__ = ["ServiceTrace", "DelayMonitor"]


class ServiceTrace:
    """Records every arrival and every completed transmission at a link."""

    def __init__(self):
        #: list of (flow_id, time, length) in arrival order
        self.arrivals = []
        #: list of ScheduledPacket in service order
        self.services = []
        self._arrivals_by_flow = defaultdict(list)
        self._services_by_flow = defaultdict(list)

    def record_arrival(self, packet, now):
        entry = (packet.flow_id, now, packet.length)
        self.arrivals.append(entry)
        self._arrivals_by_flow[packet.flow_id].append(entry)

    def record_arrivals(self, packets, now):
        """Record a same-instant chunk of arrivals."""
        arrivals = self.arrivals
        by_flow = self._arrivals_by_flow
        for packet in packets:
            entry = (packet.flow_id, now, packet.length)
            arrivals.append(entry)
            by_flow[packet.flow_id].append(entry)

    def record_service(self, record):
        self.services.append(record)
        self._services_by_flow[record.flow_id].append(record)

    def record_services(self, records):
        """Record a chunk of service records (the batch drain path)."""
        self.services.extend(records)
        by_flow = self._services_by_flow
        for record in records:
            by_flow[record.flow_id].append(record)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def flows(self):
        seen = set(self._arrivals_by_flow) | set(self._services_by_flow)
        return sorted(seen, key=str)

    def services_of(self, flow_id):
        return list(self._services_by_flow.get(flow_id, []))

    def arrivals_of(self, flow_id):
        return list(self._arrivals_by_flow.get(flow_id, []))

    def packets_served(self, flow_id=None):
        if flow_id is None:
            return len(self.services)
        return len(self._services_by_flow.get(flow_id, []))

    def bits_served(self, flow_id=None, until=None):
        records = self.services if flow_id is None else self._services_by_flow.get(flow_id, [])
        if until is None:
            return sum(r.packet.length for r in records)
        return sum(r.packet.length for r in records if r.finish_time <= until)

    def delays(self, flow_id):
        """[(arrival_time, delay)] for each served packet of a flow.

        Delay is measured from arrival at the link to the end of
        transmission, the quantity plotted in Figures 4, 6, and 7.
        """
        out = []
        for record in self._services_by_flow.get(flow_id, []):
            arrival = record.packet.arrival_time
            if arrival is not None:
                out.append((arrival, record.finish_time - arrival))
        return out

    def max_delay(self, flow_id):
        d = self.delays(flow_id)
        return max(v for _, v in d) if d else 0.0

    def mean_delay(self, flow_id):
        d = self.delays(flow_id)
        return sum(v for _, v in d) / len(d) if d else 0.0

    # ------------------------------------------------------------------
    # Cumulative curves (Figure 5)
    # ------------------------------------------------------------------
    def arrival_curve(self, flow_id, unit="packets"):
        """Step curve [(time, cumulative)] of arrivals for a flow."""
        total = 0
        curve = []
        for _fid, t, length in self._arrivals_by_flow.get(flow_id, []):
            total += 1 if unit == "packets" else length
            curve.append((t, total))
        return curve

    def service_curve(self, flow_id, unit="packets"):
        """Step curve [(time, cumulative)] of completed service for a flow."""
        total = 0
        curve = []
        for record in self._services_by_flow.get(flow_id, []):
            total += 1 if unit == "packets" else record.packet.length
            curve.append((record.finish_time, total))
        return curve

    def __repr__(self):
        return (
            f"ServiceTrace(arrivals={len(self.arrivals)}, "
            f"services={len(self.services)})"
        )


class DelayMonitor:
    """Streaming per-flow delay statistics (no per-packet storage).

    Useful for long simulations where a full :class:`ServiceTrace` would be
    memory-heavy.  Register it as a link receiver, or feed it records.
    """

    def __init__(self):
        self._count = defaultdict(int)
        self._sum = defaultdict(float)
        self._max = defaultdict(float)

    def observe(self, record):
        arrival = record.packet.arrival_time
        if arrival is None:
            return
        delay = record.finish_time - arrival
        fid = record.flow_id
        self._count[fid] += 1
        self._sum[fid] += delay
        if delay > self._max[fid]:
            self._max[fid] = delay

    def count(self, flow_id):
        return self._count[flow_id]

    def mean(self, flow_id):
        if not self._count[flow_id]:
            return 0.0
        return self._sum[flow_id] / self._count[flow_id]

    def maximum(self, flow_id):
        return self._max[flow_id]

    def flows(self):
        return sorted(self._count, key=str)
