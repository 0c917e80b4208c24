"""repro — Hierarchical Packet Fair Queueing algorithms.

A from-scratch reproduction of *Hierarchical Packet Fair Queueing
Algorithms* (Bennett & Zhang, SIGCOMM 1996): the WF2Q+ scheduler, the H-PFQ
construction (H-WF2Q+, H-WFQ, H-SCFQ, H-SFQ), fluid GPS / H-GPS references,
the classical baselines (WFQ, WF2Q, SCFQ, SFQ, DRR, FIFO), a discrete-event
simulator with traffic sources and a small TCP Reno model, and the paper's
delay/fairness analysis toolkit (B-WFI, T-WFI, SBI, Theorems 1-4 bounds).

Quickstart::

    from repro import WF2QPlusScheduler, Packet

    sched = WF2QPlusScheduler(rate=1_000_000)
    sched.add_flow("voice", share=3)
    sched.add_flow("bulk", share=1)
    sched.enqueue(Packet("voice", length=8_000), now=0.0)
    sched.enqueue(Packet("bulk", length=8_000), now=0.0)
    record = sched.dequeue()          # -> ScheduledPacket for "voice"

See ``examples/quickstart.py`` for the guided tour and DESIGN.md for the
paper-to-module map.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the module defining it (see :mod:`repro._lazy`).
_EXPORTS = {
    "Packet": "repro.core.packet",
    "FlowConfig": "repro.core.flow",
    "LeakyBucket": "repro.core.flow",
    "PacketScheduler": "repro.core.scheduler",
    "ScheduledPacket": "repro.core.scheduler",
    "FIFOScheduler": "repro.core.fifo",
    "DRRScheduler": "repro.core.drr",
    "GPSFluidSystem": "repro.core.gps",
    "WFQScheduler": "repro.core.wfq",
    "WF2QScheduler": "repro.core.wf2q",
    "WF2QPlusScheduler": "repro.core.wf2qplus",
    "SCFQScheduler": "repro.core.scfq",
    "SFQScheduler": "repro.core.sfq",
    "VirtualClockScheduler": "repro.core.virtual_clock",
    "WRRScheduler": "repro.core.wrr",
    "FFQScheduler": "repro.core.ffq",
    "HGPSFluidSystem": "repro.core.hgps",
    "HPFQScheduler": "repro.core.hierarchy",
    "HierarchySpec": "repro.config.hierarchy_spec",
    "NodeSpec": "repro.config.hierarchy_spec",
    "leaf": "repro.config.hierarchy_spec",
    "node": "repro.config.hierarchy_spec",
    "make_hwf2qplus": "repro.core.hierarchy",
    "make_hwfq": "repro.core.hierarchy",
    "make_hscfq": "repro.core.hierarchy",
    "make_hsfq": "repro.core.hierarchy",
    "ReproError": "repro.errors",
    "ConfigurationError": "repro.errors",
    "SchedulerError": "repro.errors",
    "UnknownFlowError": "repro.errors",
    "EmptySchedulerError": "repro.errors",
    "HierarchyError": "repro.errors",
    "InvariantViolation": "repro.errors",
    "SimulationError": "repro.errors",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
