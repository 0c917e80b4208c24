"""Core scheduling algorithms.

One-level Packet Fair Queueing (PFQ) servers:

* :class:`~repro.core.gps.GPSFluidSystem` — the fluid Generalized Processor
  Sharing reference (not realisable; used as ground truth).
* :class:`~repro.core.wfq.WFQScheduler` — Weighted Fair Queueing / PGPS
  (Smallest virtual Finish time First over exact GPS tags).
* :class:`~repro.core.wf2q.WF2QScheduler` — Worst-case Fair WFQ (SEFF over
  exact GPS tags).
* :class:`~repro.core.wf2qplus.WF2QPlusScheduler` — **the paper's
  contribution**: SEFF with the eq. (27) virtual time; O(log N).
* :class:`~repro.core.scfq.SCFQScheduler` — Self-Clocked Fair Queueing.
* :class:`~repro.core.sfq.SFQScheduler` — Start-time Fair Queueing.
* :class:`~repro.core.drr.DRRScheduler` — Deficit Round Robin.
* :class:`~repro.core.fifo.FIFOScheduler` — first-in first-out baseline.

Hierarchical servers:

* :class:`~repro.core.hierarchy.HPFQScheduler` — the Section 4 H-PFQ
  construction, generic in the per-node policy (H-WF2Q+, H-WFQ, H-SCFQ, ...).
* :class:`~repro.core.hgps.HGPSFluidSystem` — the fluid H-GPS reference.
"""

from repro._lazy import lazy_exports

#: Public name -> the module defining it (see :mod:`repro._lazy`).
_EXPORTS = {
    "Packet": "repro.core.packet",
    "FlowConfig": "repro.core.flow",
    "LeakyBucket": "repro.core.flow",
    "PacketScheduler": "repro.core.scheduler",
    "ScheduledPacket": "repro.core.scheduler",
    "FIFOScheduler": "repro.core.fifo",
    "GPSFluidSystem": "repro.core.gps",
    "WFQScheduler": "repro.core.wfq",
    "WF2QScheduler": "repro.core.wf2q",
    "WF2QPlusScheduler": "repro.core.wf2qplus",
    "SCFQScheduler": "repro.core.scfq",
    "SFQScheduler": "repro.core.sfq",
    "DRRScheduler": "repro.core.drr",
    "VirtualClockScheduler": "repro.core.virtual_clock",
    "WRRScheduler": "repro.core.wrr",
    "FFQScheduler": "repro.core.ffq",
    "NoEligibilityWF2QPlus": "repro.core.ablation",
    "NoFloorWF2QPlus": "repro.core.ablation",
    "HGPSFluidSystem": "repro.core.hgps",
    "HPFQScheduler": "repro.core.hierarchy",
    "NodeSpec": "repro.config.hierarchy_spec",
    "make_hwf2qplus": "repro.core.hierarchy",
    "make_hwfq": "repro.core.hierarchy",
    "make_hscfq": "repro.core.hierarchy",
    "make_hsfq": "repro.core.hierarchy",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
