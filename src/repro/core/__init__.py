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

from repro.core.packet import Packet
from repro.core.flow import FlowConfig, LeakyBucket
from repro.core.scheduler import PacketScheduler, ScheduledPacket
from repro.core.fifo import FIFOScheduler
from repro.core.gps import GPSFluidSystem
from repro.core.wfq import WFQScheduler
from repro.core.wf2q import WF2QScheduler
from repro.core.wf2qplus import WF2QPlusScheduler
from repro.core.scfq import SCFQScheduler
from repro.core.sfq import SFQScheduler
from repro.core.drr import DRRScheduler
from repro.core.virtual_clock import VirtualClockScheduler
from repro.core.wrr import WRRScheduler
from repro.core.ffq import FFQScheduler
from repro.core.ablation import NoEligibilityWF2QPlus, NoFloorWF2QPlus
from repro.core.hgps import HGPSFluidSystem
from repro.core.hierarchy import (
    HPFQScheduler,
    NodeSpec,
    make_hwf2qplus,
    make_hwfq,
    make_hscfq,
    make_hsfq,
)

__all__ = [
    "Packet",
    "FlowConfig",
    "LeakyBucket",
    "PacketScheduler",
    "ScheduledPacket",
    "FIFOScheduler",
    "GPSFluidSystem",
    "WFQScheduler",
    "WF2QScheduler",
    "WF2QPlusScheduler",
    "SCFQScheduler",
    "SFQScheduler",
    "DRRScheduler",
    "VirtualClockScheduler",
    "WRRScheduler",
    "FFQScheduler",
    "NoEligibilityWF2QPlus",
    "NoFloorWF2QPlus",
    "HGPSFluidSystem",
    "HPFQScheduler",
    "NodeSpec",
    "make_hwf2qplus",
    "make_hwfq",
    "make_hscfq",
    "make_hsfq",
]
