"""Discrete-event simulation substrate.

The paper's experiments ran on MIT's NETSIM simulator; this package is the
from-scratch equivalent: a deterministic event loop (:class:`Simulator`), an
output link that drives any :class:`~repro.core.scheduler.PacketScheduler`
(:class:`Link`), and measurement probes (:class:`ServiceTrace`,
:class:`DelayMonitor`).
"""

from repro._lazy import lazy_exports

#: Public name -> the module defining it (see :mod:`repro._lazy`).
_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "Event": "repro.sim.engine",
    "Link": "repro.sim.link",
    "ServiceTrace": "repro.sim.monitor",
    "DelayMonitor": "repro.sim.monitor",
    "Network": "repro.sim.network",
    "DeliveryLog": "repro.sim.network",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
