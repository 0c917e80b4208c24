"""repro.faults — deterministic fault injection, live reconfiguration
helpers, and checkpoint/restore for the scheduler zoo.

Three pieces:

* :mod:`repro.faults.plan` — :class:`FaultPlan` (a seeded, deterministic
  schedule of adverse events) and :class:`FaultInjector` (compiles a
  plan into simulator events, emitting typed
  :class:`~repro.obs.events.FaultEvent` records).
* :mod:`repro.faults.chaos` — canned scenarios (link flap, churn storm,
  share renegotiation, buffer pressure) run under the invariant checker
  with an exact conservation verdict; the CI smoke gate and the
  ``python -m repro chaos`` entry point.
* :mod:`repro.faults.checkpoint` — joint Simulator+Link+scheduler
  checkpoints for in-process rollback.
"""

from repro._lazy import lazy_exports

# ``checkpoint`` names both a function and the submodule defining it.
# Bound lazily, it would read as the module once anything imported
# ``repro.faults.checkpoint``, so it is bound here.
from repro.faults.checkpoint import checkpoint

#: Public name -> the module defining it (see :mod:`repro._lazy`).
_EXPORTS = {
    "FaultAction": "repro.faults.plan",
    "FaultInjector": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "ChaosResult": "repro.faults.chaos",
    "SCENARIOS": "repro.faults.chaos",
    "CHAOS_SCHEDULERS": "repro.faults.chaos",
    "run_chaos": "repro.faults.chaos",
    "run_all": "repro.faults.chaos",
    "rollback": "repro.faults.checkpoint",
    "save_checkpoint": "repro.faults.checkpoint",
    "load_checkpoint": "repro.faults.checkpoint",
    "CheckpointStore": "repro.faults.checkpoint",
    "CHECKPOINT_MAGIC": "repro.faults.checkpoint",
    "CHECKPOINT_VERSION": "repro.faults.checkpoint",
}

__all__ = [*_EXPORTS, "checkpoint"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
