"""repro.serve — crash-tolerant long-lived service mode.

Three pieces:

* :mod:`repro.serve.runner` — :class:`ServiceRunner`: one scheduling
  cell run as a service with streaming ingest, live metric snapshots,
  mid-run reconfiguration commands, durable atomic checkpoints,
  invariant-violation quarantine, idle-flow eviction, and a stall
  watchdog; :class:`DigestTrace` is the constant-memory chained service
  digest that makes recovery exactness checkable.
* :mod:`repro.serve.supervisor` — :class:`Supervisor` /
  :func:`supervise`: bounded-retry restarts from the latest good
  checkpoint with exponential backoff.
* :mod:`repro.serve.soak` — the kill/recover soak harness behind
  ``python -m repro serve --soak`` and CI's ``soak-smoke`` gate.
"""

from repro._lazy import lazy_exports

#: Public name -> the module defining it (see :mod:`repro._lazy`).
_EXPORTS = {
    "ServiceRunner": "repro.serve.runner",
    "DigestTrace": "repro.serve.runner",
    "Supervisor": "repro.serve.supervisor",
    "supervise": "repro.serve.supervisor",
    "run_soak": "repro.serve.soak",
    "build_service_spec": "repro.serve.soak",
    "format_soak": "repro.serve.soak",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
