"""repro.obs — structured observability for every scheduler.

The subsystem has four layers, each usable on its own:

* :mod:`repro.obs.events` — the typed event stream (enqueue / dequeue /
  drop / virtual-time / node-restart) and the :class:`EventBus` that
  schedulers emit into.  Emission is a no-op unless an observer is
  attached, so the hot path stays at seed speed.
* :mod:`repro.obs.sinks` — consumers: in-memory ring buffer, JSONL file
  trace, and streaming per-flow metrics with delay histograms.
* :mod:`repro.obs.invariants` — a checker sink that enforces the paper's
  properties (virtual-time monotonicity, SEFF eligibility, backlog
  conservation, hierarchy tag consistency) at the event where they break.
* :mod:`repro.obs.profile` — opt-in wall-clock percentiles for the
  enqueue/dequeue path and the batch-call histogram.

Typical use::

    from repro import WF2QPlusScheduler
    from repro.obs import InvariantChecker, JSONLSink, MetricsSink

    sched = WF2QPlusScheduler(rate=1e9)
    metrics = MetricsSink()
    sched.attach_observer(metrics, InvariantChecker(), JSONLSink("out.jsonl"))
    ...  # run a workload; a violated invariant raises at the bad event
    print(metrics.format_report())
"""

from repro._lazy import lazy_exports

#: Public name -> the module defining it (see :mod:`repro._lazy`).
_EXPORTS = {
    "SchedulerEvent": "repro.obs.events",
    "EnqueueEvent": "repro.obs.events",
    "DequeueEvent": "repro.obs.events",
    "DropEvent": "repro.obs.events",
    "VirtualTimeUpdate": "repro.obs.events",
    "NodeRestart": "repro.obs.events",
    "FaultEvent": "repro.obs.events",
    "IncidentEvent": "repro.obs.events",
    "EventBus": "repro.obs.events",
    "event_from_dict": "repro.obs.events",
    "Sink": "repro.obs.sinks",
    "CallbackSink": "repro.obs.sinks",
    "RingBufferSink": "repro.obs.sinks",
    "JSONLSink": "repro.obs.sinks",
    "read_jsonl": "repro.obs.sinks",
    "MetricsSink": "repro.obs.sinks",
    "FlowMetrics": "repro.obs.sinks",
    "InvariantChecker": "repro.obs.invariants",
    "InvariantViolation": "repro.errors",
    "SchedulerProfiler": "repro.obs.profile",
    "OpStats": "repro.obs.profile",
    "percentile": "repro.obs.profile",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
