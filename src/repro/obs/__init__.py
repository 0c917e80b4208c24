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

from repro.obs.events import (
    DequeueEvent,
    DropEvent,
    EnqueueEvent,
    EventBus,
    FaultEvent,
    IncidentEvent,
    NodeRestart,
    SchedulerEvent,
    VirtualTimeUpdate,
    event_from_dict,
)
from repro.obs.invariants import InvariantChecker, InvariantViolation
from repro.obs.profile import OpStats, SchedulerProfiler, percentile
from repro.obs.sinks import (
    CallbackSink,
    FlowMetrics,
    JSONLSink,
    MetricsSink,
    RingBufferSink,
    Sink,
    read_jsonl,
)

__all__ = [
    "SchedulerEvent",
    "EnqueueEvent",
    "DequeueEvent",
    "DropEvent",
    "VirtualTimeUpdate",
    "NodeRestart",
    "FaultEvent",
    "IncidentEvent",
    "EventBus",
    "event_from_dict",
    "Sink",
    "CallbackSink",
    "RingBufferSink",
    "JSONLSink",
    "read_jsonl",
    "MetricsSink",
    "FlowMetrics",
    "InvariantChecker",
    "InvariantViolation",
    "SchedulerProfiler",
    "OpStats",
    "percentile",
]
