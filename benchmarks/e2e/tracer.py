"""Outside-in layer spans for the ``--trace`` run.

The tracer shadows public entry points of each layer with *instance*
attributes (the :class:`repro.obs.profile.SchedulerProfiler` technique), so
the program's code is untouched and an untraced run pays nothing.  Each
wrapper records one span: its self time is its duration minus the spans
of the wrapped calls it makes, kept on a preallocated depth stack.  The
wrappers have the wrapped method's fixed signature, so a call allocates
nothing beyond what the unwrapped call would.

``Simulator.schedule`` / ``schedule_in`` are wrapped so that every callback
they queue is replaced by a cached timed wrapper, attributed by the type
of the callback's owner: a traffic ``Source`` or a ``Link``.  The
simulator's ``event_hook`` is never set, because setting it disables the
link's burst drain.

A span costs more than the code it times.  ``calibrate`` measures that
cost on a no-op, and ``window`` subtracts it: the part inside a span from
the span's own layer, the part outside it from the caller's layer.  The
correction is approximate, so layer nanoseconds are estimates; call
counts are exact.
"""

import os
import time

from repro.sim.link import Link
from repro.traffic import Source

__all__ = ["Tracer", "LAYERS"]

#: Every layer a span may be attributed to, in report order.
LAYERS = (
    "core.enqueue",
    "core.dequeue",
    "traffic",
    "sim.engine.schedule",
    "sim.engine.loop",
    "sim.link",
    "obs",
    "serve.digest",
    "serve.apply",
    "serve.checkpoint",
    "serve.runner",
    "faults.checkpoint",
    "bench.recorder",
    "other",
)

_SPAN = """
def span({params}):
    t0 = clock()
    d = depth[0] + 1
    depth[0] = d
    child[d] = 0
    kids[d] = 0
    try:
        return fn({args})
    finally:
        dt = clock() - t0
        depth[0] = d - 1
        child[d - 1] += dt
        kids[d - 1] += 1
        acc[0] += dt - child[d]
        acc[1] += 1
        acc[2] += kids[d]
"""

#: Call shapes of the wrapped entry points: (parameters, call arguments).
#: Keyword names match the wrapped methods, because callers pass them by
#: keyword (``enqueue(packet, now=now)``).
_SHAPES = {
    "none": ("", ""),
    "x": ("x", "x"),
    "x_now": ("x, now=None", "x, now"),
    "now": ("now=None", "now"),
    "drain": ("limit, now=None, into=None", "limit, now, into"),
    "args": ("*args", "*args"),
    "run": ("until=None, max_events=None", "until, max_events"),
    "guarded": ("until, max_wall=None, check_every=1024, wall_clock=None",
                "until, max_wall, check_every, wall_clock"),
    "schedule": ("t, callback, *args, priority=0, pooled=False",
                 "t, cache.get(callback) or wrap(callback), *args, "
                 "priority=priority, pooled=pooled"),
}


class Tracer:
    """Span bookkeeping shared by every wrapper of one run."""

    #: Deepest span nesting supported (the stack is preallocated).
    DEPTH = 64

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.depth = [0]
        self.child = [0] * self.DEPTH
        self.kids = [0] * self.DEPTH
        #: layer -> [self ns, calls, wrapped calls made from inside]
        self.layers = {name: [0, 0, 0] for name in LAYERS}
        #: [drain_until calls, packets they returned]
        self.drains = [0, 0]
        #: bytes of every checkpoint file written
        self.save_bytes = []
        #: (ns inside a no-op span, ns the wrapper adds outside it)
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._code = {shape: compile(_SPAN.format(params=p, args=a),
                                     f"<span {shape}>", "exec")
                      for shape, (p, a) in _SHAPES.items()}
        self.reset()

    def span(self, layer, fn, shape, **names):
        """A fixed-signature timed wrapper of ``fn`` charged to ``layer``."""
        namespace = {"clock": self.clock, "depth": self.depth,
                     "child": self.child, "kids": self.kids, "fn": fn,
                     "acc": self.layers[layer], **names}
        exec(self._code[shape], namespace)
        return namespace["span"]

    def _callback(self, callback):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Link):
            return self.span("sim.link", callback, "x")
        if isinstance(owner, Source):
            return self.span("traffic", callback, "args")
        return self.span("other", callback, "args")

    def _shadow(self, obj, method, layer, shape, **names):
        setattr(obj, method,
                self.span(layer, getattr(obj, method), shape, **names))

    def install(self, workload):
        """Wrap the entry points of every layer the workload runs."""
        sim = workload.sim
        link = workload.link
        sched = link.scheduler
        for method in ("enqueue", "enqueue_batch"):
            self._shadow(sched, method, "core.enqueue", "x_now")
        self._shadow(sched, "dequeue", "core.dequeue", "now")
        self._shadow(sched, "dequeue_batch", "core.dequeue", "x_now")
        timed_drain = self.span("core.dequeue", sched.drain_until, "drain")
        drains = self.drains

        def drain_until(limit, now=None, into=None):
            before = 0 if into is None else len(into)
            records = timed_drain(limit, now, into)
            drains[0] += 1
            drains[1] += len(records) - before
            return records

        sched.drain_until = drain_until

        cache = {}

        def wrap(callback):
            timed = cache[callback] = self._callback(callback)
            return timed

        for method in ("schedule", "schedule_in"):
            self._shadow(sim, method, "sim.engine.schedule", "schedule",
                         cache=cache, wrap=wrap)
        self._shadow(sim, "run", "sim.engine.loop", "run")
        self._shadow(sim, "run_guarded", "sim.engine.loop", "guarded")
        self._shadow(link, "send", "sim.link", "x")

        recorder = workload.recorder
        for method in ("record_arrival", "record_arrivals"):
            self._shadow(recorder, method, "bench.recorder", "x_now")
        for method in ("record_service", "record_services"):
            self._shadow(recorder, method, "bench.recorder", "x")

        if sched.observer is not None:
            for sink in sched.observer.sinks:
                self._shadow(sink, "accept", "obs", "x")

        runner = workload.runner
        if runner is None:
            return
        # The runner started its sources while being built, so each
        # source's first emission was queued before these wrappers existed
        # and is charged to the engine loop; every later one is wrapped.
        digest = runner.trace
        for method in ("record_arrival", "record_arrivals"):
            self._shadow(digest, method, "serve.digest", "x_now")
        for method in ("record_service", "record_services"):
            self._shadow(digest, method, "serve.digest", "x")
        self._shadow(runner, "advance", "serve.runner", "x")
        self._shadow(runner, "apply_pending", "serve.apply", "none")
        self._shadow(runner, "checkpoint", "serve.checkpoint", "none")
        store = runner.store
        timed_save = self.span("faults.checkpoint", store.save, "x")
        sizes = self.save_bytes

        def save(payload):
            path = timed_save(payload)
            sizes.append(os.path.getsize(path))
            return path

        store.save = save

    def reset(self):
        """Forget every span recorded so far (keeps the wrappers)."""
        for acc in self.layers.values():
            acc[:] = [0, 0, 0]
        self._seen = {name: [0, 0, 0] for name in self.layers}
        self.drains[:] = [0, 0]
        self.save_bytes.clear()
        self.child[0] = 0
        self.kids[0] = 0

    def window(self):
        """Self ns per layer since the previous call, wrapper cost removed.

        A span's own clock reads (``inner_ns``) come off its layer; the
        call overhead its wrapper adds outside the span (``outer_ns``)
        comes off the layer that made the call.
        """
        out = {}
        seen = self._seen
        inner = self.inner_ns
        outer = self.outer_ns
        for name, acc in self.layers.items():
            last = seen[name]
            out[name] = ((acc[0] - last[0]) - (acc[1] - last[1]) * inner
                         - (acc[2] - last[2]) * outer)
            last[:] = acc
        return out

    def calibrate(self, calls=20000, trials=7):
        """Measure the wrapper's own cost per call on a no-op.

        ``inner_ns`` is what a span adds to its own measured time (the
        clock reads), ``outer_ns`` what a wrapped call adds to its caller
        outside the span.  Each quantity keeps its minimum over
        ``trials``: noise only adds time.
        """
        def noop():
            return None

        probe = [0, 0, 0]
        self.layers["calibrate"] = probe
        timed = self.span("calibrate", noop, "none")
        del self.layers["calibrate"]
        clock = self.clock
        best_loop = best_bare = best_wrapped = best_inner = float("inf")
        for _ in range(trials):
            t0 = clock()
            for _ in range(calls):
                pass
            best_loop = min(best_loop, (clock() - t0) / calls)
            t0 = clock()
            for _ in range(calls):
                noop()
            best_bare = min(best_bare, (clock() - t0) / calls)
            probe[0] = 0
            t0 = clock()
            for _ in range(calls):
                timed()
            best_wrapped = min(best_wrapped, (clock() - t0) / calls)
            best_inner = min(best_inner, probe[0] / calls)
        noop_call = max(0.0, best_bare - best_loop)
        self.inner_ns = max(0.0, best_inner - noop_call)
        self.outer_ns = max(0.0, best_wrapped - best_loop - best_inner)
        self.reset()
