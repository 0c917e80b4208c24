"""The long-lived service runner: streaming ingest, live reconfiguration,
checkpoints, and graceful degradation for one scheduling cell.

A :class:`ServiceRunner` hosts a single flat or hierarchical cell — the
same plain-data spec :mod:`repro.shard.worker` runs to a fixed horizon —
but drives it as a *service*: arrivals stream in indefinitely
(:meth:`advance` has no final horizon), metric snapshots are served live
(:meth:`status`, :meth:`metrics_report`), and reconfiguration commands
(:meth:`submit`) apply at run boundaries while mutating the *effective
spec* in lockstep, so a recovery rebuilds the post-command world without
replaying a command log.

Crash tolerance is checkpoint-shaped.  Every ``checkpoint_every``
simulated seconds the runner persists a self-contained payload — the
effective spec, the joint link+scheduler snapshot, per-source emission
snapshots, and the running service digest — through the atomic
:class:`~repro.faults.checkpoint.CheckpointStore`.  Each checkpoint is
pickled once; the same bytes are the file's payload and the in-memory
rollback point, so later commands cannot reach back into it.  A fresh
process (or the in-process :class:`~repro.serve.supervisor.Supervisor`)
rebuilds from the newest verifiable file with
:meth:`ServiceRunner.recover`; the arrival streams replay bit-identically
from their snapshots, so the chained service digest of a
killed-and-recovered service is byte-identical to an uninterrupted run —
the property the soak harness (:mod:`repro.serve.soak`) and CI pin down.

Degradation ladder, mildest first:

* **idle-flow eviction** (``idle_ttl``) bounds memory on flow churn:
  per-flow state of long-idle flows is dropped via the scheduler's
  provably service-order-neutral
  :meth:`~repro.core.scheduler.PacketScheduler.evict_idle_flow` and
  resurrected exactly on the next arrival;
* **quarantine**: an :class:`~repro.errors.InvariantViolation` raised by
  the attached checker names an offending flow — the runner emits a
  typed :class:`~repro.obs.events.IncidentEvent`, blocklists the flow's
  ingress, rolls back to the last checkpoint *minus that flow's
  sources*, and keeps serving everyone else (the flow's residual backlog
  drains and the flow is detached, with exact rate rebasing, at the next
  quiescent boundary);
* **watchdog**: no simulated-time progress within ``stall_wall`` wall
  seconds raises :class:`~repro.errors.ServiceStall` for the supervisor;
* **crash**: anything unrecoverable raises
  :class:`~repro.errors.ServiceCrash`; the supervisor restarts from the
  latest good checkpoint with bounded retries and exponential backoff.
"""

import copy
import hashlib
import time
from collections import deque
from fractions import Fraction

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    InvariantViolation,
    ReproError,
    ServiceCrash,
    ServiceStall,
)

__all__ = ["ServiceRunner", "DigestTrace"]


def _canon(value):
    """Canonical text of one digest field; exact for Fractions."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


#: Field types whose ``repr`` is their :func:`_canon` text.  Testing the
#: exact type skips ``isinstance(value, Fraction)``, which goes through
#: ``ABCMeta.__instancecheck__``; subclasses still take :func:`_canon`.
_REPR_TYPES = frozenset((float, int, str))


class DigestTrace:
    """A constant-memory ServiceTrace stand-in that folds every completed
    transmission into a chained SHA-256 digest.

    Implements the duck interface the :class:`~repro.sim.link.Link`
    expects of its ``trace`` (``record_arrival(s)`` / ``record_service(s)``)
    without retaining per-packet records: each service row
    ``(flow_id, seqno, length, start, finish, vstart, vfinish)`` — with
    ``Fraction`` tags rendered exactly as ``num/den`` — is hashed into
    ``digest = sha256(prev_digest || row)``, so two runs share a digest
    iff they served the *same packets in the same order with the same
    tags*.  Arrival times feed the per-flow ``last_active`` map the
    runner's idle-flow eviction sweeps read.

    The chain state is tiny and picklable (:meth:`snapshot` /
    :meth:`restore`), which is what makes the killed-and-recovered
    service digest comparable to the uninterrupted run's.
    """

    SEED = "repro-serve-digest-v1"

    def __init__(self):
        self.digest = hashlib.sha256(self.SEED.encode()).hexdigest()
        self.rows = 0
        self.arrivals = 0
        #: flow_id -> last arrival or service-completion time seen.
        self.last_active = {}

    # -- ServiceTrace duck interface -----------------------------------
    def record_arrival(self, packet, now):
        self.arrivals += 1
        self.last_active[packet.flow_id] = now

    def record_arrivals(self, packets, now):
        self.arrivals += len(packets)
        active = self.last_active
        for packet in packets:
            active[packet.flow_id] = now

    def record_service(self, record):
        packet = record.packet
        row = "|".join([
            repr(value) if type(value) in _REPR_TYPES else _canon(value)
            for value in (packet.flow_id, packet.seqno, packet.length,
                          record.start_time, record.finish_time,
                          record.virtual_start, record.virtual_finish)])
        self.digest = hashlib.sha256(
            (self.digest + row).encode()).hexdigest()
        self.rows += 1
        self.last_active[packet.flow_id] = record.finish_time

    def record_services(self, records):
        for record in records:
            self.record_service(record)

    # -- checkpoint ----------------------------------------------------
    def snapshot(self):
        return {"digest": self.digest, "rows": self.rows,
                "arrivals": self.arrivals,
                "last_active": dict(self.last_active)}

    def restore(self, snap):
        self.digest = snap["digest"]
        self.rows = snap["rows"]
        self.arrivals = snap["arrivals"]
        self.last_active = dict(snap["last_active"])

    def __repr__(self):
        return f"DigestTrace(rows={self.rows}, digest={self.digest[:12]}…)"


# ----------------------------------------------------------------------
# Effective-spec surgery for hierarchical trees
# ----------------------------------------------------------------------
def _tree_set_share(tree, name, share):
    """Update ``name``'s share inside a nested-list tree; True on hit."""
    node_name, _share, children = tree
    if node_name == name:
        tree[1] = share
        return True
    return any(_tree_set_share(child, name, share) for child in children)


class ServiceRunner:
    """One scheduling cell run as a crash-tolerant, reconfigurable service.

    Parameters
    ----------
    spec:
        A flat or hierarchical cell spec (the :mod:`repro.shard.worker`
        shape): ``{"cell", "kind": "flat", "scheduler": {...},
        "sources": [...]}``.  Network cells are not servable.  The spec
        is deep-copied (a recovery adopts the copy it decoded); the
        runner's copy is the *effective spec*, mutated by every applied
        command so checkpoints always describe the current world.
    checkpoint_dir / checkpoint_every / keep:
        Durable checkpoint cadence: every ``checkpoint_every`` simulated
        seconds a payload is written atomically into ``checkpoint_dir``
        (``keep`` newest files retained).  With no directory the runner
        still keeps an in-memory checkpoint at the same cadence — the
        quarantine rollback target.
    idle_ttl:
        Evict per-flow scheduler state of flows idle longer than this
        many simulated seconds (flat cells only).  Service order is
        provably unchanged; memory stays bounded under flow churn.
    stall_wall:
        Watchdog budget in *wall* seconds: if simulated time makes no
        progress within one budget, :class:`~repro.errors.ServiceStall`
        is raised.  ``wall_clock`` is injectable for tests.
    check:
        Attach an :class:`~repro.obs.invariants.InvariantChecker`
        (default True); violations trigger the quarantine path instead
        of killing the service.
    on_incident:
        Optional callable receiving every
        :class:`~repro.obs.events.IncidentEvent` as it is recorded.
    """

    def __init__(self, spec, *, checkpoint_dir=None, checkpoint_every=None,
                 keep=3, idle_ttl=None, stall_wall=None, check=True,
                 wall_clock=None, on_incident=None,
                 _restore=None):
        if spec.get("kind") == "network":
            raise ConfigurationError(
                "repro serve hosts a single link; network cells are not "
                "servable")
        if checkpoint_every is not None and not checkpoint_every > 0:
            raise ConfigurationError(
                f"checkpoint_every must be positive, got {checkpoint_every!r}")
        # A caller's spec is copied.  A recovery hands over the spec it
        # just decoded from the checkpoint, which nothing else holds.
        self.spec = copy.deepcopy(spec) if _restore is None else spec
        self.spec.setdefault("faults", [])
        self.checkpoint_every = checkpoint_every
        self.idle_ttl = idle_ttl
        self.stall_wall = stall_wall
        self.check = check
        self._wall = wall_clock if wall_clock is not None else time.monotonic
        self.on_incident = on_incident
        self.incidents = []
        self.quarantined = []
        self._blocked = set()
        self._pending_detach = set()
        self._ingress_dropped = 0
        self._commands = deque()
        self.commands_applied = 0
        self.checkpoints_written = 0
        self.recoveries = 0
        self.peak_live_flows = 0
        self.store = None
        if checkpoint_dir is not None:
            from repro.faults.checkpoint import CheckpointStore

            self.store = CheckpointStore(checkpoint_dir, keep=keep,
                                         on_skip=self._skipped_checkpoint)
        self._build(self.spec)
        if _restore is None:
            for source in self.sources:
                source.start()
            self._arm_faults(after=None)
            self._next_ckpt = checkpoint_every
            self._freeze(self._payload())
        else:
            self._restore_state(_restore)

    # ------------------------------------------------------------------
    # Construction / restore
    # ------------------------------------------------------------------
    def _build(self, spec):
        """(Re)build the live stack — sim, link, sinks, attached sources —
        from ``spec``.  Sources are attached but not started."""
        from repro.obs.invariants import InvariantChecker
        from repro.obs.sinks import MetricsSink
        from repro.shard.worker import build_scheduler, build_source
        from repro.sim.engine import Simulator
        from repro.sim.link import Link

        self.sim = Simulator()
        self.trace = DigestTrace()
        scheduler = build_scheduler(spec["scheduler"])
        # Replay completed detaches: flow indices come from a monotonic
        # registration counter, so an exact rebuild must register the
        # *original* roster and then remove the retired entries — building
        # from a pruned flow list would re-index the survivors and make
        # any post-detach checkpoint unrestorable (tie-breaks diverge).
        for name in spec["scheduler"].get("detached", ()):
            if spec["scheduler"].get("kind") == "hpfq":
                scheduler.detach_subtree(name)
            else:
                scheduler.remove_flow(name)
        self.link = Link(self.sim, scheduler, trace=self.trace)
        self.metrics = MetricsSink()
        self.checker = InvariantChecker() if self.check else None
        sinks = [self.metrics]
        if self.checker is not None:
            sinks.append(self.checker)
        self.link.attach_observer(*sinks)
        self.sources = [build_source(s).attach(self.sim, self.link)
                        for s in spec["sources"]]

    def _restore_state(self, payload):
        """Adopt a checkpoint payload into the freshly built stack.

        Mirrors :func:`repro.shard.worker.resume_cell`: the link (and
        with it the scheduler) restores first so the re-armed in-flight
        finish event exists, then pending source emissions re-schedule
        in ascending time order, then an empty ``run(until=clock)``
        snaps the fresh simulator's clock to the checkpoint time (every
        restored event is strictly later).  Metric sinks restart empty —
        gauges are not part of the digest contract — while the chained
        digest resumes exactly.
        """
        self.link.restore(payload["link"], rearm=True)
        pairs = sorted(
            zip(self.sources, payload["sources"]),
            key=lambda p: (p[1]["pending_time"] is None,
                           p[1]["pending_time"] or 0.0))
        for source, snap in pairs:
            source.restore(snap)
        self.sim.run(until=payload["clock"])
        self.trace.restore(payload["digest"])
        self._arm_faults(after=payload["clock"])
        self._blocked = set(payload["ingress"]["blocked"])
        self._ingress_dropped = payload["ingress"]["dropped"]
        self._pending_detach = set(payload["quarantine"]["pending"])
        self.quarantined = list(payload["quarantine"]["done"])
        stats = payload["stats"]
        self.commands_applied = stats["commands"]
        self.checkpoints_written = stats["checkpoints"]
        self.recoveries = stats["recoveries"]
        every = self.checkpoint_every
        if every is not None:
            boundary = every
            while boundary <= payload["clock"]:
                boundary += every
            self._next_ckpt = boundary
        else:
            self._next_ckpt = None
        self._freeze(payload)

    def _arm_faults(self, after):
        """Arm the effective spec's fault plan on the live simulator.

        ``after=None`` arms everything (fresh build); a restore arms only
        actions strictly later than the checkpoint clock — earlier ones
        already fired and their effects live inside the scheduler
        snapshot.
        """
        actions = [a for a in self.spec["faults"]
                   if after is None or a[0] > after]
        if not actions:
            return
        from repro.faults.plan import FaultInjector, FaultPlan

        plan = FaultPlan()
        for action_time, kind, target, value in actions:
            plan._add(action_time, kind, target=target, value=value)
        FaultInjector(plan, self.link).arm()

    @classmethod
    def recover(cls, checkpoint_dir, **kwargs):
        """Rebuild a service from the newest verifiable checkpoint.

        Corrupt, truncated, or version-mismatched files are skipped
        (surfaced as ``checkpoint-skipped`` incidents on the recovered
        runner); with no usable checkpoint at all a
        :class:`~repro.errors.CheckpointError` (reason ``"missing"``)
        is raised so the supervisor can distinguish "recover" from
        "cannot recover".
        """
        from repro.faults.checkpoint import CheckpointStore

        skipped = []
        probe = CheckpointStore(
            checkpoint_dir, on_skip=lambda path, exc: skipped.append(
                (path, exc)))
        payload, path = probe.load_latest()
        if payload is None:
            raise CheckpointError(
                str(checkpoint_dir), "missing",
                "no usable checkpoint to recover from")
        runner = cls(payload["spec"], checkpoint_dir=checkpoint_dir,
                     _restore=payload, **kwargs)
        for skipped_path, exc in skipped:
            runner._incident("checkpoint-skipped", target=skipped_path,
                             detail=f"[{exc.reason}] {exc.message}")
        runner.recoveries += 1
        runner._incident("crash-recovered", target=path,
                         detail=f"clock={runner.now!r}")
        return runner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self):
        """Current simulated service time."""
        return self.sim.now

    @property
    def digest(self):
        """The chained service digest (hex)."""
        return self.trace.digest

    @property
    def live_flows(self):
        """Flows with in-memory scheduler state (excludes evicted ones)."""
        sched = self.link.scheduler
        evicted = getattr(sched, "evicted_flow_ids", ())
        return len(sched.flow_ids) - len(evicted)

    def status(self):
        """A plain-data live snapshot for dashboards and the CLI."""
        sched = self.link.scheduler
        ledger = sched.conservation()
        return {
            "cell": self.spec.get("cell"),
            "scheduler": sched.name,
            "clock": self.sim.now,
            "digest": self.trace.digest,
            "rows": self.trace.rows,
            "arrivals": self.trace.arrivals,
            "backlog": ledger["backlog"],
            "conservation_balanced": ledger["balanced"],
            "flows": len(sched.flow_ids),
            "live_flows": self.live_flows,
            "peak_live_flows": self.peak_live_flows,
            "link": {"packets_sent": self.link.packets_sent,
                     "bits_sent": self.link.bits_sent,
                     "packets_dropped": self.link.packets_dropped},
            "ingress_blocked": sorted(self._blocked, key=str),
            "ingress_dropped": self._ingress_dropped,
            "quarantined": list(self.quarantined),
            "pending_detach": sorted(self._pending_detach, key=str),
            "incidents": [(e.category, e.target) for e in self.incidents],
            "commands_applied": self.commands_applied,
            "checkpoints_written": self.checkpoints_written,
            "recoveries": self.recoveries,
        }

    def metrics_report(self):
        """The live :class:`~repro.obs.sinks.MetricsSink` report text."""
        return self.metrics.format_report()

    # ------------------------------------------------------------------
    # Streaming ingest
    # ------------------------------------------------------------------
    def inject(self, packet):
        """Hand one externally generated packet to the ingress *now*.

        Quarantined flows are dropped at the door (counted, not
        enqueued).  External injections are at-most-once across a crash:
        unlike source streams they cannot be replayed from a checkpoint.
        """
        if packet.flow_id in self._blocked:
            self._ingress_dropped += 1
            return False
        return self.link.send(packet)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def submit(self, op, **params):
        """Queue a reconfiguration command; applied at the next boundary.

        Ops: ``set_share(flow, share)``, ``set_link_rate(rate)``,
        ``attach(flow, share)``, ``detach(flow)``,
        ``add_source(source=<spec>)``, ``set_buffer(flow, packets)``,
        ``fault(time, fault_kind, target=None, value=None)``.
        """
        self._commands.append({"op": op, **params})

    def apply_pending(self):
        """Apply queued commands now (also called by :meth:`run_to`)."""
        while self._commands:
            self._apply(self._commands.popleft())

    def _apply(self, cmd):
        op = cmd["op"]
        sched = self.link.scheduler
        sspec = self.spec["scheduler"]
        hierarchical = sspec.get("kind") == "hpfq"
        if op == "set_share":
            flow, share = cmd["flow"], cmd["share"]
            sched.set_share(flow, share)
            if hierarchical:
                _tree_set_share(sspec["tree"], flow, share)
            else:
                sspec["flows"] = [
                    (fid, share if fid == flow else old)
                    for fid, old in sspec["flows"]]
        elif op == "set_link_rate":
            self.link.set_rate(cmd["rate"])
            sspec["rate"] = cmd["rate"]
        elif op == "attach":
            if hierarchical:
                raise ConfigurationError(
                    "attach/detach commands support flat cells; use a "
                    "fault action for hierarchical topology changes")
            if cmd["flow"] in sspec.get("detached", ()):
                raise ConfigurationError(
                    f"flow id {cmd['flow']!r} was detached and is retired "
                    f"for the life of this service; attach a fresh id")
            sched.add_flow(cmd["flow"], cmd["share"])
            sspec["flows"].append((cmd["flow"], cmd["share"]))
        elif op == "detach":
            if hierarchical:
                raise ConfigurationError(
                    "attach/detach commands support flat cells; use a "
                    "fault action for hierarchical topology changes")
            self._drop_sources_of(cmd["flow"])
            self._pending_detach.add(cmd["flow"])
            self._complete_detaches()
        elif op == "add_source":
            src_spec = dict(cmd["source"])
            if src_spec["flow"] in sspec.get("detached", ()):
                raise ConfigurationError(
                    f"flow id {src_spec['flow']!r} is retired; a source "
                    f"feeding it could never be served")
            # An emission window opening in the past cannot be scheduled
            # (and could not be replayed): clamp it to the boundary.
            src_spec["start"] = max(src_spec.get("start", 0.0), self.sim.now)
            from repro.shard.worker import build_source

            source = build_source(src_spec).attach(self.sim, self.link)
            self.spec["sources"].append(src_spec)
            self.sources.append(source)
            source.start()
        elif op == "set_buffer":
            sched.set_buffer_limit(cmd["flow"], cmd["packets"])
            self.spec["scheduler"].setdefault(
                "buffers", {})[cmd["flow"]] = cmd["packets"]
        elif op == "fault":
            action = (cmd["time"], cmd["fault_kind"], cmd.get("target"),
                      cmd.get("value"))
            if action[0] <= self.sim.now:
                raise ConfigurationError(
                    f"fault time {action[0]!r} is not in the future "
                    f"(clock is {self.sim.now!r})")
            self.spec["faults"].append(action)
            from repro.faults.plan import FaultInjector, FaultPlan

            plan = FaultPlan()
            plan._add(action[0], action[1], target=action[2],
                      value=action[3])
            FaultInjector(plan, self.link).arm()
        else:
            raise ConfigurationError(f"unknown service command {op!r}")
        self.commands_applied += 1

    def _drop_sources_of(self, flow):
        """Stop and forget every source feeding ``flow`` (spec + live)."""
        keep = [i for i, s in enumerate(self.spec["sources"])
                if s["flow"] != flow]
        for i, source in enumerate(self.sources):
            if i in keep:
                continue
            pending = source._pending
            if (pending is not None and pending.sim is self.sim
                    and pending.epoch == self.sim.epoch):
                pending.cancel()
        self.spec["sources"] = [self.spec["sources"][i] for i in keep]
        self.sources = [self.sources[i] for i in keep]

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------
    def advance(self, dt):
        """Serve ``dt`` more simulated seconds; returns the new clock."""
        if not dt >= 0:  # also True for NaN
            raise ConfigurationError(f"cannot advance by {dt!r}")
        return self.run_to(self.sim.now + dt)

    def run_to(self, target):
        """Serve until simulated ``target``, checkpointing on cadence.

        Pending commands apply first; boundary work (deferred detaches,
        idle-flow eviction, the checkpoint itself) runs between slices so
        it never interleaves with event processing.  A ``target`` the
        clock has passed fires no event; a NaN one raises
        :class:`ConfigurationError`.
        """
        if target != target:
            raise ConfigurationError(f"cannot run to {target!r}")
        self.apply_pending()
        while True:
            end = target
            boundary = self._next_ckpt
            if boundary is not None and self.sim.now < boundary < end:
                end = boundary
            self._run_slice(end)
            self._sweep()
            if boundary is not None and self.sim.now >= boundary:
                self.checkpoint()
                while self._next_ckpt <= self.sim.now:
                    self._next_ckpt += self.checkpoint_every
            if self.sim.now >= target:
                return self.sim.now

    def _run_slice(self, end):
        """Run guarded to ``end``, absorbing quarantines and stalls.

        The guarded loop (no inline elision, wall budget per slice) is
        the service-mode trade: every event is individually accountable,
        so the watchdog can tell "slow but progressing" (budget renews)
        from "stuck" (no simulated progress in a whole budget).
        """
        while True:
            mark = self.sim.now
            try:
                completed = self.sim.run_guarded(
                    end, max_wall=self.stall_wall, wall_clock=self._wall)
            except InvariantViolation as exc:
                self._quarantine(exc)
                continue
            if completed:
                return
            if self.sim.now <= mark:
                self._incident(
                    "stall", detail=f"no progress past t={mark!r} within "
                                    f"{self.stall_wall!r}s wall")
                raise ServiceStall(
                    f"simulated time stuck at {mark!r} for "
                    f"{self.stall_wall!r} wall seconds")

    def _quarantine(self, exc):
        """Degrade gracefully around an invariant violation.

        The offending flow (from the violation's event) is blocklisted
        and its sources removed; the service rolls back to the last
        checkpoint and replays without it.  A violation that names no
        flow — or re-names an already-quarantined one, meaning the
        replay deterministically re-trips — escalates to
        :class:`~repro.errors.ServiceCrash` for the supervisor.
        """
        flow = getattr(exc.event, "flow_id", None)
        if flow is None or flow in self._blocked:
            self._incident("crash", target=flow, detail=str(exc))
            raise ServiceCrash(exc)
        self._incident("quarantine", target=flow,
                       detail=f"[{exc.invariant}] {exc.message}")
        payload = self._last_payload
        spec = payload["spec"]
        keep = [i for i, s in enumerate(spec["sources"])
                if s["flow"] != flow]
        spec["sources"] = [spec["sources"][i] for i in keep]
        payload["sources"] = [payload["sources"][i] for i in keep]
        payload["ingress"]["blocked"] = sorted(
            set(payload["ingress"]["blocked"]) | {flow}, key=str)
        payload["quarantine"]["pending"] = sorted(
            set(payload["quarantine"]["pending"]) | {flow}, key=str)
        self.spec = spec
        self._build(spec)
        self._restore_state(payload)

    # ------------------------------------------------------------------
    # Boundary work
    # ------------------------------------------------------------------
    def _sweep(self):
        """Between-slice housekeeping: detaches, eviction, peak gauge."""
        self._complete_detaches()
        self._evict_idle()
        live = self.live_flows
        if live > self.peak_live_flows:
            self.peak_live_flows = live

    def _complete_detaches(self):
        """Detach pending flows whose backlog has drained.

        Removal gives the share back and rebases sibling rates exactly
        (the scheduler's ``remove_flow`` / ``detach_subtree`` contract);
        a still-backlogged flow simply stays pending until a later
        boundary.
        """
        if not self._pending_detach:
            return
        sched = self.link.scheduler
        sspec = self.spec["scheduler"]
        hierarchical = sspec.get("kind") == "hpfq"
        for flow in sorted(self._pending_detach, key=str):
            try:
                if hierarchical:
                    sched.detach_subtree(flow)
                else:
                    if sched.queue_length(flow):
                        continue
                    sched.remove_flow(flow)
            except ReproError:
                continue  # not quiescent yet; retry next boundary
            self._pending_detach.discard(flow)
            self.quarantined.append(flow)
            # The spec keeps the original roster and records the removal:
            # rebuilds replay it (see _build) so surviving flow indices —
            # and with them every future tie-break — stay exact.
            sspec.setdefault("detached", []).append(flow)
            sspec.get("buffers", {}).pop(flow, None)
            self.trace.last_active.pop(flow, None)

    def _evict_idle(self):
        """Evict scheduler state of flows idle past ``idle_ttl``.

        Flat cells only: hierarchical leaves hold ancestor tag state the
        flat eviction contract does not cover.  The scheduler's own
        :meth:`_evictable_idle` gate re-proves order-neutrality per flow,
        so a sweep can never change what is served.
        """
        ttl = self.idle_ttl
        if ttl is None or self.spec["scheduler"].get("kind") == "hpfq":
            return
        sched = self.link.scheduler
        cutoff = self.sim.now - ttl
        if cutoff <= 0:
            return
        evicted = set(sched.evicted_flow_ids)
        active = self.trace.last_active
        for flow in list(sched.flow_ids):
            if flow in evicted or flow in self._pending_detach:
                continue
            if active.get(flow, 0.0) <= cutoff:
                sched.evict_idle_flow(flow, now=self.sim.now)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def _payload(self):
        """The live state as a checkpoint payload.

        It holds the live spec by reference: pass it straight to
        :meth:`_freeze`, whose one pickle is the copy.
        """
        return {
            "kind": "serve",
            "spec": self.spec,
            "clock": self.sim.now,
            "link": self.link.snapshot(),
            "sources": [source.snapshot() for source in self.sources],
            "digest": self.trace.snapshot(),
            "ingress": {"blocked": sorted(self._blocked, key=str),
                        "dropped": self._ingress_dropped},
            "quarantine": {
                "pending": sorted(self._pending_detach, key=str),
                "done": list(self.quarantined)},
            "stats": {"commands": self.commands_applied,
                      "checkpoints": self.checkpoints_written,
                      "recoveries": self.recoveries},
        }

    def _freeze(self, payload):
        """Make ``payload`` the rollback point; returns its pickled bytes."""
        from repro.faults.checkpoint import encode_checkpoint

        self._rollback = encode_checkpoint(payload)
        return self._rollback

    @property
    def _last_payload(self):
        """The rollback point, decoded into a fresh payload dict."""
        from repro.faults.checkpoint import decode_checkpoint

        return decode_checkpoint(self._rollback)

    def checkpoint(self):
        """Capture the service state now; returns the file path (or None).

        Always refreshes the in-memory rollback point; writes a durable
        file only when a ``checkpoint_dir`` was given.  Both are the same
        bytes, serialized once.
        """
        blob = self._freeze(self._payload())
        path = None
        if self.store is not None:
            path = self.store.save(blob)
        self.checkpoints_written += 1
        return path

    def _skipped_checkpoint(self, path, exc):
        self._incident("checkpoint-skipped", target=path,
                       detail=f"[{exc.reason}] {exc.message}")

    # ------------------------------------------------------------------
    def _incident(self, category, target=None, detail=None):
        from repro.obs.events import IncidentEvent

        event = IncidentEvent(self.sim.now, self.link.scheduler.name,
                              category, target=target, detail=detail)
        self.incidents.append(event)
        if self.on_incident is not None:
            self.on_incident(event)
        return event

    def __repr__(self):
        return (f"ServiceRunner(cell={self.spec.get('cell')!r}, "
                f"t={self.sim.now!r}, rows={self.trace.rows}, "
                f"recoveries={self.recoveries})")
