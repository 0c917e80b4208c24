"""Chaos scenarios: canned fault plans with pass/fail verdicts.

Each scenario builds a seeded traffic pattern and a seeded
:class:`~repro.faults.plan.FaultPlan`, runs them through a
Simulator + Link + scheduler stack with the full
:class:`~repro.obs.invariants.InvariantChecker` attached, drains the
system, and checks the conservation ledger
``arrivals == departures + drops + backlog`` exactly.  A scenario passes
only with *zero* invariant violations and a balanced ledger — the
robustness acceptance gate (also wired into CI as the ``chaos-smoke``
job, and runnable by hand via ``python -m repro chaos``).

Scenarios
---------
``link_flap``
    Repeated outage windows plus a degradation window (rate halved and
    restored); arrivals keep queueing throughout.
``churn_storm``
    Short-lived flows arrive, burst and leave mid-run.  On hierarchical
    schedulers the storm uses live subtree attach/detach instead of flat
    add/remove, exercising re-flattening and rate rebasing.
``share_renegotiation``
    A storm of ``set_share`` calls over random flows (and, on
    hierarchies, interior classes) during a busy period.
``buffer_pressure``
    Per-flow caps (drop-front) plus a shared-buffer ramp
    (longest-queue-drop) under overload.
"""

import random

from repro.errors import InvariantViolation

__all__ = ["SCENARIOS", "CHAOS_SCHEDULERS", "ChaosResult", "run_chaos",
           "run_all"]

SCENARIOS = ("link_flap", "churn_storm", "share_renegotiation",
             "buffer_pressure")

#: Schedulers the chaos harness knows how to build.  The exact-GPS
#: reference schedulers (wfq, wf2q) are deliberately absent: they refuse
#: live reconfiguration and evicting drop policies by contract.
CHAOS_SCHEDULERS = ("fifo", "wrr", "drr", "scfq", "sfq", "vclock", "ffq",
                    "wf2qplus", "hwf2qplus", "hwfq", "hscfq", "hsfq")

_HIER = {"hwf2qplus": "wf2qplus", "hwfq": "wfq", "hscfq": "scfq",
         "hsfq": "sfq"}


def _build_scheduler(name, rate, flows):
    """Instantiate a chaos-capable scheduler with ``flows`` leaves."""
    from repro.core.drr import DRRScheduler
    from repro.core.ffq import FFQScheduler
    from repro.core.fifo import FIFOScheduler
    from repro.core.hierarchy import HPFQScheduler
    from repro.core.scfq import SCFQScheduler
    from repro.core.sfq import SFQScheduler
    from repro.core.virtual_clock import VirtualClockScheduler
    from repro.core.wf2qplus import WF2QPlusScheduler
    from repro.core.wrr import WRRScheduler

    flat = {
        "fifo": FIFOScheduler,
        "wrr": WRRScheduler,
        "drr": DRRScheduler,
        "scfq": SCFQScheduler,
        "sfq": SFQScheduler,
        "vclock": VirtualClockScheduler,
        "ffq": FFQScheduler,
        "wf2qplus": WF2QPlusScheduler,
    }
    if name in flat:
        sched = flat[name](rate)
        for i in range(flows):
            sched.add_flow(str(i), 1 + (i % 3))
        return sched
    if name in _HIER:
        from repro.config.hierarchy_spec import leaf, node
        groups, chunk = [], 4
        for g in range(0, flows, chunk):
            leaves = [leaf(str(i), 1 + (i % 3))
                      for i in range(g, min(g + chunk, flows))]
            groups.append(node(f"g{g // chunk}", len(leaves), leaves))
        return HPFQScheduler(node("root", 1, groups), rate,
                             policy=_HIER[name])
    raise ValueError(
        f"unknown chaos scheduler {name!r}; choose from {CHAOS_SCHEDULERS}"
    )


def _make_plan(scenario, scheduler, sched, seed, duration, flows, length):
    """Build the scenario's fault plan for an already-built scheduler."""
    from repro.faults.plan import FaultPlan

    plan = FaultPlan(seed=seed)
    hierarchical = scheduler in _HIER
    if scenario == "link_flap":
        # Three short outages and one halved-rate window, all inside the
        # traffic window so arrivals pile up against the dead link.
        for k in range(3):
            plan.link_outage(duration * (0.15 + 0.25 * k), duration * 0.06)
        plan.link_degradation(duration * 0.45, duration * 0.2)
    elif scenario == "churn_storm":
        if hierarchical:
            from repro.config.hierarchy_spec import leaf, node
            rng = random.Random(seed + 1)
            parents = sorted(
                n for n in sched.spec.node_names()
                if not sched.spec.is_leaf(n) and n != sched.spec.root.name
            )
            for k in range(max(3, flows // 2)):
                born = duration * (0.05 + 0.5 * rng.random())
                dies = born + duration * (0.2 + 0.2 * rng.random())
                parent = rng.choice(parents)
                sub = node(f"churn-{k}", rng.randint(1, 4),
                           [leaf(f"churn-{k}-leaf", 1)])
                plan.attach(born, parent, sub)
                plan.enqueue_burst(born, f"churn-{k}-leaf",
                                   1 + rng.randrange(4), length)
                plan.detach(dies, f"churn-{k}")
        else:
            plan.churn_storm(duration * 0.05, duration * 0.85,
                             count=max(4, flows), length=length)
    elif scenario == "share_renegotiation":
        targets = [str(i) for i in range(flows)]
        if hierarchical:
            targets += sorted(
                n for n in sched.spec.node_names()
                if not sched.spec.is_leaf(n) and n != sched.spec.root.name
            )
        plan.share_storm(duration * 0.05, duration * 0.9, targets,
                         count=3 * flows)
    elif scenario == "buffer_pressure":
        for i in range(0, flows, 2):
            plan.buffer_limit(duration * 0.05, str(i), 4, "front")
        plan.buffer_ramp(duration * 0.2, duration * 0.5,
                         high=4 * flows, low=max(2, flows // 2),
                         policy="longest")
    else:
        raise ValueError(
            f"unknown chaos scenario {scenario!r}; choose from {SCENARIOS}"
        )
    return plan


class ChaosResult:
    """Outcome of one chaos scenario run."""

    __slots__ = ("scenario", "scheduler", "seed", "duration", "arrivals",
                 "departures", "drops", "backlog", "balanced",
                 "faults_applied", "events_checked", "violation")

    def __init__(self, scenario, scheduler, seed, duration, conservation,
                 faults_applied, events_checked, violation):
        self.scenario = scenario
        self.scheduler = scheduler
        self.seed = seed
        self.duration = duration
        self.arrivals = conservation["arrivals"]
        self.departures = conservation["departures"]
        self.drops = conservation["drops"]
        self.backlog = conservation["backlog"]
        self.balanced = conservation["balanced"]
        self.faults_applied = faults_applied
        self.events_checked = events_checked
        self.violation = violation

    @property
    def ok(self):
        return self.violation is None and self.balanced

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "ok": self.ok,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "drops": self.drops,
            "backlog": self.backlog,
            "balanced": self.balanced,
            "faults_applied": self.faults_applied,
            "events_checked": self.events_checked,
            "violation": (None if self.violation is None
                          else str(self.violation)),
        }

    def format(self):
        status = "OK " if self.ok else "FAIL"
        line = (f"{status} {self.scenario:20s} {self.scheduler:10s} "
                f"faults={self.faults_applied:3d} "
                f"arrivals={self.arrivals:5d} departed={self.departures:5d} "
                f"dropped={self.drops:4d} "
                f"events={self.events_checked}")
        if self.violation is not None:
            line += f"\n     violation: {self.violation}"
        elif not self.balanced:
            line += "\n     conservation ledger does not balance"
        return line

    def __repr__(self):
        return (f"ChaosResult({self.scenario!r}, {self.scheduler!r}, "
                f"ok={self.ok})")


def run_chaos(scenario, scheduler="wf2qplus", seed=1, duration=2.0,
              flows=8, rate=1e6, length=8000.0, load=1.1, sinks=()):
    """Run one chaos scenario; returns a :class:`ChaosResult`.

    ``load`` is the offered load as a fraction of link capacity (> 1
    keeps the system busy so faults land mid-busy-period).  Extra
    ``sinks`` (e.g. a JSONLSink) are attached next to the invariant
    checker.
    """
    from repro.core.packet import Packet
    from repro.faults.plan import FaultInjector
    from repro.obs.invariants import InvariantChecker
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

    sched = _build_scheduler(scheduler, rate, flows)
    checker = InvariantChecker()
    # Extra sinks first: a violation raised by the checker must not have
    # already truncated their view of the stream mid-event.
    sched.attach_observer(*sinks, checker)
    sim = Simulator()
    link = Link(sim, sched)

    # Seeded Poisson-ish arrivals per flow, jointly offering ``load`` times
    # the link capacity across the traffic window.
    rng = random.Random(seed)
    per_flow_rate = load * rate / (length * flows)  # packets per second
    for i in range(flows):
        flow_id = str(i)
        t = 0.0
        while True:
            t += rng.expovariate(per_flow_rate)
            if t >= duration:
                break
            sim.schedule(t, link.send, Packet(flow_id, length))

    plan = _make_plan(scenario, scheduler, sched, seed, duration, flows,
                      length)
    injector = FaultInjector(plan, link).arm()

    violation = None
    try:
        sim.run()  # traffic window, faults, then drain to empty
    except InvariantViolation as exc:
        violation = exc
    return ChaosResult(
        scenario, scheduler, seed, duration, sched.conservation(),
        injector.applied, checker.events_checked, violation,
    )


def run_all(scenarios=SCENARIOS, scheduler="wf2qplus", **kwargs):
    """Run several scenarios; returns the list of results."""
    return [run_chaos(name, scheduler=scheduler, **kwargs)
            for name in scenarios]
