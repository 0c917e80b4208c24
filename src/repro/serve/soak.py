"""The soak harness: kill the service repeatedly and prove nothing broke.

:func:`run_soak` runs the same churny workload twice:

* **baseline** — one uninterrupted :class:`~repro.serve.runner.ServiceRunner`
  driven straight to the horizon;
* **chaos** — an identical runner under a
  :class:`~repro.serve.supervisor.Supervisor`, hard-killed at ``kills``
  seeded random points and recovered from the latest durable checkpoint
  each time.

The verdict is exact: the chained service digest (per-packet
``(flow, seqno, length, times, virtual tags)`` rows) of the recovered
run must be byte-identical to the baseline's, both runs must finish with
zero quarantine/stall incidents and a balanced conservation ledger, and
the workload's staggered on/off flows exercise idle-flow eviction so the
peak live-flow count stays bounded.  CI's ``soak-smoke`` job gates on
this via ``python -m repro serve --soak``.
"""

import random
import tempfile

from repro.serve.runner import ServiceRunner
from repro.serve.supervisor import Supervisor

__all__ = ["build_service_spec", "run_soak", "format_soak"]

#: Incident categories that mean degradation, not routine recovery.
_BAD_INCIDENTS = frozenset({"quarantine", "stall", "crash"})


class InjectedKill(RuntimeError):
    """The soak harness's simulated hard crash."""


def build_service_spec(flows=32, rate=1e6, duration=2.0, length=8000.0,
                       seed=1, waves=4, policy="wf2qplus"):
    """A flat churn cell: flows come and go in staggered waves.

    Each flow emits CBR for roughly ``duration / waves`` seconds and then
    stops for good, with the next wave's flows starting as it quiets —
    so at any instant only ~``flows / waves`` flows are active and the
    rest sit idle, which is exactly the shape idle-flow eviction exists
    for.  Aggregate offered load stays near 90% of the link, split
    evenly across the concurrently active flows.  Everything is seeded
    and deterministic: two builds produce byte-identical specs.
    """
    waves = max(1, min(waves, flows))
    per_wave = max(1, flows // waves)
    wave_len = duration / waves
    rng = random.Random(seed)
    flow_list = []
    sources = []
    for i in range(flows):
        fid = f"f{i:04d}"
        flow_list.append((fid, 1 + (i % 3)))
        wave = min(i // per_wave, waves - 1)
        start = wave * wave_len + rng.uniform(0, 0.1 * wave_len)
        stop = min(start + 0.8 * wave_len, duration)
        active = min(per_wave, flows - wave * per_wave)
        sources.append({
            "type": "cbr", "flow": fid, "length": length,
            "rate": 0.9 * rate / active, "start": start, "stop": stop,
        })
    return {
        "cell": "serve-soak", "kind": "flat",
        "scheduler": {"kind": "flat", "policy": policy, "rate": rate,
                      "flows": flow_list},
        "sources": sources,
    }


def run_soak(flows=32, duration=2.0, kills=3, seed=1, rate=1e6,
             checkpoint_every=None, idle_ttl=None, directory=None,
             waves=4, sleep=None):
    """Kill-and-recover soak; returns a plain-data verdict.

    ``kills`` seeded random kill points land strictly after the second
    checkpoint boundary (so recovery always has a file to come back
    from) and before 95% of the horizon.  ``directory`` overrides the
    checkpoint location (a temp dir by default); ``sleep`` is passed to
    the supervisor (default: no real waiting — the backoff schedule is
    still recorded).
    """
    if checkpoint_every is None:
        checkpoint_every = duration / 16
    if kills < 1:
        raise ValueError(f"kills must be >= 1, got {kills!r}")
    lo, hi = 2.0 * checkpoint_every, 0.95 * duration
    if lo >= hi:
        raise ValueError(
            f"duration {duration!r} too short for checkpoint_every "
            f"{checkpoint_every!r}: kills need room in ({lo!r}, {hi!r})")
    spec = build_service_spec(flows=flows, rate=rate, duration=duration,
                              seed=seed)
    opts = {"checkpoint_every": checkpoint_every, "idle_ttl": idle_ttl,
            "check": True}

    baseline = ServiceRunner(spec, **opts)
    baseline.run_to(duration)

    rng = random.Random(seed + 0xC0FFEE)
    kill_times = sorted(rng.uniform(lo, hi) for _ in range(kills))
    remaining = list(kill_times)

    def work(runner):
        while remaining:
            cut = remaining[0]
            if runner.now < cut:
                runner.run_to(cut)
            remaining.pop(0)
            raise InjectedKill(f"killed at t={cut!r}")
        runner.run_to(duration)
        return runner

    if sleep is None:
        sleep = lambda _s: None  # noqa: E731 — soak never really waits
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            survivor, supervisor = _supervised(spec, work, tmp, kills,
                                               sleep, opts)
    else:
        survivor, supervisor = _supervised(spec, work, directory, kills,
                                           sleep, opts)

    bad = [(e.category, e.target, e.detail)
           for e in baseline.incidents + survivor.incidents
           if e.category in _BAD_INCIDENTS]
    base_ledger = baseline.link.scheduler.conservation()
    chaos_ledger = survivor.link.scheduler.conservation()
    result = {
        "ok": (baseline.digest == survivor.digest
               and baseline.trace.rows == survivor.trace.rows
               and not bad
               and base_ledger["balanced"] and chaos_ledger["balanced"]),
        "digest_baseline": baseline.digest,
        "digest_recovered": survivor.digest,
        "rows_baseline": baseline.trace.rows,
        "rows_recovered": survivor.trace.rows,
        "kills": kill_times,
        "restarts": supervisor.restarts,
        "failures": list(supervisor.failures),
        "recoveries": survivor.recoveries,
        "checkpoints": survivor.checkpoints_written,
        "bad_incidents": bad,
        "conservation_ok": (base_ledger["balanced"]
                            and chaos_ledger["balanced"]),
        "flows": flows,
        "peak_live_flows": max(baseline.peak_live_flows,
                               survivor.peak_live_flows),
        "idle_ttl": idle_ttl,
        "duration": duration,
    }
    return result


def _supervised(spec, work, directory, kills, sleep, opts):
    supervisor = Supervisor(
        lambda: ServiceRunner(spec, checkpoint_dir=directory, **opts),
        lambda: ServiceRunner.recover(directory, **opts),
        max_restarts=kills, backoff=0.01, sleep=sleep)
    survivor = supervisor.run(work)
    return survivor, supervisor


def format_soak(result):
    """Human-readable soak verdict."""
    lines = [
        f"soak: {result['flows']} flows, {result['duration']:g}s, "
        f"{len(result['kills'])} kills at "
        + ", ".join(f"{t:.4f}" for t in result["kills"]),
        f"  restarts: {result['restarts']}  "
        f"checkpoints: {result['checkpoints']}  "
        f"recoveries: {result['recoveries']}",
        f"  digest baseline : {result['digest_baseline']}",
        f"  digest recovered: {result['digest_recovered']}  "
        f"({'match' if result['digest_baseline'] == result['digest_recovered'] else 'MISMATCH'})",
        f"  service rows: {result['rows_baseline']} baseline / "
        f"{result['rows_recovered']} recovered",
        f"  conservation: "
        f"{'balanced' if result['conservation_ok'] else 'IMBALANCED'}",
        f"  peak live flows: {result['peak_live_flows']} of "
        f"{result['flows']}"
        + (f" (idle_ttl={result['idle_ttl']:g}s)"
           if result["idle_ttl"] is not None else ""),
    ]
    if result["bad_incidents"]:
        lines.append(f"  incidents: {result['bad_incidents']}")
    lines.append("soak: OK" if result["ok"] else "soak: FAIL")
    return "\n".join(lines)
