"""Deterministic merge of shard results into one report with a digest.

The merge has one job beyond bookkeeping: produce output that is a pure
function of the *scenario*, not of how it was executed.  Two rules get
there:

* everything is keyed and sorted by stable identifiers (cell id, link
  name, flow id) — never by completion order, worker id, or process-local
  values like packet uids;
* the digest covers only execution-invariant fields.  Excluded — and why:

  - ``events_processed`` / ``events_elided`` / ``batch_calls`` /
    ``batch_packets``: how far the burst-drain fast path reaches (and
    how large its scheduler batches get) depends on what else shares the
    event heap, which changes with the cell grouping (shards=1 hosts
    every cell in one simulator);
  - ``busy_time``: accumulated in drain-sized float batches, so its
    addition *association* (not its operands) varies with grouping;
  - ``delay_sum`` / ``delay_mean``: a migrated cell adds two segment
    sums, an uninterrupted one folds left — equal in R, not in float64;
  - queue-length gauges (``queue_len``, ``max_queue_len``, backlog
    gauges): a migrated cell's fresh metrics sink never saw the backlog
    build up;
  - the plan, shard count, and wall-clock timings: execution metadata.

Everything else — service rows (with virtual tags, Fractions intact),
conservation ledgers, drop ledgers, streaming counters, delay counts,
maxima, and histograms — is digested.  ``repro sim --verify`` and the CI
shard-smoke job assert digest equality across shard counts.
"""

import hashlib
import json
from fractions import Fraction

__all__ = ["canonical_digest", "assemble_report", "format_report"]

#: Per-flow metric fields that are execution-invariant (see module doc).
_DIGEST_FLOW_FIELDS = ("enqueues", "dequeues", "drops", "bits_in",
                       "bits_out", "delay_count", "delay_max", "histogram")


def _canon(value):
    """JSON fallback for exact non-JSON scalars.

    Fractions serialise as ``"num/den"`` strings — exact, unlike the
    float() fallback the tracing sinks use for human-facing output.
    """
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"not digestable: {value!r}")


def _stable_view(report):
    cells = {}
    for cid in sorted(report["cells"], key=str):
        result = report["cells"][cid]
        links = {}
        for name in sorted(result["links"], key=str):
            link_result = result["links"][name]
            links[str(name)] = {
                "services": link_result["services"],
                "ledger": link_result["ledger"],
                "drops_by_flow": {
                    str(fid): n
                    for fid, n in sorted(link_result["drops_by_flow"].items(),
                                         key=lambda kv: str(kv[0]))},
                "link": {
                    "packets_sent": link_result["link"]["packets_sent"],
                    "bits_sent": link_result["link"]["bits_sent"],
                    "packets_dropped": link_result["link"]["packets_dropped"],
                },
                "flows": {
                    str(fid): {key: m[key] for key in _DIGEST_FLOW_FIELDS}
                    for fid, m in sorted(link_result["flows"].items(),
                                         key=lambda kv: str(kv[0]))},
            }
        cells[str(cid)] = {
            "kind": result["kind"],
            "links": links,
            "deliveries": result.get("deliveries"),
        }
    return {
        "scenario": report["scenario"],
        "duration": report["duration"],
        "cells": cells,
        "totals": report["totals"],
    }


def canonical_digest(report):
    """sha256 over the execution-invariant view of a merged report.

    Floats serialise via :func:`repr` (shortest round-trip — identical
    text for identical IEEE-754 values on every worker), Fractions as
    exact ``num/den`` strings, and every mapping is emitted in sorted-key
    order, so the digest is byte-stable across worker counts, completion
    orders, and migrations.
    """
    text = json.dumps(_stable_view(report), sort_keys=True,
                      separators=(",", ":"), default=_canon)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _totals(cell_results):
    totals = {"arrivals": 0, "departures": 0, "drops": 0, "backlog": 0,
              "packets_sent": 0, "bits_sent": 0, "deliveries": 0}
    balanced = True
    for result in cell_results.values():
        for link_result in result["links"].values():
            ledger = link_result["ledger"]
            totals["arrivals"] += ledger["arrivals"]
            totals["departures"] += ledger["departures"]
            totals["drops"] += ledger["drops"]
            totals["backlog"] += ledger["backlog"]
            balanced = balanced and ledger["balanced"]
            totals["packets_sent"] += link_result["link"]["packets_sent"]
            totals["bits_sent"] += link_result["link"]["bits_sent"]
        totals["deliveries"] += len(result.get("deliveries") or ())
    totals["balanced"] = balanced
    return totals


def assemble_report(scenario, duration, cell_results, plan, sim_stats,
                    wall_seconds, migrated=None):
    """Build the merged report; per-cell results keyed by cell id.

    ``sim_stats`` is the summed event-loop counters across every
    simulator that took part (union, per-shard, and migration segments).
    The digest is computed last, over the assembled report.
    """
    report = {
        "scenario": scenario,
        "duration": duration,
        "cells": {result["cell"]: result for result in
                  sorted(cell_results.values(),
                         key=lambda r: str(r["cell"]))},
        "totals": _totals(cell_results),
        "plan": plan,
        "sim": sim_stats,
        "migrated": migrated,
        "wall_seconds": wall_seconds,
    }
    totals = report["totals"]
    if wall_seconds > 0:
        report["packets_per_second"] = totals["packets_sent"] / wall_seconds
    else:
        report["packets_per_second"] = 0.0
    report["digest"] = canonical_digest(report)
    return report


def format_report(report):
    """Compact text rendering for ``repro sim``."""
    totals = report["totals"]
    plan = report["plan"]
    lines = [
        f"repro sim — scenario {report['scenario']}, "
        f"{len(report['cells'])} cells on {plan['shards']} shard(s), "
        f"{report['duration']:g}s simulated",
    ]
    loads = ", ".join(f"{load:.0f}" for load in plan["loads"])
    lines.append(f"  plan loads (est. packets/shard): [{loads}]")
    if report.get("migrated"):
        mig = report["migrated"]
        lines.append(f"  migrated cell {mig['cell']!r} at t={mig['at']:g}s "
                     f"to a fresh worker")
    lines.append(
        f"  packets: {totals['packets_sent']} sent, "
        f"{totals['drops']} dropped, {totals['backlog']} backlogged "
        f"({'balanced' if totals['balanced'] else 'LEDGER IMBALANCE'})")
    sim = report["sim"]
    processed = sim["events_processed"]
    elided = sim["events_elided"]
    total_ev = processed + elided
    share = (100.0 * elided / total_ev) if total_ev else 0.0
    lines.append(f"  events: {processed} processed, {elided} elided "
                 f"({share:.1f}% inline)")
    calls = sim.get("batch_calls", 0)
    if calls:
        batched = sim.get("batch_packets", 0)
        per = batched / calls
        lines.append(f"  batches: {calls} calls, {batched} packets "
                     f"({per:.1f} packets/batch)")
    lines.append(
        f"  wall: {report['wall_seconds']:.3f}s "
        f"({report['packets_per_second']:,.0f} packets/s)")
    lines.append(f"  digest: {report['digest']}")
    return "\n".join(lines)
