"""Timing, persistence and comparison machinery for the bench harness.

A benchmark run produces a list of :class:`BenchPoint` — one per
(scenario, scheduler, params) combination — which serialises to::

    {
      "version": 1,
      "generated_at": "2026-01-01T00:00:00Z",
      "git_rev": "abc1234",
      "dirty": false,
      "python": "3.12.1",
      "platform": {"system": "Linux", "release": "...", "machine": "x86_64",
                   "processor": "...", "cpu_count": 8},
      "scenarios": [
        {"scenario": "saturated_churn", "scheduler": "WF2Q+",
         "params": {"flows": 1024}, "packets": 20000,
         "ns_per_packet": 1234.5, "packets_per_sec": 810045.4},
        ...
      ]
    }

``platform`` records where the numbers were measured (regression ratios
are only meaningful against a baseline from the same machine), and
``packets_per_sec`` is the derived throughput ``1e9 / ns_per_packet`` —
redundant on purpose, so dashboards need no arithmetic.

Comparison is keyed on (scenario, scheduler, params) so baselines stay
valid when scenarios are added or reordered.  A point regresses when::

    new.ns_per_packet > (1 + threshold) * old.ns_per_packet

with ``threshold`` defaulting to 0.25.  Wall-clock noise is tamed two
ways: each measurement is best-of-``repeats`` (the *minimum* over repeat
runs — the run least disturbed by the machine), and CI uses ``--quick``
workloads sized so a single point still executes thousands of packets.
"""

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field

__all__ = [
    "BenchPoint",
    "SCHEMA_VERSION",
    "best_of",
    "compare",
    "format_compare",
    "format_markdown",
    "format_table",
    "load",
    "point_key",
    "save",
    "to_payload",
]

SCHEMA_VERSION = 1

#: Default regression threshold: fail on >25 % per-packet-cost growth.
DEFAULT_THRESHOLD = 0.25


@dataclass
class BenchPoint:
    """One measured benchmark point."""

    scenario: str
    scheduler: str
    params: dict = field(default_factory=dict)
    packets: int = 0
    ns_per_packet: float = 0.0

    @property
    def packets_per_sec(self):
        """Derived throughput: packets transmitted per wall-clock second."""
        if self.ns_per_packet <= 0:
            return 0.0
        return 1e9 / self.ns_per_packet

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "scheduler": self.scheduler,
            "params": dict(self.params),
            "packets": self.packets,
            "ns_per_packet": round(self.ns_per_packet, 1),
            "packets_per_sec": round(self.packets_per_sec, 1),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            scenario=data["scenario"],
            scheduler=data["scheduler"],
            params=dict(data.get("params", {})),
            packets=int(data.get("packets", 0)),
            ns_per_packet=float(data["ns_per_packet"]),
        )


def merge_best(*point_lists):
    """Merge point lists, keeping the cheapest measurement per key.

    Used by the CLI's noise-retry pass: a regressed scenario is measured
    again and the minimum cost per point wins (outside interference only
    ever adds time, so the minimum is the most faithful sample).
    """
    best = {}
    order = []
    for points in point_lists:
        for p in points:
            key = point_key(p)
            held = best.get(key)
            if held is None:
                best[key] = p
                order.append(key)
            elif p.ns_per_packet < held.ns_per_packet:
                best[key] = p
    return [best[key] for key in order]


def point_key(point):
    """Stable identity of a point across runs (params order-insensitive)."""
    if isinstance(point, BenchPoint):
        scenario, scheduler, params = (
            point.scenario, point.scheduler, point.params)
    else:
        scenario = point["scenario"]
        scheduler = point["scheduler"]
        params = point.get("params", {})
    return (scenario, scheduler, json.dumps(params, sort_keys=True))


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def best_of(fn, repeats=3):
    """Run ``fn`` ``repeats`` times; return its minimum result.

    ``fn`` must return a cost (ns/packet).  The minimum — not the mean —
    is the standard noise reducer for wall-clock microbenchmarks: outside
    interference only ever adds time.
    """
    return min(fn() for _ in range(max(1, repeats)))


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def _git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _git_dirty():
    """True when the worktree has uncommitted changes, None if unknown.

    A baseline stamped ``"dirty": true`` was measured against code that
    no commit can reproduce — the provenance a reviewer needs before
    trusting (or refreshing) the committed numbers.
    """
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return bool(out.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def platform_info():
    """Where the numbers were measured (regressions only compare within
    one machine; the provenance makes cross-machine diffs self-evident)."""
    return {
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
    }


def to_payload(points):
    """Build the JSON document for a list of points."""
    return {
        "version": SCHEMA_VERSION,
        "generated_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": _git_rev(),
        # True = measured against uncommitted changes; see _git_dirty.
        "dirty": _git_dirty(),
        "python": sys.version.split()[0],
        "platform": platform_info(),
        "scenarios": [p.to_dict() for p in points],
    }


def save(points, path):
    """Write the points to ``path``; returns the payload written."""
    payload = to_payload(points)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return payload


def load(path):
    """Read a benchmark JSON document."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "scenarios" not in payload:
        raise ValueError(f"{path}: not a bench document (no 'scenarios')")
    return payload


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare(baseline, current, threshold=DEFAULT_THRESHOLD,
            scenario_thresholds=None):
    """Compare two payloads; return (rows, regressions).

    ``rows`` is a list of dicts (one per current point) with ``old``,
    ``new``, ``ratio`` and ``status`` in {"ok", "improved", "regression",
    "new"}; ``regressions`` is the subset of rows whose cost grew by more
    than the applicable threshold (fractional, e.g. 0.25 for +25 %).
    ``improved`` marks the mirror image — cost *shrank* by more than the
    threshold — so genuine wins are reported, not silently folded into
    "ok" (and a stale baseline becomes visible).

    ``scenario_thresholds`` optionally overrides the threshold per
    scenario name (``{"sharded_pipeline": 0.6}``): whole-run wall-clock
    scenarios are inherently noisier than the scheduler-only inner loops
    and get looser gates without loosening everything else.
    """
    overrides = scenario_thresholds or {}
    old_index = {point_key(p): p for p in baseline.get("scenarios", [])}
    rows = []
    for entry in current.get("scenarios", []):
        key = point_key(entry)
        old = old_index.pop(key, None)
        limit = overrides.get(entry["scenario"], threshold)
        row = {
            "scenario": entry["scenario"],
            "scheduler": entry["scheduler"],
            "params": entry.get("params", {}),
            "new": float(entry["ns_per_packet"]),
            "threshold": limit,
        }
        if old is None:
            row.update(old=None, ratio=None, status="new")
        else:
            old_cost = float(old["ns_per_packet"])
            ratio = row["new"] / old_cost if old_cost > 0 else float("inf")
            if ratio > 1 + limit:
                status = "regression"
            elif ratio < 1 / (1 + limit):
                status = "improved"
            else:
                status = "ok"
            row.update(old=old_cost, ratio=ratio, status=status)
        rows.append(row)
    for key, old in old_index.items():  # points the new run no longer has
        rows.append({
            "scenario": old["scenario"],
            "scheduler": old["scheduler"],
            "params": old.get("params", {}),
            "old": float(old["ns_per_packet"]),
            "new": None, "ratio": None, "status": "missing",
        })
    regressions = [r for r in rows if r["status"] == "regression"]
    return rows, regressions


def _params_str(params):
    return ",".join(f"{k}={v}" for k, v in sorted(params.items())) or "-"


def format_table(points):
    """Plain-text table of a run's points."""
    lines = [f"{'scenario':18s} {'scheduler':16s} {'params':22s} "
             f"{'packets':>8s} {'ns/pkt':>10s}"]
    for p in points:
        lines.append(
            f"{p.scenario:18s} {p.scheduler:16s} "
            f"{_params_str(p.params):22s} {p.packets:8d} "
            f"{p.ns_per_packet:10.0f}")
    return "\n".join(lines)


def format_markdown(points):
    """GitHub-flavoured markdown table (for the README)."""
    lines = [
        "| scenario | scheduler | params | ns/packet |",
        "|---|---|---|---:|",
    ]
    for p in points:
        lines.append(
            f"| {p.scenario} | {p.scheduler} | "
            f"{_params_str(p.params)} | {p.ns_per_packet:.0f} |")
    return "\n".join(lines)


def format_compare(rows, threshold=DEFAULT_THRESHOLD):
    """Plain-text report of a comparison (one line per point)."""
    lines = [f"{'scenario':18s} {'scheduler':16s} {'params':22s} "
             f"{'old':>9s} {'new':>9s} {'ratio':>7s}  status"]
    for r in rows:
        old = f"{r['old']:.0f}" if r.get("old") is not None else "-"
        new = f"{r['new']:.0f}" if r.get("new") is not None else "-"
        ratio = f"{r['ratio']:.2f}x" if r.get("ratio") is not None else "-"
        lines.append(
            f"{r['scenario']:18s} {r['scheduler']:16s} "
            f"{_params_str(r['params']):22s} {old:>9s} {new:>9s} "
            f"{ratio:>7s}  {r['status']}")
    n_reg = sum(1 for r in rows if r["status"] == "regression")
    n_imp = sum(1 for r in rows if r["status"] == "improved")
    lines.append("")
    if n_imp:
        lines.append(
            f"note: {n_imp} point(s) improved by more than "
            f"{threshold:.0%} — consider refreshing the baseline")
    if n_reg:
        lines.append(
            f"FAIL: {n_reg} point(s) regressed by more than "
            f"{threshold:.0%}")
    else:
        lines.append(f"OK: no point regressed by more than {threshold:.0%}")
    return "\n".join(lines)
