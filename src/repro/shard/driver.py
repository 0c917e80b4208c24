"""The sharded-run driver: plan, fan out, migrate, merge.

``run_sharded`` is the one entry point.  ``shards=1`` runs every cell in
a single simulator in-process — the genuine single-process baseline.
``shards=N`` packs cells onto N spawn-safe worker processes (one
simulator per worker) and merges the results; the merged report's digest
is byte-identical to the baseline's, which ``--verify`` (and the CI
shard-smoke job) checks on every run.

Migration: ``migrate={"cell": id, "at": t}`` takes that cell out of the
normal plan, checkpoints it at ``t`` (in a pool worker when ``shards>1``)
and resumes it *in a fresh, separate worker process* — a dedicated
one-process pool spun up only for the resume, so the checkpoint really
crosses a process boundary.  The merged digest is unchanged, which the
migration differential test pins down.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from repro.errors import ConfigurationError, WorkerError
from repro.shard.merge import assemble_report
from repro.shard.partition import assign_shards
from repro.shard.scenarios import build_scenario
from repro.shard.worker import (
    DEFAULT_MAX_RETRIES,
    checkpoint_cell,
    resume_cell,
    run_cells,
    run_shard,
)

__all__ = ["run_sharded"]

#: Spawn never inherits accidental parent state; tests override with
#: ``fork`` for start-up speed.
_DEFAULT_START = "spawn"


def _run_jobs(ctx, jobs, duration, max_retries, backoff, absorb, sleep=None):
    """Fan ``(shard, specs)`` jobs out to worker processes with retries.

    Built on :class:`ProcessPoolExecutor`, which *detects* an abruptly
    dead worker (``multiprocessing.Pool`` hangs forever on one): the
    victim's future raises ``BrokenProcessPool``, and a raised-in-worker
    exception pickles back as itself.  A wave that loses workers gets a
    fresh executor for its retries (a broken pool is unusable), after
    ``backoff * 2**attempt`` seconds.  Returns ``(results, failures)``
    where ``failures`` maps shard id -> cause of the last failed attempt;
    shards that eventually succeeded appear only in ``results``.
    """
    if sleep is None:
        sleep = time.sleep
    results = {}
    pending = list(jobs)
    attempt = 0
    failures = {}
    while pending:
        if attempt > 0:
            sleep(backoff * (2 ** (attempt - 1)))
        failed = []
        failures = {}
        with ProcessPoolExecutor(max_workers=max(1, len(pending)),
                                 mp_context=ctx) as pool:
            futures = [
                (shard, specs,
                 pool.submit(run_shard, (shard, specs, duration, attempt)))
                for shard, specs in pending
            ]
            # Merge by dict update, keyed on stable cell ids: completion
            # order cannot matter (the old imap_unordered kept that
            # honest; here result() order is submission order, and the
            # differential suite still pins digest equality).
            for shard, specs, future in futures:
                try:
                    shard_out = future.result()
                except Exception as exc:  # worker died or raised
                    failed.append((shard, specs))
                    failures[shard] = f"{type(exc).__name__}: {exc}"
                else:
                    results.update(shard_out["results"])
                    absorb(shard_out["sim"])
        if not failed:
            return results, {}
        if attempt >= max_retries:
            return results, failures
        pending = failed
        attempt += 1
    return results, failures


def _resolve(scenario, duration, params):
    if isinstance(scenario, str):
        built = build_scenario(scenario, duration=duration, **params)
    else:
        built = scenario
    cells = built["cells"]
    if not cells:
        raise ConfigurationError("scenario has no cells")
    return built["name"], duration or built["duration"], cells


def _split_migration(cells, migrate):
    if migrate is None:
        return cells, None
    if migrate.get("cell") is None:
        flat = sorted((c for c in cells if c["kind"] != "network"),
                      key=lambda c: str(c["cell"]))
        if not flat:
            raise ConfigurationError(
                "no flat cell available to migrate in this scenario")
        migrate["cell"] = flat[0]["cell"]
    target = str(migrate["cell"])
    chosen = [c for c in cells if str(c["cell"]) == target]
    if not chosen:
        raise ConfigurationError(
            f"cannot migrate unknown cell {migrate['cell']!r}")
    spec = chosen[0]
    if spec["kind"] == "network":
        raise ConfigurationError(
            "network cells cannot be migrated; pick a flat cell")
    rest = [c for c in cells if str(c["cell"]) != target]
    return rest, spec


def run_sharded(scenario="cbr_flat", shards=1, duration=None, migrate=None,
                mp_context=None, max_retries=DEFAULT_MAX_RETRIES,
                retry_backoff=0.05, strict=True, **params):
    """Run a scenario across ``shards`` workers; returns the merged report.

    ``scenario`` is a registered name (params like ``flows``/``cells``/
    ``rate``/``seed`` pass through to the builder) or a prebuilt
    ``{"name", "duration", "cells"}`` dict.  ``migrate`` is
    ``{"cell": id, "at": t}`` with ``0 < t < duration``.

    Worker failures: each shard whose worker dies or raises is retried up
    to ``max_retries`` times (exponential backoff starting at
    ``retry_backoff`` seconds); a negative budget raises
    :class:`~repro.errors.ConfigurationError`.  With the budget
    exhausted, ``strict=True`` raises :class:`~repro.errors.WorkerError`
    naming the failed cells; ``strict=False`` returns the partial report
    with a ``"failures"`` section instead.
    """
    if max_retries < 0:
        raise ConfigurationError(
            f"max_retries must be >= 0, got {max_retries!r}")
    name, duration, cells = _resolve(scenario, duration, params)
    plan = assign_shards(cells, shards)
    rest, migrating = _split_migration(cells, migrate)
    if migrating is not None and not 0 < migrate["at"] < duration:
        raise ConfigurationError(
            f"migration time {migrate['at']!r} must fall inside "
            f"(0, {duration!r})")
    sim_stats = {"events_processed": 0, "events_elided": 0,
                 "batch_calls": 0, "batch_packets": 0}

    def absorb(stats):
        for key in sim_stats:
            sim_stats[key] += stats.get(key, 0)

    t0 = perf_counter()
    results = {}
    failures = {}
    if shards <= 1:
        if rest:
            cell_results, stats = run_cells(rest, duration)
            results.update(cell_results)
            absorb(stats)
        if migrating is not None:
            # Same process, but a genuinely fresh simulator for the
            # resume — the cross-process variant is exercised below and
            # in the differential suite.
            ckpt = checkpoint_cell(migrating, migrate["at"])
            resumed = resume_cell(migrating, ckpt, duration)
            results[migrating["cell"]] = resumed["result"]
            absorb(resumed["sim"])
    else:
        by_shard = {}
        for spec in rest:
            by_shard.setdefault(plan["assignment"][spec["cell"]],
                                []).append(spec)
        jobs = [(shard, specs) for shard, specs in sorted(by_shard.items())]
        ctx = multiprocessing.get_context(mp_context or _DEFAULT_START)
        shard_results, failures = _run_jobs(
            ctx, jobs, duration, max_retries, retry_backoff, absorb)
        results.update(shard_results)
        if migrating is not None:
            # Checkpoint in one pool worker, resume in *another*: the
            # checkpoint provably crosses a process boundary into a
            # worker that never saw the first segment.
            with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
                ckpt = pool.submit(
                    checkpoint_cell, migrating, migrate["at"]).result()
            with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as fresh:
                resumed = fresh.submit(
                    resume_cell, migrating, ckpt, duration).result()
            results[migrating["cell"]] = resumed["result"]
            absorb(resumed["sim"])
    if failures and strict:
        raise WorkerError(failures)
    wall = perf_counter() - t0
    migrated = (None if migrating is None
                else {"cell": migrating["cell"], "at": migrate["at"]})
    report = assemble_report(name, duration, results, plan, sim_stats, wall,
                             migrated=migrated)
    if failures:
        # Non-strict mode: name exactly which shards/cells are missing so
        # a caller can re-plan them instead of diffing the cell map.
        assignment = plan["assignment"]
        report["failures"] = {
            str(shard): {
                "cause": cause,
                "cells": sorted(str(cid) for cid, s in assignment.items()
                                if s == shard and str(cid) not in
                                {str(k) for k in results}),
            }
            for shard, cause in sorted(failures.items())
        }
    return report
