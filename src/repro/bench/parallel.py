"""Parallel fan-out of benchmark scenarios across worker processes.

``run_scenarios_parallel`` distributes whole scenarios (the natural unit:
each owns its schedulers and timing loops) over a ``multiprocessing``
pool and merges the resulting :class:`~repro.bench.harness.BenchPoint`
lists back *in request order*, so the output is byte-compatible with the
sequential :func:`~repro.bench.scenarios.run_scenarios` — same points,
same ordering, only the ``ns_per_packet`` values differ by measurement
noise.

Spawn-safety: workers receive only picklable ``(name, quick, seed)``
tuples and re-import the scenario registry themselves, so the default
``spawn`` start method works everywhere (macOS, Windows, and any future
``forkserver`` configuration).  Each worker seeds :mod:`random` with a
seed derived deterministically from the scenario *name and its position
in the request* — never from the worker id or completion order — so any
scenario that draws randomness produces the same workload no matter
which process runs it, at any ``--jobs`` level.  Mixing the request
index in makes the seeds collision-safe: two distinct names whose crc32
happens to collide still get distinct seeds within one sweep.  Duplicate
names are rejected outright — silently reusing a seed (or an index-split
of one) would make "the same scenario twice" measure two different
workloads.

Timing caveat: points measured in concurrent processes contend for cores,
so per-packet costs from a parallel sweep are noisier than a sequential
run.  Use ``--jobs`` for broad sweeps and quick CI smoke runs; produce
committed baselines sequentially.
"""

import multiprocessing
import os
import random

from repro.shard.scenarios import scenario_seed

__all__ = ["parallel_map", "run_scenarios_parallel", "scenario_seed"]

#: Default multiprocessing start method — spawn works on every platform
#: and never inherits accidental state from the parent.
_DEFAULT_START = "spawn"


def _run_scenario(job):
    """Pool worker: run one scenario (top-level, so spawn can pickle it)."""
    name, quick, seed = job
    from repro.bench.scenarios import SCENARIOS

    random.seed(seed)
    return name, SCENARIOS[name](quick)


def _resolve_jobs(jobs, n_tasks):
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_tasks))


def run_scenarios_parallel(names=None, quick=False, jobs=None,
                           progress=None, mp_context=None):
    """Run the named scenarios across ``jobs`` processes; return the points.

    Drop-in parallel variant of
    :func:`repro.bench.scenarios.run_scenarios`: identical validation,
    identical point ordering (request order, not completion order).
    ``jobs=None`` uses the CPU count; ``jobs<=1`` degrades to the
    sequential runner (no pool, no pickling requirements).
    ``mp_context`` overrides the start method (tests use ``"fork"`` so a
    monkeypatched scenario registry reaches the workers).
    """
    from repro.bench.scenarios import SCENARIOS, run_scenarios

    if names is None:
        names = list(SCENARIOS)
    else:
        names = list(names)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; choose from {sorted(SCENARIOS)}")
    seen = set()
    dupes = sorted({n for n in names if n in seen or seen.add(n)})
    if dupes:
        raise ValueError(
            f"duplicate scenario name(s) {dupes}: each scenario may appear "
            f"at most once per sweep (repeats would reuse its seed)")
    jobs = _resolve_jobs(jobs, len(names))
    if jobs <= 1:
        return run_scenarios(names=names, quick=quick, progress=progress)
    ctx = multiprocessing.get_context(mp_context or _DEFAULT_START)
    results = {}
    with ctx.Pool(processes=jobs) as pool:
        job_args = [(name, quick, scenario_seed(name, index))
                    for index, name in enumerate(names)]
        for name, points in pool.imap_unordered(_run_scenario, job_args):
            results[name] = points
            if progress is not None:
                progress(name)
    merged = []
    for name in names:
        merged.extend(results[name])
    return merged


def parallel_map(func, items, jobs=None, mp_context=None):
    """Map a *top-level* function over ``items`` with a process pool.

    Results come back in input order.  ``jobs<=1`` (or a single item)
    runs inline with no pool, so callers can expose a ``jobs`` knob
    without forking for the common sequential case.  Used by the
    experiment builders for Figure-2-style per-scheduler sweeps.
    """
    items = list(items)
    jobs = _resolve_jobs(jobs, len(items))
    if jobs <= 1:
        return [func(item) for item in items]
    ctx = multiprocessing.get_context(mp_context or _DEFAULT_START)
    with ctx.Pool(processes=jobs) as pool:
        return pool.map(func, items)
