"""repro.bench — hot-path performance regression harness.

The package measures per-packet scheduling cost (``ns/packet``) for a set
of named workload scenarios and persists the points in a machine-readable
JSON document (``BENCH_core.json`` at the repo root is the committed
baseline).  A later run can be compared against that baseline with
:func:`compare`, which flags any point whose per-packet cost regressed by
more than a configurable threshold (25 % by default) — the CI perf-smoke
job runs exactly that via ``python -m repro bench --quick --compare``.

Layout
------
:mod:`repro.bench.harness`
    Timing machinery (best-of-``repeats`` wall-clock measurement), the
    JSON schema (:func:`to_payload` / :func:`save` / :func:`load`),
    baseline comparison (:func:`compare`) and table formatting.
:mod:`repro.bench.scenarios`
    The named scenarios: ``saturated_churn`` (every flow always
    backlogged, N-sweep), ``bursty_onoff`` (small bursts over a large
    flow population — every burst crosses a busy-period boundary),
    ``hierarchy`` (H-WF2Q+ depth × fanout sweep) and ``zoo`` (every
    scheduler in the zoo on one fixed workload).
:mod:`repro.bench.parallel`
    Process-parallel sweep execution: ``run_scenarios_parallel`` fans
    the scenario grid over a multiprocessing pool (``python -m repro
    bench --jobs N``) and ``parallel_map`` gives the experiment builders
    the same fan-out.
"""

from repro.bench.harness import (
    BenchPoint,
    compare,
    format_compare,
    format_markdown,
    format_table,
    load,
    merge_best,
    point_key,
    save,
    to_payload,
)
from repro.bench.parallel import parallel_map, run_scenarios_parallel
from repro.bench.scenarios import SCENARIOS, run_scenarios

__all__ = [
    "BenchPoint",
    "SCENARIOS",
    "compare",
    "format_compare",
    "format_markdown",
    "format_table",
    "load",
    "merge_best",
    "parallel_map",
    "point_key",
    "run_scenarios",
    "run_scenarios_parallel",
    "save",
    "to_payload",
]
