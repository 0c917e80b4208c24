"""repro.shard — sharded scale-out simulation with deterministic merge.

Splits a partition-closed scenario across N worker processes (by flow
set, H-WF2Q+ subtree, or network component), runs one simulator per
shard, and merges service traces, metrics, and drop ledgers into a
single report whose digest is independent of worker count, completion
order, and checkpoint-based shard migration.  See DESIGN.md §8.
"""

from repro._lazy import lazy_exports

#: Public name -> the module defining it (see :mod:`repro._lazy`).
_EXPORTS = {
    "run_sharded": "repro.shard.driver",
    "assemble_report": "repro.shard.merge",
    "canonical_digest": "repro.shard.merge",
    "format_report": "repro.shard.merge",
    "assign_shards": "repro.shard.partition",
    "cell_weight": "repro.shard.partition",
    "connected_components": "repro.shard.partition",
    "subtree_slices": "repro.shard.partition",
    "validate_cells": "repro.shard.partition",
    "SHARD_SCENARIOS": "repro.shard.scenarios",
    "build_scenario": "repro.shard.scenarios",
    "build_cell": "repro.shard.worker",
    "checkpoint_cell": "repro.shard.worker",
    "merge_segments": "repro.shard.worker",
    "resume_cell": "repro.shard.worker",
    "run_cells": "repro.shard.worker",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
