"""Partition-closed scenarios for the sharded driver.

Each builder returns ``{"name", "duration", "cells"}`` where ``cells``
is a list of plain-data cell specs (see :mod:`repro.shard.worker`).  All
four partitioning rules are represented:

``cbr_flat``
    Disjoint CBR flow groups, one WF2Q+ link per group — the flow-set
    partition.
``poisson_mix``
    Same shape with Poisson sources; per-source seeds are fixed into the
    spec at build time via the collision-safe :func:`scenario_seed`, so
    results are independent of which worker draws them.
``hier``
    One H-WF2Q+ hierarchy split at the root: each child subtree becomes
    a cell served at its ``guaranteed_rate`` slice — exact Fractions for
    the integer shares used here.
``multihop``
    A multi-hop topology whose routes form disjoint components; cells
    come out of :func:`~repro.shard.partition.connected_components`.
    One flow per component runs with a tight buffer cap against an
    overloaded hop, so drop ledgers carry real content.

Every parameter that feeds randomness or identity is resolved here, at
plan time; workers only replay the specs.
"""

import zlib

from repro.config.hierarchy_spec import HierarchySpec, leaf, node
from repro.errors import ConfigurationError
from repro.shard.partition import connected_components, subtree_slices
from repro.shard.worker import tree_to_list

__all__ = ["SHARD_SCENARIOS", "build_scenario", "scenario_seed"]

_LENGTH = 8000  # bits per packet (integer: exact under Fraction rates)

#: Base value mixed into every per-scenario seed (stable across runs).
_SEED_BASE = 0x5EED

#: Odd multiplier (golden-ratio based) spreading the index bits so that
#: consecutive indices perturb the whole 32-bit word, not just the low bits.
_INDEX_MIX = 0x9E3779B9


def scenario_seed(name, index=0, base=_SEED_BASE):
    """Deterministic 32-bit seed for a scenario.

    Derived from the *name* (crc32) mixed with its *index*, so two
    distinct names with colliding checksums cannot share a seed when
    their indices differ (``poisson_mix`` passes each flow's position).
    ``index=0`` (the default) gives the name-only seed.
    """
    mixed = zlib.crc32(name.encode("utf-8")) ^ base
    mixed ^= (index * _INDEX_MIX) & 0xFFFFFFFF
    return mixed & 0xFFFFFFFF


def _chunks(n, groups):
    """Split range(n) into ``groups`` contiguous chunks (first ones larger)."""
    base, extra = divmod(n, groups)
    out = []
    start = 0
    for g in range(groups):
        size = base + (1 if g < extra else 0)
        if size:
            out.append(list(range(start, start + size)))
        start += size
    return out


def _flat_cells(name, flows, cells, rate, duration, make_source):
    specs = []
    for cell_index, members in enumerate(_chunks(flows, cells)):
        flow_ids = [(f"f{i}", 1 + (i % 3)) for i in members]
        total_share = sum(share for _fid, share in flow_ids)
        sources = []
        for (fid, share), i in zip(flow_ids, members):
            sources.append(make_source(cell_index, i, fid,
                                       share / total_share))
        specs.append({
            "cell": f"{name}{cell_index}",
            "kind": "flat",
            "duration": duration,
            "scheduler": {"kind": "flat", "policy": "wf2qplus",
                          "rate": rate, "flows": flow_ids},
            "sources": sources,
        })
    return specs


def scenario_cbr_flat(flows=64, cells=8, rate=1e9, duration=0.01, seed=1):
    """Disjoint CBR groups at 92% load, starts staggered per flow."""
    stagger = _LENGTH / rate / max(1, flows)

    def make_source(cell_index, i, fid, fraction):
        return {"type": "cbr", "flow": fid, "length": _LENGTH,
                "rate": 0.92 * rate * fraction, "start": i * stagger}

    return {"name": "cbr_flat", "duration": duration,
            "cells": _flat_cells("c", flows, cells, rate, duration,
                                 make_source)}


def scenario_poisson_mix(flows=48, cells=6, rate=1e9, duration=0.01, seed=1):
    """Disjoint Poisson groups at 85% mean load, seeds fixed per flow."""

    def make_source(cell_index, i, fid, fraction):
        return {"type": "poisson", "flow": fid, "length": _LENGTH,
                "rate": 0.85 * rate * fraction,
                "seed": scenario_seed(f"poisson:{fid}", index=i,
                                      base=seed & 0xFFFFFFFF)}

    return {"name": "poisson_mix", "duration": duration,
            "cells": _flat_cells("p", flows, cells, rate, duration,
                                 make_source)}


def scenario_hier(flows=48, cells=6, rate=10**9, duration=0.01, seed=1):
    """One hierarchy split at the root into per-subtree cells.

    Integer link rate + integer shares keep every slice an exact
    Fraction of the link; the per-cell H-WF2Q+ tag arithmetic then runs
    against those exact rates.
    """
    rate = int(rate)
    groups = _chunks(flows, cells)
    children = []
    for g, members in enumerate(groups):
        leaves = [leaf(f"f{i}", 1 + (i % 3)) for i in members]
        children.append(node(f"g{g}", 1 + (g % 3), leaves))
    spec = HierarchySpec(node("root", 1, children))
    stagger = _LENGTH / rate / max(1, flows)
    specs = []
    for (child, slice_rate), members in zip(subtree_slices(spec, rate),
                                            groups):
        total_share = sum(l.share for l in child.children)
        sources = []
        for l, i in zip(child.children, members):
            sources.append({
                "type": "cbr", "flow": l.name, "length": _LENGTH,
                "rate": 0.9 * float(slice_rate) * l.share / total_share,
                "start": i * stagger,
            })
        specs.append({
            "cell": child.name,
            "kind": "flat",
            "duration": duration,
            "scheduler": {"kind": "hpfq", "policy": "wf2qplus",
                          "rate": slice_rate, "tree": tree_to_list(child)},
            "sources": sources,
        })
    return {"name": "hier", "duration": duration, "cells": specs}


def scenario_multihop(flows=None, cells=4, rate=1e8, duration=0.02, seed=1):
    """Disjoint two-hop chains; cells via connected components.

    Per component: two flows crossing both hops plus one single-hop flow
    with a 4-packet buffer cap; the second hop is offered ~130% load, so
    the capped flow drops deterministically and the merged drop ledger
    has content to certify.
    """
    nodes = []
    routes = []
    source_of = {}
    for k in range(cells):
        a, b = f"a{k}", f"b{k}"
        for name in (a, b):
            nodes.append((name, {"kind": "flat", "policy": "wf2qplus",
                                 "rate": rate, "flows": []}, 0.0))
        stagger = _LENGTH / rate / 8
        for j, (suffix, path, share, buffer, load) in enumerate((
                ("x", [a, b], 2, None, 0.5),
                ("y", [a, b], 1, None, 0.4),
                ("z", [b], 1, 4, 0.4))):
            fid = f"m{k}{suffix}"
            routes.append((fid, path, share, buffer))
            source_of[fid] = {"type": "cbr", "flow": fid,
                              "length": _LENGTH, "rate": load * rate,
                              "start": (3 * k + j) * stagger}
    node_specs = {name: (name, sched, delay) for name, sched, delay in nodes}
    route_specs = {fid: (fid, path, share, buffer)
                   for fid, path, share, buffer in routes}
    specs = []
    components = connected_components(
        [(fid, path) for fid, path, _s, _b in routes],
        nodes=node_specs)
    for index, (members, flow_ids) in enumerate(components):
        specs.append({
            "cell": f"net{index}",
            "kind": "network",
            "duration": duration,
            "nodes": [node_specs[name] for name in members],
            "routes": [route_specs[fid] for fid in flow_ids],
            "sources": [source_of[fid] for fid in flow_ids],
        })
    return {"name": "multihop", "duration": duration, "cells": specs}


SHARD_SCENARIOS = {
    "cbr_flat": scenario_cbr_flat,
    "poisson_mix": scenario_poisson_mix,
    "hier": scenario_hier,
    "multihop": scenario_multihop,
}


def build_scenario(name, **params):
    """Build a named scenario; unknown names raise ConfigurationError.

    ``params`` (flows, cells, rate, duration, seed)
    override the scenario's defaults; ``None`` values are dropped so CLI
    plumbing can pass absent flags straight through.
    """
    if name not in SHARD_SCENARIOS:
        raise ConfigurationError(
            f"unknown shard scenario {name!r}; "
            f"choose from {sorted(SHARD_SCENARIOS)}")
    kwargs = {k: v for k, v in params.items() if v is not None}
    return SHARD_SCENARIOS[name](**kwargs)
