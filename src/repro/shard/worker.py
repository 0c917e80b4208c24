"""Shard worker runtime: build cells from plain-data specs and run them.

Workers receive only picklable cell specs (dicts of numbers, strings,
lists, Fractions) and rebuild the live objects — scheduler, link, traffic
sources, metrics sinks — through the registries here, so the default
``spawn`` start method works everywhere and nothing is inherited from the
parent process.  Every seed a worker uses is written into the spec at
planning time; nothing depends on the worker id or completion order.

One shard = one :class:`~repro.sim.engine.Simulator` hosting all the
shard's cells, exactly mirroring the single-process run at ``shards=1``
(which hosts *every* cell in one simulator).  Cells are closed systems,
so grouping them differently cannot change any per-cell result — only
process-local counters like ``events_elided`` (the burst-drain extent
depends on what else shares the event heap), which the merge layer keeps
out of the digest.

Checkpoint-based migration: :func:`checkpoint_cell` runs a flat cell to
a cut time and returns a picklable checkpoint (link + scheduler snapshot,
per-source emission snapshots, the partial results so far);
:func:`resume_cell` rebuilds the cell in a fresh process, restores, runs
to the end, and splices the two segments into one result identical — up
to the digest-excluded gauges — to the uninterrupted run.
"""

from importlib import import_module

from repro.errors import ConfigurationError

__all__ = [
    "build_cell",
    "run_cells",
    "run_shard",
    "checkpoint_cell",
    "resume_cell",
    "merge_segments",
]

#: Default retry budget per shard (``--max-retries``): a worker that dies
#: — non-zero exit, killed, or an exception that pickles back — is re-run
#: up to this many extra times with exponential backoff before the driver
#: reports the failed cells.  Defined here rather than in the driver so
#: the CLI can read it without loading ``multiprocessing``.
DEFAULT_MAX_RETRIES = 2


# ----------------------------------------------------------------------
# Registries: spec dict -> live object
# ----------------------------------------------------------------------
#: Flat scheduler policy -> (defining module, class name).  A spec loads
#: only the class it names.
_FLAT_SCHEDULERS = {
    "fifo": ("repro.core.fifo", "FIFOScheduler"),
    "wrr": ("repro.core.wrr", "WRRScheduler"),
    "drr": ("repro.core.drr", "DRRScheduler"),
    "scfq": ("repro.core.scfq", "SCFQScheduler"),
    "sfq": ("repro.core.sfq", "SFQScheduler"),
    "vclock": ("repro.core.virtual_clock", "VirtualClockScheduler"),
    "ffq": ("repro.core.ffq", "FFQScheduler"),
    "wfq": ("repro.core.wfq", "WFQScheduler"),
    "wf2q": ("repro.core.wf2q", "WF2QScheduler"),
    "wf2qplus": ("repro.core.wf2qplus", "WF2QPlusScheduler"),
}


def _tree_from_list(tree):
    """``["name", share, [children...]]`` -> :class:`NodeSpec`."""
    from repro.config.hierarchy_spec import leaf, node

    name, share, children = tree
    if not children:
        return leaf(name, share)
    return node(name, share, [_tree_from_list(c) for c in children])


def tree_to_list(spec):
    """:class:`NodeSpec` -> the plain nested-list form workers rebuild."""
    return [spec.name, spec.share,
            [tree_to_list(c) for c in spec.children]]


def build_scheduler(spec):
    """Instantiate a scheduler from its plain-data spec.

    Specs written by earlier versions may carry ``"backend": "exact"``
    (every serve checkpoint did) and a ``"chunk"`` drain size; both are
    accepted and ignored, since the exact scheduler is the only
    implementation and chunking never changed what is served.  Any other
    backend names an implementation that no longer exists and raises
    :class:`~repro.errors.ConfigurationError`.
    """
    backend = spec.get("backend", "exact")
    if backend != "exact":
        raise ConfigurationError(
            f"unknown scheduler backend {backend!r}: the float64 'vector' "
            f"backend was removed, and 'exact' (the default) is the only "
            f"one left")
    if spec["kind"] == "hpfq":
        from repro.core.hierarchy import HPFQScheduler

        sched = HPFQScheduler(_tree_from_list(spec["tree"]),
                              spec["rate"], policy=spec["policy"])
    else:
        if spec["policy"] not in _FLAT_SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler policy {spec['policy']!r}")
        module, name = _FLAT_SCHEDULERS[spec["policy"]]
        sched = getattr(import_module(module), name)(spec["rate"])
        for flow_id, share in spec["flows"]:
            sched.add_flow(flow_id, share)
    for flow_id, packets in sorted(spec.get("buffers", {}).items(),
                                   key=lambda kv: str(kv[0])):
        sched.set_buffer_limit(flow_id, packets)
    return sched


def build_source(spec):
    """Instantiate a traffic source from its plain-data spec."""
    from repro.traffic.source import (
        CBRSource,
        MarkovOnOffSource,
        OnOffSource,
        PacketTrainSource,
        PoissonSource,
    )

    kind = spec["type"]
    flow, length = spec["flow"], spec["length"]
    start = spec.get("start", 0.0)
    stop = spec.get("stop")
    if kind == "cbr":
        return CBRSource(flow, spec["rate"], length, start_time=start,
                         stop_time=stop)
    if kind == "poisson":
        return PoissonSource(flow, spec["rate"], length, seed=spec["seed"],
                             start_time=start, stop_time=stop)
    if kind == "onoff":
        return OnOffSource(flow, spec["peak"], length, spec["on"],
                           spec["off"], start_time=start, stop_time=stop)
    if kind == "train":
        return PacketTrainSource(flow, length, spec["train_length"],
                                 spec["interval"], spec["line_rate"],
                                 start_time=start, stop_time=stop)
    if kind == "markov":
        return MarkovOnOffSource(flow, spec["peak"], length,
                                 spec["mean_on"], spec["mean_off"],
                                 seed=spec["seed"], start_time=start,
                                 stop_time=stop)
    raise ConfigurationError(f"unknown source type {kind!r}")


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
class _Cell:
    """Live pieces of one cell, held together for collection."""

    __slots__ = ("spec", "links", "sinks", "sources", "network")

    def __init__(self, spec):
        self.spec = spec
        self.links = {}     # link name -> Link
        self.sinks = {}     # link name -> MetricsSink
        self.sources = []
        self.network = None


def build_cell(sim, spec, start=True):
    """Construct a cell's live objects on ``sim``; optionally start traffic.

    ``start=False`` leaves the sources attached but unscheduled, for
    :func:`resume_cell` to restore instead.
    """
    from repro.obs.sinks import MetricsSink
    from repro.sim.link import Link
    from repro.sim.monitor import ServiceTrace

    cell = _Cell(spec)
    if spec["kind"] == "network":
        from repro.sim.network import Network

        net = Network(sim)
        cell.network = net
        for name, sched_spec, delay in spec["nodes"]:
            link = net.add_node(name, build_scheduler(sched_spec),
                                propagation_delay=delay)
            cell.links[name] = link
            sink = MetricsSink()
            link.attach_observer(sink)
            cell.sinks[name] = sink
        for flow_id, path, share, buffer in spec["routes"]:
            net.add_route(flow_id, path, share=share, buffer=buffer)
        for src_spec in spec["sources"]:
            source = build_source(src_spec)
            source.attach(sim, net.entry(src_spec["flow"]))
            cell.sources.append(source)
            if start:
                source.start()
    else:
        link = Link(sim, build_scheduler(spec["scheduler"]),
                    trace=ServiceTrace())
        cell.links["link"] = link
        sink = MetricsSink()
        link.attach_observer(sink)
        cell.sinks["link"] = sink
        for src_spec in spec["sources"]:
            source = build_source(src_spec).attach(sim, link)
            cell.sources.append(source)
            if start:
                source.start()
    return cell


def _service_rows(trace, with_arrival):
    """ScheduledPacket records -> plain rows, exact values preserved.

    Rows key packets by ``(flow_id, seqno)`` — never ``uid``, which is a
    process-local counter.  Virtual tags ride along so the differential
    suite compares the scheduler's internal arithmetic (Fractions and
    all), not just wall-clock times.
    """
    rows = []
    for r in trace.services:
        row = [r.packet.flow_id, r.packet.seqno, r.packet.length]
        if with_arrival:
            row.append(r.packet.arrival_time)
        row.extend((r.start_time, r.finish_time,
                    r.virtual_start, r.virtual_finish))
        rows.append(row)
    return rows


def _flow_metrics(sink):
    out = {}
    for fid in sink.flows():
        m = sink.flow(fid)
        out[fid] = {
            "enqueues": m.enqueues,
            "dequeues": m.dequeues,
            "drops": m.drops,
            "bits_in": m.bits_in,
            "bits_out": m.bits_out,
            "queue_len": m.queue_len,
            "max_queue_len": m.max_queue_len,
            "delay_count": m.delay_count,
            "delay_sum": m.delay_sum,
            "delay_max": m.delay_max,
            "histogram": list(m.histogram),
        }
    return out


def _collect_link(link, sink, with_arrival):
    sched = link.scheduler
    return {
        "services": _service_rows(link.trace, with_arrival),
        "flows": _flow_metrics(sink),
        "ledger": sched.conservation(),
        "drops_by_flow": {fid: sched.drops(fid) for fid in sched.flow_ids
                          if sched.drops(fid)},
        "link": {
            "packets_sent": link.packets_sent,
            "bits_sent": link.bits_sent,
            "packets_dropped": link.packets_dropped,
            "busy_time": link.busy_time,
        },
    }


def collect(cell):
    """Harvest one cell's results as plain data (picklable, mergeable)."""
    result = {"cell": cell.spec["cell"], "kind": cell.spec["kind"],
              "links": {}}
    with_arrival = cell.network is None  # per-hop restamps make it hop-local
    for name in sorted(cell.links, key=str):
        result["links"][name] = _collect_link(
            cell.links[name], cell.sinks[name], with_arrival)
    if cell.network is not None:
        # Egress order is deterministic within a cell, but sort anyway so
        # the digest never depends on equal-time callback interleaving.
        result["deliveries"] = sorted(
            cell.network.log.deliveries,
            key=lambda d: (d[2], d[1], str(d[0])))
    return result


def _batch_totals(cells):
    """Sum the schedulers' batch counters across a group of cells.

    Like ``events_elided``, these are *process-local* observability
    counters — how much work went through the batch APIs depends on what
    shares the event heap — so they ride in the sim stats (merged by
    summing, excluded from the digest), not in the cell results.
    """
    calls = packets = 0
    for cell in cells:
        for link in cell.links.values():
            stats = link.scheduler.batch_stats()
            calls += stats["batch_calls"]
            packets += stats["batch_packets"]
    return {"batch_calls": calls, "batch_packets": packets}


def run_cells(specs, duration):
    """Run a group of cells in ONE simulator; returns (results, sim stats).

    This is both the whole job of a shard worker and — passed every cell —
    the single-process reference run, which is what makes ``--shards 1``
    a genuine baseline rather than a degenerate pool.
    """
    from repro.sim.engine import Simulator

    sim = Simulator()
    cells = [build_cell(sim, spec) for spec in specs]
    sim.run(until=duration)
    results = {cell.spec["cell"]: collect(cell) for cell in cells}
    stats = {"events_processed": sim.events_processed,
             "events_elided": sim.events_elided}
    stats.update(_batch_totals(cells))
    return results, stats


def run_shard(job):
    """Pool entry: ``(shard_id, [cell specs], duration[, attempt])``.

    ``attempt`` (default 0) is the driver's retry counter; it feeds the
    deterministic crash injection below and nothing else, so legacy
    3-tuple jobs behave identically.
    """
    shard_id, specs, duration, *rest = job
    attempt = rest[0] if rest else 0
    _maybe_fail(shard_id, specs, attempt)
    results, stats = run_cells(specs, duration)
    return {"shard": shard_id, "results": results, "sim": stats}


def _maybe_fail(shard_id, specs, attempt):
    """Deterministic worker-crash injection for retry tests and soak runs.

    A cell spec may carry ``"fail": {"mode": "exit"|"raise", "attempts": k}``
    — the worker dies (hard process exit, or a pickled exception) while
    ``attempt < k``, then succeeds, so the driver's retry/backoff logic is
    testable without real flakiness.  Production specs never set the key.
    """
    for spec in specs:
        fail = spec.get("fail")
        if not fail or attempt >= int(fail.get("attempts", 1)):
            continue
        if fail.get("mode", "raise") == "exit":
            import os

            os._exit(17)
        raise RuntimeError(
            f"injected worker failure: shard {shard_id!r}, "
            f"attempt {attempt}")


# ----------------------------------------------------------------------
# Checkpoint-based migration
# ----------------------------------------------------------------------
def checkpoint_cell(spec, at):
    """Run a flat cell to ``at`` and capture a picklable checkpoint.

    The checkpoint carries the joint link+scheduler snapshot (including
    the in-flight packet; see :meth:`repro.sim.link.Link.snapshot`), the
    per-source emission snapshots, and the partial results of the first
    segment.  ``sim.run(until=at)`` leaves the stack in a consistent
    state — any transmission crossing the cut holds a real finish event,
    which the snapshot encodes and :func:`resume_cell` re-arms.
    """
    from repro.sim.engine import Simulator

    if spec["kind"] == "network":
        raise ConfigurationError(
            "network cells cannot be checkpointed (in-flight hop state is "
            "not snapshottable); migrate flat cells only")
    sim = Simulator()
    cell = build_cell(sim, spec)
    sim.run(until=at)
    sim_stats = {"events_processed": sim.events_processed,
                 "events_elided": sim.events_elided}
    sim_stats.update(_batch_totals([cell]))
    return {
        "cell": spec["cell"],
        "clock": at,
        "link": cell.links["link"].snapshot(),
        "sources": [src.snapshot() for src in cell.sources],
        "partial": collect(cell),
        "sim": sim_stats,
    }


def resume_cell(spec, ckpt, duration):
    """Rebuild a checkpointed cell in a fresh process and finish the run.

    Returns the merged (segment 1 + segment 2) cell result plus the
    combined simulator stats.  The link is restored before the sources so
    the re-armed finish event exists first; pending emissions are then
    re-scheduled in ascending time order, reproducing the heap order the
    uninterrupted run would have used.
    """
    from repro.sim.engine import Simulator

    if ckpt["cell"] != spec["cell"]:
        raise ConfigurationError(
            f"checkpoint is for cell {ckpt['cell']!r}, "
            f"not {spec['cell']!r}")
    sim = Simulator()
    cell = build_cell(sim, spec, start=False)
    link = cell.links["link"]
    link.restore(ckpt["link"], rearm=True)
    pairs = sorted(
        zip(cell.sources, ckpt["sources"]),
        key=lambda p: (p[1]["pending_time"] is None,
                       p[1]["pending_time"] or 0.0))
    for source, snap in pairs:
        source.restore(snap)
    sim.run(until=duration)
    segment = collect(cell)
    merged = merge_segments(ckpt["partial"], segment)
    stats = {
        "events_processed": (ckpt["sim"]["events_processed"]
                             + sim.events_processed),
        "events_elided": (ckpt["sim"]["events_elided"]
                          + sim.events_elided),
    }
    # Scheduler counters are cumulative across the restore (the snapshot
    # carries them), so segment 2's batch totals are already the whole
    # run's — adding the checkpoint's would double-count segment 1.
    stats.update(_batch_totals([cell]))
    return {"result": merged, "sim": stats}


def merge_segments(seg1, seg2):
    """Splice two segments of a migrated cell into one result.

    Scheduler and link counters are cumulative across the restore, so
    segment 2's ledger and link totals are authoritative.  Service rows
    concatenate (segment 1 served strictly before the cut).  Metrics
    sinks restart empty in the new process, so streaming counters add,
    maxima take the max, and the delay histogram adds bucket-wise;
    the queue-length gauges are left as segment 2 reported them — they
    are wrong after a migration (the fresh sink never saw the backlog
    build up), which is exactly why the digest excludes gauges.
    """
    out = {"cell": seg2["cell"], "kind": seg2["kind"], "links": {}}
    for name, l2 in seg2["links"].items():
        l1 = seg1["links"][name]
        flows = {}
        for fid in sorted(set(l1["flows"]) | set(l2["flows"]), key=str):
            m1 = l1["flows"].get(fid)
            m2 = l2["flows"].get(fid)
            if m1 is None or m2 is None:
                flows[fid] = dict(m1 or m2)
                continue
            merged = {}
            for key in ("enqueues", "dequeues", "drops", "bits_in",
                        "bits_out", "delay_count", "delay_sum"):
                merged[key] = m1[key] + m2[key]
            merged["delay_max"] = max(m1["delay_max"], m2["delay_max"])
            merged["max_queue_len"] = max(m1["max_queue_len"],
                                          m2["max_queue_len"])
            merged["queue_len"] = m2["queue_len"]
            merged["histogram"] = [a + b for a, b in
                                   zip(m1["histogram"], m2["histogram"])]
            flows[fid] = merged
        out["links"][name] = {
            "services": l1["services"] + l2["services"],
            "flows": flows,
            "ledger": l2["ledger"],
            "drops_by_flow": l2["drops_by_flow"],
            "link": l2["link"],
        }
    return out
