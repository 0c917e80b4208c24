"""The five benchmark workloads, built from the package's public API only.

Every workload is a closed loop with one client: the client advances the
simulation by one *slice* of simulated time, waits for it to complete, and
advances again.  ``step(k)`` runs slice ``k``; the slices of a run are the
windows the estimator in ``run.py`` times.  The simulator is deterministic,
so slice ``k`` does identical work in every repeat of the same seed.

All inputs come from ``seed``: the same seed gives the same traffic, and so
the same service order, digest and packet count.  ``scale`` multiplies the
simulated horizon (the self-test runs at a tiny scale); reference digests
exist only for ``scale == 1``.
"""

import hashlib
import math
import random
import shutil
import sys
from array import array

from repro import HPFQScheduler, HierarchySpec, WF2QPlusScheduler, leaf, node
from repro.experiments.delay import (
    FIG3_LINK_RATE,
    FIG3_PACKET_LENGTH,
    build_fig3_spec,
    build_sources,
)
from repro.serve import ServiceRunner, build_service_spec
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.traffic import CBRSource, PacketTrainSource, PoissonSource
from run import percentile

__all__ = ["WORKLOADS", "build", "Recorder"]

#: Packet length (bits) and link rate (bits/s) unless a workload says
#: otherwise.
LENGTH = 8000
RATE = 1e9

#: Slices per run at scale 1: enough that the slice p99 has ten samples
#: beyond it.
SLICES = 1000

#: Simulated length of one serve_churn slice: one ``advance`` call.
SERVE_SLICE = 0.002

#: serve_churn checkpoint cadence and idle-eviction TTL (simulated s).
CHECKPOINT_EVERY = 0.05
IDLE_TTL = 0.05

#: Incident categories that mean the service degraded.
BAD_INCIDENTS = frozenset({"quarantine", "stall", "crash"})


class Recorder:
    """Array-backed service recorder with the Link ``trace`` duck interface.

    Keeps ``(flow, seqno, finish, delay)`` per transmitted packet in flat
    arrays, so recording costs a few appends and retains no packet object
    (``retains_packets = False``).  With ``inner`` set, every call is also
    forwarded to that trace (the service runner's chained digest), so the
    recorder can sit in front of it.
    """

    retains_packets = False

    def __init__(self, flow_ids, inner=None):
        self.index = {fid: i for i, fid in enumerate(flow_ids)}
        self.inner = inner
        self.flow = array("q")
        self.seqno = array("q")
        self.finish = array("d")
        self.delay = array("d")

    def record_arrival(self, packet, now):
        if self.inner is not None:
            self.inner.record_arrival(packet, now)

    def record_arrivals(self, packets, now):
        if self.inner is not None:
            self.inner.record_arrivals(packets, now)

    def record_service(self, record):
        packet = record.packet
        finish = record.finish_time
        self.flow.append(self.index[packet.flow_id])
        self.seqno.append(packet.seqno)
        self.finish.append(finish)
        self.delay.append(finish - packet.arrival_time)
        if self.inner is not None:
            self.inner.record_service(record)

    def record_services(self, records):
        index = self.index
        flow = self.flow
        seqno = self.seqno
        finish = self.finish
        delay = self.delay
        for record in records:
            packet = record.packet
            t = record.finish_time
            flow.append(index[packet.flow_id])
            seqno.append(packet.seqno)
            finish.append(t)
            delay.append(t - packet.arrival_time)
        if self.inner is not None:
            self.inner.record_services(records)

    def digest(self):
        """sha256 over the little-endian (flow, seqno, finish) columns."""
        h = hashlib.sha256()
        for column in (self.flow, self.seqno, self.finish):
            if sys.byteorder == "big":
                column = array(column.typecode, column)
                column.byteswap()
            h.update(column.tobytes())
        return h.hexdigest()

    def order_errors(self, min_gap):
        """Service-order defects the digest alone would not explain.

        Finish times never decrease and are at least one transmission time
        apart (a link cannot outrun its rate), and each flow is served in
        seqno order (FIFO per flow).
        """
        errors = []
        last_seq = {}
        prev = -math.inf
        slack = min_gap * (1 - 1e-9)
        for i, (f, s, t) in enumerate(zip(self.flow, self.seqno,
                                          self.finish)):
            if t - prev < slack:
                errors.append(f"row {i}: finish {t!r} follows {prev!r} "
                              f"by less than one transmission time")
                break
            prev = t
            if last_seq.get(f, -1) >= s:
                errors.append(f"row {i}: flow {f} seqno {s} out of order")
                break
            last_seq[f] = s
        return errors


class SimWorkload:
    """A Simulator + Link pipeline stepped in equal slices of simulated time.

    ``delay_flow`` restricts the delay percentile to one flow (the paper's
    Figure 7 plots RT-1 only); ``None`` takes every served packet.
    """

    def __init__(self, sim, link, recorder, sources, horizon, slices,
                 length=LENGTH, delay_flow=None):
        self.sim = sim
        self.link = link
        self.recorder = recorder
        self.sources = sources
        self.horizon = horizon
        self.slices = slices
        self.length = length
        self.delay_flow = delay_flow
        self.runner = None

    def start(self):
        for source in self.sources:
            source.start()

    def step(self, k):
        self.sim.run(until=self.horizon * (k + 1) / self.slices)

    def close(self):
        pass

    def outputs(self):
        """Correctness-relevant outputs of the finished run."""
        link = self.link
        rec = self.recorder
        ledger = link.scheduler.conservation()
        offered = sum(s.packets_sent for s in self.sources)
        errors = rec.order_errors(self.length / link.rate)
        if not ledger["balanced"]:
            errors.append(f"conservation ledger unbalanced: {ledger}")
        if ledger["arrivals"] != offered:
            errors.append(f"scheduler saw {ledger['arrivals']} arrivals, "
                          f"sources offered {offered}")
        if len(rec.flow) != link.packets_sent:
            errors.append(f"recorded {len(rec.flow)} services, link sent "
                          f"{link.packets_sent}")
        if ledger["departures"] - link.packets_sent not in (0, 1):
            errors.append("scheduler departures and link transmissions "
                          "disagree by more than the packet in flight")
        if self.delay_flow is None:
            delays = rec.delay
        else:
            mine = rec.index[self.delay_flow]
            delays = [d for f, d in zip(rec.flow, rec.delay) if f == mine]
        return {
            "digest": rec.digest(),
            "packets": link.packets_sent,
            "drops": link.packets_dropped,
            "offered": offered,
            "delay_p99_us": 1e6 * percentile(delays, 0.99),
            "errors": errors,
        }


class ServeWorkload:
    """One controller driving a ServiceRunner: submit, then advance."""

    def __init__(self, runner, recorder, commands, tmpdir):
        self.runner = runner
        self.recorder = recorder
        self.commands = commands
        self.slices = len(commands)
        self.tmpdir = tmpdir

    # The runner owns its stack; read it through the runner so a rebuild
    # (quarantine) could never leave the harness holding a stale link.
    @property
    def sim(self):
        return self.runner.sim

    @property
    def link(self):
        return self.runner.link

    def start(self):
        pass  # the runner started its sources at construction

    def step(self, k):
        flow, share = self.commands[k]
        runner = self.runner
        runner.submit("set_share", flow=flow, share=share)
        runner.advance(SERVE_SLICE)

    def close(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    def outputs(self):
        runner = self.runner
        link = runner.link
        rec = self.recorder
        status = runner.status()
        errors = rec.order_errors(LENGTH / link.rate)
        if not status["conservation_balanced"]:
            errors.append("conservation ledger unbalanced")
        bad = [(e.category, e.target) for e in runner.incidents
               if e.category in BAD_INCIDENTS]
        if bad:
            errors.append(f"service incidents: {bad}")
        if runner.trace.rows != link.packets_sent:
            errors.append(f"digest folded {runner.trace.rows} rows, link "
                          f"sent {link.packets_sent}")
        if len(rec.flow) != link.packets_sent:
            errors.append(f"recorded {len(rec.flow)} services, link sent "
                          f"{link.packets_sent}")
        if runner.commands_applied != self.slices:
            errors.append(f"{runner.commands_applied} commands applied, "
                          f"{self.slices} submitted")
        expected = int(round(self.slices * SERVE_SLICE / CHECKPOINT_EVERY))
        if abs(runner.checkpoints_written - expected) > 1:
            errors.append(f"{runner.checkpoints_written} checkpoints "
                          f"written, expected about {expected}")
        return {
            "digest": runner.digest,
            "packets": link.packets_sent,
            "drops": link.packets_dropped,
            "offered": status["arrivals"],
            "delay_p99_us": 1e6 * percentile(rec.delay, 0.99),
            "errors": errors,
        }


def _slices(scale):
    return max(10, round(SLICES * scale))


def _pipeline(scheduler, flow_ids):
    sim = Simulator()
    recorder = Recorder(flow_ids)
    link = Link(sim, scheduler, trace=recorder)
    return sim, link, recorder


def build_hier_cbr(seed, scale, tmpdir):
    """H-WF2Q+ over a balanced 8x8x8 tree, 512 CBR leaves at 98% load.

    Float shares keep the tags in float arithmetic; the exact Fraction
    path is paper_fig7's job.
    """
    rng = random.Random(seed)

    def children(prefix, depth):
        kids = []
        for i in range(8):
            name = f"{prefix}{i}"
            share = float(rng.randint(1, 3))
            if depth == 3:
                kids.append(leaf(name, share))
            else:
                kids.append(node(name, share, children(name + ".", depth + 1)))
        return kids

    spec = HierarchySpec(node("root", 1, children("n", 1)))
    names = spec.leaf_names()
    sim, link, recorder = _pipeline(HPFQScheduler(spec, RATE), names)
    sources = []
    for name in names:
        rate = 0.98 * spec.guaranteed_rate(name, RATE)
        phase = rng.uniform(0.0, LENGTH / rate)
        sources.append(CBRSource(name, rate, LENGTH, start_time=phase)
                       .attach(sim, link))
    return SimWorkload(sim, link, recorder, sources, 0.6 * scale,
                       _slices(scale))


def build_flat_train_drops(seed, scale, tmpdir):
    """Flat WF2Q+, 64 flows with 64-packet drop-tail buffers, 32-packet
    trains at 8x line rate, 110% offered load."""
    rng = random.Random(seed)
    flows = 64
    rate = 1.10 * RATE / flows
    interval = 32 * LENGTH / rate
    names = [f"t{i:02d}" for i in range(flows)]
    scheduler = WF2QPlusScheduler(RATE)
    for name in names:
        scheduler.add_flow(name, 1)
        scheduler.set_buffer_limit(name, 64)
    sim, link, recorder = _pipeline(scheduler, names)
    sources = [
        PacketTrainSource(name, LENGTH, 32, interval, 8 * RATE,
                          start_time=rng.uniform(0.0, interval),
                          jitter=0.1 * interval,
                          jitter_seed=rng.getrandbits(32)).attach(sim, link)
        for name in names
    ]
    return SimWorkload(sim, link, recorder, sources, 1.0 * scale,
                       _slices(scale))


def build_flat_poisson_16k(seed, scale, tmpdir):
    """Flat WF2Q+, 16384 Poisson flows at 95% load with seeded phases."""
    rng = random.Random(seed)
    flows = 16384
    rate = 0.95 * RATE / flows
    names = list(range(flows))
    scheduler = WF2QPlusScheduler(RATE)
    for name in names:
        scheduler.add_flow(name, 1)
    sim, link, recorder = _pipeline(scheduler, names)
    sources = [
        PoissonSource(name, rate, LENGTH, seed=rng.getrandbits(32),
                      start_time=rng.uniform(0.0, LENGTH / rate))
        .attach(sim, link)
        for name in names
    ]
    return SimWorkload(sim, link, recorder, sources, 0.2 * scale,
                       _slices(scale))


def build_paper_fig7(seed, scale, tmpdir):
    """The paper's Figure 3 tree under scenario 3 (its Figure 7 run)."""
    spec = build_fig3_spec()
    scheduler = HPFQScheduler(spec, FIG3_LINK_RATE, policy="wf2qplus")
    sim, link, recorder = _pipeline(scheduler, spec.leaf_names())
    sources = [s.attach(sim, link) for s in build_sources(3, seed=seed)]
    return SimWorkload(sim, link, recorder, sources, 60.0 * scale,
                       _slices(scale), length=FIG3_PACKET_LENGTH,
                       delay_flow="RT-1")


def build_serve_churn(seed, scale, tmpdir):
    """ServiceRunner on a 256-flow churn cell with durable checkpoints.

    Each slice one controller submits a ``set_share`` for a flow of the
    active wave, then advances the service by ``SERVE_SLICE``.
    """
    flows = 256
    waves = 8
    slices = _slices(scale)
    duration = slices * SERVE_SLICE
    spec = build_service_spec(flows=flows, rate=1e8, duration=duration,
                              waves=waves, seed=seed)
    runner = ServiceRunner(spec, checkpoint_dir=tmpdir,
                           checkpoint_every=CHECKPOINT_EVERY,
                           idle_ttl=IDLE_TTL, check=True)
    names = [fid for fid, _share in spec["scheduler"]["flows"]]
    recorder = Recorder(names, inner=runner.trace)
    runner.link.trace = recorder
    rng = random.Random(seed)
    per_wave = flows // waves
    commands = []
    for k in range(slices):
        wave = min(int(k * SERVE_SLICE * waves / duration), waves - 1)
        flow = names[wave * per_wave + rng.randrange(per_wave)]
        commands.append((flow, rng.randint(1, 4)))
    return ServeWorkload(runner, recorder, commands, tmpdir)


#: name -> builder(seed, scale, tmpdir); the order is the run order.
WORKLOADS = {
    "hier_cbr": build_hier_cbr,
    "flat_train_drops": build_flat_train_drops,
    "flat_poisson_16k": build_flat_poisson_16k,
    "paper_fig7": build_paper_fig7,
    "serve_churn": build_serve_churn,
}


def build(name, seed, scale, tmpdir):
    return WORKLOADS[name](seed, scale, tmpdir)
