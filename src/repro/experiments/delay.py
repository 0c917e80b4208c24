"""The Figure 3 hierarchy and the three delay scenarios (Figures 4-7).

The paper's Figure 3 (reconstructed from the text of Section 5.1):

* a real-time session **RT-1** with a 0.81 share of its parent N-1, giving a
  guaranteed rate of 9 Mbps; RT-1 is a deterministic on/off source starting
  at t = 200 ms, 25 ms on / 75 ms off, average rate equal to its guarantee;
* **BE-1**, RT-1's best-effort sibling under N-1, continuously backlogged —
  so nodes N-1, N-2 and N-R are continuously backlogged and link-sharing
  between unconstrained and delay-guaranteed sessions is exercised;
* **PS-n**: constant-rate sessions with identical start times and peak =
  guaranteed rate (overloaded scenarios send at 1.5x as Poisson);
* **CS-n**: packet-train sessions (users behind an upstream multiplexer),
  one train roughly every 193 ms;
* all packets are 8 KB.

The exact figure is not in the text, so the tree below reproduces the
stated numbers: link 40 Mbps; N-2 gets 1/2 (20 Mbps); N-1 gets 5/9 of N-2
(11.11 Mbps) so RT-1's 0.81 share is exactly 9 Mbps; CS-1..CS-5 share the
rest of N-2; PS-1..PS-10 take 0.05 of the link each.

Scenarios (Section 5.1):

1. everything at its guaranteed average rate; only BE-1 is backlogged
   (Figures 4 and 5);
2. CS-n off, PS-n sent as Poisson at 1.5x their guarantee (Figure 6);
3. CS-n on *and* PS-n at 1.5x (Figure 7).
"""

from repro.config.hierarchy_spec import HierarchySpec, leaf, node
from repro.core.hierarchy import HPFQScheduler
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.monitor import ServiceTrace
from repro.traffic.source import (
    CBRSource,
    OnOffSource,
    PacketTrainSource,
    PoissonSource,
)

__all__ = [
    "FIG3_LINK_RATE",
    "FIG3_PACKET_LENGTH",
    "RT1_GUARANTEED_RATE",
    "build_fig3_spec",
    "build_sources",
    "run_delay_experiment",
]

#: Link rate (bits/second).
FIG3_LINK_RATE = 40_000_000
#: 8 KB packets, as in the paper.
FIG3_PACKET_LENGTH = 8 * 1024 * 8
#: RT-1's guaranteed rate: 0.81 * (5/9) * (1/2) * 40 Mbps = 9 Mbps.
RT1_GUARANTEED_RATE = 9_000_000

#: RT-1 duty cycle (seconds).
RT1_ON = 0.025
RT1_OFF = 0.075
RT1_START = 0.200
#: RT-1 sends at exactly its guaranteed rate during the on period, so its
#: (sigma, rho) envelope is (one packet, 9 Mbps): under H-WF2Q+ its delay
#: then stays near the Corollary 2 bound, and the spikes H-WFQ adds on top
#: (the paper's Figure 4 effect) stand out instead of being buried under
#: self-queueing.
RT1_PEAK = RT1_GUARANTEED_RATE
#: Packets per RT-1 burst; with peak == guarantee the burst envelope is a
#: single packet (sigma = L) because emissions are spaced exactly L/rho.
RT1_BURST_PACKETS = int(RT1_ON * RT1_PEAK / FIG3_PACKET_LENGTH) + 1
RT1_SIGMA = FIG3_PACKET_LENGTH

#: CS-n train timing: one train about every 193 ms (Section 5.1.1), giving
#: the ~3 s beat against RT-1's 100 ms duty cycle that the paper describes.
#: Two packets per train keeps each CS session inside its 0.89 Mbps
#: guarantee (scenario 1 sends everything at its guaranteed average rate).
CS_TRAIN_INTERVAL = 0.193
CS_TRAIN_LENGTH = 2
#: Upstream multiplexer line rate: the paper's trains come from "users
#: and/or networks with high speed connections", so they land at link speed.
CS_LINE_RATE = FIG3_LINK_RATE

N_PS = 10
N_CS = 10


def build_fig3_spec():
    """The Figure 3 link-sharing tree.

    Link 40 Mbps; N-2 gets 1/2 (20 Mbps); N-1 gets 5/9 of N-2 (11.1 Mbps)
    so RT-1's 0.81 share is exactly 9 Mbps; CS-1..CS-10 share the remaining
    4/9 of N-2 (0.89 Mbps each); PS-1..PS-10 take 0.05 of the link each
    (2 Mbps).
    """
    return HierarchySpec(node("N-R", 1, [
        node("N-2", 50, [
            node("N-1", 500, [
                leaf("RT-1", 81),
                leaf("BE-1", 19),
            ]),
            # 10 packet-train classes share the other 4/9 of N-2.
            *[leaf(f"CS-{i}", 40) for i in range(1, N_CS + 1)],
        ]),
        *[leaf(f"PS-{i}", 5) for i in range(1, N_PS + 1)],
    ]))


def build_sources(scenario, seed=1):
    """The source set of one scenario: list of unattached Sources.

    ``scenario``: 1 (Figures 4-5), 2 (Figure 6), or 3 (Figure 7).
    """
    if scenario not in (1, 2, 3):
        raise ValueError(f"scenario must be 1, 2, or 3, got {scenario!r}")
    spec = build_fig3_spec()
    length = FIG3_PACKET_LENGTH
    sources = [
        OnOffSource("RT-1", peak_rate=RT1_PEAK, packet_length=length,
                    on_duration=RT1_ON, off_duration=RT1_OFF,
                    start_time=RT1_START),
        # BE-1 continuously backlogged: CBR well above its ~2.1 Mbps share.
        CBRSource("BE-1", rate=3 * spec.guaranteed_rate("BE-1", FIG3_LINK_RATE),
                  packet_length=length),
    ]
    ps_guaranteed = spec.guaranteed_rate("PS-1", FIG3_LINK_RATE)
    if scenario == 1:
        for i in range(1, N_PS + 1):
            sources.append(CBRSource(
                f"PS-{i}", rate=ps_guaranteed, packet_length=length))
    else:
        # Overload: Poisson at 1.5x the guaranteed rate (Sections 5.1.2-3).
        for i in range(1, N_PS + 1):
            sources.append(PoissonSource(
                f"PS-{i}", rate=1.5 * ps_guaranteed, packet_length=length,
                seed=seed * 1000 + i))
    if scenario in (1, 3):
        for i in range(1, N_CS + 1):
            sources.append(PacketTrainSource(
                f"CS-{i}", packet_length=length,
                train_length=CS_TRAIN_LENGTH,
                train_interval=CS_TRAIN_INTERVAL,
                line_rate=CS_LINE_RATE,
                # Stagger train phases so the multiplexer model is honest.
                start_time=0.003 * i,
            ))
    return sources


def run_delay_experiment(policy, scenario, duration=5.0, seed=1):
    """Simulate one scenario under one H-PFQ node policy.

    Returns the :class:`~repro.sim.monitor.ServiceTrace`; RT-1's delay
    series (``trace.delays("RT-1")``) is what Figures 4, 6, and 7 plot, and
    its arrival/service curves (Figure 5) come from
    :func:`repro.analysis.lag.service_lag_series`.
    """
    spec = build_fig3_spec()
    sim = Simulator()
    trace = ServiceTrace()
    scheduler = HPFQScheduler(spec, FIG3_LINK_RATE, policy=policy)
    link = Link(sim, scheduler, trace=trace)
    for source in build_sources(scenario, seed=seed):
        source.attach(sim, link).start()
    sim.run(until=duration)
    return trace

