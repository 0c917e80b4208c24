"""Reusable builders for every experiment in the paper's evaluation.

* :mod:`repro.experiments.fig2` — the Section 3.1 example (Figure 2):
  WFQ's burst vs WF2Q/WF2Q+'s interleaving vs the GPS fluid timeline.
* :mod:`repro.experiments.delay` — the Figure 3 hierarchy and the three
  cross-traffic scenarios behind Figures 4, 5, 6, and 7.
* :mod:`repro.experiments.linksharing` — the Figure 8 hierarchy with TCP
  and scripted on/off sources behind Figure 9.

Each builder returns plain data (traces, series) so the same code feeds the
tests, the benchmarks, and the examples.
"""

from repro._lazy import lazy_exports

#: Public name -> the module defining it (see :mod:`repro._lazy`).
_EXPORTS = {
    "fig2_schedule": "repro.experiments.fig2",
    "fig2_gps_departures": "repro.experiments.fig2",
    "run_fig2": "repro.experiments.fig2",
    "FIG3_LINK_RATE": "repro.experiments.delay",
    "FIG3_PACKET_LENGTH": "repro.experiments.delay",
    "build_fig3_spec": "repro.experiments.delay",
    "run_delay_experiment": "repro.experiments.delay",
    "FIG8_LINK_RATE": "repro.experiments.linksharing",
    "FIG8_PACKET_LENGTH": "repro.experiments.linksharing",
    "ONOFF_SCHEDULE": "repro.experiments.linksharing",
    "build_fig8_spec": "repro.experiments.linksharing",
    "ideal_intervals": "repro.experiments.linksharing",
    "run_linksharing": "repro.experiments.linksharing",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
