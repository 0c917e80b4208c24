"""Analysis toolkit: the paper's theory, made executable.

* :mod:`repro.analysis.bounds` — closed-form B-WFI and delay bounds
  (Theorems 1-4, Corollaries 1-2).
* :mod:`repro.analysis.wfi` — empirical B-WFI / T-WFI measured from a
  :class:`~repro.sim.monitor.ServiceTrace`.
* :mod:`repro.analysis.lag` — service-lag curves (Figure 5).
* :mod:`repro.analysis.bandwidth` — throughput series with exponential
  averaging (Figure 9).
* :mod:`repro.analysis.fluid` — the GPS fluid reference for a whole
  trace (virtual tags and real finish times from the online
  :class:`~repro.core.gps.GPSFluidSystem`, exact under ``Fraction``).
"""

from repro.analysis.bandwidth import exponential_average, throughput_series
from repro.analysis.bounds import (
    end_to_end_delay_bound,
    hpfq_bwfi,
    hpfq_delay_bound,
    sbi_from_delay_bound,
    scfq_delay_bound,
    wf2q_delay_bound,
    wf2q_wfi,
    wfq_delay_bound,
    wfq_wfi_lower_bound,
)
from repro.analysis.fairness import (
    jain_index,
    relative_fairness_bound,
    throughput_shares,
)
from repro.analysis.fluid import fluid_finish_times
from repro.analysis.lag import max_service_lag, service_lag_series
from repro.analysis.wfi import backlogged_periods, empirical_bwfi, empirical_twfi

__all__ = [
    "wf2q_wfi",
    "wfq_wfi_lower_bound",
    "wf2q_delay_bound",
    "wfq_delay_bound",
    "scfq_delay_bound",
    "hpfq_bwfi",
    "hpfq_delay_bound",
    "end_to_end_delay_bound",
    "sbi_from_delay_bound",
    "jain_index",
    "relative_fairness_bound",
    "throughput_shares",
    "empirical_bwfi",
    "empirical_twfi",
    "backlogged_periods",
    "service_lag_series",
    "max_service_lag",
    "throughput_series",
    "exponential_average",
    "fluid_finish_times",
]
