"""Workload generators: random underallocated churn, scenarios, adversaries.

Each name below loads its submodule on first access; the generators
import numpy only when they run.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "AlignedWorkloadConfig": ".random_aligned",
    "random_aligned_sequence": ".random_aligned",
    "saturated_aligned_jobs": ".random_aligned",
    "SCENARIOS": ".scenarios",
    "SCENARIO_STREAMS": ".scenarios",
    "appointment_book_sequence": ".scenarios",
    "cluster_trace_sequence": ".scenarios",
    "churn_storm_sequence": ".scenarios",
    "adversarial_span_mix_sequence": ".scenarios",
    "steady_state_sequence": ".scenarios",
    "burst_arrivals_sequence": ".scenarios",
    "iter_appointment_book": ".scenarios",
    "iter_cluster_trace": ".scenarios",
    "iter_churn_storm": ".scenarios",
    "iter_adversarial_span_mix": ".scenarios",
    "iter_steady_state": ".scenarios",
    "iter_burst_arrivals": ".scenarios",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
