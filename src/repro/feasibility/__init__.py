"""Offline feasibility and underallocation substrate (matching, Hall/density).

Each name below loads its submodule on first access.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "check_feasible": ".checker",
    "check_gamma_underallocated": ".checker",
    "density_gamma": ".checker",
    "max_density": ".checker",
    "offline_schedule": ".checker",
    "LaminarLoadTree": ".hall",
    "coarse_grid_jobs": ".hall",
    "interval_density_bound": ".hall",
    "underallocation_factor": ".hall",
    "HopcroftKarp": ".matching",
    "feasible_assignment": ".matching",
    "greedy_edf_feasible": ".matching",
    "max_matching_size": ".matching",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
