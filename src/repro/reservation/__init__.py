"""The paper's core contribution: pecking-order scheduling with reservations.

Each name below loads its submodule on first access.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "DeamortizedReservationScheduler": ".deamortized",
    "virtual_window": ".deamortized",
    "Interval": ".interval",
    "AlignedReservationScheduler": ".scheduler",
    "validate_scheduler": ".validation",
    "WindowState": ".window_state",
    "dynamic_count": ".window_state",
    "rr_counts": ".window_state",
    "rr_diff": ".window_state",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
