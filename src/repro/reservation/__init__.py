"""The paper's core contribution: pecking-order scheduling with reservations."""

from .deamortized import DeamortizedReservationScheduler, virtual_window
from .interval import Interval
from .scheduler import AlignedReservationScheduler
from .validation import validate_scheduler
from .window_state import WindowState, dynamic_count, rr_counts, rr_diff

__all__ = [
    "DeamortizedReservationScheduler",
    "virtual_window",
    "Interval",
    "AlignedReservationScheduler",
    "validate_scheduler",
    "WindowState",
    "dynamic_count",
    "rr_counts",
    "rr_diff",
]
