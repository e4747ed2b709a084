"""Window trimming to ~n (Section 4, end): the trim transform.

To add the ``log* n`` bound to the reservation scheduler's
``log* Delta``, every window is trimmed to span at most
``2 * gamma * n*``, where ``n*`` estimates the active job count (at
least :data:`MIN_N_STAR`). :func:`trim_aligned` keeps the *left-aligned
prefix* of an (already aligned) window: a power-of-two prefix of an
aligned window is itself aligned, and it nests inside the original, so
a placement feasible for the trimmed instance is feasible for the true
one. The scheduler that keeps ``n*`` and rebuilds when it changes is
:class:`repro.core.api.TrimmedReservationScheduler`; the deamortized
variant lives in ``deamortized.py``.
"""

from __future__ import annotations

from .._exports import lazy_exports
from ..core.window import Window


#: floor of the n* estimate (a power of two; avoids degenerate trims at
#: tiny n)
MIN_N_STAR = 4


def trim_aligned(window: Window, max_span: int) -> Window:
    """Left prefix of an aligned window with span <= max_span (still aligned)."""
    if not window.is_aligned:
        raise ValueError(f"{window} is not aligned")
    if window.span <= max_span:
        return window
    # Largest power of two <= max_span; the prefix of that span is aligned.
    span = 1 << (max_span.bit_length() - 1)
    return Window(window.release, window.release + span)


#: the old import path of ``TrimmedReservationScheduler``, resolved on
#: first access: the class subclasses the facade, which imports this module
__getattr__, __dir__ = lazy_exports(
    __name__, {"TrimmedReservationScheduler": "..core.api"})
