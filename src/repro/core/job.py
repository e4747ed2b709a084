"""Jobs and placements.

A :class:`Job` couples an identifier with a :class:`~repro.core.window.Window`
and a size (processing time). The paper's main results are for unit-size
jobs (``size == 1``); sizes ``> 1`` exist to support the Observation 13
lower bound and the sized-job baseline scheduler.

A :class:`Placement` records where a job currently sits: machine index
plus starting slot. For unit jobs the job occupies exactly that slot; a
size-``k`` job occupies slots ``[slot, slot + k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .window import Window

JobId = Hashable


@dataclass(frozen=True, slots=True)
class Job:
    """An immutable job description.

    Attributes
    ----------
    id:
        Any hashable identifier, unique among active jobs.
    window:
        Admissible time window. For a size-``k`` job the *start* slot
        must satisfy ``window.release <= start`` and
        ``start + k <= window.deadline``.
    size:
        Processing time in slots; the paper's core results assume 1.
    """

    id: JobId
    window: Window
    size: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"job size must be >= 1, got {self.size}")
        if self.window.span < self.size:
            raise ValueError(
                f"window span {self.window.span} cannot fit a size-{self.size} job"
            )

    @property
    def span(self) -> int:
        """Shorthand for the window's span (paper: 'job's span')."""
        return self.window.span

    @property
    def release(self) -> int:
        return self.window.release

    @property
    def deadline(self) -> int:
        return self.window.deadline

    def with_window(self, window: Window) -> "Job":
        """This job with a replaced window (used by ALIGNED/trim).

        Returns ``self`` when ``window`` is the current window object:
        jobs are frozen, so sharing one is safe, and an already-aligned
        or untrimmed window allocates nothing.
        """
        if window is self.window:
            return self
        return Job(self.id, window, self.size)

    def admissible_start(self, start: int) -> bool:
        """Can this job legally start at ``start``?"""
        return self.window.release <= start and start + self.size <= self.window.deadline


@dataclass(frozen=True, slots=True)
class Placement:
    """Current location of a job: machine index and start slot."""

    machine: int
    slot: int

    def __post_init__(self) -> None:
        if self.machine < 0:
            raise ValueError("machine index must be >= 0")
