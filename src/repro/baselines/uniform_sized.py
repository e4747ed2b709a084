"""Uniform size-k jobs with O(log* n) reallocations (Section 7, extension).

The paper's first open question asks whether the reallocation scheduler
generalizes beyond unit sizes, noting Observation 13 blocks *mixed*
sizes. For the **uniform** case — every job has the same size k — the
answer is yes, by the same coarse-grid reduction the paper's own
Lemma 2/3 arguments use: restrict size-k jobs to start at multiples of
k; then slots of the coarse grid ``[k*v, k*(v+1))`` are unit slots and
the problem *is* the unit-job problem with windows

    [ceil(release / k), floor(deadline / k))

on the coarse grid. Every guarantee transfers verbatim: O(log* n)
coarse-moves per request (each moving one size-k job), at most one
migration, with the underallocation requirement scaled by the grid
restriction (a gamma-underallocated coarse instance corresponds to a
k*gamma'-underallocated real instance for a constant gamma').

This does not contradict Observation 13 — the lower bound needs two
*different* sizes whose boundaries misalign; a uniform grid has no
misalignment to exploit.

:class:`UniformSizedReservationScheduler` wraps the full Theorem 1
facade on the coarse grid. Jobs whose window cannot fit any full
coarse slot are rejected as infeasible-for-this-policy (their windows
are too tight for the aligned-start restriction — the constant-factor
slack assumption makes such windows jobless anyway).
"""

from __future__ import annotations

from typing import Mapping

from ..core.api import ReservationScheduler
from ..core.base import ReallocatingScheduler
from ..core.exceptions import InvalidRequestError, UnderallocationError
from ..core.job import Job, JobId, Placement
from ..core.window import Window
from ..levels.policy import LevelPolicy, PAPER_POLICY


class UniformSizedReservationScheduler(ReallocatingScheduler):
    """Theorem 1 guarantees for jobs that all share one size k.

    Parameters
    ----------
    size:
        The uniform job size k (>= 1; 1 degenerates to the unit facade).
    num_machines, gamma, policy:
        Forwarded to the inner :class:`ReservationScheduler`.
    """

    def __init__(
        self,
        size: int,
        num_machines: int = 1,
        *,
        gamma: int = 8,
        policy: LevelPolicy = PAPER_POLICY,
    ) -> None:
        super().__init__(num_machines=num_machines)
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.inner = self._adopt(ReservationScheduler(
            num_machines, gamma=gamma, policy=policy))

    # ------------------------------------------------------------------
    def _coarse_window(self, window: Window) -> Window:
        lo = -(-window.release // self.size)  # ceil
        hi = window.deadline // self.size  # floor
        if hi <= lo:
            raise UnderallocationError(
                f"window {window} admits no start at a multiple of "
                f"{self.size}; too tight for the uniform-size policy"
            )
        return Window(lo, hi)

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return {
            job_id: Placement(pl.machine, pl.slot * self.size)
            for job_id, pl in self.inner.placements.items()
        }

    def _apply_insert(self, job: Job) -> None:
        if job.size != self.size:
            raise InvalidRequestError(
                f"this scheduler handles size-{self.size} jobs only, "
                f"got size {job.size}"
            )
        coarse = Job(job.id, self._coarse_window(job.window))
        self.inner.insert(coarse)
        self._merge_scaled()

    def _apply_delete(self, job: Job) -> None:
        self.inner.delete(job.id)
        self._merge_scaled()

    def _merge_scaled(self) -> None:
        """Fold the inner request's touched log into this one's, scaled
        from coarse to real slots."""
        touched, k = self.inner.last_touched or {}, self.size
        self._merge_touched({
            job_id: None if pl is None else Placement(pl.machine, pl.slot * k)
            for job_id, pl in touched.items()})

    def check_balance(self) -> None:
        self.inner.check_balance()
