"""Window alignment transform (Section 5).

``ALIGNED(W)`` replaces a window with a largest aligned window contained
in it (span >= |W|/4). Lemma 10: if the original instance is m-machine
4*gamma-underallocated, the aligned instance is gamma-underallocated —
so the transform costs a constant factor of slack and nothing else.

:class:`AligningScheduler` is a transparent wrapper: callers insert jobs
with arbitrary windows; the wrapped scheduler only ever sees aligned
windows. Placements remain valid for the original windows because
``ALIGNED(W)`` nests inside ``W``.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.base import ReallocatingScheduler
from ..core.job import Job, JobId, Placement


def align_job(job: Job) -> Job:
    """The paper's ALIGNED(j): replace the window by its aligned core."""
    return job.with_window(job.window.aligned_within())


def align_jobs(jobs: Mapping[JobId, Job]) -> dict[JobId, Job]:
    """ALIGNED(J) for a whole instance."""
    return {job_id: align_job(job) for job_id, job in jobs.items()}


class AligningScheduler(ReallocatingScheduler):
    """Wraps any scheduler, feeding it ALIGNED(W) windows.

    The wrapped scheduler may itself be multi-machine; this wrapper is
    placement- and machine-transparent.
    """

    def __init__(self, inner_factory: Callable[[], ReallocatingScheduler]) -> None:
        inner = inner_factory()
        super().__init__(num_machines=inner.num_machines)
        self.inner = self._adopt(inner)

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self.inner.placements

    def _apply_insert(self, job: Job) -> None:
        self.inner.insert(align_job(job))

    def _apply_delete(self, job: Job) -> None:
        self.inner.delete(job.id)
