"""Window alignment transform (Section 5).

``ALIGNED(W)`` replaces a window with a largest aligned window contained
in it (span >= |W|/4). Lemma 10: if the original instance is m-machine
4*gamma-underallocated, the aligned instance is gamma-underallocated —
so the transform costs a constant factor of slack and nothing else.

The transform is applied once per insert by the scheduler that costs
each request (the top of every :class:`repro.core.api.ReservationScheduler`
stack), not by a scheduler layer of its own: the schedulers below it
only ever see aligned windows. Placements remain valid for the
original windows because ``ALIGNED(W)`` nests inside ``W``.
"""

from __future__ import annotations

from typing import Mapping

from ..core.job import Job, JobId


def align_job(job: Job) -> Job:
    """The paper's ALIGNED(j): replace the window by its aligned core."""
    return job.with_window(job.window.aligned_within())


def align_jobs(jobs: Mapping[JobId, Job]) -> dict[JobId, Job]:
    """ALIGNED(J) for a whole instance."""
    return {job_id: align_job(job) for job_id, job in jobs.items()}
