"""Least-laxity-first rebuild scheduler (the other classical greedy).

LLF prioritizes the job whose *laxity* — remaining window minus
remaining work, here ``deadline - t - 1`` for a unit job — is smallest.
For unit jobs LLF's priority order coincides with EDF's at every time
step (laxity = deadline - t - 1 is monotone in the deadline), so LLF is
also exact; the class exists because the paper names both EDF and LLF as
brittle classical policies and the brittleness experiment (E3) exercises
both. The implementations differ in their tie-breaking (LLF breaks ties
by *release* then id, EDF by id), which is enough to make their
reallocation traces diverge — demonstrating that the brittleness is a
property of rebuild-from-scratch greedy policies, not of one particular
ordering.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from ..core.base import ReallocatingScheduler
from ..core.exceptions import InfeasibleError
from ..core.job import Job, JobId, Placement


class LLFRebuildScheduler(ReallocatingScheduler):
    """Recompute a least-laxity-first schedule from scratch on every request."""

    def __init__(self, num_machines: int = 1) -> None:
        super().__init__(num_machines)
        self._placements: dict[JobId, Placement] = {}

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    def _apply_insert(self, job: Job) -> None:
        if job.size != 1:
            raise InfeasibleError("LLF rebuild handles unit jobs only")
        self._rebuild()

    def _apply_delete(self, job: Job) -> None:
        remaining = {k: v for k, v in self.jobs.items() if k != job.id}
        self._rebuild(remaining)

    def _rebuild(self, jobs: Mapping[JobId, Job] | None = None) -> None:
        jobs = self.jobs if jobs is None else jobs
        placements = llf_schedule(jobs, self.num_machines)
        # a rebuild may move every job: log all pre-request placements
        self._merge_touched(self._placements)
        self._placements = placements


def llf_schedule(
    jobs: Mapping[JobId, Job],
    num_machines: int,
) -> dict[JobId, Placement]:
    """One-shot LLF schedule; raises InfeasibleError when a job is late.

    At each slot ``t`` a released unit job's laxity is
    ``deadline - t - 1``; smallest laxity runs first. Ties break by
    (release, id-string).
    """
    placements: dict[JobId, Placement] = {}
    if not jobs:
        return placements
    order = sorted(jobs.values(), key=lambda j: (j.release, j.deadline, str(j.id)))
    heap: list[tuple[int, int, str, JobId]] = []  # (deadline, release, tie, id)
    idx = 0
    n = len(order)
    t = order[0].release
    while idx < n or heap:
        if not heap and idx < n and order[idx].release > t:
            t = order[idx].release
        while idx < n and order[idx].release <= t:
            j = order[idx]
            # laxity order == deadline order for unit jobs; the stored
            # tuple encodes LLF's distinct tie-breaking.
            heapq.heappush(heap, (j.deadline, j.release, str(j.id), j.id))
            idx += 1
        for machine in range(num_machines):
            if not heap:
                break
            deadline, _rel, _tie, job_id = heapq.heappop(heap)
            if deadline - t - 1 < 0:
                raise InfeasibleError(
                    f"LLF: job {job_id!r} has negative laxity at time {t}"
                )
            placements[job_id] = Placement(machine, t)
        t += 1
    return placements
