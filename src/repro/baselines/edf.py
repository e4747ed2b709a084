"""Earliest-deadline-first rebuild scheduler (the classical, brittle baseline).

Jackson's rule / EDF is the textbook algorithm for unit jobs with
release times and deadlines: sweep time slots in increasing order and at
each slot run, on each machine, a released unscheduled job with the
earliest deadline. For unit jobs on identical machines this is exact —
it finds a feasible schedule whenever one exists.

As a *reallocating* scheduler it recomputes the whole schedule from
scratch after every request. The paper's Section 1 observation is that
this class of greedy policies is **brittle**: a single insertion can
shift Omega(n) jobs even in highly underallocated instances, because the
greedy order has no memory. The E3 experiment measures exactly that
via this class.

Determinism: ties (equal deadlines) break by job id string, so the
rebuild is reproducible; the *brittleness* is intrinsic, not an artifact
of tie-breaking.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from ..core.base import ReallocatingScheduler
from ..core.exceptions import InfeasibleError
from ..core.job import Job, JobId, Placement


class EDFRebuildScheduler(ReallocatingScheduler):
    """Recompute an EDF schedule from scratch on every request."""

    def __init__(self, num_machines: int = 1) -> None:
        super().__init__(num_machines)
        self._placements: dict[JobId, Placement] = {}

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    def _apply_insert(self, job: Job) -> None:
        if job.size != 1:
            raise InfeasibleError("EDF rebuild handles unit jobs only")
        self._rebuild()

    def _apply_delete(self, job: Job) -> None:
        remaining = {k: v for k, v in self.jobs.items() if k != job.id}
        self._rebuild(remaining)

    def _rebuild(self, jobs: Mapping[JobId, Job] | None = None) -> None:
        jobs = self.jobs if jobs is None else jobs
        placements = edf_schedule(jobs, self.num_machines)
        # a rebuild may move every job: log all pre-request placements
        self._merge_touched(self._placements)
        self._placements = placements


def edf_schedule(
    jobs: Mapping[JobId, Job],
    num_machines: int,
) -> dict[JobId, Placement]:
    """One-shot EDF (Jackson's rule) schedule; raises InfeasibleError.

    Deterministic machine assignment: at each time slot, machines fill
    in index order with jobs popped in (deadline, id-string) order.
    """
    placements: dict[JobId, Placement] = {}
    if not jobs:
        return placements
    order = sorted(jobs.values(), key=lambda j: (j.release, j.deadline, str(j.id)))
    heap: list[tuple[int, str, JobId]] = []  # (deadline, tiebreak, id)
    idx = 0
    n = len(order)
    t = order[0].release
    while idx < n or heap:
        if not heap and idx < n and order[idx].release > t:
            t = order[idx].release
        while idx < n and order[idx].release <= t:
            j = order[idx]
            heapq.heappush(heap, (j.deadline, str(j.id), j.id))
            idx += 1
        for machine in range(num_machines):
            if not heap:
                break
            deadline, _tie, job_id = heapq.heappop(heap)
            if deadline <= t:
                raise InfeasibleError(
                    f"EDF: job {job_id!r} missed its deadline {deadline} at time {t}"
                )
            placements[job_id] = Placement(machine, t)
        t += 1
    return placements
