"""Greedy rebuild scheduler for jobs with sizes > 1 (Observation 13 support).

The paper's main results are for unit jobs; Observation 13 shows why:
with sizes 1 and k mixed, *any* reallocating scheduler can be forced to
pay Omega(k*n) over Theta(n) requests. To measure that lower bound we
need some scheduler that handles sized jobs at all; this module provides
a deadline-ordered first-fit rebuild:

    sort active jobs by (deadline, -size); place each at the earliest
    admissible start with `size` consecutive free slots on any machine.

Non-preemptive scheduling of mixed-size jobs with windows is NP-hard in
general, so this greedy is *not* exact — it raises
:class:`InfeasibleError` when it fails even though a feasible schedule
might exist. It is exact on the Observation 13 adversary family (one
size-k job plus unit jobs with full windows), which is all the
experiment needs; the docstring of E6 in EXPERIMENTS.md records this
substitution.
"""

from __future__ import annotations

from typing import Mapping

from ..core.base import ReallocatingScheduler
from ..core.exceptions import InfeasibleError
from ..core.job import Job, JobId, Placement


class SizedGreedyScheduler(ReallocatingScheduler):
    """Deadline-ordered first-fit rebuild for jobs of mixed sizes."""

    def __init__(self, num_machines: int = 1) -> None:
        super().__init__(num_machines)
        self._placements: dict[JobId, Placement] = {}

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    def _apply_insert(self, job: Job) -> None:
        self._rebuild(self.jobs)

    def _apply_delete(self, job: Job) -> None:
        remaining = {k: v for k, v in self.jobs.items() if k != job.id}
        self._rebuild(remaining)

    def _rebuild(self, jobs: Mapping[JobId, Job]) -> None:
        placements = sized_first_fit(jobs, self.num_machines)
        # a rebuild may move every job: log all pre-request placements
        self._merge_touched(self._placements)
        self._placements = placements


def sized_first_fit(
    jobs: Mapping[JobId, Job],
    num_machines: int,
) -> dict[JobId, Placement]:
    """Deadline-ordered first-fit for sized jobs; raises on failure.

    Larger jobs break deadline ties first (they are harder to fit).
    """
    order = sorted(jobs.values(), key=lambda j: (j.deadline, -j.size, str(j.id)))
    occupied: list[set[int]] = [set() for _ in range(num_machines)]
    placements: dict[JobId, Placement] = {}
    for job in order:
        placed = False
        for start in range(job.release, job.deadline - job.size + 1):
            span = range(start, start + job.size)
            for machine in range(num_machines):
                if all(t not in occupied[machine] for t in span):
                    occupied[machine].update(span)
                    placements[job.id] = Placement(machine, start)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            raise InfeasibleError(
                f"first-fit could not place sized job {job.id!r} "
                f"(size {job.size}, window {job.window}); the instance may "
                "still be feasible — this greedy is not exact for mixed sizes"
            )
    return placements
