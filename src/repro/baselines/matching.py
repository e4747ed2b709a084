"""Per-request-optimal minimum-change scheduler (Hungarian assignment).

A strong comparator the paper does not have: after each request, compute
the feasible schedule that moves the *fewest* existing jobs relative to
the previous schedule. This is an assignment problem — jobs to
(machine, slot) pairs, cost 0 for keeping a job's previous placement and
1 for any other admissible placement — solved exactly with
``scipy.optimize.linear_sum_assignment``.

Its per-request cost lower-bounds every reallocating scheduler's
*greedy-per-request* cost, making it the yardstick in E1/E3: the
reservation scheduler's costs should sit within a constant factor of
this local optimum, while EDF rebuilds sit far above. (Note it is not a
global lower bound over whole sequences — being locally stingy can paint
the schedule into corners; the Lemma 12 adversary forces even this
scheduler to pay Theta(s^2).)

The assignment solve is O(n^3)-ish per request — this baseline is for
*cost* comparisons, not throughput.
"""

from __future__ import annotations

from typing import Mapping

from ..core.base import ReallocatingScheduler
from ..core.exceptions import InfeasibleError, InvalidRequestError
from ..core.job import Job, JobId, Placement


class MinChangeMatchingScheduler(ReallocatingScheduler):
    """Per-request minimum-reallocation scheduler via optimal assignment.

    Parameters
    ----------
    num_machines:
        Machine count m.
    migration_weight:
        Extra cost charged for placements that keep the slot-change
        count equal but change machines; with the default 0.001 the
        solver minimizes reallocations first and migrations second,
        mirroring the paper's two-level objective.
    """

    #: large finite cost for inadmissible pairs (avoids inf in LAP solver)
    _FORBIDDEN = 10**6

    def __init__(self, num_machines: int = 1, *, migration_weight: float = 1e-3) -> None:
        super().__init__(num_machines)
        if not 0 <= migration_weight < 1:
            raise ValueError("migration_weight must be in [0, 1)")
        self.migration_weight = migration_weight
        self._placements: dict[JobId, Placement] = {}

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    def _apply_insert(self, job: Job) -> None:
        if job.size != 1:
            raise InvalidRequestError("matching scheduler handles unit jobs only")
        self._resolve()

    def _apply_delete(self, job: Job) -> None:
        previous = dict(self._placements)
        del previous[job.id]
        remaining = {k: v for k, v in self.jobs.items() if k != job.id}
        self._replace(self._solve(remaining, previous))

    def _resolve(self) -> None:
        self._replace(self._solve(self.jobs, self._placements))

    def _replace(self, placements: dict[JobId, Placement]) -> None:
        """Adopt a re-solved schedule, which may move every job: log all
        pre-request placements first."""
        self._merge_touched(self._placements)
        self._placements = placements

    def _solve(
        self,
        jobs: Mapping[JobId, Job],
        previous: Mapping[JobId, Placement],
    ) -> dict[JobId, Placement]:
        if not jobs:
            return {}
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        job_ids = sorted(jobs, key=str)
        slots = sorted({s for j in jobs.values() for s in j.window.slots()})
        columns = [(m, s) for s in slots for m in range(self.num_machines)]
        col_index = {c: i for i, c in enumerate(columns)}
        cost = np.full((len(job_ids), len(columns)), float(self._FORBIDDEN))
        for r, job_id in enumerate(job_ids):
            job = jobs[job_id]
            prev = previous.get(job_id)
            for s in job.window.slots():
                for m in range(self.num_machines):
                    c = 1.0
                    if prev is not None:
                        if prev.machine == m and prev.slot == s:
                            c = 0.0
                        elif prev.slot == s:
                            c = 1.0  # same slot, machine change: still a move
                        if prev.machine != m and c > 0:
                            c += self.migration_weight
                    cost[r, col_index[(m, s)]] = c
        if cost.shape[1] < cost.shape[0]:
            raise InfeasibleError(
                "fewer machine-slots than jobs; no feasible schedule exists"
            )
        rows, cols = linear_sum_assignment(cost)
        if len(rows) < len(job_ids):  # pragma: no cover - guarded above
            raise InfeasibleError("assignment left jobs unscheduled")
        out: dict[JobId, Placement] = {}
        for r, c in zip(rows, cols):
            if cost[r, c] >= self._FORBIDDEN:
                raise InfeasibleError(
                    "no feasible schedule exists for the current job set"
                )
            machine, slot = columns[c]
            out[job_ids[r]] = Placement(machine, slot)
        return out
