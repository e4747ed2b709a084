"""Naive pecking-order scheduler (Lemma 4).

The paper's warm-up: insert a job into any empty slot of its window; if
none exists, displace any job with at least double the span scheduled in
the window and recursively reinsert it. For recursively aligned
instances every insert/delete costs ``O(min{log n, log Delta})``
reallocations — one displaced job per distinct span on the cascade path.

This is the whole-span-range version of the constant-size base case
inside the reservation scheduler; here it stands alone as the Lemma 4
baseline for experiment E2, where its log Delta cascade growth contrasts
with the reservation scheduler's log* Delta.

Deletion is free (remove the job; no reshuffling), matching the lemma's
accounting.
"""

from __future__ import annotations

from typing import Mapping

from ..core.base import ReallocatingScheduler
from ..core.exceptions import InfeasibleError, InvalidRequestError
from ..core.job import Job, JobId, Placement
from ..core.window import Window


class NaivePeckingScheduler(ReallocatingScheduler):
    """Single-machine displacement scheduler for aligned unit jobs."""

    def __init__(self) -> None:
        super().__init__(num_machines=1)
        self.slot_job: dict[int, JobId] = {}
        self._placements: dict[JobId, Placement] = {}

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    def _apply_insert(self, job: Job) -> None:
        if job.size != 1:
            raise InvalidRequestError("naive pecking handles unit jobs only")
        if not job.window.is_aligned:
            raise InvalidRequestError(
                f"window {job.window} is not aligned; align it first (align_job)"
            )
        current_id, current_window = job.id, job.window
        self._log_touch(current_id)  # each later one is a logged victim
        # Spans strictly double along the cascade, so the loop is bounded
        # by the number of distinct spans (log Delta).
        for _ in range(current_window.span.bit_length() + 64):
            slot = self._free_slot(current_window)
            if slot is not None:
                self.slot_job[slot] = current_id
                self._placements[current_id] = Placement(0, slot)
                return
            victim = self._victim(current_window)
            if victim is None:
                raise InfeasibleError(
                    f"window {current_window} is full of jobs with nested "
                    "windows; instance is infeasible"
                )
            vslot = self._placements[victim].slot
            self._log_touch(victim)
            self.slot_job[vslot] = current_id
            self._placements[current_id] = Placement(0, vslot)
            del self._placements[victim]
            current_id = victim
            current_window = self.jobs[victim].window
        raise AssertionError("cascade exceeded span-doubling bound")  # pragma: no cover

    def _apply_delete(self, job: Job) -> None:
        self._log_touch(job.id)
        slot = self._placements.pop(job.id).slot
        del self.slot_job[slot]

    def _free_slot(self, window: Window) -> int | None:
        for s in window.slots():
            if s not in self.slot_job:
                return s
        return None

    def _victim(self, window: Window) -> JobId | None:
        """Job in the window with smallest span > |window| (deterministic)."""
        best: JobId | None = None
        best_key: tuple[int, int] | None = None
        for s in window.slots():
            occ = self.slot_job.get(s)
            if occ is None:
                continue
            span = self.jobs[occ].span
            if span <= window.span:
                continue
            key = (span, s)
            if best_key is None or key < best_key:
                best, best_key = occ, key
        return best
