"""Incremental feasibility verification: O(changes) per request.

The legacy audit re-verified the whole schedule after every request —
O(n) work that dominated benchmark loops and measured the harness, not
the algorithm. :class:`IncrementalVerifier` exploits the cost model
instead: every :class:`~repro.core.costs.RequestCost` names exactly the
jobs whose placement changed (the subject plus ``rescheduled``), so the
verifier maintains a mirror of the schedule — placements and a
size-aware (machine, slot) occupancy map — and checks only the changed
jobs per request:

1. changed jobs' old cells are released from the mirror;
2. each changed job's new placement is checked: machine in range, start
   admissible for its window, and no collision against the mirror;
3. a cheap cardinality guard compares mirror and scheduler sizes.

That is O(reallocations) = O(log* n) per request for the paper's
scheduler. The one blind spot — a scheduler that moves a job *without
reporting it* in the request cost — is covered by :meth:`full_audit`,
which re-verifies the whole schedule from scratch *and* compares the
mirror against the scheduler's placement map; a session runs it every
``full_audit_every`` requests and once at the end of every run.
"""

from __future__ import annotations

from typing import Iterable

from ..core.base import ReallocatingScheduler
from ..core.costs import BatchResult, RequestCost
from ..core.exceptions import ValidationError
from ..core.job import Job, JobId, Placement
from ..core.schedule import verify_schedule


class IncrementalVerifier:
    """Feasibility checker amortizing the audit over placement changes.

    Parameters
    ----------
    num_machines:
        Machine count the schedule must respect.
    full_audit_every:
        Run a from-scratch audit every this many observed requests
        (0 disables periodic audits; call :meth:`full_audit` manually).
        Required: a session passes its plan's value, whose default is
        :data:`~repro.sim.session.DEFAULT_FULL_AUDIT_EVERY`.
    where:
        Label prefixed to failure messages.
    """

    def __init__(self, num_machines: int, *, full_audit_every: int,
                 where: str = "schedule") -> None:
        self.num_machines = num_machines
        self.full_audit_every = full_audit_every
        self.where = where
        self._jobs: dict[JobId, Job] = {}
        self._placements: dict[JobId, Placement] = {}
        #: (machine, slot) -> occupying job id (size-aware)
        self._occupied: dict[tuple[int, int], JobId] = {}
        self.requests_seen = 0
        self.full_audits_run = 0

    # ------------------------------------------------------------------
    def observe(self, scheduler: ReallocatingScheduler,
                cost: RequestCost) -> None:
        """Check one request's placement changes and update the mirror."""
        self.requests_seen += 1
        where = f"{self.where} after request {self.requests_seen}"
        self._check_changed(scheduler, (cost.subject, *cost.rescheduled), where)
        if (self.full_audit_every
                and self.requests_seen % self.full_audit_every == 0):
            self.full_audit(scheduler)

    def verify_batch(self, scheduler: ReallocatingScheduler,
                     result: "BatchResult") -> None:
        """Check one committed batch's net placement changes.

        A batch is a transaction: feasibility is checked once at commit
        over the union of every request's changed jobs, instead of once
        per request. A rolled-back atomic batch left no changes, so only
        the committed prefix is checked. Periodic full audits fire on
        the same request cadence as per-request observation.
        """
        before = self.requests_seen
        self.requests_seen += result.processed
        if result.processed:
            where = (f"{self.where} after batch commit at request "
                     f"{self.requests_seen}")
            self._check_changed(scheduler, result.changed_jobs(), where)
        if (self.full_audit_every
                and self.requests_seen // self.full_audit_every
                > before // self.full_audit_every):
            self.full_audit(scheduler)

    def _check_changed(self, scheduler: ReallocatingScheduler,
                       changed: Iterable[JobId], where: str) -> None:
        """Release + re-admit the changed jobs against the mirror."""
        placements = scheduler.placements
        jobs = scheduler.jobs

        # Phase 1: release every changed job's old cells from the mirror.
        for job_id in changed:
            old = self._placements.pop(job_id, None)
            if old is None:
                continue
            job = self._jobs.pop(job_id)
            for t in range(old.slot, old.slot + job.size):
                del self._occupied[(old.machine, t)]

        # Phase 2: admit the new placements, checking each constraint.
        for job_id in changed:
            job = jobs.get(job_id)
            if job is None:
                if job_id in placements:
                    raise ValidationError(
                        f"{where}: placement kept for deleted job {job_id!r}"
                    )
                continue
            pl = placements.get(job_id)
            if pl is None:
                raise ValidationError(
                    f"{where}: job {job_id!r} has no placement"
                )
            if not 0 <= pl.machine < self.num_machines:
                raise ValidationError(
                    f"{where}: job {job_id!r} on machine {pl.machine} of "
                    f"{self.num_machines}"
                )
            if not job.admissible_start(pl.slot):
                raise ValidationError(
                    f"{where}: job {job_id!r} at slot {pl.slot} outside window "
                    f"[{job.release}, {job.deadline}) (size {job.size})"
                )
            for t in range(pl.slot, pl.slot + job.size):
                key = (pl.machine, t)
                holder = self._occupied.get(key)
                if holder is not None:
                    raise ValidationError(
                        f"{where}: machine {pl.machine} slot {t} double-booked "
                        f"by {holder!r} and {job_id!r}"
                    )
                self._occupied[key] = job_id
            self._jobs[job_id] = job
            self._placements[job_id] = pl

        # Cheap global guard: the mirror and the live schedule must agree
        # in size; divergence means an unreported placement change.
        if len(self._placements) != len(placements):
            raise ValidationError(
                f"{where}: mirror holds {len(self._placements)} placements, "
                f"scheduler reports {len(placements)} — a placement changed "
                "without being reported in the request cost"
            )

    # ------------------------------------------------------------------
    def seed(self, scheduler: ReallocatingScheduler, *,
             processed: int = 0) -> None:
        """Adopt the scheduler's live schedule as the mirror.

        Used when verification starts mid-run (a resumed session whose
        committed prefix was replayed unverified): the live schedule is
        fully verified once, then becomes the baseline that subsequent
        :meth:`observe` / :meth:`verify_batch` calls check changes
        against. ``processed`` seeds the request counter so periodic
        full audits keep their absolute cadence.
        """
        verify_schedule(scheduler.jobs, scheduler.placements,
                        self.num_machines, where=f"{self.where} resume seed")
        self._jobs = dict(scheduler.jobs)
        self._placements = dict(scheduler.placements)
        self._occupied = {}
        for job_id, pl in self._placements.items():
            job = self._jobs[job_id]
            for t in range(pl.slot, pl.slot + job.size):
                self._occupied[(pl.machine, t)] = job_id
        self.requests_seen = processed

    # ------------------------------------------------------------------
    def full_audit(self, scheduler: ReallocatingScheduler) -> None:
        """From-scratch feasibility check plus mirror/scheduler comparison."""
        self.full_audits_run += 1
        where = f"{self.where} full audit after request {self.requests_seen}"
        verify_schedule(scheduler.jobs, scheduler.placements,
                        self.num_machines, where=where)
        live = dict(scheduler.placements)
        if self._placements != live:
            drift = [j for j in sorted(set(live) | set(self._placements),
                                       key=str)
                     if self._placements.get(j) != live.get(j)]
            raise ValidationError(
                f"{where}: mirror diverged from live schedule for jobs "
                f"{sorted(map(str, drift))[:5]} — placements changed without "
                "being reported in request costs"
            )
