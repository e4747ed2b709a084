"""Round-robin per-window delegation (Section 3).

The paper reduces m-machine scheduling to single-machine scheduling by
balancing, *per window*, the jobs across machines: if ``n_W`` jobs share
window ``W``, every machine holds between ``floor(n_W/m)`` and
``ceil(n_W/m)`` of them, with the extras on the earliest machines. The
invariant is maintained with at most one migration per request:

- insert: the new job goes to machine ``n_W mod m`` (0-indexed; the
  paper's ``(n_W + 1) mod m`` is the 1-indexed equivalent);
- delete from machine ``i``: the balance donor is machine
  ``(n_W - 1) mod m`` (the last machine holding an extra job); if
  ``i`` differs, one of the donor's ``W``-jobs migrates to machine ``i``.

Lemma 3 guarantees each machine's sub-instance stays 1-machine
underallocated (losing a factor 6) when the full instance is; the
delegator is scheduler-agnostic and works over any per-machine
:class:`~repro.core.base.ReallocatingScheduler` factory. The Theorem 1
stack at m > 1 is
:class:`~repro.core.api.DelegatingReservationScheduler`, a subclass
that also aligns each insert and builds its own machines.

A burst crosses machines through ``apply_batch`` alone: the machines
are this layer's sub-schedulers (``_subs``), so the base class opens,
commits and aborts a batch context on every machine, and an atomic
burst aborts machine by machine while the balancer replays its
transaction log. Each insert of a burst takes the same O(1)
round-robin choice a single request does.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.base import ReallocatingScheduler, _BatchContext
from ..core.job import Job, JobId, Placement
from ..core.requests import DeleteJob
from ..core.window import Window


def _fresh_member_sets(m: int) -> list[set[JobId]]:
    """One empty job-id set per machine (a balancer membership table)."""
    return [set() for _ in range(m)]


class WindowBalancer:
    """Tracks per-window job counts and machine membership.

    Pure bookkeeping — it decides *where* jobs go; the schedulers decide
    *when* they run. Kept separate from the scheduler wrapper so the
    balance invariant can be unit-tested in isolation.

    Per-window counts are maintained incrementally (O(1) round-robin
    choice instead of an O(m) sum), and mutations can be recorded in a
    transaction log (:meth:`begin_txn`) that :meth:`abort_txn` replays
    backwards — the delegation layer's share of atomic-batch rollback.
    """

    def __init__(self, num_machines: int) -> None:
        if num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        self.m = num_machines
        #: window -> list of per-machine job-id sets
        self._members: dict[Window, list[set[JobId]]] = {}
        #: job id -> (window, machine)
        self._where: dict[JobId, tuple[Window, int]] = {}
        #: window -> total job count (incremental; absent = 0)
        self._count: dict[Window, int] = {}
        #: open transaction log (None outside an atomic batch)
        self._oplog: list[tuple] | None = None

    def count(self, window: Window) -> int:
        return self._count.get(window, 0)

    def machine_of(self, job_id: JobId) -> int:
        return self._where[job_id][1]

    def choose_insert_machine(self, window: Window) -> int:
        """Machine for a new job with this window: round-robin position."""
        return self._count.get(window, 0) % self.m

    # ------------------------------------------------------------------
    # transaction log (atomic-batch rollback)
    # ------------------------------------------------------------------
    def begin_txn(self) -> None:
        self._oplog = []

    def commit_txn(self) -> None:
        self._oplog = None

    def abort_txn(self) -> None:
        """Replay the transaction log backwards, restoring pre-txn state."""
        ops, self._oplog = self._oplog, None
        if ops is None:
            return
        members = self._members
        where = self._where
        count = self._count
        for op in reversed(ops):
            kind = op[0]
            if kind == "ins":
                self._unrecord_insert(op[1])
            elif kind == "del":
                _, job_id, window, machine = op
                table = members.get(window)
                if table is None:
                    table = members[window] = _fresh_member_sets(self.m)
                table[machine].add(job_id)
                where[job_id] = (window, machine)
                count[window] = count.get(window, 0) + 1
            else:  # "mig"
                _, job_id, window, old = op
                new = where[job_id][1]
                members[window][new].discard(job_id)
                members[window][old].add(job_id)
                where[job_id] = (window, old)

    def record_insert(self, job_id: JobId, window: Window, machine: int) -> None:
        members = self._members.setdefault(window, _fresh_member_sets(self.m))
        members[machine].add(job_id)
        self._where[job_id] = (window, machine)
        self._count[window] = self._count.get(window, 0) + 1
        if self._oplog is not None:
            self._oplog.append(("ins", job_id))

    def _unrecord_insert(self, job_id: JobId) -> None:
        window, machine = self._where.pop(job_id)
        members = self._members[window]
        members[machine].discard(job_id)
        n = self._count[window] - 1
        if n:
            self._count[window] = n
        else:
            del self._count[window]
        if not any(members):
            del self._members[window]

    def plan_delete(self, job_id: JobId) -> tuple[int, JobId | None]:
        """Plan a deletion: returns (machine of job, migrating job or None).

        The migrating job restores the balance invariant: it is one of
        the donor machine's jobs with the same window, moved onto the
        machine that lost a job. None when the deleted job's machine is
        itself the donor.
        """
        window, machine = self._where[job_id]
        members = self._members[window]
        donor = (self.count(window) - 1) % self.m
        if donor == machine:
            return machine, None
        candidates = members[donor] - {job_id}
        if not candidates:  # pragma: no cover - invariant guarantees a donor job
            raise AssertionError(
                f"balance invariant broken: donor machine {donor} holds no "
                f"job with window {window}"
            )
        # Deterministic choice: smallest by string representation.
        mover = min(candidates, key=str)
        return machine, mover

    def record_delete(self, job_id: JobId) -> None:
        window, machine = self._where.pop(job_id)
        members = self._members[window]
        members[machine].discard(job_id)
        n = self._count[window] - 1
        if n:
            self._count[window] = n
        else:
            del self._count[window]
        if not any(members):
            del self._members[window]
        if self._oplog is not None:
            self._oplog.append(("del", job_id, window, machine))

    def record_migration(self, job_id: JobId, to_machine: int) -> None:
        window, old = self._where[job_id]
        self._members[window][old].discard(job_id)
        self._members[window][to_machine].add(job_id)
        self._where[job_id] = (window, to_machine)
        if self._oplog is not None:
            self._oplog.append(("mig", job_id, window, old))

    def check_balance(self) -> None:
        """Assert the floor/ceil balance invariant for every window."""
        for window, members in self._members.items():
            counts = [len(s) for s in members]
            total = sum(counts)
            if total != self._count.get(window, 0):
                raise AssertionError(
                    f"window {window}: incremental count "
                    f"{self._count.get(window, 0)} != actual {total}"
                )
            lo, hi = total // self.m, -(-total // self.m)
            for i, c in enumerate(counts):
                if not lo <= c <= hi:
                    raise AssertionError(
                        f"window {window}: machine {i} holds {c} jobs, "
                        f"expected in [{lo}, {hi}]"
                    )
            # extras must sit on the earliest machines (paper's invariant)
            extras = [i for i, c in enumerate(counts) if c == hi]
            if hi > lo and extras and max(extras) >= total % self.m:
                raise AssertionError(
                    f"window {window}: extra jobs not on earliest machines "
                    f"(counts {counts})"
                )


class DelegatingScheduler(ReallocatingScheduler):
    """m-machine scheduler: per-window round-robin over single-machine schedulers.

    Parameters
    ----------
    num_machines:
        Machine count m.
    scheduler_factory:
        Builds the per-machine single-machine scheduler (any
        :class:`ReallocatingScheduler` with ``num_machines == 1``).

    Guarantees (Section 3): at most one migration per request, and the
    per-machine instances satisfy the ceil(n_W/m) bound of Lemma 3.
    """

    def __init__(
        self,
        num_machines: int,
        scheduler_factory: Callable[[], ReallocatingScheduler],
    ) -> None:
        super().__init__(num_machines=num_machines)
        self.machines = [self._adopt(scheduler_factory())
                         for _ in range(num_machines)]
        for i, sub in enumerate(self.machines):
            if sub.num_machines != 1:
                raise ValueError(f"sub-scheduler {i} is not single-machine")
        self.balancer = WindowBalancer(num_machines)
        #: merged machine-tagged placement map, maintained incrementally
        #: from the sub-schedulers' touched logs
        self._placements: dict[JobId, Placement] = {}

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    def _apply_insert(self, job: Job) -> None:
        machine = self.balancer.choose_insert_machine(job.window)
        sub = self.machines[machine]
        sub.insert(job)
        self.balancer.record_insert(job.id, job.window, machine)
        self._mirror(sub, job.id, self._placements, machine)

    def _apply_delete(self, job: Job) -> None:
        machine, mover = self.balancer.plan_delete(job.id)
        sub = self.machines[machine]
        sub.delete(job.id)
        self.balancer.record_delete(job.id)
        self._mirror(sub, job.id, self._placements, machine)
        if mover is not None:
            # The single migration: mover leaves the donor machine and
            # re-enters on the machine that lost a job.
            donor = self.balancer.machine_of(mover)
            giver = self.machines[donor]
            mover_job = giver.jobs[mover]
            giver.delete(mover)
            self._mirror(giver, mover, self._placements, donor)
            sub.insert(mover_job)
            self._mirror(sub, mover, self._placements, machine)
            self.balancer.record_migration(mover, machine)

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def _subs(self) -> list[ReallocatingScheduler]:
        return self.machines

    def _flexible_size_hint(self, deletes: list[DeleteJob],
                            inserts: list[Job]) -> None:
        """Forward the planned net size change to each machine.

        Deletes are counted on the machine holding the job; inserts are
        not yet assigned to machines at hint time, so every machine
        receives the full insert list as its upper bound. An n*
        overshoot from the bound only widens trim spans, which is safe
        (see
        :meth:`repro.core.api.TrimmedReservationScheduler._flexible_size_hint`).
        """
        per_machine: list[list[DeleteJob]] = [
            [] for _ in range(self.num_machines)
        ]
        machine_of = self.balancer.machine_of
        for request in deletes:
            per_machine[machine_of(request.job_id)].append(request)
        for machine, sub in enumerate(self.machines):
            sub._flexible_size_hint(per_machine[machine], inserts)

    def _batch_begin(self, *, atomic: bool, ephemeral: bool = False) -> None:
        super()._batch_begin(atomic=atomic, ephemeral=ephemeral)
        if atomic and not ephemeral:
            self.balancer.begin_txn()

    def _batch_commit(self) -> None:
        super()._batch_commit()
        self.balancer.commit_txn()

    def _batch_restore(self, ctx: _BatchContext) -> None:
        self.balancer.abort_txn()
        self._restore_placement_map(self._placements, ctx.touched)

    def check_balance(self) -> None:
        self.balancer.check_balance()

    def machine_schedulers(self) -> list[ReallocatingScheduler]:
        """The per-machine single-machine schedulers (diagnostics)."""
        return list(self.machines)
