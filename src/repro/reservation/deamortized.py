"""Deamortized window-trimming via even/odd-slot incremental rebuild.

Section 4's last construction: the n*-trimming scheduler rebuilds the
whole schedule whenever n* doubles or halves — O(1) *amortized* but a
Theta(n) spike on the triggering request. The paper deamortizes it:

    "We use the even (or odd) time slots for the old schedule and the
    odd (or even) time slots for the new schedule. Instead of
    rebuilding the schedule all at once, every time one job is added or
    deleted, two jobs are moved from the old schedule to the new."

Implementation: two inner :class:`AlignedReservationScheduler`s operate
on *virtual* half-resolution grids; a virtual slot ``v`` of the
parity-``q`` scheduler is the real slot ``2v + q``. An aligned real
window ``[r, d)`` with span >= 2 has even ``r`` and ``d``, so its
parity-``q`` virtual window is ``[r/2, d/2)`` for either parity — still
aligned, half the span. The parities partition the timeline, so the
union of the two inner schedules is always feasible.

When the active-job count crosses an n* boundary, a *rebuild phase*
starts: a fresh inner scheduler on the opposite parity becomes the
"incoming" side; new jobs insert there; every request additionally
migrates two settled jobs from the outgoing side. The 4x hysteresis
between doubling and halving guarantees a phase finishes (outgoing side
drains) before the next boundary can trigger — we keep a bulk-finish
fallback for defense, counted in the ledger if it ever fires.

Cost of the halved grid: each parity sees its jobs at double density,
so the deamortized scheduler needs the *real* instance to be
``2 * gamma``-underallocated where the amortized one needs ``gamma`` —
exactly the paper's precondition. A corollary of that precondition is
that no job may have a window of span < 2 (a span-1 window cannot be
2-underallocated once occupied), which is why `span >= 2` is enforced
on every insert.

The drain order (smallest effective span first, then ``str(id)``) comes
from a heap built once per phase, on its first migration, so each
migration costs O(log n) instead of a scan of the outgoing side. At
phase end the retired side is freed by reference counting.

At m=1 :class:`DeamortizedReservationScheduler` is the whole stack: a
:class:`~repro.core.api.ReservationScheduler` subclass that aligns each
insert, costs each request and drives its phase sides, which are
nested. At m > 1 each machine of the delegating facade is a
:class:`DeamortizedMachine`, which takes the windows its facade aligned.

The scheduler keeps no job-to-side map: a job's side is the parity of
its real slot in the merged placement map. Its sub-schedulers
(``_subs``) are the active side, plus the incoming side during a
phase, so a batch reaches exactly the sides the next request would; an
atomic abort swaps back the saved pre-batch pair and aborts it.
"""

from __future__ import annotations

from heapq import heapify, heappop
from typing import Any, Mapping

from ..core.api import ReservationScheduler
from ..core.base import ReallocatingScheduler, _BatchContext
from ..core.exceptions import InvalidRequestError
from ..core.job import Job, JobId, Placement
from ..core.window import Window
from .scheduler import AlignedReservationScheduler
from .trimming import MIN_N_STAR, trim_aligned

#: jobs migrated from the outgoing to the incoming side per in-phase
#: request — the paper's two, enough to drain a phase before the next
#: n* boundary (the 4x hysteresis)
MIGRATE_PER_REQUEST = 2


def virtual_window(window: Window) -> Window:
    """Half-resolution window [r/2, d/2) of an aligned window, span >= 2."""
    if not window.is_aligned:
        raise InvalidRequestError(f"window {window} is not aligned")
    if window.span < 2:
        raise InvalidRequestError(
            f"window {window} has span 1; the deamortized scheduler requires "
            "span >= 2 (implied by its 2*gamma-underallocation precondition)"
        )
    return Window(window.release // 2, window.deadline // 2)


class DeamortizedReservationScheduler(ReservationScheduler):
    """n*-trimmed reservation scheduler with O(1) worst-case rebuilds.

    The m=1 deamortized stack (``ReservationScheduler(1,
    deamortized=True)``). Parameters are the facade's (see
    :class:`repro.core.api.ReservationScheduler`); ``trim`` is implied,
    and the underallocation requirement doubles (see module docstring).
    Each in-phase request migrates ``MIGRATE_PER_REQUEST`` (the paper's
    2) jobs.

    Cost accounting is sparse: the merged real-coordinate placement map
    is maintained incrementally from the inner schedulers' touched logs
    (each inner touch is transformed through the parity virtualization
    ``real = 2 * virtual + parity``), so per-request cost diffing is
    O(reallocations).
    """

    def __init__(self, num_machines: int = 1, *, deamortized: bool = True,
                 **options: Any) -> None:
        super().__init__(num_machines, deamortized=deamortized, **options)
        self.n_star = MIN_N_STAR
        self.parity = 0
        self.active = self._new_side()
        self.incoming: AlignedReservationScheduler | None = None
        self.incoming_parity = 1
        #: drain order of the current phase: a heap of
        #: ``(span, str(id), position, id)`` over the outgoing side's
        #: jobs, built once per phase on the first migration; entries of
        #: jobs deleted since are skipped lazily (None = not built)
        self._drain: list[tuple[int, str, int, JobId]] | None = None
        #: merged real-coordinate placement map (incremental)
        self._placements: dict[JobId, Placement] = {}
        self.phases_started = 0
        self.bulk_finishes = 0
        #: journal entries recorded by outgoing inners retired at phase
        #: end (``journal_entries_total`` folds the live inners back in)
        self._journal_entries_carry = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def virtual_trim_span(self) -> int:
        """Virtual trim bound: half the real bound 2*gamma*n*."""
        return max(1, self.gamma * self.n_star)

    def _effective(self, job: Job) -> Job:
        """``job`` on the virtual grid: ALIGNED(W) (a no-op on a window
        already aligned), halved, then trimmed."""
        vwin = trim_aligned(virtual_window(job.window.aligned_within()),
                            self.virtual_trim_span)
        return job.with_window(vwin)

    def _new_side(self) -> AlignedReservationScheduler:
        """A fresh inner (phase side) scheduler; this wrapper costs its
        requests."""
        return self._adopt(AlignedReservationScheduler(
            self.policy, journal=self.journal_impl))

    def _inner(self, parity: int) -> AlignedReservationScheduler:
        if parity == self.parity:
            return self.active
        if self.incoming is None:  # pragma: no cover - defensive
            raise AssertionError("no scheduler for requested parity")
        return self.incoming

    @property
    def in_phase(self) -> bool:
        return self.incoming is not None

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self._placements

    # ------------------------------------------------------------------
    # online interface
    # ------------------------------------------------------------------
    def _insert_aligned(self, job: Job) -> None:
        target_parity = self.incoming_parity if self.in_phase else self.parity
        inner = self._inner(target_parity)
        inner.insert(self._effective(job))
        self._mirror(inner, job.id, self._placements, 0, 2, target_parity)
        self._tick()
        if len(self.jobs) > self.n_star:
            self._start_phase(self.n_star * 2)

    def _apply_delete(self, job: Job) -> None:
        # a job's real slot is 2 * virtual + parity of the side holding it
        parity = self._placements[job.id].slot & 1
        inner = self._inner(parity)
        inner.delete(job.id)
        self._mirror(inner, job.id, self._placements, 0, 2, parity)
        self._tick()
        active_after = len(self.jobs) - 1
        if active_after < self.n_star // 4 and self.n_star > MIN_N_STAR:
            self._start_phase(max(MIN_N_STAR, self.n_star // 2))

    # ------------------------------------------------------------------
    # phase machinery
    # ------------------------------------------------------------------
    def _start_phase(self, new_n_star: int) -> None:
        if self.in_phase:
            # Defensive: finish the current phase in bulk. The 4x
            # hysteresis makes this unreachable under the paper's
            # assumptions; we count it if it ever happens.
            self.bulk_finishes += 1
            while self.incoming is not None:
                self._migrate_some(len(self.active.jobs) or 1)
        self.n_star = new_n_star
        self.phases_started += 1
        self.incoming_parity = 1 - self.parity
        self.incoming = self._new_side()
        ctx = self._batch
        if ctx is not None:
            # A phase opened mid-atomic-batch drains into a scheduler an
            # abort simply discards (the saved pre-batch pair swaps
            # back), so the incoming side skips rollback tracking.
            self.incoming._batch_begin(atomic=ctx.atomic,
                                       ephemeral=ctx.atomic or ctx.ephemeral)
        if not self.active.jobs:
            self._finish_phase()

    def _tick(self) -> None:
        if self.in_phase:
            self._migrate_some(MIGRATE_PER_REQUEST)

    def _migrate_some(self, count: int) -> None:
        """Move up to ``count`` jobs from the outgoing to the incoming side.

        Deterministic drain order: smallest span first (cheap to
        re-place), then by ``str(id)``, ties by the outgoing side's job
        order — the order of a ``min`` over its jobs. The heap holding
        it is built once per phase, on the first migration; the
        outgoing side only loses jobs during a phase, so the order
        stays valid, and jobs deleted since are skipped when popped.
        """
        assert self.incoming is not None
        active = self.active
        incoming = self.incoming
        outgoing_jobs = active.jobs
        drain = self._drain
        if drain is None:
            drain = [(job.span, str(job_id), position, job_id)
                     for position, (job_id, job)
                     in enumerate(outgoing_jobs.items())]
            heapify(drain)
            self._drain = drain
        for _ in range(count):
            if not outgoing_jobs:
                break
            job_id = heappop(drain)[3]
            while job_id not in outgoing_jobs:
                job_id = heappop(drain)[3]
            original = self.jobs[job_id]
            active.delete(job_id)
            self._mirror(active, job_id, self._placements, 0, 2, self.parity)
            incoming.insert(self._effective(original))
            self._mirror(incoming, job_id, self._placements, 0, 2,
                         self.incoming_parity)
        if not outgoing_jobs:
            self._finish_phase()

    def _finish_phase(self) -> None:
        assert self.incoming is not None
        self._journal_entries_carry += self.active.journal_entries_total
        # The retired side is freed by reference counting once dropped.
        self.active = self.incoming
        self.parity = self.incoming_parity
        self.incoming = None
        self.incoming_parity = 1 - self.parity
        self._drain = None

    @property
    def journal_entries_total(self) -> int:
        """Lifetime undo-journal entries, retired phase inners included."""
        total = self._journal_entries_carry + self.active.journal_entries_total
        if self.incoming is not None:
            total += self.incoming.journal_entries_total
        return total

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def _subs(self) -> tuple[AlignedReservationScheduler, ...]:
        if self.incoming is None:
            return (self.active,)
        return (self.active, self.incoming)

    def _batch_begin(self, *, atomic: bool, ephemeral: bool = False) -> None:
        super()._batch_begin(atomic=atomic, ephemeral=ephemeral)
        if atomic and not ephemeral:
            self._batch.saved["deam"] = (
                self.parity, self.incoming_parity, self.active,
                self.incoming, self.n_star, self.phases_started,
                self.bulk_finishes, self._journal_entries_carry,
            )

    def _batch_restore(self, ctx: _BatchContext) -> None:
        # the saved sides swap back, then abort (see _batch_abort)
        (self.parity, self.incoming_parity, self.active, self.incoming,
         self.n_star, self.phases_started, self.bulk_finishes,
         self._journal_entries_carry) = ctx.saved["deam"]
        # the batch's migrations popped drain entries of jobs the abort
        # brought back: rebuild the heap on the next migration
        self._drain = None
        self._restore_placement_map(self._placements, ctx.touched)

    # ------------------------------------------------------------------
    def check_balance(self) -> None:
        """Section 3's balance: one machine is balanced by definition."""

    def machine_schedulers(self) -> list[ReallocatingScheduler]:
        """This scheduler: it is the one machine's scheduler."""
        return [self]

    @property
    def poisoned(self) -> bool:
        return self.active.poisoned or (
            self.incoming is not None and self.incoming.poisoned
        )


class DeamortizedMachine(DeamortizedReservationScheduler):
    """One machine of a deamortized delegating stack.

    Its facade (:class:`~repro.core.api.DelegatingReservationScheduler`)
    aligned every window already, so an insert goes straight to the
    phase sides; n* and the phase are kept per machine.
    """

    def _apply_insert(self, job: Job) -> None:
        self._insert_aligned(job)
