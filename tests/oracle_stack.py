"""The pre-flattening stacks, kept as the test oracles.

Before each Theorem 1 stack became one costed layer, the facade aligned
each insert and drove a separate single-machine scheduler: at m=1 an
n*-trimming wrapper around :class:`AlignedReservationScheduler`, or
the deamortized scheduler; at m > 1 a
:class:`~repro.multimachine.delegation.DelegatingScheduler` over one of
those per machine. The wrappers are kept here verbatim (imports made
absolute, the classes renamed :class:`OracleTrimmed` and
:class:`OracleDeamortized`, ``_sparse_costing`` dropped since every
scheduler costs sparsely now, and :class:`AligningScheduler` given
``_subs`` and the facade's touched-log merge) so the flattened stacks
can be compared with them request by request. :func:`oracle_stack`
builds the one that matches ``ReservationScheduler(...)``'s arguments.

The costing oracle is here too: :func:`snapshot_costed` applies a
request and diffs full placement snapshots taken around it, the O(n)
costing every scheduler's sparse touched log must equal.
"""

from __future__ import annotations

from heapq import heapify, heappop
from typing import Callable, Mapping

from repro.alignment.align import align_job
from repro.core.base import ReallocatingScheduler, _BatchContext
from repro.core.costs import RequestCost, diff_placements
from repro.core.events import EventTracer, NullTracer
from repro.core.exceptions import InvalidRequestError
from repro.core.job import Job, JobId, Placement
from repro.core.requests import DeleteJob, InsertJob, Request
from repro.core.window import Window
from repro.levels.policy import LevelPolicy, PAPER_POLICY
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation.deamortized import (
    MIGRATE_PER_REQUEST,
    virtual_window,
)
from repro.reservation.scheduler import AlignedReservationScheduler
from repro.reservation.trimming import MIN_N_STAR, trim_aligned


def snapshot_costed(sched: ReallocatingScheduler,
                    request: Request) -> tuple[RequestCost, RequestCost]:
    """Apply ``request``; return its cost and the full-snapshot oracle's.

    The oracle diffs the whole placement map before and after the
    request, with the active count and the largest active span
    recounted from the job table (before a delete, after an insert).
    """
    before = dict(sched.placements)
    if isinstance(request, InsertJob):
        kind, subject = "insert", request.job.id
    else:
        kind, subject = "delete", request.job_id
        n_active, max_span = len(sched.jobs), sched._max_span()
    cost = sched.apply(request)
    if kind == "insert":
        n_active, max_span = len(sched.jobs), sched._max_span()
    return cost, diff_placements(before, sched.placements, kind=kind,
                                 subject=subject, n_active=n_active,
                                 max_span=max_span)


class OracleTrimmed(ReallocatingScheduler):
    """Aligned single-machine reservation scheduler with n*-trimming.

    Parameters
    ----------
    gamma:
        The underallocation constant used for the trim bound
        ``2 * gamma * n*`` (power of two; the paper's Lemma 8 needs the
        *instance* to be 8-underallocated — gamma defaults to 8).
    policy:
        Level policy for the inner schedulers.
    journal:
        Undo-journal mode of the inner schedulers (``"arena"`` default
        or ``"arena-sanitize"`` — see
        :class:`AlignedReservationScheduler`). Rebuilds carry it to the
        fresh inner.
    """

    def __init__(
        self,
        gamma: int = 8,
        policy: LevelPolicy = PAPER_POLICY,
        *,
        tracer: EventTracer | NullTracer | None = None,
        journal: str = "arena",
    ) -> None:
        super().__init__(num_machines=1)
        if gamma < 1 or gamma & (gamma - 1):
            raise ValueError("gamma must be a positive power of two")
        self.gamma = gamma
        self.policy = policy
        self.n_star = MIN_N_STAR
        self.tracer = tracer if tracer is not None else NullTracer()
        self.journal_impl = journal
        self.inner = self._new_inner()
        self.rebuilds = 0
        #: journal entries recorded by inners replaced in rebuilds
        #: (``journal_entries_total`` folds the live inner back in)
        self._journal_entries_carry = 0
        #: planned final job count of the current flexible batch
        #: (None outside flexible batches; see _flexible_size_hint)
        self._flex_final_hint: int | None = None

    def _new_inner(self) -> AlignedReservationScheduler:
        """A fresh inner scheduler; this layer costs its requests."""
        return self._adopt(AlignedReservationScheduler(
            self.policy, tracer=self.tracer, journal=self.journal_impl))

    # ------------------------------------------------------------------
    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self.inner.placements

    @property
    def trim_span(self) -> int:
        """Current maximum effective window span: 2 * gamma * n*."""
        return 2 * self.gamma * self.n_star

    def effective_window(self, window: Window) -> Window:
        return trim_aligned(window, self.trim_span)

    def _apply_insert(self, job: Job) -> None:
        if not job.window.is_aligned:
            raise InvalidRequestError(
                f"window {job.window} is not aligned; use the alignment wrapper"
            )
        if len(self.jobs) > self.n_star:
            self._resize(self.n_star * 2)
        eff = job.with_window(self.effective_window(job.window))
        self.inner.insert(eff)
        # placements are coordinate-identical to the inner scheduler's,
        # so its touched log folds straight into this request's.
        self._merge_touched(self.inner.last_touched)

    def _apply_delete(self, job: Job) -> None:
        self.inner.delete(job.id)
        self._merge_touched(self.inner.last_touched)
        active = len(self.jobs) - 1  # base class removes after we return
        if active < self.n_star // 4 and self.n_star > MIN_N_STAR:
            hint = self._flex_final_hint
            if hint is not None and hint >= self.n_star // 4:
                # Flexible burst with a planned refill: the batch's own
                # inserts restore n >= n*/4 before the next request, so
                # the halving rebuild (and the doubling rebuild that
                # would follow it) is pure thrash.
                return
            self._resize(max(MIN_N_STAR, self.n_star // 2))

    def _resize(self, new_n_star: int) -> None:
        """Change n* and rebuild the schedule from scratch (amortized O(1))."""
        self.n_star = new_n_star
        self.rebuilds += 1
        self.tracer.emit("rebuild", None, None,
                         f"n*={new_n_star}, jobs={len(self.inner.jobs)}")
        # A rebuild can move every survivor: log all pre-rebuild
        # placements (O(n), amortized O(1) like the rebuild itself).
        self._merge_touched(dict(self.inner.placements))
        survivors = [job for jid, job in self.jobs.items()
                     if jid in self.inner.jobs]
        self._journal_entries_carry += self.inner.journal_entries_total
        # The outgoing inner is freed by reference counting once replaced
        # (intervals hold no scheduler reference).
        self.inner = self._new_inner()
        ctx = self._batch
        if ctx is not None:
            # Inside an atomic batch the fresh inner is ephemeral: an
            # abort restores the saved pre-batch inner and discards this
            # one, so its rebuild inserts skip all rollback tracking.
            self.inner._batch_begin(atomic=ctx.atomic,
                                    ephemeral=ctx.atomic or ctx.ephemeral)
        if ctx is None or not ctx.atomic:
            # A failed rebuild poisons regardless, so the fresh inner's
            # survivor inserts run journal-free (atomic batches already
            # do, via the ephemeral discard-on-abort path).
            self.inner._journal_enabled = False
        # Deterministic rebuild order: short spans first, then by release.
        survivors.sort(key=lambda j: (j.span, j.release, str(j.id)))
        try:
            for job in survivors:
                eff = job.with_window(self.effective_window(job.window))
                self.inner.insert(eff)
        finally:
            self.inner._journal_enabled = True

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    #: placements pass through the inner scheduler, whose own abort
    #: restores them — no batch touched log needed at this layer
    _batch_restore_needs_touched = False

    def _subs(self) -> tuple[AlignedReservationScheduler]:
        return (self.inner,)

    def _flexible_size_hint(self, deletes: list[DeleteJob],
                            inserts: list[Job]) -> None:
        """Pre-size n* for the batch's planned final count (no rebuild).

        Raising n* without rebuilding is safe: already-placed jobs keep
        their narrower trimmed windows, which nest inside the wider
        trim bound, so every existing placement stays feasible, and
        window-containment sets can only shrink — the instance stays
        gamma-underallocated (Lemma 8's argument needs n <= n*, which
        the planned final count satisfies by construction). Only
        placements differ from the strict replay, which the flexible
        contract allows; the rebuilds this skips were the dominant
        per-batch cost under churn.

        The hint runs after ``_batch_begin`` snapshotted ``n_star``, so
        an atomic abort restores the pre-batch value exactly.
        """
        final = len(self.jobs) - len(deletes) + len(inserts)
        target = self.n_star
        while final > target:
            target *= 2
        if target > self.n_star:
            self.n_star = target
        self._flex_final_hint = final

    def _batch_begin(self, *, atomic: bool, ephemeral: bool = False) -> None:
        super()._batch_begin(atomic=atomic, ephemeral=ephemeral)
        if atomic and not ephemeral:
            self._batch.saved["trim"] = (self.inner, self.n_star, self.rebuilds,
                                         self._journal_entries_carry)

    def _batch_commit(self) -> None:
        self._flex_final_hint = None
        super()._batch_commit()

    def _batch_restore(self, ctx: _BatchContext) -> None:
        # If a rebuild replaced the inner mid-batch, the saved pre-batch
        # inner swaps back (and then aborts) and the replacement is
        # simply dropped — the rebuild's carry increment rolls back with
        # it, so journal_entries_total matches a scheduler that never
        # saw the batch (the restored inner still holds its own lifetime
        # count).
        self._flex_final_hint = None
        (self.inner, self.n_star, self.rebuilds,
         self._journal_entries_carry) = ctx.saved["trim"]

    # ------------------------------------------------------------------
    @property
    def journal_entries_total(self) -> int:
        """Lifetime undo-journal entries, rebuild-replaced inners included."""
        return self._journal_entries_carry + self.inner.journal_entries_total

    @property
    def poisoned(self) -> bool:
        return self.inner.poisoned

    def active_levels(self) -> dict[int, int]:
        return self.inner.active_levels()


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

    # not in the original wrapper: the touched-log merges of the old
    # facade, which costed each request of the stack
    def _apply_insert(self, job: Job) -> None:
        self.inner.insert(align_job(job))
        self._merge_touched(self.inner.last_touched)

    def _apply_delete(self, job: Job) -> None:
        self.inner.delete(job.id)
        self._merge_touched(self.inner.last_touched)

    # not in the original wrapper: names its sub so batches reach it
    def _subs(self) -> tuple[ReallocatingScheduler]:
        return (self.inner,)

    # the old facade's diagnostics
    def check_balance(self) -> None:
        if isinstance(self.inner, DelegatingScheduler):
            self.inner.check_balance()

    def machine_schedulers(self) -> list[ReallocatingScheduler]:
        inner = self.inner
        if isinstance(inner, DelegatingScheduler):
            return list(inner.machines)
        return [inner]


def oracle_stack(num_machines: int = 1, *, gamma: int = 8,
                 trim: bool = True, deamortized: bool = False,
                 ) -> AligningScheduler:
    """The old stack ``ReservationScheduler(num_machines, ...)`` built:
    alignment over one machine's scheduler, or over delegation to m of
    them."""
    def machine() -> ReallocatingScheduler:
        if deamortized:
            return OracleDeamortized(gamma=gamma)
        if trim:
            return OracleTrimmed(gamma=gamma)
        return AlignedReservationScheduler()

    if num_machines == 1:
        return AligningScheduler(machine)
    return AligningScheduler(
        lambda: DelegatingScheduler(num_machines, machine))


class OracleDeamortized(ReallocatingScheduler):
    """n*-trimmed reservation scheduler with O(1) worst-case rebuilds.

    Parameters are the facade's ``gamma``, ``policy`` and ``journal``
    (see :class:`repro.core.api.ReservationScheduler`);
    the underallocation requirement doubles (see module docstring). Each
    in-phase request migrates ``MIGRATE_PER_REQUEST`` (the paper's 2)
    jobs.

    Cost accounting is sparse: the merged real-coordinate placement map
    is maintained incrementally from the inner schedulers' touched logs
    (each inner touch is transformed through the parity virtualization
    ``real = 2 * virtual + parity``), so per-request cost diffing is
    O(reallocations).
    """

    def __init__(
        self,
        gamma: int = 8,
        policy: LevelPolicy = PAPER_POLICY,
        *,
        journal: str = "arena",
    ) -> None:
        super().__init__(num_machines=1)
        if gamma < 1 or gamma & (gamma - 1):
            raise ValueError("gamma must be a positive power of two")
        self.gamma = gamma
        self.policy = policy
        self.n_star = MIN_N_STAR
        self.journal_impl = journal
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
        vwin = trim_aligned(virtual_window(job.window), self.virtual_trim_span)
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

    def _sync_inner(self, inner: AlignedReservationScheduler, parity: int,
                    subject: JobId) -> None:
        """Mirror one inner request's changes into the merged real map.

        The inner's touched log names every job it may have moved (in
        virtual coordinates); each is re-read and transformed through
        the parity virtualization. Pre-change real placements are logged
        first, so the wrapper's own sparse cost diff sees them.
        """
        touched = inner.last_touched
        if touched is None:
            changed = (subject,)
        elif subject in touched:
            changed = touched
        else:
            changed = (subject, *touched)
        inner_placements = inner.placements
        merged = self._placements
        for job_id in changed:
            self._log_touch(job_id)
            pl = inner_placements.get(job_id)
            if pl is None:
                merged.pop(job_id, None)
            else:
                merged[job_id] = Placement(0, 2 * pl.slot + parity)

    # ------------------------------------------------------------------
    # online interface
    # ------------------------------------------------------------------
    def _apply_insert(self, job: Job) -> None:
        target_parity = self.incoming_parity if self.in_phase else self.parity
        inner = self._inner(target_parity)
        inner.insert(self._effective(job))
        self._sync_inner(inner, target_parity, job.id)
        self._tick()
        if len(self.jobs) > self.n_star:
            self._start_phase(self.n_star * 2)

    def _apply_delete(self, job: Job) -> None:
        # a job's real slot is 2 * virtual + parity of the side holding it
        parity = self._placements[job.id].slot & 1
        inner = self._inner(parity)
        inner.delete(job.id)
        self._sync_inner(inner, parity, job.id)
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
            self._sync_inner(active, self.parity, job_id)
            incoming.insert(self._effective(original))
            self._sync_inner(incoming, self.incoming_parity, job_id)
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
    @property
    def poisoned(self) -> bool:
        return self.active.poisoned or (
            self.incoming is not None and self.incoming.poisoned
        )

