"""The pre-flattening m=1 stack, kept as the test oracle.

Before the one-machine facade trimmed for itself, ``ReservationScheduler(1)``
drove three costed-request layers: alignment, an n*-trimming wrapper
around :class:`AlignedReservationScheduler`, and the reservation
scheduler. Both wrappers are kept here verbatim (imports made absolute,
the trimming class renamed :class:`OracleTrimmed`, and
:meth:`AligningScheduler._subs` added so atomic batches reach the
stack) so the flattened facade can be compared with them request by
request: ``AligningScheduler(lambda: OracleTrimmed(gamma=8))`` is that
stack.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.alignment.align import align_job
from repro.core.base import ReallocatingScheduler, _BatchContext
from repro.core.events import EventTracer, NullTracer
from repro.core.exceptions import InvalidRequestError
from repro.core.job import Job, JobId, Placement
from repro.core.requests import DeleteJob
from repro.core.window import Window
from repro.levels.policy import LevelPolicy, PAPER_POLICY
from repro.reservation.scheduler import AlignedReservationScheduler
from repro.reservation.trimming import MIN_N_STAR, trim_aligned


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

    _sparse_costing = True

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

    def _apply_insert(self, job: Job) -> None:
        self.inner.insert(align_job(job))

    def _apply_delete(self, job: Job) -> None:
        self.inner.delete(job.id)

    # not in the original wrapper: names its sub so batches reach it
    def _subs(self) -> tuple[ReallocatingScheduler]:
        return (self.inner,)
