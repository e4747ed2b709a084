"""Window trimming to ~n and schedule rebuilding (Section 4, end).

The raw reservation scheduler's cost depends on log* of the largest
window span Delta. To also achieve the ``log* n`` bound, the paper
maintains an estimate ``n*`` of the active job count (doubling when
exceeded, halving when the count drops below ``n*/4``) and trims every
window to span at most ``2 * gamma * n*`` — the trimmed instance stays
gamma-underallocated because at most ``n*`` other jobs live in the
trimmed window. Each change of ``n*`` rebuilds the schedule from
scratch, an amortized O(1) reallocations per request (a rebuild of k
jobs happens at most once per Omega(k) requests).

:class:`TrimmedReservationScheduler` implements exactly this wrapper
around :class:`AlignedReservationScheduler`. The deamortized variant
(even/odd-slot incremental rebuild) lives in ``deamortized.py``.

Trimming keeps the *left-aligned prefix* of the (already aligned)
window: an aligned window's power-of-two prefix is itself aligned, so
the inner scheduler's alignment requirement is preserved, and the
trimmed window nests inside the original, so any feasible placement for
the trimmed instance is feasible for the true instance.

Non-atomic rebuilds run journal-free: the fresh inner's survivor
re-inserts skip the per-request undo journal, because a failed rebuild
poisons the scheduler regardless (a half-built inner is unusable
either way). Atomic batches run rebuilds on an ephemeral inner that an
abort discards wholesale.

A rebuild allocates only what the new schedule needs. The outgoing
inner is freed by reference counting when it is dropped (intervals hold
no scheduler reference), and the fresh inner materializes each
interval in one pass, building no window ladder. The inner is
*nested*: it publishes its touched log and records no costs, since
this layer (or the layer above it) costs each request once.
"""

from __future__ import annotations

from typing import Mapping

from ..core.base import ReallocatingScheduler, _BatchContext
from ..core.events import EventTracer, NullTracer
from ..core.exceptions import InvalidRequestError
from ..core.job import Job, JobId, Placement
from ..core.requests import DeleteJob
from ..core.window import Window
from ..levels.policy import LevelPolicy, PAPER_POLICY
from .scheduler import AlignedReservationScheduler


#: floor of the n* estimate (a power of two; avoids degenerate trims at
#: tiny n)
MIN_N_STAR = 4


def trim_aligned(window: Window, max_span: int) -> Window:
    """Left prefix of an aligned window with span <= max_span (still aligned)."""
    if not window.is_aligned:
        raise ValueError(f"{window} is not aligned")
    if window.span <= max_span:
        return window
    # Largest power of two <= max_span; the prefix of that span is aligned.
    span = 1 << (max_span.bit_length() - 1)
    return Window(window.release, window.release + span)


class TrimmedReservationScheduler(ReallocatingScheduler):
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
