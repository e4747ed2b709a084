"""The paper's Theorem 1 scheduler, assembled end to end.

:class:`ReservationScheduler` composes the three constructions exactly
as the proof of Theorem 1 does:

1. **Align** (Section 5): each new job's window is replaced by
   ``ALIGNED(W)`` (losing a factor <= 4 of slack, Lemma 10);
2. **Delegate** (Section 3): the job is assigned to a machine by
   per-window round-robin (losing a factor 6, Lemma 3; at most one
   migration per request). With one machine the round-robin is the
   identity, so an m=1 stack builds no delegation;
3. **Reserve** (Section 4): each machine runs single-machine
   pecking-order scheduling with reservations, with windows trimmed to
   ``2 * gamma * n*`` (Lemma 9: ``O(min{log* n, log* Delta})``
   reallocations per request).

Alignment and trimming are window transforms, not scheduler layers:
each stack's top scheduler is its one costed layer. It aligns each
insert once (:meth:`ReservationScheduler._apply_insert`) and costs
every request; the schedulers below it only trim (or split into phase
sides, keeping their own n*) and place. ``ReservationScheduler(m,
trim=..., deamortized=...)`` returns the class of that stack, the way
``pathlib.Path`` returns its flavour (the deamortized classes live in
:mod:`repro.reservation.deamortized`):

=====  =====  ===========  ==============================================  =================================================
m      trim   deamortized  class                                           layers below it
=====  =====  ===========  ==============================================  =================================================
1      yes    no           :class:`TrimmedReservationScheduler`            one ``AlignedReservationScheduler``
1      no     no           :class:`UntrimmedReservationScheduler`          one ``AlignedReservationScheduler``
1      any    yes          ``DeamortizedReservationScheduler``             two phase sides (``AlignedReservationScheduler``)
> 1    yes    no           :class:`DelegatingReservationScheduler`         m :class:`TrimmedMachine` → one aligned each
> 1    no     no           :class:`DelegatingReservationScheduler`         m ``AlignedReservationScheduler``
> 1    any    yes          :class:`DelegatingReservationScheduler`         m ``DeamortizedMachine`` → two phase sides each
=====  =====  ===========  ==============================================  =================================================

Guarantee: for gamma-underallocated request sequences (gamma a
sufficiently large constant; the paper does not optimize it and neither
do we — experiment E9 measures the empirical threshold), every request
costs ``O(min{log* n, log* Delta})`` reallocations and at most one
migration.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping

from ..alignment.align import align_job
from ..analysis.sanitize import sanitize_enabled
from ..levels.policy import LevelPolicy, PAPER_POLICY
from ..multimachine.delegation import DelegatingScheduler
from ..reservation.scheduler import AlignedReservationScheduler
from ..reservation.trimming import MIN_N_STAR, trim_aligned
from .base import ReallocatingScheduler, _BatchContext
from .job import Job, JobId, Placement
from .requests import DeleteJob


def _stack_class(num_machines: int, trim: bool,
                 deamortized: bool) -> type[ReservationScheduler]:
    """The concrete class ``ReservationScheduler(...)`` builds (module table)."""
    if num_machines > 1:
        return DelegatingReservationScheduler
    if deamortized:
        # imported on use: the deamortized scheduler subclasses the facade
        from ..reservation.deamortized import DeamortizedReservationScheduler
        return DeamortizedReservationScheduler
    return TrimmedReservationScheduler if trim else UntrimmedReservationScheduler


class ReservationScheduler(ReallocatingScheduler):
    """Theorem 1: m-machine reallocating scheduler for unit jobs.

    The facade of every stack: it aligns each insert and costs each
    request. ``ReservationScheduler(...)`` returns the concrete class of
    the stack its arguments name (see the module table).

    Parameters
    ----------
    num_machines:
        Machine count m.
    gamma:
        Power-of-two slack constant used by the trim bound.
    policy:
        Level decomposition policy (paper tower by default).
    trim:
        Disable to skip n*-trimming (pure log* Delta bound); enabled by
        default, giving the min{log* n, log* Delta} bound.
    deamortized:
        Use the even/odd-slot incremental rebuild (Section 4, end):
        O(1) *worst-case* cost per request instead of O(1) amortized
        with Theta(n) rebuild spikes. Requires twice the slack
        (2*gamma-underallocated instances) and aligned spans >= 2, so
        original windows must have span >= 5 to survive ALIGNED().
    journal:
        Undo-journal mode of the reservation schedulers:
        ``"arena"`` (default — tuple-opcode entries on a reusable
        arena) or ``"arena-sanitize"`` (arena plus checking container
        proxies, the runtime journal-coverage oracle; also selected by
        ``REPRO_SANITIZE=1`` in the environment). Any other value
        raises :class:`ValueError`.

    Example
    -------
    >>> from repro import Job, Window
    >>> from repro.core.api import ReservationScheduler
    >>> sched = ReservationScheduler(num_machines=2)
    >>> cost = sched.insert(Job("patient-1", Window(3, 17)))
    >>> cost.reallocation_cost
    0
    >>> sched.placements["patient-1"].slot in Window(3, 17)
    True
    """

    def __new__(cls, num_machines: int = 1, *, trim: bool = True,
                deamortized: bool = False,
                **options: Any) -> ReservationScheduler:
        flavour = (_stack_class(num_machines, trim, deamortized)
                   if cls is ReservationScheduler else cls)
        return object.__new__(flavour)

    def __getnewargs_ex__(self) -> tuple[tuple[int], dict[str, bool]]:
        """Pickle re-creates through ``__new__``: pass what picks the class."""
        return ((self.num_machines,),
                {"trim": self.trim, "deamortized": self.deamortized})

    def __init__(self, num_machines: int = 1, **options: Any) -> None:
        self._configure(num_machines, **options)
        super().__init__(num_machines=num_machines)

    def _configure(self, num_machines: int, *, gamma: int = 8,
                   policy: LevelPolicy = PAPER_POLICY, trim: bool = True,
                   deamortized: bool = False, journal: str = "arena") -> None:
        """Check that the arguments name this class's stack; keep them."""
        stack = _stack_class(num_machines, trim, deamortized)
        if not isinstance(self, stack):
            raise ValueError(
                f"{type(self).__name__} does not run this stack; "
                f"ReservationScheduler builds a {stack.__name__}")
        if gamma < 1 or gamma & (gamma - 1):
            raise ValueError("gamma must be a positive power of two")
        if journal == "arena" and sanitize_enabled():
            journal = "arena-sanitize"
        self.gamma = gamma
        self.policy = policy
        self.trim = trim
        self.deamortized = deamortized
        self.journal_impl = journal

    def _apply_insert(self, job: Job) -> None:
        # ALIGNED(W), once per request: every layer below sees aligned
        # windows, and placements nest inside the original ones
        self._insert_aligned(align_job(job))

    @abc.abstractmethod
    def _insert_aligned(self, job: Job) -> None:
        """Place ``job``, whose window is already aligned."""


class UntrimmedReservationScheduler(ReservationScheduler):
    """One machine, untrimmed: the pure ``O(log* Delta)`` bound.

    Aligns each insert, costs each request and places it on
    :attr:`inner`, one
    :class:`~repro.reservation.scheduler.AlignedReservationScheduler`.
    :class:`TrimmedReservationScheduler` extends it with n*-trimming.
    """

    inner: AlignedReservationScheduler

    #: placements pass through the inner scheduler, whose own abort
    #: restores them (the top context still keeps the batch's log)
    _batch_restore_needs_touched = False

    def __init__(self, num_machines: int = 1, *, trim: bool = False,
                 **options: Any) -> None:
        super().__init__(num_machines, trim=trim, **options)
        self.inner = self._new_inner()

    def _new_inner(self) -> AlignedReservationScheduler:
        """A fresh inner scheduler; this layer costs its requests."""
        return self._adopt(AlignedReservationScheduler(
            self.policy, journal=self.journal_impl))

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self.inner.placements

    def _insert_aligned(self, job: Job) -> None:
        inner = self.inner
        inner.insert(job)
        # placements are coordinate-identical to the inner scheduler's,
        # so its touched log folds straight into this request's.
        self._merge_touched(inner.last_touched)

    def _apply_delete(self, job: Job) -> None:
        self.inner.delete(job.id)
        self._merge_touched(self.inner.last_touched)

    def _subs(self) -> tuple[AlignedReservationScheduler]:
        return (self.inner,)

    def check_balance(self) -> None:
        """Section 3's balance: one machine is balanced by definition."""

    def machine_schedulers(self) -> list[ReallocatingScheduler]:
        """This scheduler: it is the one machine's scheduler."""
        return [self]

    @property
    def journal_entries_total(self) -> int:
        """Lifetime undo-journal entries of the inner scheduler."""
        return self.inner.journal_entries_total

    @property
    def poisoned(self) -> bool:
        return self.inner.poisoned

    def active_levels(self) -> dict[int, int]:
        return self.inner.active_levels()


class TrimmedReservationScheduler(UntrimmedReservationScheduler):
    """One machine, n*-trimmed (Section 4, end): the default m=1 stack.

    Each insert is aligned (``ALIGNED(W)``), then trimmed by
    :func:`~repro.reservation.trimming.trim_aligned` to span at most
    ``2 * gamma * n*``; the request is costed here and placed by
    :attr:`inner`, one
    :class:`~repro.reservation.scheduler.AlignedReservationScheduler`.
    n* doubles when the active count exceeds it and halves when the
    count drops below ``n*/4``; each change rebuilds the schedule on a
    fresh inner (:meth:`_resize`), an amortized O(1) reallocations per
    request. The trimmed instance stays gamma-underallocated because at
    most n* other jobs live in a trimmed window.

    Non-atomic rebuilds run journal-free: the fresh inner's survivor
    re-inserts skip the per-request undo journal, because a failed
    rebuild poisons the scheduler regardless. Atomic batches run
    rebuilds on an ephemeral inner that an abort discards wholesale.

    Parameters are :class:`ReservationScheduler`'s, for one trimmed,
    amortized machine; ``gamma`` must be a power of two (the paper's
    Lemma 8 needs the *instance* to be 8-underallocated — gamma
    defaults to 8).
    """

    def __init__(self, num_machines: int = 1, *, trim: bool = True,
                 **options: Any) -> None:
        if not trim:
            raise ValueError("TrimmedReservationScheduler trims; "
                             "ReservationScheduler(1, trim=False) does not")
        self.n_star = MIN_N_STAR
        self.rebuilds = 0
        #: journal entries recorded by inners replaced in rebuilds
        #: (``journal_entries_total`` folds the live inner back in)
        self._journal_entries_carry = 0
        #: planned final job count of the current flexible batch
        #: (None outside flexible batches; see _flexible_size_hint)
        self._flex_final_hint: int | None = None
        super().__init__(num_machines, trim=trim, **options)

    @property
    def trim_span(self) -> int:
        """Current maximum effective window span: 2 * gamma * n*."""
        return 2 * self.gamma * self.n_star

    def _insert_aligned(self, job: Job) -> None:
        if len(self.jobs) > self.n_star:
            self._resize(self.n_star * 2)
        inner = self.inner
        inner.insert(job.with_window(trim_aligned(job.window, self.trim_span)))
        self._merge_touched(inner.last_touched)

    def _apply_delete(self, job: Job) -> None:
        super()._apply_delete(job)
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
        inner = self.inner
        # A rebuild can move every survivor: log all pre-rebuild
        # placements (O(n), amortized O(1) like the rebuild itself).
        self._merge_touched(dict(inner.placements))
        # Deterministic rebuild order over the aligned, untrimmed
        # windows: short spans first, then by release.
        survivors = [job.with_window(job.window.aligned_within())
                     for job in self.jobs.values() if job.id in inner.jobs]
        survivors.sort(key=lambda j: (j.span, j.release, str(j.id)))
        self._journal_entries_carry += inner.journal_entries_total
        # The outgoing inner is freed by reference counting here, before
        # the survivors are re-inserted (intervals hold no scheduler
        # reference), so the two schedules never coexist.
        inner = self.inner = self._new_inner()
        ctx = self._batch
        if ctx is not None:
            # Inside an atomic batch the fresh inner is ephemeral: an
            # abort restores the saved pre-batch inner and discards this
            # one, so its rebuild inserts skip all rollback tracking.
            inner._batch_begin(atomic=ctx.atomic,
                               ephemeral=ctx.atomic or ctx.ephemeral)
        if ctx is None or not ctx.atomic:
            # A failed rebuild poisons regardless, so the fresh inner's
            # survivor inserts run journal-free (atomic batches already
            # do, via the ephemeral discard-on-abort path).
            inner._journal_enabled = False
        trim = self.trim_span
        try:
            for job in survivors:
                inner.insert(job.with_window(trim_aligned(job.window, trim)))
        finally:
            inner._journal_enabled = True

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
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


class TrimmedMachine(TrimmedReservationScheduler):
    """One machine of a trimmed delegating stack: trims and places.

    Its facade (:class:`DelegatingReservationScheduler`) aligned every
    window already, so an insert goes straight to trimming; n* is kept
    per machine.
    """

    def _apply_insert(self, job: Job) -> None:
        self._insert_aligned(job)


class DelegatingReservationScheduler(ReservationScheduler, DelegatingScheduler):
    """m > 1 machines: the delegation layer is the facade (Section 3).

    It aligns each insert once, assigns it to a machine by per-window
    round-robin, migrates at most one job per delete, costs every
    request and keeps the merged placement map
    (:class:`~repro.multimachine.delegation.DelegatingScheduler`). Its
    machines only trim and place (:class:`TrimmedMachine`), split into
    phase sides (``DeamortizedMachine``), or, untrimmed, place
    (``AlignedReservationScheduler``).
    """

    def __init__(self, num_machines: int = 2, **options: Any) -> None:
        self._configure(num_machines, **options)
        DelegatingScheduler.__init__(self, num_machines, self._new_machine)

    def _new_machine(self) -> ReallocatingScheduler:
        """One machine's scheduler, for the stack's trim and deamortized."""
        options: dict[str, Any] = {"gamma": self.gamma, "policy": self.policy,
                                   "journal": self.journal_impl}
        if self.deamortized:
            from ..reservation.deamortized import DeamortizedMachine
            return DeamortizedMachine(**options)
        if self.trim:
            return TrimmedMachine(**options)
        return AlignedReservationScheduler(self.policy, journal=self.journal_impl)

    def _insert_aligned(self, job: Job) -> None:
        DelegatingScheduler._apply_insert(self, job)
