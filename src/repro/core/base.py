"""The reallocating-scheduler interface: per-request and batch-first.

Every scheduler in this library — the paper's reservation scheduler, the
naive pecking-order scheduler, EDF/LLF rebuilds, the per-request-optimal
matcher — implements :class:`ReallocatingScheduler`. The base class
standardizes cost measurement: subclasses implement ``_apply_insert`` /
``_apply_delete`` mutating their internal placement map, and the base
class diffs placements around each request to produce a
:class:`~repro.core.costs.RequestCost`. That keeps cost accounting
uniform and scheduler-independent, exactly as the paper's job-centered
cost model demands.

Costing is sparse: a subclass calls :meth:`_log_touch` (or
:meth:`_merge_touched`) before it changes any job's placement, and the
base class diffs only the touched jobs
(:func:`~repro.core.costs.diff_touched`), which equals a diff of full
before/after snapshots at O(reallocations) per request — the paper's
O(log* n) — instead of O(n). A scheduler that rebuilds its whole
schedule logs every placement first, an O(n) request of its own. The
largest active span (the paper's ``Delta_i``) is likewise tracked
incrementally instead of rescanned.

One ledger per stack: only the scheduler the caller invoked costs a
request and records it. An owning layer adopts every scheduler it
drives (:meth:`ReallocatingScheduler._adopt`), which marks it nested;
a nested layer publishes its touched log (``last_touched``) for its
parent and builds no :class:`~repro.core.costs.RequestCost`, so a
Theorem 1 stack allocates one cost entry per request instead of one
per layer. Span tracking follows the ledger: a nested layer keeps no
span counts, since only the costed layer reads them. The same
mark decides batch costing: a nested layer's batch context is never
the batch entry point (``ctx.top``).

Batch contract
--------------
Real traffic arrives in bursts, so the public API is batch-first:
:meth:`ReallocatingScheduler.apply_batch` applies a whole
:class:`~repro.core.requests.Batch` under ONE batch context. Under the
default ``semantics="strict"`` requests are applied strictly in order
and every per-request :class:`RequestCost` is measured and recorded
exactly as sequential ``apply`` would — a committed batch leaves
placements, ledger totals, and max-span tracking bit-identical to
processing the same requests one at a time (the batch-equivalence
property, enforced by the test suite).
What the batch amortizes is bookkeeping, not semantics:

- one touched-placement log spans the burst, finalizing a single sparse
  net cost diff (:attr:`~repro.core.costs.BatchResult.net`) alongside
  the per-request breakdown;
- layers below the batch entry point suspend their own per-request cost
  finalization (diff + ledger record) — wrappers consume the raw
  touched logs instead;
- with ``atomic=True``, one undo-journal scope spans the burst instead
  of one per request: a mid-batch failure restores the exact pre-batch
  state (all-or-nothing).

Failure semantics: non-atomic batches stop at the first failing
request, roll that request back (per-request journal, as sequential
``apply`` does), and report the committed prefix; atomic batches roll
the whole burst back and leave the scheduler usable, as if the batch
had never been submitted. ``apply_batch`` never raises for scheduler
failures (:class:`~repro.core.exceptions.ReproError`) — it reports them
in the :class:`~repro.core.costs.BatchResult` so drivers can decide.

Flexible semantics
------------------
``apply_batch(..., semantics="flexible")`` relaxes the bit-identical
pin to a *bounds-equivalence* contract: the committed job table,
max-span tracking, and feasibility are identical to strict processing,
every per-request measured cost stays within the Theorem 1 bound
(strict mode is the bounded oracle), but placements and individual
ledger entries are free. The planner (:meth:`_plan_flexible`) exploits
that freedom without bypassing the per-request cost model:

- interior insert/delete pairs born and retired inside the burst are
  *elided* — neither touches the schedule; both still get (zero-cost)
  ledger entries so the ledger stays one entry per request;
- deletes of pre-existing jobs are coalesced up front (arrival order),
  so the surviving inserts run against the post-delete state;
- surviving inserts run jointly, ordered by the stack's
  :meth:`_flexible_insert_order_key` (span-ascending for the
  reservation stacks, mirroring the trimming rebuild order), which
  avoids intra-burst displacement/move chains.

Every planned operation still executes through :meth:`insert` /
:meth:`delete` under the normal batch context, so atomic rollback, the
undo arena, sanitizer first-touch accounting, and the journal-coverage
contracts apply to flexible batches unchanged — a reordered valid
sequence is still a valid sequence, so Theorem 1's per-request bound
holds for every planned op. Per-request ledger entries are re-ordered
back to arrival positions at commit. A batch whose per-id op streams
are not protocol-valid against the pre-batch job set (duplicate
inserts, deletes of absent jobs) degrades to strict application, which
reports the error at its arrival position.
"""

from __future__ import annotations

import abc
from itertools import chain
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from .costs import NO_JOBS, BatchResult, CostLedger, RequestCost, diff_touched
from .exceptions import InvalidRequestError, ReproError
from .job import Job, JobId, Placement
from .requests import Batch, DeleteJob, InsertJob, Request

#: batch placement semantics — ``"strict"`` pins placements/ledger to
#: sequential equivalence; ``"flexible"`` keeps only the
#: bounds-equivalence contract (see the module docstring). Imported by
#: the session backends and the CLI's argparse choices.
BATCH_SEMANTICS = ("strict", "flexible")


def resolve_batch_semantics(semantics: str) -> str:
    """Validate a batch-semantics selector (single definition point)."""
    if semantics not in BATCH_SEMANTICS:
        raise InvalidRequestError(
            f"semantics must be one of {BATCH_SEMANTICS}, got {semantics!r}")
    return semantics


_Sub = TypeVar("_Sub", bound="ReallocatingScheduler")


class _BatchContext:
    """Per-batch bookkeeping held by a scheduler while a batch is open.

    ``touched`` is the batch-level first-touch placement log (pre-batch
    values), kept when the layer needs a net diff (batch entry point) or
    a placement restore (atomic). ``inserted``/``deleted`` record the
    batch's net job churn for atomic rollback. ``saved`` is free-form
    storage for subclass snapshots (inner-scheduler refs, balancer
    transaction logs, structure snapshots).
    """

    __slots__ = ("atomic", "top", "touched", "inserted", "deleted",
                 "ledger_len", "saved", "ephemeral")

    def __init__(self, *, atomic: bool, top: bool, ledger_len: int,
                 ephemeral: bool = False, needs_touched: bool = True) -> None:
        self.atomic = atomic
        self.top = top
        self.ephemeral = ephemeral
        track = atomic and not ephemeral
        self.touched: dict[JobId, Placement | None] | None = (
            {} if top or (track and needs_touched) else None)
        self.inserted: dict[JobId, Job] | None = {} if track else None
        self.deleted: dict[JobId, Job] | None = {} if track else None
        self.ledger_len = ledger_len
        self.saved: dict = {}

    def merge_touched(
        self, touched: Mapping[JobId, Placement | None] | None
    ) -> None:
        bt = self.touched
        if bt is None or not touched:
            return
        for job_id, old in touched.items():
            if job_id not in bt:
                bt[job_id] = old

    def note_insert(self, job: Job) -> None:
        if self.inserted is not None:
            self.inserted[job.id] = job

    def note_delete(self, job: Job) -> None:
        if self.deleted is None:
            return
        # A job inserted by this batch and deleted again is net-zero.
        if job.id in self.inserted:
            del self.inserted[job.id]
        else:
            self.deleted[job.id] = job


class ReallocatingScheduler(abc.ABC):
    """Base class for online schedulers that maintain a feasible schedule.

    Parameters
    ----------
    num_machines:
        Number of identical machines ``m``.

    Subclass contract
    -----------------
    - ``_apply_insert(job)`` must place ``job`` (and may move others).
    - ``_apply_delete(job)`` must unplace ``job`` (and may move others).
    - ``placements`` must always reflect the live schedule.
    - Subclasses must call :meth:`_log_touch` (or :meth:`_merge_touched`)
      before mutating any job's placement, including wrapped
      sub-schedulers' moves.
    - Wrappers name the sub-schedulers they drive right now in
      :meth:`_subs`; the base class carries every batch hook to them
      (begin, commit, abort, the flexible order key and size hint),
      and the stack supports atomic batches when every sub does. A
      wrapper extends :meth:`_batch_begin` / :meth:`_batch_commit` /
      :meth:`_batch_restore` only for its own state (saved fields, a
      balancer transaction, a merged placement map); only a leaf
      overrides :meth:`supports_atomic_batches` and
      :meth:`_flexible_insert_order_key`.

    Subclasses must raise :class:`InfeasibleError` /
    :class:`UnderallocationError` *before* corrupting state, or restore
    state on failure, so callers can fall back to another scheduler.
    """

    #: True on a scheduler that an owning layer drives (set only by
    #: :meth:`_adopt`): a nested layer only publishes
    #: ``last_touched`` — no cost diff, no ledger entry — and its batch
    #: contexts are never the entry point, so one ledger per stack
    #: records each request (see ``insert``)
    _nested = False

    def __init__(self, num_machines: int = 1) -> None:
        if num_machines < 1:
            raise ValueError("num_machines must be >= 1")
        self.num_machines = num_machines
        self.jobs: dict[JobId, Job] = {}
        self.ledger = CostLedger()
        #: live touched-placement log (active only inside a request)
        self._touched: dict[JobId, Placement | None] | None = None
        #: touched log of the most recent completed request — wrappers
        #: fold it into their own log via _merge_touched
        self.last_touched: dict[JobId, Placement | None] | None = None
        #: spare touched dict recycled between requests (two-slot ring
        #: with ``last_touched``): consumers read ``last_touched``
        #: synchronously — before the next request on this scheduler —
        #: so the dict from two requests ago is free for reuse. Saves
        #: one dict allocation per request at every layer of a stack.
        self._touched_spare: dict[JobId, Placement | None] | None = None
        #: span -> active-job count, for O(1) amortized max-span tracking
        #: (kept only while this layer costs its requests: empty on a
        #: nested layer)
        self._span_counts: dict[int, int] = {}
        self._max_span_cache = 1
        #: open batch context (None outside apply_batch)
        self._batch: _BatchContext | None = None

    def _adopt(self, sub: _Sub) -> _Sub:
        """Mark ``sub`` as driven by this scheduler; return it.

        Every owning layer calls this on each sub-scheduler it creates
        or is handed, and this layer then costs the sub's requests. The
        adopted scheduler becomes nested for good: it returns None from
        ``insert``/``delete``, records no ledger and
        stops tracking spans, and its batch contexts open with
        ``top=False``.
        """
        sub._nested = True
        return sub

    # ------------------------------------------------------------------
    # subclass API
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def placements(self) -> Mapping[JobId, Placement]:
        """Live placement map (job id -> machine, slot)."""

    @abc.abstractmethod
    def _apply_insert(self, job: Job) -> None:
        """Place ``job`` into the schedule, moving others if necessary."""

    @abc.abstractmethod
    def _apply_delete(self, job: Job) -> None:
        """Remove ``job`` from the schedule, moving others if desired."""

    # ------------------------------------------------------------------
    # sparse costing support
    # ------------------------------------------------------------------
    def _log_touch(self, job_id: JobId) -> None:
        """Record ``job_id``'s pre-request placement (first touch wins)."""
        t = self._touched
        if t is not None and job_id not in t:
            t[job_id] = self.placements.get(job_id)

    def _merge_touched(
        self, touched: Mapping[JobId, Placement | None] | None
    ) -> None:
        """Fold a wrapped scheduler's touched log into this request's.

        Only valid when the wrapper's placements are coordinate-identical
        to the wrapped scheduler's (pass-through properties).
        """
        t = self._touched
        if t is None or touched is None:
            return
        if not t:
            t.update(touched)
            return
        for job_id, old in touched.items():
            if job_id not in t:
                t[job_id] = old

    def _mirror(self, sub: ReallocatingScheduler, subject: JobId,
                merged: dict[JobId, Placement], machine: int,
                scale: int = 1, offset: int = 0) -> None:
        """Mirror a sub-request's placement changes into ``merged``.

        For a wrapper whose placements are a merged map over its subs:
        every job the sub's touched log names, and ``subject``, is
        logged here first (so this layer's cost sees its old placement)
        and then re-read, the sub's slot ``s`` becoming slot ``scale * s
        + offset`` on ``machine``. O(changes) per sub-request.
        """
        touched = sub.last_touched
        assert touched is not None  # every applied request publishes one
        changed: Iterable[JobId] = (
            touched if subject in touched else (subject, *touched))
        sub_placements = sub.placements
        for job_id in changed:
            self._log_touch(job_id)
            pl = sub_placements.get(job_id)
            if pl is None:
                merged.pop(job_id, None)
            else:
                merged[job_id] = Placement(machine, scale * pl.slot + offset)

    def _touched_acquire(self) -> dict[JobId, Placement | None]:
        """An empty touched dict for the starting request (ring reuse)."""
        spare = self._touched_spare
        if spare is None:
            return {}
        self._touched_spare = None
        return spare

    def _touched_publish(
        self, touched: dict[JobId, Placement | None] | None
    ) -> None:
        """Expose ``touched`` as ``last_touched``, recycling the old one.

        The previous ``last_touched`` was consumed by every parent
        before this request began (the synchronous-merge contract), so
        it can be cleared and parked as the next request's dict.
        """
        prev = self.last_touched
        self.last_touched = touched
        if prev is not None and prev is not touched:
            prev.clear()
            self._touched_spare = prev

    def _touched_recycle(
        self, touched: dict[JobId, Placement | None] | None
    ) -> None:
        """Park a touched dict that will not be published (failure path)."""
        if touched is not None and self._touched_spare is None:
            touched.clear()
            self._touched_spare = touched

    # ------------------------------------------------------------------
    # public online interface
    # ------------------------------------------------------------------
    def insert(self, job: Job) -> RequestCost | None:
        """Process an INSERTJOB request and return its measured cost.

        A nested layer (one an owner adopted, see :meth:`_adopt`)
        suspends cost finalization and returns None; its parent reads
        ``last_touched``. It keeps no span counts either: only the layer
        that costs a request reads ``_max_span_cache``.
        """
        if job.id in self.jobs:
            raise InvalidRequestError(f"job {job.id!r} already active")
        ctx = self._batch
        self._touched = self._touched_acquire()
        self.jobs[job.id] = job
        try:
            self._apply_insert(job)
        except Exception:
            self.jobs.pop(job.id, None)
            touched, self._touched = self._touched, None
            if ctx is not None and ctx.atomic and touched:
                ctx.merge_touched(touched)  # the abort must see these
            self._touched_recycle(touched)
            raise
        # the batch-context calls are guarded inline: most layers of a
        # non-atomic batch keep neither a churn nor a touched log
        if ctx is not None and ctx.inserted is not None:
            ctx.note_insert(job)
        touched, self._touched = self._touched, None
        self._touched_publish(touched)
        if ctx is not None and ctx.touched is not None:
            ctx.merge_touched(touched)
        if self._nested:
            return None
        self._span_add(job.span)
        cost = diff_touched(
            touched, self.placements,
            kind="insert", subject=job.id,
            n_active=len(self.jobs), max_span=self._max_span_cache,
        )
        self.ledger.record(cost)
        return cost

    def delete(self, job_id: JobId) -> RequestCost | None:
        """Process a DELETEJOB request and return its measured cost.

        Costing follows :meth:`insert`: nested layers return None.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise InvalidRequestError(f"job {job_id!r} not active")
        n_active = len(self.jobs)
        max_span = self._max_span_cache
        ctx = self._batch
        self._touched = self._touched_acquire()
        try:
            self._apply_delete(job)
        except Exception:
            touched, self._touched = self._touched, None
            if ctx is not None and ctx.atomic and touched:
                ctx.merge_touched(touched)
            self._touched_recycle(touched)
            raise
        del self.jobs[job_id]
        if ctx is not None and ctx.deleted is not None:
            ctx.note_delete(job)
        touched, self._touched = self._touched, None
        self._touched_publish(touched)
        if ctx is not None and ctx.touched is not None:
            ctx.merge_touched(touched)
        if self._nested:
            return None
        self._span_remove(job.span)
        cost = diff_touched(
            touched, self.placements,
            kind="delete", subject=job_id,
            n_active=n_active, max_span=max_span,
        )
        self.ledger.record(cost)
        return cost

    def apply(self, request: Request) -> RequestCost | None:
        """Dispatch a request object (insert or delete).

        Returns None exactly when :meth:`insert` / :meth:`delete` do: on
        a nested layer.
        """
        if isinstance(request, InsertJob):
            return self.insert(request.job)
        if isinstance(request, DeleteJob):
            return self.delete(request.job_id)
        raise InvalidRequestError(f"unknown request: {request!r}")

    def apply_batch(
        self,
        requests: Batch | Iterable[Request],
        *,
        atomic: bool = False,
        semantics: str = "strict",
    ) -> BatchResult:
        """Apply a burst of requests under one batch context.

        Under ``semantics="strict"`` requests are applied strictly in
        order; per-request costs enter the ledger exactly as sequential
        :meth:`apply` would, and one batch-level net diff is finalized
        at commit. ``semantics="flexible"`` plans the burst jointly
        (deletes coalesced first, interior insert/delete pairs elided,
        surviving inserts reordered) under the bounds-equivalence
        contract. See the module docstring for both contracts.

        Parameters
        ----------
        atomic:
            All-or-nothing: a mid-batch failure restores the exact
            pre-batch state and leaves the scheduler usable. Requires
            :meth:`supports_atomic_batches`. Without it, a failure
            commits the preceding requests and rolls back only the
            failing one (sequential semantics).
        semantics:
            ``"strict"`` (default) or ``"flexible"``.
        """
        batch = requests if isinstance(requests, Batch) else Batch(requests)
        resolve_batch_semantics(semantics)
        if self._batch is not None:
            raise InvalidRequestError("apply_batch cannot be nested")
        if self._nested:
            raise InvalidRequestError(
                f"{type(self).__name__} is driven by an owning layer; "
                "apply the batch to the owner")
        if atomic and not self.supports_atomic_batches():
            raise InvalidRequestError(
                f"{type(self).__name__} does not support atomic batches"
            )
        if semantics == "flexible":
            plan = self._plan_flexible(batch)
            if plan is not None:
                return self._run_batch(batch, atomic, self._drive_flexible,
                                       *plan)
            # Protocol-invalid op streams degrade to strict application,
            # which reports the error at its arrival position.
        return self._run_batch(batch, atomic, self._drive_strict)

    def _run_batch(self, batch: Batch, atomic: bool,
                   drive: Callable[..., tuple], *plan: Any) -> BatchResult:
        """Open a batch context, run ``drive(batch, *plan)``, close it.

        ``drive`` applies the requests and returns ``(applied, costs,
        error, failed_index)``: the costs in the order the requests
        ran, the costs as the batch commits them, and the first
        :class:`ReproError` with its arrival index. An atomic failure
        aborts and reports ``applied``; otherwise the batch commits
        with one net diff over whatever was applied. Any other
        exception aborts an atomic batch (commits a non-atomic one)
        and propagates.
        """
        self._batch_begin(atomic=atomic)
        try:
            applied, costs, error, failed_index = drive(batch, *plan)
        except BaseException:
            # Unexpected failure: restore what we can, then propagate.
            if atomic:
                self._batch_abort()
            else:
                self._batch_commit()
            raise
        failure = None if error is None else f"{type(error).__name__}: {error}"
        if error is not None and atomic:
            self._batch_abort()
            return BatchResult(
                costs=applied, net=None, size=len(batch), atomic=True,
                failed=True, failed_index=failed_index, failure=failure,
                rolled_back=True, error=error,
            )
        # Net diff over whatever committed — on a non-atomic failure the
        # touched log covers exactly the committed prefix (the failing
        # request was rolled back before its touches merged).
        net = diff_touched(
            self._batch.touched, self.placements,
            kind="batch", subject="batch",
            n_active=len(self.jobs), max_span=self._max_span_cache,
        )
        self._batch_commit()
        return BatchResult(
            costs=costs, net=net, size=len(batch), atomic=atomic,
            failed=error is not None, failed_index=failed_index,
            failure=failure, error=error,
        )

    def _drive_strict(self, batch: Batch) -> tuple:
        """Apply a strict batch in arrival order (see :meth:`_run_batch`)."""
        costs: list[RequestCost] = []
        for i, request in enumerate(batch):
            try:
                if isinstance(request, InsertJob):
                    costs.append(self.insert(request.job))
                else:
                    costs.append(self.delete(request.job_id))
            except ReproError as exc:
                return costs, costs, exc, i
        return costs, costs, None, None

    # ------------------------------------------------------------------
    # flexible semantics (joint burst planning)
    # ------------------------------------------------------------------
    def _flexible_insert_order_key(self) -> "Callable[[Job], Any] | None":
        """Sort key over :class:`Job` for the flexible insert phase.

        None keeps arrival order. Reservation leaves return a
        span-ascending key — the same order the trimming rebuild uses —
        so a joint burst places small-span jobs before the large-span
        jobs that could displace them, avoiding intra-burst move
        chains. A wrapper takes its first sub's key (see :meth:`_subs`)
        so the whole stack agrees on one order.
        """
        subs = self._subs()
        return subs[0]._flexible_insert_order_key() if subs else None

    def _plan_flexible(
        self, batch: Batch
    ) -> "tuple[list[tuple[int, DeleteJob]], list[tuple[int, InsertJob]], list[tuple[int, Request]]] | None":
        """Joint plan for a flexible batch, or None to degrade to strict.

        Folds the batch into per-id op streams against the pre-batch job
        set. Interior insert/delete pairs (a job born and retired inside
        the burst) are elided; what survives is at most one leading
        delete of a pre-existing job and at most one trailing insert per
        id. Returns ``(deletes, inserts, elided)`` — each a list of
        ``(arrival_index, request)`` pairs; deletes keep arrival order,
        inserts are reordered by :meth:`_flexible_insert_order_key`.
        Returns None when any stream is protocol-invalid (duplicate
        insert, delete of an absent id), so the strict path can surface
        the error exactly as sequential processing would.
        """
        active = self.jobs
        #: id -> live within the planned timeline (absent = pre-batch state)
        state: dict[JobId, bool] = {}
        #: batch-born live inserts, by id; entries are only ever appended
        #: (a re-insert follows the pop of its elided pair), so the
        #: values are in arrival order
        pending: dict[JobId, tuple[int, InsertJob]] = {}
        deletes: list[tuple[int, DeleteJob]] = []
        elided: list[tuple[int, Request]] = []
        for index, request in enumerate(batch):
            if isinstance(request, InsertJob):
                job_id = request.job.id
                if state.get(job_id, job_id in active):
                    return None  # insert of an already-active id
                state[job_id] = True
                pending[job_id] = (index, request)
            elif isinstance(request, DeleteJob):
                job_id = request.job_id
                if not state.get(job_id, job_id in active):
                    return None  # delete of an inactive id
                state[job_id] = False
                born = pending.pop(job_id, None)
                if born is not None:
                    elided.append(born)
                    elided.append((index, request))
                else:
                    deletes.append((index, request))
            else:
                return None  # unknown request kind: strict reports it
        inserts = list(pending.values())
        key = self._flexible_insert_order_key()
        if key is not None:
            # decorate-sort-undecorate: the key tuples compare directly,
            # with the arrival index as a deterministic tiebreak
            decorated = [(key(request.job), index, request)
                         for index, request in inserts]
            decorated.sort()
            inserts = [(index, request) for _, index, request in decorated]
        return deletes, inserts, elided

    def _elided_cost(self, request: Request) -> RequestCost:
        """Zero-cost ledger entry for an elided insert/delete pair.

        The pair never touched the schedule, so nothing was rescheduled
        or migrated; ``n_active``/``max_span`` carry the post-batch
        values (the entry does not correspond to a schedule state of its
        own).
        """
        if isinstance(request, InsertJob):
            kind, subject = "insert", request.job.id
        else:
            kind, subject = "delete", request.job_id
        return RequestCost(
            kind=kind, subject=subject,
            rescheduled=NO_JOBS, migrated=NO_JOBS,
            n_active=len(self.jobs), max_span=self._max_span_cache,
        )

    def _drive_flexible(
        self,
        batch: Batch,
        deletes: list[tuple[int, DeleteJob]],
        inserts: list[tuple[int, InsertJob]],
        elided: list[tuple[int, Request]],
    ) -> tuple:
        """Drive a planned flexible batch (deletes, then joint inserts).

        Every planned op runs through the normal :meth:`insert` /
        :meth:`delete` request path under the batch context, so rollback
        and cost accounting are untouched. The batch's ledger slice is
        then permuted back to arrival order and elided requests receive
        zero-cost entries, keeping the ledger one-entry-per-request (an
        atomic abort truncates the slice again). See :meth:`_run_batch`
        for the returned tuple.
        """
        self._flexible_size_hint([request for _, request in deletes],
                                 [request.job for _, request in inserts])
        applied: list[RequestCost] = []
        error: ReproError | None = None
        failed_index: int | None = None
        for index, request in deletes:
            try:
                applied.append(self.delete(request.job_id))
            except ReproError as exc:
                error, failed_index = exc, index
                break
        if error is None:
            for index, insert_request in inserts:
                try:
                    applied.append(self.insert(insert_request.job))
                except ReproError as exc:
                    error, failed_index = exc, index
                    break
        # On a non-atomic failure only the applied planned prefix (plus
        # the no-op elided pairs) committed — failed_index names the
        # failing request's arrival position.
        at: list = [None] * len(batch)
        for (index, _), cost in zip(chain(deletes, inserts), applied):
            at[index] = cost
        for index, request in elided:
            at[index] = self._elided_cost(request)
        # without a failure every arrival position holds its entry
        costs = (at if error is None
                 else [cost for cost in at if cost is not None])
        self.ledger.entries[self._batch.ledger_len:] = costs
        return applied, costs, error, failed_index

    # ------------------------------------------------------------------
    # batch plumbing: one fan-out over the sub-schedulers a wrapper names
    # ------------------------------------------------------------------
    def _subs(self) -> Sequence[ReallocatingScheduler]:
        """The sub-schedulers this scheduler drives right now.

        Empty on a leaf. A wrapper returns the (adopted) schedulers its
        next request would reach, so every batch hook below reaches
        exactly the live stack; a sub created mid-batch is begun by the
        wrapper that creates it.
        """
        return ()

    def supports_atomic_batches(self) -> bool:
        """Whether this scheduler (stack) can restore pre-batch state:
        a wrapper can when every sub can; a leaf overrides this."""
        subs = self._subs()
        return bool(subs) and all(sub.supports_atomic_batches()
                                  for sub in subs)

    def _flexible_size_hint(self, deletes: list[DeleteJob],
                            inserts: list[Job]) -> None:
        """Hook: announce a flexible batch's planned net size change.

        Called once per flexible batch, right after the batch context
        opens (so any state it changes is covered by the atomic
        snapshot) and before the coalesced deletes run. Size-adaptive
        layers (n*-trimming) may pre-size for the planned final job
        count instead of rebuilding at every mid-batch threshold
        crossing; placements are free under the flexible contract, so
        the skipped rebuilds only change them, never the job table,
        max-span, or feasibility. The default passes the hint to every
        sub.
        """
        for sub in self._subs():
            sub._flexible_size_hint(deletes, inserts)

    #: pass-through wrappers whose placements restore entirely through a
    #: child's abort set this False to skip batch touched-log upkeep
    _batch_restore_needs_touched = True

    def _batch_begin(self, *, atomic: bool, ephemeral: bool = False) -> None:
        """Open a batch context here and on every sub. The context is
        the batch entry point (``top``) exactly when this scheduler is
        not nested. Wrappers extend this to save their own state.

        ``ephemeral`` marks a scheduler *created inside* an open atomic
        batch (e.g. a trimming rebuild's fresh inner): an abort discards
        the object wholesale, so it skips rollback tracking entirely —
        no journal, no snapshots — and runs at full batch speed.
        """
        self._batch = _BatchContext(
            atomic=atomic, top=not self._nested,
            ledger_len=len(self.ledger.entries), ephemeral=ephemeral,
            needs_touched=self._batch_restore_needs_touched,
        )
        for sub in self._subs():
            sub._batch_begin(atomic=atomic, ephemeral=ephemeral)

    def _batch_commit(self) -> None:
        """Close the batch context here and on every current sub,
        keeping all applied requests."""
        self._batch = None
        for sub in self._subs():
            sub._batch_commit()

    def _batch_abort(self) -> None:
        """Restore the exact pre-batch state (atomic batches only).

        Base-class state (jobs, span tracking, ledger) is restored here;
        :meth:`_batch_restore` then restores subclass structures — it
        runs *after* the job set is back, so hooks may derive state from
        ``self.jobs`` — and finally the subs it restored abort in turn.
        """
        ctx = self._batch
        self._batch = None
        if ctx is None or not ctx.atomic:  # pragma: no cover - defensive
            raise InvalidRequestError("no atomic batch to abort")
        # a nested layer keeps no span counts (see insert)
        spans = not self._nested
        for job in ctx.inserted.values():
            del self.jobs[job.id]
            if spans:
                self._span_remove(job.span)
        for job in ctx.deleted.values():
            self.jobs[job.id] = job
            if spans:
                self._span_add(job.span)
        del self.ledger.entries[ctx.ledger_len:]
        self.last_touched = None
        self._batch_restore(ctx)
        for sub in self._subs():
            sub._batch_abort()

    def _batch_restore(self, ctx: _BatchContext) -> None:
        """Hook: restore subclass structures from ``ctx`` on abort
        (a wrapper swaps back the subs it saved at begin)."""

    def _restore_placement_map(
        self,
        placements: dict[JobId, Placement],
        touched: Mapping[JobId, Placement | None],
    ) -> None:
        """Rewind a placement dict using a batch-level touched log.

        Every job whose placement changed during the batch appears in
        ``touched`` with its pre-batch placement (None = had none), so
        the rewind is O(touched jobs).
        """
        for job_id in touched:
            placements.pop(job_id, None)
        for job_id, old in touched.items():
            if old is not None:
                placements[job_id] = old

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _span_add(self, span: int) -> None:
        counts = self._span_counts
        counts[span] = counts.get(span, 0) + 1
        if span > self._max_span_cache:
            self._max_span_cache = span

    def _span_remove(self, span: int) -> None:
        counts = self._span_counts
        n = counts[span] - 1
        if n:
            counts[span] = n
        else:
            del counts[span]
            if span == self._max_span_cache:
                self._max_span_cache = max(counts, default=1)

    def _max_span(self) -> int:
        """Largest active span, recomputed from scratch.

        Kept as the validation oracle for the incremental
        ``_max_span_cache``; no cost-recording path uses it anymore.
        """
        return max((j.span for j in self.jobs.values()), default=1)

    @property
    def n_active(self) -> int:
        return len(self.jobs)

    def snapshot(self) -> dict[JobId, Placement]:
        """A copy of the current placements."""
        return dict(self.placements)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(m={self.num_machines}, "
                f"active={len(self.jobs)})")
