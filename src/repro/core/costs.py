"""Cost accounting for reallocating schedulers.

The paper (Section 2) defines, per request ``r_i``:

- **reallocation cost** — the number of jobs that must be rescheduled
  when ``r_i`` is processed (moved to a different slot and/or machine);
- **migration cost** — the number of jobs whose *machine* changes.

:class:`RequestCost` captures one request's outcome by diffing the
placement maps before and after; :class:`CostLedger` accumulates a whole
execution and computes the aggregates the experiments report (max, mean,
per-request series, scaling against n and Delta).

Convention: the placement of a job inserted *by this request* does not
count as a reallocation (it had no prior placement); the deletion of a
job likewise. Both conventions match the paper's lower-bound accounting
(Lemma 12 counts only the forced moves of *other* jobs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .job import JobId, Placement

#: the shared id set of every cost entry that rescheduled (or migrated)
#: nothing — most requests — so a zero-cost entry allocates no sets
NO_JOBS: frozenset[JobId] = frozenset()


@dataclass(frozen=True, slots=True)
class RequestCost:
    """Cost of a single request, as observed by placement diffing.

    Attributes
    ----------
    kind:
        ``"insert"`` or ``"delete"``.
    subject:
        The job id the request was about.
    rescheduled:
        Ids of pre-existing jobs whose placement changed.
    migrated:
        Ids of pre-existing jobs whose machine changed (subset of
        ``rescheduled``).
    n_active:
        Number of active jobs when the request was processed (the
        paper's ``n_i``; measured *after* inserts, *before* deletes).
    max_span:
        Largest active window span at that time (the paper's ``Delta_i``).
    """

    kind: str
    subject: JobId
    rescheduled: frozenset[JobId]
    migrated: frozenset[JobId]
    n_active: int
    max_span: int

    @property
    def reallocation_cost(self) -> int:
        return len(self.rescheduled)

    @property
    def migration_cost(self) -> int:
        return len(self.migrated)


def diff_placements(
    before: Mapping[JobId, Placement],
    after: Mapping[JobId, Placement],
    *,
    kind: str,
    subject: JobId,
    n_active: int,
    max_span: int,
) -> RequestCost:
    """Build a :class:`RequestCost` from placement snapshots.

    Jobs present only in ``after`` (the inserted job) or only in
    ``before`` (the deleted job) are not counted.
    """
    rescheduled: set[JobId] = set()
    migrated: set[JobId] = set()
    for job_id, old in before.items():
        new = after.get(job_id)
        if new is None:
            continue  # deleted by this request
        if new != old:
            rescheduled.add(job_id)
            if new.machine != old.machine:
                migrated.add(job_id)
    return RequestCost(
        kind=kind,
        subject=subject,
        rescheduled=frozenset(rescheduled) if rescheduled else NO_JOBS,
        migrated=frozenset(migrated) if migrated else NO_JOBS,
        n_active=n_active,
        max_span=max_span,
    )


def diff_touched(
    touched: Mapping[JobId, "Placement | None"],
    after: Mapping[JobId, Placement],
    *,
    kind: str,
    subject: JobId,
    n_active: int,
    max_span: int,
) -> RequestCost:
    """Build a :class:`RequestCost` from a sparse pre-request log.

    ``touched`` maps every job whose placement the scheduler mutated
    during the request to its placement *before* the request (None if it
    had none). Semantically identical to :func:`diff_placements` on full
    snapshots — a job moved away and back is not rescheduled, inserts
    and deletes of the subject are not counted — but costs O(touched)
    instead of O(n) per request.
    """
    rescheduled: set[JobId] = set()
    migrated: set[JobId] = set()
    for job_id, old in touched.items():
        if old is None:
            continue  # had no placement before (inserted by this request)
        new = after.get(job_id)
        if new is None:
            continue  # deleted by this request
        if new != old:
            rescheduled.add(job_id)
            if new.machine != old.machine:
                migrated.add(job_id)
    return RequestCost(
        kind=kind,
        subject=subject,
        rescheduled=frozenset(rescheduled) if rescheduled else NO_JOBS,
        migrated=frozenset(migrated) if migrated else NO_JOBS,
        n_active=n_active,
        max_span=max_span,
    )


@dataclass
class BatchResult:
    """Outcome of one :meth:`ReallocatingScheduler.apply_batch` call.

    A batch finalizes a *single* sparse cost diff for the whole burst
    (:attr:`net`) plus the per-request :class:`RequestCost` breakdown
    (:attr:`costs`). Only the per-request costs enter the scheduler's
    ledger — recording the net diff as well would double-count — so
    ledger totals stay identical to sequential processing.

    Attributes
    ----------
    costs:
        Per-request costs, in batch order. For a failed non-atomic
        batch this is the committed prefix; for a rolled-back atomic
        batch it is the prefix that *was* applied before the rollback
        (informational — none of it persists).
    net:
        The batch-level cost diff: pre-batch placements vs post-batch
        placements (``kind="batch"``). Jobs moved away and back within
        the batch do not count; jobs inserted and deleted within the
        batch appear nowhere. For a failed non-atomic batch it covers
        the committed prefix; None only for rolled-back atomic batches
        (nothing persisted).
    size:
        Number of requests submitted in the batch.
    atomic:
        Whether the batch ran with all-or-nothing semantics.
    failed / failed_index / failure:
        Set when a request failed. ``failed_index`` is the position of
        the failing request; ``failure`` is its error message.
    rolled_back:
        True when an atomic batch failed and the scheduler was restored
        to its exact pre-batch state.
    error:
        The original exception object (for drivers that re-raise).
    """

    costs: list[RequestCost]
    net: RequestCost | None
    size: int
    atomic: bool
    failed: bool = False
    failed_index: int | None = None
    failure: str | None = None
    rolled_back: bool = False
    error: Exception | None = field(default=None, repr=False)

    @property
    def processed(self) -> int:
        """Requests whose effects persist in the scheduler."""
        return 0 if self.rolled_back else len(self.costs)

    @property
    def total_reallocations(self) -> int:
        return sum(c.reallocation_cost for c in self.costs)

    @property
    def total_migrations(self) -> int:
        return sum(c.migration_cost for c in self.costs)

    def changed_jobs(self) -> list[JobId]:
        """Jobs whose placement any committed request may have changed.

        The union of every per-request subject and rescheduled set, in
        first-seen order — exactly the set an incremental verifier must
        re-check at batch commit.
        """
        seen: dict[JobId, None] = {}
        for cost in self.costs:
            seen.setdefault(cost.subject)
            for job_id in cost.rescheduled:
                seen.setdefault(job_id)
        return list(seen)


@dataclass
class CostLedger:
    """Accumulates per-request costs over an execution."""

    entries: list[RequestCost] = field(default_factory=list)

    def record(self, cost: RequestCost) -> None:
        self.entries.append(cost)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RequestCost]:
        return iter(self.entries)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def reallocation_costs(self) -> list[int]:
        return [e.reallocation_cost for e in self.entries]

    @property
    def migration_costs(self) -> list[int]:
        return [e.migration_cost for e in self.entries]

    @property
    def total_reallocations(self) -> int:
        return sum(self.reallocation_costs)

    @property
    def total_migrations(self) -> int:
        return sum(self.migration_costs)

    @property
    def max_reallocation(self) -> int:
        return max(self.reallocation_costs, default=0)

    @property
    def max_migration(self) -> int:
        return max(self.migration_costs, default=0)

    @property
    def mean_reallocation(self) -> float:
        if not self.entries:
            return 0.0
        return self.total_reallocations / len(self.entries)

    @property
    def mean_migration(self) -> float:
        if not self.entries:
            return 0.0
        return self.total_migrations / len(self.entries)

    def amortized_reallocation(self) -> float:
        """Alias for :attr:`mean_reallocation` (paper's amortized cost)."""
        return self.mean_reallocation

    def percentile_reallocation(self, q: float) -> int:
        """q-th percentile (0..100) of per-request reallocation cost."""
        costs = sorted(self.reallocation_costs)
        if not costs:
            return 0
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        idx = min(len(costs) - 1, int(round(q / 100 * (len(costs) - 1))))
        return costs[idx]

    def worst_requests(self, top: int = 5) -> list[RequestCost]:
        """The ``top`` most expensive requests by reallocation cost."""
        return sorted(self.entries, key=lambda e: e.reallocation_cost,
                      reverse=True)[:top]

    def cost_vs_n(self) -> list[tuple[int, int]]:
        """(n_active, reallocation_cost) pairs — raw series for scaling plots."""
        return [(e.n_active, e.reallocation_cost) for e in self.entries]

    def summary(self) -> dict[str, float]:
        """A flat dict of the headline aggregates (used by reports)."""
        return {
            "requests": len(self.entries),
            "total_realloc": self.total_reallocations,
            "total_migrations": self.total_migrations,
            "max_realloc": self.max_reallocation,
            "mean_realloc": round(self.mean_reallocation, 4),
            "max_migration": self.max_migration,
            "mean_migration": round(self.mean_migration, 4),
            "p99_realloc": self.percentile_reallocation(99),
        }


def merge_ledgers(ledgers: Iterable[CostLedger]) -> CostLedger:
    """Concatenate several ledgers (e.g. repeated trials) into one."""
    out = CostLedger()
    for ledger in ledgers:
        out.entries.extend(ledger.entries)
    return out


def bucket_max_by_n(entries: Sequence[RequestCost]) -> dict[int, int]:
    """Max reallocation cost bucketed by floor(log2(n_active)).

    Returns a mapping from ``2**b`` (bucket lower edge) to the maximum
    per-request reallocation cost observed while ``n_active`` was in
    ``[2**b, 2**(b+1))``. This is the series the Theorem 1 experiment
    plots against ``log* n``.
    """
    buckets: dict[int, int] = {}
    for e in entries:
        if e.n_active <= 0:
            continue
        b = 1 << (e.n_active.bit_length() - 1)
        buckets[b] = max(buckets.get(b, 0), e.reallocation_cost)
    return dict(sorted(buckets.items()))
