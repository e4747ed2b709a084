"""Scheduling requests and request sequences.

The paper's online model (Section 2): an execution is a sequence of
``<INSERTJOB, name, arrival, deadline>`` and ``<DELETEJOB, name>``
requests; before each request the scheduler must output a feasible
schedule for the active jobs.

:class:`RequestSequence` is a validated, serializable container for such
executions; it also computes the active job set after any prefix, which
the feasibility checker and the workload generators use.

:class:`Batch` is the burst-shaped unit of the batch-first API: an
ordered chunk of requests submitted to
``ReallocatingScheduler.apply_batch`` as one (optionally atomic)
transaction. :func:`iter_batches` chunks any request stream into
batches. Under ``semantics="flexible"`` the scheduler may *plan* a
batch jointly — coalescing deletes ahead of inserts, eliding interior
insert/delete pairs, and reordering the surviving inserts — as long as
the observable protocol is preserved: one ledger entry per request at
its arrival position, the same post-batch job table, and every
per-request cost within the Theorem 1 bounds (see
``ReallocatingScheduler.apply_batch``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .exceptions import InvalidRequestError
from .job import Job, JobId
from .window import Window


@dataclass(frozen=True, slots=True)
class InsertJob:
    """Insert request; carries the full job description."""

    job: Job

    @property
    def job_id(self) -> JobId:
        return self.job.id

    @property
    def kind(self) -> str:
        return "insert"


@dataclass(frozen=True, slots=True)
class DeleteJob:
    """Delete request; refers to an active job by id."""

    job_id: JobId

    @property
    def kind(self) -> str:
        return "delete"


Request = InsertJob | DeleteJob

#: the exact request classes (the fast path of :class:`Batch` validation)
_REQUEST_TYPES = frozenset({InsertJob, DeleteJob})


class Batch:
    """An ordered burst of requests submitted as one unit.

    The batch-first request API (``ReallocatingScheduler.apply_batch``)
    consumes these: requests are applied in order, the scheduler opens
    one touched-placement log for the whole burst, and — with
    ``atomic=True`` — a mid-batch failure rolls every request back.

    A :class:`Batch` is deliberately thin: unlike
    :class:`RequestSequence` it does not validate the insert/delete
    protocol (validity depends on the scheduler's live active set, which
    only ``apply_batch`` can see). It pre-splits inserts from deletes so
    schedulers can plan the burst (per-window grouping, machine
    sub-batches) before applying it.
    """

    __slots__ = ("requests",)

    def __init__(self, requests: Iterable[Request] = ()) -> None:
        self.requests: tuple[Request, ...] = tuple(requests)
        # one C-level pass over the exact types; only an unexpected type
        # (a subclass, or not a request) takes the per-request check
        if not set(map(type, self.requests)) <= _REQUEST_TYPES:
            for r in self.requests:
                if not isinstance(r, (InsertJob, DeleteJob)):
                    raise InvalidRequestError(
                        f"unknown request type: {r!r}")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, i: int) -> Request:
        return self.requests[i]

    @property
    def insert_jobs(self) -> list[Job]:
        """The jobs inserted by this batch, in batch order."""
        return [r.job for r in self.requests if isinstance(r, InsertJob)]

    @property
    def delete_ids(self) -> list[JobId]:
        """The job ids deleted by this batch, in batch order."""
        return [r.job_id for r in self.requests if isinstance(r, DeleteJob)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_ins = sum(1 for r in self.requests if isinstance(r, InsertJob))
        return (f"Batch(len={len(self.requests)}, inserts={n_ins}, "
                f"deletes={len(self.requests) - n_ins})")


def iter_batches(
    requests: "Iterable[Request] | RequestSequence",
    batch_size: int,
) -> Iterator[Batch]:
    """Chunk a request stream into :class:`Batch` objects of ``batch_size``.

    The last batch may be shorter. ``batch_size`` must be >= 1; drivers
    treat size 1 as the sequential path but the chunking works there too.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if isinstance(requests, (list, tuple)):
        for start in range(0, len(requests), batch_size):
            yield Batch(requests[start:start + batch_size])
        return
    pending: list[Request] = []
    for r in requests:
        pending.append(r)
        if len(pending) == batch_size:
            yield Batch(pending)
            pending = []
    if pending:
        yield Batch(pending)


def insert(job_id: JobId, release: int, deadline: int, size: int = 1) -> InsertJob:
    """Convenience constructor mirroring the paper's INSERTJOB tuple."""
    return InsertJob(Job(job_id, Window(release, deadline), size))


def delete(job_id: JobId) -> DeleteJob:
    """Convenience constructor mirroring the paper's DELETEJOB tuple."""
    return DeleteJob(job_id)


class RequestSequence:
    """An ordered, validated sequence of scheduling requests.

    Validation enforces the online model's sanity conditions: a job id
    may not be inserted while active, and only active jobs may be
    deleted. (Re-inserting an id after it was deleted is allowed; the
    *job* is considered a new one.)
    """

    def __init__(self, requests: Iterable[Request] = ()) -> None:
        self._requests: list[Request] = []
        self._active: dict[JobId, Job] = {}
        self._max_active = 0
        for r in requests:
            self.append(r)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, request: Request) -> None:
        if isinstance(request, InsertJob):
            if request.job_id in self._active:
                raise InvalidRequestError(
                    f"job id {request.job_id!r} is already active; cannot insert"
                )
            self._active[request.job_id] = request.job
        elif isinstance(request, DeleteJob):
            if request.job_id not in self._active:
                raise InvalidRequestError(
                    f"job id {request.job_id!r} is not active; cannot delete"
                )
            del self._active[request.job_id]
        else:  # pragma: no cover - defensive
            raise InvalidRequestError(f"unknown request type: {request!r}")
        self._requests.append(request)
        self._max_active = max(self._max_active, len(self._active))

    def insert(self, job_id: JobId, release: int, deadline: int, size: int = 1) -> None:
        self.append(insert(job_id, release, deadline, size))

    def delete(self, job_id: JobId) -> None:
        self.append(delete(job_id))

    def extend(self, requests: Iterable[Request]) -> None:
        for r in requests:
            self.append(r)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, i: int) -> Request:
        return self._requests[i]

    @property
    def requests(self) -> Sequence[Request]:
        return tuple(self._requests)

    @property
    def final_active_jobs(self) -> dict[JobId, Job]:
        """Active jobs after the whole sequence (a copy)."""
        return dict(self._active)

    @property
    def max_active(self) -> int:
        """Peak number of simultaneously active jobs over the sequence."""
        return self._max_active

    def active_after(self, prefix_len: int) -> dict[JobId, Job]:
        """Active job set after the first ``prefix_len`` requests."""
        if not 0 <= prefix_len <= len(self._requests):
            raise IndexError(prefix_len)
        active: dict[JobId, Job] = {}
        for r in self._requests[:prefix_len]:
            if isinstance(r, InsertJob):
                active[r.job_id] = r.job
            else:
                del active[r.job_id]
        return active

    def active_sets(self) -> Iterator[dict[JobId, Job]]:
        """Yield the active job set after every request (fresh dicts)."""
        active: dict[JobId, Job] = {}
        for r in self._requests:
            if isinstance(r, InsertJob):
                active[r.job_id] = r.job
            else:
                del active[r.job_id]
            yield dict(active)

    def max_span(self) -> int:
        """Largest window span over all inserted jobs (1 if none)."""
        spans = [r.job.span for r in self._requests if isinstance(r, InsertJob)]
        return max(spans, default=1)

    def time_horizon(self) -> int:
        """Smallest ``T`` such that every window fits in ``[0, T)``."""
        deadlines = [r.job.deadline for r in self._requests if isinstance(r, InsertJob)]
        return max(deadlines, default=1)

    # ------------------------------------------------------------------
    # serialization (trace record / replay)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to a JSON string (job ids must be JSON-compatible)."""
        out = []
        for r in self._requests:
            if isinstance(r, InsertJob):
                out.append({
                    "op": "insert",
                    "id": r.job.id,
                    "release": r.job.release,
                    "deadline": r.job.deadline,
                    "size": r.job.size,
                })
            else:
                out.append({"op": "delete", "id": r.job_id})
        return json.dumps(out)

    @classmethod
    def from_json(cls, text: str) -> "RequestSequence":
        data = json.loads(text)
        seq = cls()
        for item in data:
            if item["op"] == "insert":
                seq.insert(item["id"], item["release"], item["deadline"],
                           item.get("size", 1))
            elif item["op"] == "delete":
                seq.delete(item["id"])
            else:
                raise InvalidRequestError(f"unknown op in trace: {item['op']!r}")
        return seq

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RequestSequence(len={len(self)}, active={len(self._active)}, "
                f"max_active={self._max_active})")
