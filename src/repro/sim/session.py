"""The one drive surface: ``Session(scheduler, sequence, plan).run()``.

Every way of running a request stream through a scheduler — the CLI,
scenario sweeps, benchmarks, examples, tests — builds an
:class:`ExecutionPlan` and runs a :class:`Session`. One loop with one
set of knobs keeps the timing split, verifier wiring, failure handling
and defaults from drifting apart between callers:

- an :class:`ExecutionPlan` bundles every policy knob — batching,
  verification, validation, checkpoint cadence, trace/resume, failure
  handling — with ONE set of defaults;
- a :class:`DriveBackend` turns the request stream into *steps* and
  applies each step to the scheduler:

  * :class:`SequentialBackend` — one request per step via
    ``scheduler.apply`` (the classic loop);
  * :class:`BatchedBackend` — one :class:`~repro.core.requests.Batch`
    per step via ``apply_batch`` (optionally atomic).

  Both backends produce identical placements, ledger entries, and
  max-span tracking on the same sequence under strict semantics
  (property-tested); they differ only in *how* the work is driven.
  On a delegating stack a burst crosses machines through
  ``apply_batch`` itself: the delegation layer plans the burst's
  per-window machines once and opens one batch context per machine.

- the session owns the timing split (scheduler / verify / validate),
  the :class:`~repro.sim.incremental.IncrementalVerifier` wiring with
  periodic and final full audits, checkpointing, and the disk-backed
  JSONL trace writer (:class:`SessionTrace`) that makes long runs
  resumable (deterministic prefix replay) and comparable across
  versions.

Every run reports one result type, :class:`SessionResult`, and records
one trace format, :class:`SessionTrace`. A trace's ``final`` record is
:meth:`SessionResult.to_record`, and :meth:`SessionResult.from_record`
rebuilds the result from it. ``repro.sim.engine.run_sweep`` fans one
plan's settings out over (scenario x scheduler) cells, one session per
cell.

The one full-audit period
-------------------------
:data:`DEFAULT_FULL_AUDIT_EVERY` is 1024, defined here and nowhere
else: the verifier takes the period as a required keyword, and a
session passes its plan's value. Rationale: periodic full audits are
O(n) each and exist only to *localize* an unreported placement change
earlier than the mandatory end-of-run audit would; at 1024 their cost
is negligible even at engine scale (10^5+ requests), while a 256
period buys nothing for runs of a few hundred requests because those
are covered by the final audit anyway.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from ..core.base import ReallocatingScheduler, resolve_batch_semantics
from ..core.costs import BatchResult, CostLedger, RequestCost
from ..core.exceptions import ReproError
from ..core.requests import Batch, InsertJob, Request, iter_batches
from .incremental import IncrementalVerifier

#: The single full-audit period for incremental verification (see the
#: module docstring for why 1024). 0 disables periodic audits; the
#: final audit always runs.
DEFAULT_FULL_AUDIT_EVERY = 1024

#: Checkpoint cadence a traced run falls back to when the plan sets no
#: ``checkpoint_every`` — a trace without periodic records would not be
#: resumable at all.
DEFAULT_TRACE_CHECKPOINT_EVERY = 1024

VERIFY_MODES = ("incremental", "full", "off")
BACKENDS = ("auto", "sequential", "batched")


@dataclass
class Checkpoint:
    """Progress snapshot emitted on the plan's checkpoint cadence.

    ``processed`` counts the whole execution, a resumed prefix included;
    the timings cover this session only, so the rate is computed over
    the requests this session drove (``processed - resumed_from``).
    """

    processed: int
    wall_time_s: float
    scheduler_time_s: float
    verify_time_s: float
    validate_time_s: float
    resumed_from: int = 0

    @property
    def requests_per_second(self) -> float:
        if self.scheduler_time_s <= 0:
            return float("nan")
        return (self.processed - self.resumed_from) / self.scheduler_time_s


@dataclass
class ExecutionPlan:
    """Everything a drive loop needs beyond (scheduler, sequence).

    Parameters
    ----------
    batch_size:
        Step size for the batched backend (1 = per-request).
    atomic_batches:
        Batched backend only: apply each burst all-or-nothing.
    batch_semantics:
        ``"strict"`` (default — bursts replay request-for-request, the
        placement-identical oracle) or ``"flexible"`` (each burst is
        planned jointly: deletes coalesced first, interior insert/delete
        pairs elided, surviving inserts placed in span order; placements
        may differ from strict but feasibility, the job table, max-span
        tracking, and the Theorem 1 per-request cost bounds are
        preserved). Applies to the batched backend; the sequential
        backend ignores it (a size-1 step has nothing to plan).
    backend:
        ``"sequential"``, ``"batched"``, ``"auto"`` (batched when
        ``batch_size > 1``, else sequential), or a ready-made
        :class:`DriveBackend` instance.
    verify:
        ``"incremental"`` (default), ``"full"``, or ``"off"``.
    full_audit_every:
        Full-audit period for incremental verification — THE default
        lives here (:data:`DEFAULT_FULL_AUDIT_EVERY`).
    validator / validate_every:
        Optional invariant validator, called every ``validate_every``
        processed requests (0 disables); timed separately.
    checkpoint_every:
        Record (and trace) a :class:`Checkpoint` every this many
        requests (0 = off; a set ``trace_path`` falls back to
        :data:`DEFAULT_TRACE_CHECKPOINT_EVERY` so traces stay
        resumable).
    stop_on_error:
        Raise scheduler failures instead of finishing gracefully with
        ``failed=True``.
    stop_after:
        End the run (gracefully, ``interrupted=True``) after this many
        requests processed *in this session* — the deterministic "kill"
        half of a resumable-run round trip (0 = off).
    trace_path / resume:
        JSONL trace file. With ``resume=True`` the session reads the
        trace, replays the already-committed prefix (schedulers are
        deterministic, so the replay reproduces placements and ledger
        bit for bit), seeds the verifier mirror, and continues from the
        last checkpoint, appending to the trace.
    """

    batch_size: int = 1
    atomic_batches: bool = False
    batch_semantics: str = "strict"
    backend: "str | DriveBackend" = "auto"
    verify: str = "incremental"
    full_audit_every: int = DEFAULT_FULL_AUDIT_EVERY
    validator: Callable[[ReallocatingScheduler], None] | None = None
    validate_every: int = 1
    checkpoint_every: int = 0
    on_checkpoint: Callable[[Checkpoint], None] | None = None
    stop_on_error: bool = False
    stop_after: int = 0
    trace_path: str | Path | None = None
    resume: bool = False
    name: str | None = None

    def __post_init__(self) -> None:
        if self.verify not in VERIFY_MODES:
            raise ValueError(
                f"verify must be one of {VERIFY_MODES}, got {self.verify!r}")
        if isinstance(self.backend, str) and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for knob in ("stop_after", "checkpoint_every", "validate_every",
                     "full_audit_every"):
            if getattr(self, knob) < 0:
                raise ValueError(f"{knob} must be >= 0 (0 = off)")
        resolve_batch_semantics(self.batch_semantics)


@dataclass
class StepOutcome:
    """What one backend step did: requests committed, costs, failure."""

    processed: int
    cost: RequestCost | None = None
    batch: BatchResult | None = None
    error: ReproError | None = None


class DriveBackend:
    """How a session turns the request stream into applied steps.

    ``steps`` chunks the stream (honoring a resume offset); ``apply``
    executes one step against the scheduler and reports a
    :class:`StepOutcome`. Per-request backends may let scheduler
    exceptions propagate (the session's failure handling catches them);
    batch-shaped backends report failures through the outcome so the
    committed prefix still gets verified.
    """

    name = "?"
    #: batch-shaped backends commit in multiples of batch_size, which
    #: constrains the offsets a resume may start from
    chunked = False

    def prepare(self, scheduler: ReallocatingScheduler,
                plan: ExecutionPlan) -> None:
        """Hook: validate scheduler/plan compatibility at run start.

        Raise :class:`~repro.core.exceptions.InvalidRequestError` for an
        incompatible pairing — it flows through the session's normal
        failure policy (``failed=True`` or raise per ``stop_on_error``),
        so one bad sweep cell cannot take down the whole sweep.
        """

    def steps(self, sequence: Iterable[Request], plan: ExecutionPlan,
              skip: int = 0) -> Iterator:
        raise NotImplementedError

    def apply(self, scheduler: ReallocatingScheduler,
              step: Any) -> StepOutcome:
        raise NotImplementedError

    def finish(self, scheduler: ReallocatingScheduler) -> None:
        """Hook: release backend-held resources at session end.

        Runs once on every exit path (success, failure, interruption).
        """


class SequentialBackend(DriveBackend):
    """The classic per-request loop: one ``scheduler.apply`` per step."""

    name = "sequential"

    def steps(self, sequence: Iterable[Request], plan: ExecutionPlan,
              skip: int = 0) -> Iterator[Request]:
        return islice(iter(sequence), skip, None)

    def apply(self, scheduler: ReallocatingScheduler,
              step: Request) -> StepOutcome:
        return StepOutcome(processed=1, cost=scheduler.apply(step))


class BatchedBackend(DriveBackend):
    """One ``apply_batch`` burst per step (atomic per the plan)."""

    name = "batched"
    chunked = True

    def __init__(self, *, atomic: bool = False,
                 semantics: str = "strict") -> None:
        self.atomic = atomic
        self.semantics = resolve_batch_semantics(semantics)

    def steps(self, sequence: Iterable[Request], plan: ExecutionPlan,
              skip: int = 0) -> Iterator[Batch]:
        return iter_batches(islice(iter(sequence), skip, None),
                            plan.batch_size)

    def apply(self, scheduler: ReallocatingScheduler,
              step: Batch) -> StepOutcome:
        result = scheduler.apply_batch(step, atomic=self.atomic,
                                       semantics=self.semantics)
        return StepOutcome(processed=result.processed, batch=result,
                           error=result.error if result.failed else None)


def resolve_backend(plan: ExecutionPlan) -> DriveBackend:
    """Build the plan's backend (``auto`` keys off ``batch_size``)."""
    backend = plan.backend
    if isinstance(backend, DriveBackend):
        return backend
    if backend == "auto":
        backend = "batched" if plan.batch_size > 1 else "sequential"
    if backend == "sequential":
        return SequentialBackend()
    return BatchedBackend(atomic=plan.atomic_batches,
                          semantics=plan.batch_semantics)


# ----------------------------------------------------------------------
# disk-backed JSONL trace (resumable runs, cross-PR comparison)
# ----------------------------------------------------------------------
def sequence_fingerprint(sequence: Iterable[Request]) -> str:
    """Stable hash of a request stream (guards resume against mixups)."""
    h = hashlib.sha256()
    for r in sequence:
        if isinstance(r, InsertJob):
            job = r.job
            h.update(f"i|{job.id}|{job.release}|{job.deadline}|{job.size}\n"
                     .encode())
        else:
            h.update(f"d|{r.job_id}\n".encode())
    return h.hexdigest()[:16]


def placements_fingerprint(scheduler: ReallocatingScheduler) -> str:
    """Stable hash of the final placements (cross-PR drift detection)."""
    h = hashlib.sha256()
    for job_id, pl in sorted(scheduler.placements.items(),
                             key=lambda kv: str(kv[0])):
        h.update(f"{job_id}|{pl.machine}|{pl.slot}\n".encode())
    return h.hexdigest()[:16]


class SessionTrace:
    """Append-only JSONL record of one session's progress.

    One ``header`` line (run identity, drive settings, checkpoint
    cadence, sequence fingerprint), a ``checkpoint`` line per checkpoint
    cadence (timings, ledger summary, placements fingerprint), an
    optional ``resume`` line per continuation, and a ``final`` line
    (:meth:`SessionResult.to_record`) when the run completes. Every line
    is flushed immediately, so a killed run leaves a valid trace ending
    at its last checkpoint — :meth:`read_records` /
    :meth:`resume_offset` are what a resuming session reads back, and
    :func:`repro.sim.replay.replay_and_diff` compares a re-run against
    the recorded checkpoints.
    """

    def __init__(self, path: str | Path, *, append: bool = False) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "a" if append else "w")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    # -- reading ---------------------------------------------------------
    @staticmethod
    def read_records(path: str | Path) -> list[dict]:
        records = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records

    @staticmethod
    def resume_offset(records: list[dict]) -> int:
        """Requests durably committed per the last checkpoint/final line."""
        processed = 0
        for rec in records:
            if rec.get("type") in ("checkpoint", "final"):
                processed = max(processed, int(rec.get("processed", 0)))
        return processed

    @staticmethod
    def header_record(records: list[dict]) -> dict | None:
        return next((r for r in records if r.get("type") == "header"), None)

    @staticmethod
    def matching_header(path: str | Path, records: list[dict],
                        fingerprint: str, action: str) -> dict:
        """The header, if the trace was recorded for this sequence.

        Raises ``ValueError`` for a trace without a header or one whose
        sequence fingerprint differs — ``action`` names what the caller
        refuses to do.
        """
        header = SessionTrace.header_record(records)
        if header is None:
            raise ValueError(f"trace {path} has no header record")
        if header.get("fingerprint") != fingerprint:
            raise ValueError(
                f"trace {path} was recorded for a different request "
                f"sequence (fingerprint mismatch); refusing to {action}"
            )
        return header

    @staticmethod
    def final_record(records: list[dict]) -> dict | None:
        for rec in reversed(records):
            if rec.get("type") == "final":
                return rec
        return None


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------
@dataclass
class SessionResult:
    """Outcome of one :meth:`Session.run`, with per-phase timing.

    The one result type of every run (``Session.run``, and per cell
    ``run_sweep``).
    ``name`` is the run label (the plan's ``name``, else the scheduler
    class name) and ``scheduler_name`` the scheduler class name.
    ``scheduler_time_s`` covers only the backend's apply calls (the
    honest algorithm cost throughput must be computed from);
    ``verify_time_s`` / ``validate_time_s`` the audit hooks. A resumed
    run reports the prefix replay separately (``replay_time_s``,
    excluded from ``scheduler_time_s``) while the ledger covers the
    whole execution.

    ``ledger`` is the live :class:`~repro.core.costs.CostLedger` of a
    run that executed; ``ledger_summary`` is its summary, computed once
    when the run ends. A result rebuilt from a trace's ``final`` record
    (:meth:`from_record`) carries only the summary: there ``ledger`` is
    None. ``placements`` is the final placements fingerprint, computed
    only for traced runs.
    """

    name: str
    scheduler_name: str
    backend: str
    requests_processed: int
    wall_time_s: float
    scheduler_time_s: float
    verify_time_s: float
    validate_time_s: float
    verify_mode: str
    ledger: CostLedger | None
    ledger_summary: dict
    failed: bool = False
    failure: str | None = None
    interrupted: bool = False
    resumed_from: int = 0
    replay_time_s: float = 0.0
    placements: str | None = None
    checkpoints: list[Checkpoint] = field(default_factory=list)

    @property
    def audit_time_s(self) -> float:
        return self.verify_time_s + self.validate_time_s

    @property
    def requests_per_second(self) -> float:
        """Throughput over scheduler time (resumed prefix excluded)."""
        if self.scheduler_time_s <= 0:
            return float("nan")
        worked = self.requests_processed - self.resumed_from
        return worked / self.scheduler_time_s

    @property
    def summary(self) -> dict:
        out = {
            "run": self.name,
            "scheduler": self.scheduler_name,
            "backend": self.backend,
            "processed": self.requests_processed,
            "wall_s": round(self.wall_time_s, 4),
            "sched_s": round(self.scheduler_time_s, 4),
            "verify_s": round(self.verify_time_s, 4),
            "validate_s": round(self.validate_time_s, 4),
            "req_per_s": (round(self.requests_per_second, 1)
                          if self.scheduler_time_s > 0 else 0.0),
        }
        out.update(self.ledger_summary)
        if self.failed:
            out["FAILED"] = self.failure
        if self.interrupted:
            out["INTERRUPTED"] = f"after {self.requests_processed}"
        return out

    def to_record(self) -> dict:
        """The trace's ``final`` record: every field but the live objects.

        Only a run that was not interrupted writes one, so
        ``interrupted`` is not recorded.
        """
        return {
            "type": "final", "name": self.name,
            "scheduler": self.scheduler_name, "backend": self.backend,
            "processed": self.requests_processed,
            "resumed_from": self.resumed_from,
            "failed": self.failed, "failure": self.failure,
            "wall_s": round(self.wall_time_s, 4),
            "sched_s": round(self.scheduler_time_s, 4),
            "verify_s": round(self.verify_time_s, 4),
            "validate_s": round(self.validate_time_s, 4),
            "replay_s": round(self.replay_time_s, 4),
            "verify_mode": self.verify_mode,
            "ledger": self.ledger_summary,
            "placements": self.placements,
        }

    @classmethod
    def from_record(cls, record: dict, *,
                    name: str | None = None) -> SessionResult:
        """Rebuild a result from a ``final`` record (``ledger`` is None)."""
        return cls(
            name=name if name is not None else record.get("name", ""),
            scheduler_name=record.get("scheduler", ""),
            backend=record.get("backend", ""),
            requests_processed=record.get("processed", 0),
            wall_time_s=record.get("wall_s", 0.0),
            scheduler_time_s=record.get("sched_s", 0.0),
            verify_time_s=record.get("verify_s", 0.0),
            validate_time_s=record.get("validate_s", 0.0),
            verify_mode=record.get("verify_mode", ""),
            ledger=None,
            ledger_summary=record.get("ledger", {}),
            failed=bool(record.get("failed")),
            failure=record.get("failure"),
            resumed_from=record.get("resumed_from", 0),
            replay_time_s=record.get("replay_s", 0.0),
            placements=record.get("placements"),
        )


class Session:
    """One scheduler, one request stream, one plan — one drive loop.

    Example
    -------
    >>> from repro.core.api import ReservationScheduler
    >>> from repro.sim.session import ExecutionPlan, Session
    >>> from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence
    >>> seq = random_aligned_sequence(AlignedWorkloadConfig(num_requests=64))
    >>> plan = ExecutionPlan(batch_size=16, backend="batched")
    >>> result = Session(ReservationScheduler(1, gamma=8), seq, plan).run()
    >>> result.requests_processed
    64
    """

    def __init__(
        self,
        scheduler: ReallocatingScheduler,
        sequence: Iterable[Request],
        plan: ExecutionPlan | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.sequence = sequence
        self.plan = plan if plan is not None else ExecutionPlan()
        self.backend = resolve_backend(self.plan)
        self.label = (self.plan.name if self.plan.name is not None
                      else type(scheduler).__name__)

    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        plan = self.plan
        scheduler = self.scheduler
        backend = self.backend
        label = self.label
        verifier = (IncrementalVerifier(scheduler.num_machines,
                                        full_audit_every=plan.full_audit_every,
                                        where=label)
                    if plan.verify == "incremental" else None)

        trace: SessionTrace | None = None
        resume_from = 0
        fingerprint = None
        if plan.trace_path is not None:
            # Fingerprinting (and a resume's prefix replay) iterate the
            # stream before the drive loop does, so a one-shot iterator
            # must be materialized or the loop would see it exhausted.
            if iter(self.sequence) is self.sequence:
                self.sequence = list(self.sequence)
            fingerprint = sequence_fingerprint(self.sequence)
            resume_from = self._prepare_resume(fingerprint)
            trace = SessionTrace(plan.trace_path, append=resume_from > 0)

        perf = time.perf_counter
        t0 = perf()
        replay_s = 0.0
        if resume_from:
            for request in islice(iter(self.sequence), 0, resume_from):
                scheduler.apply(request)
            replay_s = perf() - t0
            if verifier is not None:
                verifier.seed(scheduler, processed=resume_from)

        cadence = plan.checkpoint_every or (
            DEFAULT_TRACE_CHECKPOINT_EVERY if trace is not None else 0)
        if trace is not None:
            if resume_from:
                trace.write({"type": "resume", "processed": resume_from,
                             "replay_s": round(replay_s, 4)})
            else:
                trace.write(self._header(fingerprint, cadence))

        processed = resume_from
        sched_s = verify_s = validate_s = 0.0
        checkpoints: list[Checkpoint] = []
        last_marker = resume_from
        interrupted = False

        def checkpoint() -> None:
            cp = Checkpoint(processed, perf() - t0, sched_s,
                            verify_s, validate_s, resume_from)
            checkpoints.append(cp)
            if plan.on_checkpoint is not None:
                plan.on_checkpoint(cp)
            if trace is not None:
                trace.write({
                    "type": "checkpoint", "processed": processed,
                    "wall_s": round(cp.wall_time_s, 4),
                    "sched_s": round(sched_s, 4),
                    "verify_s": round(verify_s, 4),
                    "validate_s": round(validate_s, 4),
                    "ledger": scheduler.ledger.summary(),
                    "placements": placements_fingerprint(scheduler),
                })

        def finish(failure: str | None = None) -> SessionResult:
            result = SessionResult(
                name=label,
                scheduler_name=type(scheduler).__name__,
                backend=backend.name,
                requests_processed=processed,
                wall_time_s=perf() - t0,
                scheduler_time_s=sched_s,
                verify_time_s=verify_s,
                validate_time_s=validate_s,
                verify_mode=plan.verify,
                ledger=scheduler.ledger,
                ledger_summary=scheduler.ledger.summary(),
                failed=failure is not None,
                failure=failure,
                interrupted=interrupted,
                resumed_from=resume_from,
                replay_time_s=replay_s,
                placements=(placements_fingerprint(scheduler)
                            if trace is not None else None),
                checkpoints=checkpoints,
            )
            if trace is not None:
                if not interrupted:
                    trace.write(result.to_record())
                trace.close()
            return result

        try:
            backend.prepare(scheduler, plan)
            for step in backend.steps(self.sequence, plan, skip=resume_from):
                ta = perf()
                outcome = backend.apply(scheduler, step)
                tb = perf()
                sched_s += tb - ta
                processed += outcome.processed
                if verifier is not None:
                    if outcome.batch is not None:
                        verifier.verify_batch(scheduler, outcome.batch)
                    else:
                        verifier.observe(scheduler, outcome.cost)
                    verify_s += perf() - tb
                elif plan.verify == "full":
                    _full_verify(scheduler, label, processed)
                    verify_s += perf() - tb
                if (plan.validator is not None and plan.validate_every
                        and processed // plan.validate_every
                        > last_marker // plan.validate_every):
                    tc = perf()
                    plan.validator(scheduler)
                    validate_s += perf() - tc
                if (cadence and processed // cadence > last_marker // cadence):
                    checkpoint()
                last_marker = processed
                if outcome.error is not None:
                    raise outcome.error
                if (plan.stop_after
                        and processed - resume_from >= plan.stop_after):
                    interrupted = True
                    if not checkpoints or checkpoints[-1].processed != processed:
                        checkpoint()
                    break
            if verifier is not None and not interrupted:
                ta = perf()
                verifier.full_audit(scheduler)
                verify_s += perf() - ta
        except ReproError as exc:
            failure = f"{type(exc).__name__}: {exc}"
            if plan.stop_on_error:
                finish(failure)
                raise
            return finish(failure)
        finally:
            backend.finish(scheduler)
        return finish()

    # ------------------------------------------------------------------
    def _header(self, fingerprint: str | None, cadence: int) -> dict:
        total = None
        try:
            total = len(self.sequence)  # type: ignore[arg-type]
        except TypeError:
            pass
        return {
            "type": "header", "name": self.label,
            "scheduler": type(self.scheduler).__name__,
            "backend": self.backend.name,
            "batch_size": self.plan.batch_size,
            "atomic": self.plan.atomic_batches,
            "semantics": self.plan.batch_semantics,
            "verify": self.plan.verify,
            "full_audit_every": self.plan.full_audit_every,
            "checkpoint_every": cadence,
            "total": total,
            "fingerprint": fingerprint,
        }

    def _prepare_resume(self, fingerprint: str) -> int:
        plan = self.plan
        path = Path(plan.trace_path)
        if not plan.resume or not path.exists():
            return 0
        records = SessionTrace.read_records(path)
        SessionTrace.matching_header(path, records, fingerprint, "resume")
        resume_from = SessionTrace.resume_offset(records)
        if self.backend.chunked and plan.batch_size > 1:
            # batch-shaped backends commit whole bursts; restart at the
            # last burst boundary at or below the recorded offset
            resume_from -= resume_from % plan.batch_size
        return resume_from


def _full_verify(scheduler: ReallocatingScheduler, label: str,
                 processed: int) -> None:
    from ..core.schedule import verify_schedule

    verify_schedule(
        scheduler.jobs, scheduler.placements,
        scheduler.num_machines,
        where=f"{label} after request {processed}",
    )
