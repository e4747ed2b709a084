"""The engine surface: scenario-scale adapters over the Session loop.

:func:`run_engine` is the scaled-up sibling of
:func:`~repro.sim.driver.run_sequence`, built for driving 10^4-10^6
request workloads. Like the driver it no longer owns a drive loop —
both are thin adapters over :class:`~repro.sim.session.Session`, the
one shared loop (timing split, verifier wiring, checkpoint cadence,
failure handling) with pluggable drive backends, and both return the
one result type, :class:`~repro.sim.session.SessionResult`. What this
module adds is the engine-shaped call surface:

- **Separated timing phases** — scheduler, verify, and validate time
  reported independently, so throughput is always computed over pure
  scheduler time even in audited runs.
- **Checkpointed progress** — every ``checkpoint_every`` requests the
  session records (and optionally reports through ``on_checkpoint``)
  the running request rate and phase split.
- **Backends as a first-class axis** — ``backend="sequential"`` /
  ``"batched"`` selects how requests are driven.
- **Disk-backed traces** — ``trace_path=`` writes the session's JSONL
  checkpoint trace so a killed multi-hour run resumes from its last
  checkpoint (``resume=True``, deterministic prefix replay) and runs
  stay comparable across PRs.

:func:`run_sweep` fans one or many schedulers across a dictionary of
scenario sequences — the CLI's ``sweep`` command builds the scenario set
from :data:`~repro.workloads.scenarios.SCENARIOS` — and returns per-cell
results, which :func:`sweep_table` formats as a comparison table. With
``trace_dir=`` every cell writes its own trace and a re-run with
``resume=True`` rebuilds completed cells from their ``final`` record
(:meth:`~repro.sim.session.SessionResult.from_record`) and resumes the
interrupted one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Mapping

from ..core.base import ReallocatingScheduler
from ..core.requests import RequestSequence
from .report import format_table
from .session import (
    Checkpoint,
    DEFAULT_FULL_AUDIT_EVERY,
    DriveBackend,
    ExecutionPlan,
    Session,
    SessionResult,
    SessionTrace,
    sequence_fingerprint,
)


def run_engine(
    scheduler: ReallocatingScheduler,
    sequence: RequestSequence,
    *,
    batch_size: int = 1,
    atomic_batches: bool = False,
    batch_semantics: str = "strict",
    backend: "str | DriveBackend" = "auto",
    verify: str = "incremental",
    full_audit_every: int | None = None,
    validator: Callable[[ReallocatingScheduler], None] | None = None,
    validate_every: int = 1,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[Checkpoint], None] | None = None,
    stop_on_error: bool = False,
    stop_after: int = 0,
    trace_path: "str | Path | None" = None,
    resume: bool = False,
    name: str | None = None,
) -> SessionResult:
    """Drive ``sequence`` through ``scheduler`` with phase-split timing.

    Parameters
    ----------
    batch_size:
        Chunk the stream into bursts of this size and drive them
        through the batch-shaped backends (1 = per-request loop).
        Verification then checks once per batch commit, and the
        validator / the checkpoint cadence fire on batch boundaries.
    atomic_batches:
        Batched backend: apply each burst all-or-nothing.
    batch_semantics:
        ``"strict"`` (default, placement-identical replay) or
        ``"flexible"`` (jointly planned bursts — bounds-equivalent, see
        :class:`~repro.sim.session.ExecutionPlan`).
    backend:
        ``"auto"`` (default), ``"sequential"``, ``"batched"``, or a
        DriveBackend instance.
    verify:
        ``"incremental"`` (default), ``"full"``, or ``"off"``.
    full_audit_every:
        Full-audit period for incremental verification (None = the
        shared :data:`~repro.sim.session.DEFAULT_FULL_AUDIT_EVERY`).
    validator:
        Optional invariant validator (e.g. ``validate_scheduler``),
        called every ``validate_every`` requests (0 disables it, like
        the other periodic knobs); timed separately.
    checkpoint_every:
        Record a :class:`Checkpoint` every this many requests (0 = off).
    stop_on_error:
        If True, scheduler failures raise; by default the engine ends
        the run gracefully with ``failed=True`` (sweeps keep going).
    stop_after:
        End the run gracefully after this many requests this session
        (0 = off) — pairs with ``trace_path`` for resumable runs.
    trace_path / resume:
        Write (and with ``resume=True`` continue from) the session's
        JSONL trace; see :class:`~repro.sim.session.SessionTrace`.
    """
    plan = ExecutionPlan(
        batch_size=batch_size,
        atomic_batches=atomic_batches,
        batch_semantics=batch_semantics,
        backend=backend,
        verify=verify,
        full_audit_every=(full_audit_every if full_audit_every is not None
                          else DEFAULT_FULL_AUDIT_EVERY),
        validator=validator,
        validate_every=validate_every,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
        stop_on_error=stop_on_error,
        stop_after=stop_after,
        trace_path=trace_path,
        resume=resume,
        name=name,
    )
    return Session(scheduler, sequence, plan).run()


def _cell_trace_path(trace_dir: "str | Path", label: str) -> Path:
    return Path(trace_dir) / (label.replace("/", "--") + ".jsonl")


def _read_cell_trace(
    path: Path, label: str, fingerprint: str,
) -> tuple[SessionResult | None, bool]:
    """One read of a cell's trace: (completed result, trace is current).

    Both answers are guarded by the sequence fingerprint like an
    in-session resume: a trace recorded for different scenario content
    (e.g. a re-run with a new ``--requests``) is neither completed nor
    resumable — the caller re-runs the cell from scratch, overwriting
    the stale trace. A completed cell is rebuilt from its ``final``
    record, so its ``resumed_from`` carries over and throughput stays
    computed over the session that actually ran.
    """
    if not path.exists():
        return None, True  # nothing recorded yet; a fresh resume is fresh
    records = SessionTrace.read_records(path)
    header = SessionTrace.header_record(records)
    if header is None or header.get("fingerprint") != fingerprint:
        return None, False
    final = SessionTrace.final_record(records)
    if final is None:
        return None, True
    return SessionResult.from_record(final, name=label), True


def run_sweep(
    scenarios: Mapping[str, RequestSequence],
    factories: Mapping[str, Callable[[], ReallocatingScheduler]],
    *,
    batch_size: int = 1,
    atomic_batches: bool = False,
    batch_semantics: str = "strict",
    backend: "str | DriveBackend" = "auto",
    verify: str = "incremental",
    full_audit_every: int | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[str, Checkpoint], None] | None = None,
    stop_after: int = 0,
    trace_dir: "str | Path | None" = None,
    resume: bool = False,
) -> dict[tuple[str, str], SessionResult]:
    """Run every scheduler over every scenario (fresh instance per cell).

    With ``trace_dir`` each cell writes ``<scenario>--<scheduler>.jsonl``
    there; re-running with ``resume=True`` reconstructs completed cells
    from their final trace record (no re-run) and resumes interrupted
    ones from their last checkpoint. ``stop_after`` bounds the requests
    processed per invocation (across-cells budget is per cell), which
    together with resume gives kill-and-continue sweeps.
    """
    results: dict[tuple[str, str], SessionResult] = {}
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    for scen_name, sequence in scenarios.items():
        fingerprint = (sequence_fingerprint(sequence)
                       if trace_dir is not None and resume else None)
        for sched_name, factory in factories.items():
            label = f"{scen_name}/{sched_name}"
            trace_path = None
            cell_resume = resume
            if trace_dir is not None:
                trace_path = _cell_trace_path(trace_dir, label)
                if resume:
                    done, current = _read_cell_trace(trace_path, label,
                                                     fingerprint)
                    if done is not None:
                        results[(scen_name, sched_name)] = done
                        continue
                    # a trace for different scenario content is stale:
                    # re-run the cell fresh instead of refusing to resume
                    cell_resume = current
            hook = (None if on_checkpoint is None
                    else (lambda cp, _l=label: on_checkpoint(_l, cp)))
            results[(scen_name, sched_name)] = run_engine(
                factory(), sequence,
                batch_size=batch_size,
                atomic_batches=atomic_batches,
                batch_semantics=batch_semantics,
                backend=backend,
                verify=verify,
                full_audit_every=full_audit_every,
                checkpoint_every=checkpoint_every,
                on_checkpoint=hook,
                stop_after=stop_after,
                trace_path=trace_path,
                resume=cell_resume,
                name=label,
            )
    return results


def sweep_table(results: Mapping[tuple[str, str], SessionResult],
                *, title: str = "scenario sweep") -> str:
    """Format sweep results as an aligned comparison table."""
    rows = []
    for (scen, sched), r in sorted(results.items()):
        rows.append([
            scen, sched, r.requests_processed,
            round(r.requests_per_second, 1) if r.scheduler_time_s > 0 else 0.0,
            round(r.scheduler_time_s, 3),
            round(r.verify_time_s, 3),
            round(r.validate_time_s, 3),
            r.ledger_summary.get("max_realloc", ""),
            r.ledger_summary.get("mean_realloc", ""),
            ("FAILED" if r.failed
             else "partial" if r.interrupted else "ok"),
        ])
    return format_table(
        ["scenario", "scheduler", "requests", "req/s", "sched_s",
         "verify_s", "validate_s", "max realloc", "mean realloc", "status"],
        rows, title=title,
    )
