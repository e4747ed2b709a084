"""Scenario sweeps over the Session loop.

Every run drives one :class:`~repro.sim.session.Session` with one
:class:`~repro.sim.session.ExecutionPlan`; this module adds only the
fan-out. :func:`run_sweep` runs one or many schedulers across a
dictionary of scenario sequences — the CLI's ``sweep`` command builds
the scenario set from :data:`~repro.workloads.scenarios.SCENARIOS` —
and returns per-cell results, which :func:`sweep_table` formats as a
comparison table. With ``trace_dir=`` every cell writes its own trace
and a re-run with ``resume=True`` rebuilds completed cells from their
``final`` record (:meth:`~repro.sim.session.SessionResult.from_record`)
and resumes the interrupted one.
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
    full_audit_every: int = DEFAULT_FULL_AUDIT_EVERY,
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
            plan = ExecutionPlan(
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
            results[(scen_name, sched_name)] = Session(
                factory(), sequence, plan).run()
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
