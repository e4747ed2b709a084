"""Trace replay and failure shrinking.

A :class:`~repro.sim.session.SessionTrace` records the ledger summary
and a placements fingerprint at every checkpoint. :func:`replay_and_diff`
re-drives the recorded sequence through a fresh scheduler with the
trace header's drive settings and names the checkpoints where the
re-run's state differs. Uses:

- **Regression pinning:** record a trace from a known-good build; replay
  later and diff to detect behavioural drift (all schedulers are
  deterministic, so placements and ledger must match bit for bit).
  Record with ``checkpoint_every=1`` for per-request granularity.
- **Debugging:** shrink a failing random workload to the shortest
  prefix that still violates an invariant (``shrink_failing_prefix``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable, Iterable

from ..core.base import ReallocatingScheduler
from ..core.exceptions import ReproError
from ..core.requests import Request, RequestSequence
from .session import (
    DEFAULT_FULL_AUDIT_EVERY,
    DEFAULT_TRACE_CHECKPOINT_EVERY,
    ExecutionPlan,
    Session,
    SessionTrace,
    sequence_fingerprint,
)


def diverging_checkpoints(recorded: list[dict],
                          replayed: list[dict]) -> list[int]:
    """Offsets of ``recorded`` checkpoints that ``replayed`` does not match.

    Both are :class:`~repro.sim.session.SessionTrace` record lists;
    ``checkpoint`` and ``final`` records are keyed by ``processed``. A
    recorded offset diverges when the replayed record at that offset
    has a different placements fingerprint or ledger summary, or when
    the replay ended before reaching it. A recorded offset the replay
    passed without a record of its own (an interrupted run's
    off-cadence checkpoint) is not compared.
    """
    def states(records: list[dict]) -> dict[int, tuple]:
        return {rec["processed"]: (rec.get("placements"), rec.get("ledger"))
                for rec in records
                if rec.get("type") in ("checkpoint", "final")}

    want = states(recorded)
    got = states(replayed)
    reached = max(got, default=0)
    return sorted(offset for offset, state in want.items()
                  if offset > reached
                  or (offset in got and got[offset] != state))


def replay_and_diff(
    trace_path: str | Path,
    sequence: Iterable[Request],
    scheduler_factory: Callable[[], ReallocatingScheduler],
) -> list[int]:
    """Re-run a traced sequence; return the diverging checkpoint offsets.

    The sequence must be the one the trace was recorded for (its
    fingerprint must match the header, as for a resume; otherwise
    ``ValueError``). It is re-driven through a :class:`Session` on a
    fresh scheduler with the header's backend, batch size, atomicity,
    semantics, verification, and checkpoint cadence, and the re-run's
    records are compared with :func:`diverging_checkpoints`. An empty
    list means the behaviour is identical to the recording.
    """
    records = SessionTrace.read_records(trace_path)
    if iter(sequence) is sequence:
        sequence = list(sequence)
    header = SessionTrace.matching_header(
        trace_path, records, sequence_fingerprint(sequence), "replay")
    with tempfile.TemporaryDirectory() as tmp:
        replay_path = Path(tmp) / "replay.jsonl"
        plan = ExecutionPlan(
            batch_size=header.get("batch_size", 1),
            atomic_batches=header.get("atomic", False),
            batch_semantics=header.get("semantics", "strict"),
            backend=header.get("backend", "auto"),
            verify=header.get("verify", "incremental"),
            full_audit_every=header.get("full_audit_every",
                                        DEFAULT_FULL_AUDIT_EVERY),
            checkpoint_every=header.get("checkpoint_every",
                                        DEFAULT_TRACE_CHECKPOINT_EVERY),
            trace_path=replay_path,
        )
        Session(scheduler_factory(), sequence, plan).run()
        replayed = SessionTrace.read_records(replay_path)
    return diverging_checkpoints(records, replayed)


def shrink_failing_prefix(
    sequence: RequestSequence,
    scheduler_factory: Callable[[], ReallocatingScheduler],
    probe: Callable[[ReallocatingScheduler], None],
) -> int | None:
    """Shortest prefix length after which ``probe`` raises.

    ``probe`` is any checker (e.g. the reservation invariant validator);
    returns None if the full sequence never fails. Binary search is not
    sound here (failures need not be monotone), so this walks forward —
    fine for test-sized sequences.
    """
    scheduler = scheduler_factory()
    for i, request in enumerate(sequence):
        try:
            scheduler.apply(request)
            probe(scheduler)
        except ReproError:
            return i + 1
    return None
