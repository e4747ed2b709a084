"""The classic driver surface: thin adapters over the Session loop.

:func:`run_sequence` is the small-run entry point — feed a
:class:`~repro.core.requests.RequestSequence` to any
:class:`~repro.core.base.ReallocatingScheduler`, get a
:class:`~repro.sim.session.SessionResult` back — the one result type of
every drive surface. It owns no drive loop: it builds an
:class:`~repro.sim.session.ExecutionPlan` and delegates to
:class:`~repro.sim.session.Session`, which carries the one shared loop
(timing split, verifier wiring, failure handling) for this module,
:mod:`repro.sim.engine`, and every benchmark. Use ``Session`` directly
for the full surface (drive backends, traces, resume); use
``run_sequence`` when you want the historical call shape:

- ``batch_size > 1`` drives bursts through ``apply_batch``
  (``atomic_batches=True`` for all-or-nothing bursts); ``backend=``
  picks the drive backend explicitly.
- ``verify_each``/``verify_mode`` wire the incremental or full
  feasibility checker; the full-audit period defaults to the one
  shared :data:`~repro.sim.session.DEFAULT_FULL_AUDIT_EVERY`.
- timing stays split by phase: ``scheduler_time_s`` is the honest
  algorithm cost, ``verify_time_s`` / ``validate_time_s`` (summed as
  ``audit_time_s``) the verify/validate hooks.

:func:`run_comparison` runs several schedulers over the same sequence
and aligns their ledgers for head-to-head reporting.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.base import ReallocatingScheduler
from ..core.requests import RequestSequence
from .session import (
    DEFAULT_FULL_AUDIT_EVERY,
    DriveBackend,
    ExecutionPlan,
    Session,
    SessionResult,
)


def run_sequence(
    scheduler: ReallocatingScheduler,
    sequence: RequestSequence,
    *,
    batch_size: int = 1,
    atomic_batches: bool = False,
    batch_semantics: str = "strict",
    backend: "str | DriveBackend" = "auto",
    verify_each: bool = True,
    verify_mode: str = "incremental",
    full_audit_every: int | None = None,
    validate_each: Callable[[ReallocatingScheduler], None] | None = None,
    stop_on_error: bool = True,
    name: str | None = None,
) -> SessionResult:
    """Drive ``sequence`` through ``scheduler`` (a Session adapter).

    Parameters
    ----------
    batch_size:
        Chunk the stream into bursts of this size and drive them
        through ``apply_batch`` (1 = classic per-request loop).
        Feasibility and invariant hooks then run once per batch commit.
    atomic_batches:
        With ``batch_size > 1``: apply each burst all-or-nothing; a
        mid-batch failure rolls the burst back entirely.
    batch_semantics:
        ``"strict"`` (default, placement-identical replay) or
        ``"flexible"`` (jointly planned bursts — bounds-equivalent, see
        :class:`~repro.sim.session.ExecutionPlan`).
    backend:
        Drive backend: ``"auto"`` (default — batched when
        ``batch_size > 1``, else sequential), ``"sequential"``,
        ``"batched"``, or a :class:`~repro.sim.session.DriveBackend`
        instance.
    verify_each:
        Check schedule feasibility after every request — or, when
        batching, after every batch commit (default on; turn off only
        for throughput benchmarks).
    verify_mode:
        ``"incremental"`` (default) checks each step's placement
        changes in O(changes) and runs a full audit every
        ``full_audit_every`` requests plus once at the end;
        ``"full"`` re-verifies the whole schedule after every step.
    full_audit_every:
        Full-audit period for incremental mode (None = the shared
        :data:`~repro.sim.session.DEFAULT_FULL_AUDIT_EVERY`; 0 disables
        periodic audits; the final audit always runs).
    validate_each:
        Optional extra validator called with the scheduler after each
        request / batch (e.g. reservation invariant validation).
    stop_on_error:
        If False, a scheduler failure (InfeasibleError or
        UnderallocationError) ends the run gracefully with
        ``failed=True`` instead of raising — used by the gamma-threshold
        ablation, which probes exactly where schedulers break.
    """
    if verify_mode not in ("incremental", "full"):
        raise ValueError(f"unknown verify_mode {verify_mode!r}")
    plan = ExecutionPlan(
        batch_size=batch_size,
        atomic_batches=atomic_batches,
        batch_semantics=batch_semantics,
        backend=backend,
        verify=verify_mode if verify_each else "off",
        full_audit_every=(full_audit_every if full_audit_every is not None
                          else DEFAULT_FULL_AUDIT_EVERY),
        validator=validate_each,
        validate_every=1,
        stop_on_error=stop_on_error,
        name=name,
    )
    return Session(scheduler, sequence, plan).run()


def run_comparison(
    factories: Mapping[str, Callable[[], ReallocatingScheduler]],
    sequence: RequestSequence,
    *,
    batch_size: int = 1,
    atomic_batches: bool = False,
    batch_semantics: str = "strict",
    backend: "str | DriveBackend" = "auto",
    verify_each: bool = True,
    verify_mode: str = "incremental",
    validate_each: Callable[[ReallocatingScheduler], None] | None = None,
    stop_on_error: bool = True,
) -> dict[str, SessionResult]:
    """Run several schedulers over the same sequence (fresh instance each)."""
    results: dict[str, SessionResult] = {}
    for label, factory in factories.items():
        results[label] = run_sequence(
            factory(), sequence,
            batch_size=batch_size,
            atomic_batches=atomic_batches,
            batch_semantics=batch_semantics,
            backend=backend,
            verify_each=verify_each,
            verify_mode=verify_mode,
            validate_each=validate_each,
            stop_on_error=stop_on_error,
            name=label,
        )
    return results

