"""The unified execution API: Session, drive backends, traces, resume.

The contract under test (sim/session.py module docstring): one shared
drive loop with pluggable backends, where SequentialBackend and
BatchedBackend produce identical placements, ledger entries, and
max-span tracking on the same sequence; every caller builds an
ExecutionPlan and runs a Session (run_sweep fans one out per cell);
traces make runs resumable via deterministic prefix replay.
"""

from __future__ import annotations

import json

import pytest

from repro.core.api import ReservationScheduler, TrimmedReservationScheduler
from repro.core.exceptions import ReproError, UnderallocationError
from repro.core.job import Job
from repro.core.window import Window
from repro.reservation.scheduler import AlignedReservationScheduler as _ARS
from repro.sim import run_sweep
from repro.sim.session import (
    DEFAULT_FULL_AUDIT_EVERY,
    ExecutionPlan,
    Session,
    SessionResult,
    SessionTrace,
)
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence
from repro.workloads.scenarios import churn_storm_sequence


def make_workload(num_requests=600, seed=0, machines=1):
    cfg = AlignedWorkloadConfig(
        num_requests=num_requests, num_machines=machines, gamma=8,
        horizon=1 << 11, max_span=1 << 11, delete_fraction=0.35,
    )
    return random_aligned_sequence(cfg, seed=seed)


def assert_equivalent(a, b):
    assert dict(a.placements) == dict(b.placements)
    assert a.ledger.entries == b.ledger.entries
    assert a._max_span_cache == b._max_span_cache
    assert a.jobs == b.jobs


# ----------------------------------------------------------------------
# backend equivalence (the acceptance property)
# ----------------------------------------------------------------------
BACKEND_PLANS = [
    ("sequential", dict(backend="sequential")),
    ("batched", dict(backend="batched", batch_size=32)),
    ("batched-atomic", dict(backend="batched", batch_size=32,
                            atomic_batches=True)),
]


@pytest.mark.parametrize("machines", [1, 3])
def test_all_backends_identical_on_theorem1(machines):
    """Sequential and batched (atomic or not) backends produce identical
    placements, ledger entries, and max-span on the same sequence."""
    for seed in (0, 2):
        seq = make_workload(500, seed=seed, machines=machines)
        reference = None
        for label, kwargs in BACKEND_PLANS:
            sched = ReservationScheduler(machines, gamma=8)
            plan = ExecutionPlan(verify="incremental", **kwargs)
            result = Session(sched, seq, plan).run()
            assert not result.failed, (label, result.failure)
            assert result.requests_processed == len(seq)
            if reference is None:
                reference = sched
            else:
                assert_equivalent(sched, reference)
            sched.check_balance()


# ----------------------------------------------------------------------
# the one full-audit default (satellite)
# ----------------------------------------------------------------------
def test_full_audit_default_defined_once_on_the_plan():
    assert ExecutionPlan().full_audit_every == DEFAULT_FULL_AUDIT_EVERY == 1024


# ----------------------------------------------------------------------
# trace + resume (satellite)
# ----------------------------------------------------------------------
def test_resume_round_trip_matches_uninterrupted(tmp_path):
    seq = churn_storm_sequence(requests=2500, seed=3, num_machines=3)
    trace = tmp_path / "run.jsonl"

    full_sched = ReservationScheduler(3, gamma=8)
    full = Session(full_sched, seq, ExecutionPlan(
        batch_size=64, backend="batched", atomic_batches=True,
        checkpoint_every=500)).run()

    part_sched = ReservationScheduler(3, gamma=8)
    partial = Session(part_sched, seq, ExecutionPlan(
        batch_size=64, backend="batched", atomic_batches=True,
        checkpoint_every=500, trace_path=trace, stop_after=1000)).run()
    assert partial.interrupted and partial.requests_processed < len(seq)
    records = SessionTrace.read_records(trace)
    assert records[0]["type"] == "header"
    assert SessionTrace.final_record(records) is None  # killed mid-run

    res_sched = ReservationScheduler(3, gamma=8)
    resumed = Session(res_sched, seq, ExecutionPlan(
        batch_size=64, backend="batched", atomic_batches=True,
        checkpoint_every=500, trace_path=trace, resume=True)).run()
    assert resumed.resumed_from == partial.requests_processed
    assert resumed.requests_processed == len(seq)
    assert not resumed.interrupted
    assert resumed.ledger_summary == full.ledger_summary
    assert_equivalent(res_sched, full_sched)
    final = SessionTrace.final_record(SessionTrace.read_records(trace))
    assert final is not None and final["processed"] == len(seq)


def test_resumed_checkpoint_rate_excludes_the_replayed_prefix(tmp_path):
    """Checkpoint timings cover this session only, so the rate must too
    (the replayed prefix is in ``processed`` but not in the timings)."""
    seq = make_workload(1200, seed=5)
    trace = tmp_path / "run.jsonl"
    Session(ReservationScheduler(1, gamma=8), seq, ExecutionPlan(
        checkpoint_every=200, trace_path=trace, stop_after=700)).run()
    resumed = Session(ReservationScheduler(1, gamma=8), seq, ExecutionPlan(
        checkpoint_every=200, trace_path=trace, resume=True)).run()
    assert resumed.resumed_from == 700
    assert resumed.checkpoints
    for cp in resumed.checkpoints:
        assert cp.requests_per_second == pytest.approx(
            (cp.processed - resumed.resumed_from) / cp.scheduler_time_s)


def test_resume_refuses_a_different_sequence(tmp_path):
    trace = tmp_path / "run.jsonl"
    seq_a = make_workload(300, seed=1)
    seq_b = make_workload(300, seed=2)
    Session(ReservationScheduler(1, gamma=8), seq_a, ExecutionPlan(
        batch_size=32, checkpoint_every=100, trace_path=trace,
        stop_after=100)).run()
    with pytest.raises(ValueError, match="fingerprint"):
        Session(ReservationScheduler(1, gamma=8), seq_b, ExecutionPlan(
            batch_size=32, trace_path=trace, resume=True)).run()


def test_resume_restarts_on_burst_boundaries(tmp_path):
    """A recorded offset that is not a multiple of the batch size (the
    trailing partial burst) must floor to the last burst boundary."""
    trace = tmp_path / "run.jsonl"
    seq = make_workload(300, seed=4)
    Session(ReservationScheduler(1, gamma=8), seq, ExecutionPlan(
        batch_size=64, checkpoint_every=50, trace_path=trace,
        stop_after=150)).run()
    records = SessionTrace.read_records(trace)
    assert SessionTrace.resume_offset(records) % 64 == 0
    resumed = Session(ReservationScheduler(1, gamma=8), seq, ExecutionPlan(
        batch_size=64, trace_path=trace, resume=True)).run()
    assert resumed.requests_processed == len(seq)


def test_sweep_resumes_per_cell(tmp_path):
    scenarios = {
        "a": make_workload(240, seed=1),
        "b": make_workload(240, seed=2),
    }
    factories = {"reservation": lambda: ReservationScheduler(1, gamma=8)}
    first = run_sweep(scenarios, factories, batch_size=32,
                      checkpoint_every=64, trace_dir=tmp_path, stop_after=96)
    assert all(r.interrupted for r in first.values())
    second = run_sweep(scenarios, factories, batch_size=32,
                       checkpoint_every=64, trace_dir=tmp_path, resume=True)
    assert all(r.requests_processed == 240 for r in second.values())
    # a third resume reconstructs completed cells from their traces,
    # including the resume offset (throughput must cover only the
    # session that actually ran, not the replayed prefix)
    third = run_sweep(scenarios, factories, batch_size=32,
                      trace_dir=tmp_path, resume=True)
    for key, r in third.items():
        assert isinstance(r, SessionResult) and r.ledger is None
        assert r.ledger_summary == second[key].ledger_summary
        assert r.summary.keys() == second[key].summary.keys()
        assert r.resumed_from == second[key].resumed_from > 0
        assert r.requests_per_second == pytest.approx(
            (r.requests_processed - r.resumed_from) / r.scheduler_time_s)
    reference = run_sweep(scenarios, factories)
    for key, r in second.items():
        assert r.ledger_summary == reference[key].ledger_summary


def test_sweep_survives_an_incompatible_cell(tmp_path):
    """One scheduler that cannot run the chosen plan (atomic bursts on a
    scheduler without rollback) fails its cells gracefully; the rest of
    the sweep still completes."""
    from repro.baselines import EDFRebuildScheduler

    scenarios = {"a": make_workload(120, seed=1)}
    factories = {
        "reservation": lambda: ReservationScheduler(1, gamma=8),
        "edf": lambda: EDFRebuildScheduler(1),
    }
    results = run_sweep(scenarios, factories, batch_size=32,
                        backend="batched", atomic_batches=True)
    assert not results[("a", "reservation")].failed
    bad = results[("a", "edf")]
    assert bad.failed and "atomic" in bad.failure
    assert bad.requests_processed == 0


def test_traced_run_accepts_a_one_shot_iterator(tmp_path):
    """Fingerprinting must not exhaust generator-shaped sequences."""
    trace = tmp_path / "run.jsonl"
    requests = list(make_workload(200, seed=0))
    result = Session(ReservationScheduler(1, gamma=8), iter(requests),
                     ExecutionPlan(batch_size=32, trace_path=trace)).run()
    assert not result.failed
    assert result.requests_processed == 200


def test_sweep_resume_reruns_stale_cell_traces(tmp_path):
    """A completed cell trace recorded for *different* scenario content
    (e.g. a new --requests) must not be served back as current — the
    cell re-runs from scratch against the new sequence."""
    factories = {"reservation": lambda: ReservationScheduler(1, gamma=8)}
    small = {"a": make_workload(120, seed=1)}
    run_sweep(small, factories, batch_size=32, trace_dir=tmp_path)
    bigger = {"a": make_workload(240, seed=1)}
    redo = run_sweep(bigger, factories, batch_size=32,
                     trace_dir=tmp_path, resume=True)
    assert redo[("a", "reservation")].requests_processed == 240
    # and the fresh trace now resumes cleanly as the bigger sequence
    again = run_sweep(bigger, factories, batch_size=32,
                      trace_dir=tmp_path, resume=True)
    assert again[("a", "reservation")].requests_processed == 240


def test_trace_records_are_json_lines(tmp_path):
    trace = tmp_path / "run.jsonl"
    seq = make_workload(200, seed=0)
    result = Session(ReservationScheduler(1, gamma=8), seq, ExecutionPlan(
        checkpoint_every=50, trace_path=trace)).run()
    assert not result.failed
    with open(trace) as fh:
        records = [json.loads(line) for line in fh]
    assert records[0]["type"] == "header"
    assert records[0]["fingerprint"]
    assert records[0]["checkpoint_every"] == 50
    kinds = {r["type"] for r in records}
    assert kinds == {"header", "checkpoint", "final"}
    assert all(r["placements"] for r in records if r["type"] == "checkpoint")
    final = records[-1]
    assert final["processed"] == len(seq)
    assert final["ledger"]["requests"] == len(seq)
    assert final["placements"]
    # the final record is the result's own field list, and round-trips
    assert final == result.to_record()
    rebuilt = SessionResult.from_record(final)
    assert rebuilt.to_record() == final
    assert rebuilt.summary.keys() == result.summary.keys()


# ----------------------------------------------------------------------
# journal diet (satellite): sequential rebuilds skip the undo journal
# ----------------------------------------------------------------------
def test_sequential_rebuild_runs_journal_free(monkeypatch):
    engaged = []
    orig = _ARS._apply_insert

    def spy(self, job):
        engaged.append((self._batch is None or not self._batch.atomic)
                       and self._journal_enabled)
        return orig(self, job)

    monkeypatch.setattr(_ARS, "_apply_insert", spy)
    sched = TrimmedReservationScheduler(gamma=8)
    seq = make_workload(400, seed=6)
    for r in seq:
        sched.apply(r)
    assert sched.rebuilds > 0
    # some inserts ran journal-free (rebuild survivors), some journaled
    # (the live per-request path)
    assert not all(engaged) and any(engaged)
    assert sched.inner._journal_enabled  # diet scoped to the rebuild loop


def test_rebuild_journal_diet_is_pure_bookkeeping(monkeypatch):
    """Journal-free rebuilds change allocation work only: placements,
    ledger, and trim state stay identical to a stack whose rebuilds
    journal every survivor re-insert."""
    seq = make_workload(600, seed=7)
    diet = TrimmedReservationScheduler(gamma=8)
    for r in seq:
        diet.apply(r)
    # test-only oracle: the per-request journal cannot be switched off
    monkeypatch.setattr(_ARS, "_journal_enabled",
                        property(lambda self: True, lambda self, value: None))
    oracle = TrimmedReservationScheduler(gamma=8)
    for r in seq:
        oracle.apply(r)
    assert_equivalent(diet, oracle)
    assert diet.rebuilds == oracle.rebuilds and diet.rebuilds > 0
    assert diet.n_star == oracle.n_star


@pytest.mark.parametrize("k", [1, 5])
def test_failed_journal_free_rebuild_poisons(monkeypatch, k):
    """The premise behind journal-free rebuilds: a rebuild that fails
    part-way poisons the trimmed scheduler, so the half-built inner
    (nothing journaled, nothing rolled back) is never used again."""
    placements = []
    orig = _ARS._occupy

    def flaky(self, job_id, level, slot):
        if not self._journal_enabled:  # a survivor re-insert placement
            placements.append(job_id)
            if len(placements) == k:
                raise UnderallocationError("injected rebuild failure",
                                           level=level)
        return orig(self, job_id, level, slot)

    monkeypatch.setattr(_ARS, "_occupy", flaky)
    sched = TrimmedReservationScheduler(gamma=8)
    seq = make_workload(400, seed=6)
    with pytest.raises(UnderallocationError, match="injected"):
        for r in seq:
            sched.apply(r)
    assert len(placements) == k
    assert sched.rebuilds > 0 and sched.poisoned
    active = sorted(sched.jobs)
    assert len(active) > k  # some survivors were never re-inserted
    for i in range(4):
        with pytest.raises(ReproError):
            sched.insert(Job(f"late-{i}", Window(0, 1 << 10)))
    for job_id in (active[0], active[-1]):
        with pytest.raises(ReproError):
            sched.delete(job_id)
    assert sched.poisoned and sorted(sched.jobs) == active


# ----------------------------------------------------------------------
# session surface
# ----------------------------------------------------------------------
def test_plan_validation():
    with pytest.raises(ValueError):
        ExecutionPlan(verify="sometimes")
    with pytest.raises(ValueError):
        ExecutionPlan(backend="quantum")
    with pytest.raises(ValueError):
        ExecutionPlan(batch_size=0)


@pytest.mark.parametrize("knob", ["stop_after", "checkpoint_every",
                                  "validate_every", "full_audit_every"])
def test_plan_rejects_negative_counts(knob):
    """A negative count is no period: -5 would stop after one request
    and -100 would record no checkpoint, so the plan refuses both."""
    with pytest.raises(ValueError, match=knob):
        ExecutionPlan(**{knob: -1})
    assert getattr(ExecutionPlan(**{knob: 0}), knob) == 0


def test_auto_backend_resolution():
    seq = make_workload(60, seed=0)
    r1 = Session(ReservationScheduler(1, gamma=8), seq,
                 ExecutionPlan()).run()
    assert r1.backend == "sequential"
    r2 = Session(ReservationScheduler(1, gamma=8), seq,
                 ExecutionPlan(batch_size=16)).run()
    assert r2.backend == "batched"
    assert r1.ledger.entries == r2.ledger.entries
