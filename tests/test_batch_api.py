"""Batch-first request API: equivalence, atomicity, and plumbing.

The contract under test (core/base.py module docstring): a committed
``apply_batch`` leaves placements, the per-request ledger, and max-span
tracking bit-identical to sequential ``apply`` over the same requests;
non-atomic batches stop at a failure with sequential semantics; atomic
batches roll back to the exact pre-batch state and leave the scheduler
usable.
"""

from __future__ import annotations

import pytest

from oracle_stack import snapshot_costed

from repro.core.api import ReservationScheduler
from repro.core.exceptions import InvalidRequestError, ReproError
from repro.core.job import Job
from repro.core.requests import (
    Batch,
    DeleteJob,
    InsertJob,
    RequestSequence,
    insert,
    iter_batches,
)
from repro.core.window import Window
from repro.multimachine.elastic import ElasticScheduler
from repro.reservation import AlignedReservationScheduler
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.reservation.validation import validate_scheduler
from repro.sim import ExecutionPlan, IncrementalVerifier, Session
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence
from repro.workloads.scenarios import burst_arrivals_sequence, churn_storm_sequence


def make_workload(num_requests=600, seed=0, machines=1):
    cfg = AlignedWorkloadConfig(
        num_requests=num_requests, num_machines=machines, gamma=8,
        horizon=1 << 11, max_span=1 << 11, delete_fraction=0.35,
    )
    return random_aligned_sequence(cfg, seed=seed)


def assert_equivalent(batched, sequential):
    assert dict(batched.placements) == dict(sequential.placements)
    assert batched.ledger.entries == sequential.ledger.entries
    assert batched._max_span_cache == sequential._max_span_cache
    assert batched.jobs == sequential.jobs


# ----------------------------------------------------------------------
# batch container
# ----------------------------------------------------------------------
def test_batch_container_and_iter_batches():
    seq = make_workload(50, seed=3)
    batches = list(iter_batches(seq, 16))
    assert [len(b) for b in batches] == [16, 16, 16, 2]
    assert sum((list(b) for b in batches), []) == list(seq)
    b = batches[0]
    assert len(b.insert_jobs) + len(b.delete_ids) == len(b)
    assert all(isinstance(j, Job) for j in b.insert_jobs)
    with pytest.raises(InvalidRequestError):
        Batch(["not a request"])
    with pytest.raises(ValueError):
        list(iter_batches(seq, 0))


# ----------------------------------------------------------------------
# equivalence property
# ----------------------------------------------------------------------
SCHEDULER_FACTORIES = [
    ("aligned-raw", 1, lambda m: AlignedReservationScheduler()),
    ("theorem1-m1", 1, lambda m: ReservationScheduler(m, gamma=8)),
    ("theorem1-m3", 3, lambda m: ReservationScheduler(m, gamma=8)),
    ("deamortized", 1, lambda m: ReservationScheduler(m, gamma=8,
                                                      deamortized=True)),
]


@pytest.mark.parametrize("name,machines,factory", SCHEDULER_FACTORIES)
@pytest.mark.parametrize("atomic", [False, True])
def test_apply_batch_matches_sequential(name, machines, factory, atomic):
    """Placements, ledger, and max-span identical across several seeds
    and batch sizes, including batches cut mid-burst."""
    for seed, batch_size in ((0, 7), (1, 64), (2, 3)):
        seq = make_workload(400, seed=seed, machines=machines)
        sequential = factory(machines)
        for r in seq:
            sequential.apply(r)
        batched = factory(machines)
        for batch in iter_batches(seq, batch_size):
            result = batched.apply_batch(batch, atomic=atomic)
            assert not result.failed, result.failure
            assert result.processed == len(batch)
        assert_equivalent(batched, sequential)
        if hasattr(batched, "check_balance"):
            batched.check_balance()


def test_apply_batch_on_scenario_storms():
    """The burst-native scenarios drive mass deletes and trimming
    rebuilds through batch boundaries."""
    for gen in (churn_storm_sequence, burst_arrivals_sequence):
        seq = list(gen(requests=1500, seed=1))
        sequential = ReservationScheduler(1, gamma=8)
        for r in seq:
            sequential.apply(r)
        batched = ReservationScheduler(1, gamma=8)
        for batch in iter_batches(seq, 64):
            assert not batched.apply_batch(batch, atomic=True).failed
        assert_equivalent(batched, sequential)


def test_batch_net_diff_is_pre_to_post():
    """The single batch-level cost diff compares pre-batch placements to
    post-batch placements: moved-back jobs and jobs inserted or deleted
    by the batch are excluded."""
    seq = list(make_workload(300, seed=5))
    sched = AlignedReservationScheduler()
    for r in seq[:200]:
        sched.apply(r)
    pre = dict(sched.placements)
    batch = Batch(seq[200:260])
    result = sched.apply_batch(batch)
    post = dict(sched.placements)
    expected = {
        job_id for job_id, old in pre.items()
        if job_id in post and post[job_id] != old
    }
    assert set(result.net.rescheduled) == expected
    assert result.net.kind == "batch"
    assert result.net.n_active == len(sched.jobs)
    # per-request breakdown sums are independent of the net diff
    assert result.processed == len(batch)
    assert len(result.costs) == len(batch)


# ----------------------------------------------------------------------
# failure semantics
# ----------------------------------------------------------------------
def packed_unit_jobs():
    """A scheduler whose window [0,1) is full: the next [0,1) insert is
    infeasible and poisons it (base-level InfeasibleError)."""
    sched = AlignedReservationScheduler()
    sched.insert(Job("fill", Window(0, 1)))
    return sched


def test_non_atomic_failure_matches_sequential():
    seq = list(make_workload(240, seed=7))
    poison = InsertJob(Job("poison", Window(0, 1)))
    requests = seq[:100] + [poison] + seq[100:120]

    sequential = packed_unit_jobs()
    failed_at = None
    for i, r in enumerate(requests):
        try:
            sequential.apply(r)
        except ReproError:
            failed_at = i
            break
    assert failed_at == 100

    batched = packed_unit_jobs()
    results = []
    for batch in iter_batches(requests, 64):
        res = batched.apply_batch(batch)
        results.append(res)
        if res.failed:
            break
    # second batch (requests 64..127) contains the poison at offset 36
    assert results[-1].failed and results[-1].failed_index == 36
    assert not results[-1].rolled_back
    assert results[-1].processed == 36
    assert isinstance(results[-1].error, ReproError)
    assert results[-1].net is not None  # net covers the committed prefix
    assert batched.poisoned and sequential.poisoned
    assert_equivalent(batched, sequential)


@pytest.mark.parametrize("name,machines,factory", SCHEDULER_FACTORIES)
def test_atomic_batch_rolls_back_exactly(name, machines, factory):
    """A failing atomic batch restores the exact pre-batch state — the
    scheduler stays usable and future behavior matches a scheduler that
    never saw the batch (trimming rebuilds included)."""
    seq = make_workload(500, seed=9, machines=machines)
    prefix, inside, after = list(seq)[:250], list(seq)[250:330], list(seq)[330:]

    sched = factory(machines)
    for r in prefix:
        sched.apply(r)
    pre_placements = dict(sched.placements)
    pre_jobs = dict(sched.jobs)
    pre_ledger = len(sched.ledger.entries)
    pre_max_span = sched._max_span_cache

    # a back-to-back duplicate insert always fails at the second copy
    bad_batch = inside + [insert("dup", 0, 64), insert("dup", 0, 64)]
    result = sched.apply_batch(bad_batch, atomic=True)
    assert result.failed and result.rolled_back
    assert result.failed_index == len(bad_batch) - 1
    assert result.processed == 0 and result.net is None

    assert dict(sched.placements) == pre_placements
    assert sched.jobs == pre_jobs
    assert len(sched.ledger.entries) == pre_ledger
    assert sched._max_span_cache == pre_max_span

    # continue: must track a reference that never saw the bad batch
    reference = factory(machines)
    for r in prefix:
        reference.apply(r)
    for r in inside + after:
        sched.apply(r)
        reference.apply(r)
    assert_equivalent(sched, reference)


def test_atomic_rollback_after_deep_failure():
    """An infeasible request that fails deep inside placement (after
    real mutations in the same batch) still rolls back exactly."""
    seq = list(make_workload(300, seed=11))
    sched = AlignedReservationScheduler()
    sched.insert(Job("fill", Window(0, 1)))
    for r in seq[:150]:
        sched.apply(r)
    pre_placements = dict(sched.placements)
    pre_poisoned = sched.poisoned

    bad = seq[150:200] + [InsertJob(Job("poison", Window(0, 1)))]
    result = sched.apply_batch(bad, atomic=True)
    assert result.failed and result.rolled_back
    assert dict(sched.placements) == pre_placements
    assert sched.poisoned == pre_poisoned  # un-poisoned: batch never happened
    validate_scheduler(sched)
    # still usable
    sched.apply(seq[150])


def test_atomic_requires_support():
    from repro.baselines import EDFRebuildScheduler

    sched = EDFRebuildScheduler(1)
    with pytest.raises(InvalidRequestError):
        sched.apply_batch(list(make_workload(10))[:4], atomic=True)
    # non-atomic batches still work for non-sparse baselines
    seq = make_workload(120, seed=2)
    sequential = EDFRebuildScheduler(1)
    for r in seq:
        sequential.apply(r)
    batched = EDFRebuildScheduler(1)
    for batch in iter_batches(seq, 16):
        assert not batched.apply_batch(batch).failed
    assert_equivalent(batched, sequential)


def test_nested_batch_rejected():
    sched = AlignedReservationScheduler()
    sched._batch_begin(atomic=False)
    with pytest.raises(InvalidRequestError):
        sched.apply_batch([insert("x", 0, 2)])
    sched._batch_commit()


# ----------------------------------------------------------------------
# verifier integration
# ----------------------------------------------------------------------
def test_verify_batch_mirrors_and_audits():
    seq = make_workload(400, seed=4)
    sched = AlignedReservationScheduler()
    verifier = IncrementalVerifier(1, full_audit_every=100)
    for batch in iter_batches(seq, 32):
        result = sched.apply_batch(batch)
        verifier.verify_batch(sched, result)
    assert verifier.requests_seen == len(seq)
    assert verifier.full_audits_run >= len(seq) // 100
    verifier.full_audit(sched)


def test_verify_batch_detects_unreported_change():
    from repro.core.exceptions import ValidationError
    from repro.core.job import Placement

    sched = AlignedReservationScheduler()
    verifier = IncrementalVerifier(1, full_audit_every=256)
    seq = make_workload(100, seed=6)
    for batch in iter_batches(seq, 32):
        verifier.verify_batch(sched, sched.apply_batch(batch))
    # tamper with a placement behind the verifier's back
    job_id, pl = next(iter(sched._placements.items()))
    sched._placements[job_id] = Placement(pl.machine, pl.slot + 1 << 20)
    with pytest.raises(ValidationError):
        verifier.full_audit(sched)


# ----------------------------------------------------------------------
# delegation grouping
# ----------------------------------------------------------------------
def test_batch_plan_invalidated_by_mid_batch_delete():
    """A delete of a window mid-batch moves that window's round-robin
    position; every later insert of the batch makes the live choice a
    single request makes, so equivalence with sequential still holds."""
    window = Window(0, 64)
    other = Window(64, 128)
    requests = [InsertJob(Job("a", window)), InsertJob(Job("b", window)),
                InsertJob(Job("c", other)), DeleteJob("a"),
                InsertJob(Job("d", window)), InsertJob(Job("e", window))]
    sequential = ReservationScheduler(3, gamma=8)
    for r in requests:
        sequential.apply(r)
    batched = ReservationScheduler(3, gamma=8)
    assert not batched.apply_batch(Batch(requests)).failed
    assert_equivalent(batched, sequential)
    batched.check_balance()


# ----------------------------------------------------------------------
# deamortized sparse costing (satellite)
# ----------------------------------------------------------------------
def test_deamortized_sparse_costs_match_full_snapshot_oracle():
    seq = make_workload(500, seed=13)
    sched = DeamortizedReservationScheduler()
    for r in seq:
        cost, want = snapshot_costed(sched, r)
        assert cost == want, r
    assert sched.phases_started > 0  # the phase migrations were costed
    assert sum(c.reallocation_cost for c in sched.ledger) > 0


# ----------------------------------------------------------------------
# elastic max-span (satellite)
# ----------------------------------------------------------------------
def test_elastic_machine_change_costs_use_tracked_max_span():
    sched = ElasticScheduler(2, lambda: AlignedReservationScheduler())
    sched.insert(Job("small", Window(0, 2)))
    sched.insert(Job("big", Window(0, 64)))
    cost = sched.add_machine()
    assert cost.kind == "add-machine"
    assert cost.max_span == 64 == sched._max_span()
    sched.delete("big")
    cost = sched.remove_machine(2)
    assert cost.max_span == 2 == sched._max_span()


def test_elastic_events_rejected_mid_batch():
    sched = ElasticScheduler(2, lambda: AlignedReservationScheduler())
    sched._batch_begin(atomic=False)
    with pytest.raises(InvalidRequestError):
        sched.add_machine()
    with pytest.raises(InvalidRequestError):
        sched.remove_machine(0)
    sched._batch_commit()


# ----------------------------------------------------------------------
# session integration
# ----------------------------------------------------------------------
def test_run_sequence_batched_equals_sequential():
    seq = make_workload(400, seed=8)
    r_seq = Session(ReservationScheduler(1, gamma=8), seq,
                    ExecutionPlan(stop_on_error=True)).run()
    r_bat = Session(ReservationScheduler(1, gamma=8), seq, ExecutionPlan(
        batch_size=64, atomic_batches=True, stop_on_error=True)).run()
    assert r_bat.requests_processed == r_seq.requests_processed == len(seq)
    assert r_bat.ledger.summary() == r_seq.ledger.summary()
    assert not r_bat.failed


def test_run_sequence_batched_failure_semantics():
    requests = RequestSequence()
    requests.insert("a", 0, 2)
    bad = list(requests) + [InsertJob(Job("a", Window(0, 2)))]

    class FakeSeq(list):
        pass

    sched = AlignedReservationScheduler()
    result = Session(sched, FakeSeq(bad), ExecutionPlan(batch_size=8)).run()
    assert result.failed and "InvalidRequestError" in result.failure
    with pytest.raises(InvalidRequestError):
        Session(AlignedReservationScheduler(), FakeSeq(bad),
                ExecutionPlan(batch_size=8, stop_on_error=True)).run()


def test_run_engine_batched_with_checkpoints():
    seq = list(churn_storm_sequence(requests=1200, seed=3))

    class FakeSeq(list):
        pass

    hits = []
    result = Session(ReservationScheduler(1, gamma=8), FakeSeq(seq),
                     ExecutionPlan(batch_size=64, atomic_batches=True,
                                   checkpoint_every=256,
                                   on_checkpoint=hits.append)).run()
    assert not result.failed
    assert result.requests_processed == len(seq)
    assert len(hits) == len(seq) // 256
    sequential = Session(ReservationScheduler(1, gamma=8), FakeSeq(seq),
                         ExecutionPlan()).run()
    assert result.ledger_summary == sequential.ledger_summary
