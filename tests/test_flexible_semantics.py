"""Flexible batch semantics: planning, elision, rollback, plumbing.

The differential harness (``test_backend_differential``) establishes
the bounds-equivalence property statistically; this module pins the
flexible planner's individual contracts with hand-written cases:

- interior insert/delete pairs elide to explicit zero-cost ledger
  entries (one entry per request, at arrival positions);
- surviving inserts place span-ascending (the trimming rebuild order),
  deletes of pre-existing jobs coalesce ahead of them;
- protocol-invalid op streams degrade to the strict path and report
  the error at the same arrival position strict does;
- a failing atomic flexible batch restores bit-identical pre-batch
  state (placements, jobs, ledger, max-span), and the scheduler's
  future behavior matches one that never saw the batch;
- the arena sanitizer (checking container proxies) stays silent over
  flexible drives — the joint planner funnels every mutation through
  the journaled per-request path;
- the semantics knob threads through ``ExecutionPlan``/``Session`` and
  the CLI.
"""

from __future__ import annotations

import pytest

from repro.core.api import ReservationScheduler, TrimmedReservationScheduler
from repro.core.base import BATCH_SEMANTICS, resolve_batch_semantics
from repro.core.exceptions import InvalidRequestError, ReproError
from repro.core.job import Job
from repro.core.requests import Batch, DeleteJob, InsertJob, iter_batches
from repro.core.window import Window
from repro.reservation.scheduler import (
    AlignedReservationScheduler,
    flexible_span_order,
)
from repro.sim.session import ExecutionPlan, Session
from repro.workloads.scenarios import churn_storm_sequence

from test_backend_differential import fingerprint, mixed_churn


def ins(job_id, release, deadline):
    return InsertJob(Job(job_id, Window(release, deadline)))


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
def test_plan_elides_interior_pairs():
    sched = ReservationScheduler(1, gamma=8)
    sched.insert(Job("standing", Window(0, 64)))
    pre_placements = dict(sched.placements)

    batch = [ins("x", 0, 64), DeleteJob("x"), ins("y", 0, 64)]
    result = sched.apply_batch(batch, semantics="flexible")
    assert not result.failed
    assert len(result.costs) == 3
    # the elided pair commits as zero-cost entries at arrival positions
    assert result.costs[0].kind == "insert"
    assert result.costs[0].subject == "x"
    assert result.costs[0].reallocation_cost == 0
    assert result.costs[0].migration_cost == 0
    assert result.costs[1].kind == "delete"
    assert result.costs[1].subject == "x"
    assert result.costs[1].reallocation_cost == 0
    assert result.costs[2].subject == "y"
    assert list(sched.ledger.entries)[-3:] == result.costs

    assert "x" not in sched.jobs and "x" not in sched.placements
    assert "y" in sched.jobs
    assert sched.placements["standing"] == pre_placements["standing"]


def test_plan_elision_only_batch_is_a_no_op():
    sched = ReservationScheduler(1, gamma=8)
    sched.insert(Job("standing", Window(0, 64)))
    pre = fingerprint(sched)

    result = sched.apply_batch([ins("x", 0, 64), DeleteJob("x")],
                               semantics="flexible")
    assert not result.failed and result.processed == 2
    assert all(c.reallocation_cost == 0 and c.migration_cost == 0
               for c in result.costs)
    placements, ledger, span, jobs = fingerprint(sched)
    assert (placements, span, jobs) == (pre[0], pre[2], pre[3])
    assert ledger == pre[1] + result.costs


def test_plan_reinsert_same_id_keeps_last_window():
    sched = ReservationScheduler(1, gamma=8)
    batch = [ins("a", 0, 16), DeleteJob("a"), ins("a", 64, 128)]
    result = sched.apply_batch(batch, semantics="flexible")
    assert not result.failed
    assert sched.jobs["a"].window == Window(64, 128)
    assert [c.subject for c in result.costs] == ["a", "a", "a"]
    assert [c.kind for c in result.costs] == ["insert", "delete", "insert"]


def test_plan_coalesces_deletes_before_inserts():
    """Deletes of pre-existing jobs run first, so a burst that swaps a
    full window's population never sees transient overallocation."""
    sched = ReservationScheduler(1, gamma=8)
    old = [Job(f"old{i}", Window(0, 64)) for i in range(8)]
    for job in old:
        sched.insert(job)
    # Swap all 8 out for 8 new jobs, inserts arriving BEFORE deletes:
    # strict order would apply the inserts into a window already holding
    # the 8 old jobs; the flexible plan deletes first.
    batch = ([ins(f"new{i}", 0, 64) for i in range(8)]
             + [DeleteJob(f"old{i}") for i in range(8)])
    result = sched.apply_batch(batch, semantics="flexible")
    assert not result.failed
    assert set(sched.jobs) == {f"new{i}" for i in range(8)}
    # ledger entries stay at arrival positions: 8 inserts then 8 deletes
    kinds = [c.kind for c in result.costs]
    assert kinds == ["insert"] * 8 + ["delete"] * 8


def test_flexible_insert_order_is_span_ascending():
    assert flexible_span_order(Job("a", Window(0, 4))) < flexible_span_order(
        Job("b", Window(0, 16)))
    # the whole stack agrees on the reservation layer's key
    for sched in (ReservationScheduler(2, gamma=8),
                  TrimmedReservationScheduler(),
                  AlignedReservationScheduler()):
        assert sched._flexible_insert_order_key() is flexible_span_order

    sched = ReservationScheduler(1, gamma=8)
    batch = Batch([ins("wide", 0, 256), ins("narrow", 0, 8),
                   ins("mid", 0, 64)])
    plan = sched._plan_flexible(batch)
    assert plan is not None
    deletes, inserts, elided = plan
    assert deletes == [] and elided == []
    assert [request.job.id for _, request in inserts] == [
        "narrow", "mid", "wide"]
    # arrival indexes ride along for the ledger permutation
    assert [index for index, _ in inserts] == [1, 2, 0]


def test_semantics_validation():
    assert BATCH_SEMANTICS == ("strict", "flexible")
    assert resolve_batch_semantics("strict") == "strict"
    with pytest.raises(InvalidRequestError):
        resolve_batch_semantics("loose")
    sched = ReservationScheduler(1, gamma=8)
    with pytest.raises(InvalidRequestError):
        sched.apply_batch([ins("a", 0, 16)], semantics="loose")
    with pytest.raises(InvalidRequestError):
        ExecutionPlan(batch_semantics="loose")


# ----------------------------------------------------------------------
# protocol-invalid streams degrade to strict
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad_batch,failing_index", [
    # duplicate insert of an id already active in the batch
    ([ins("a", 0, 16), ins("a", 0, 16)], 1),
    # delete of an id never inserted
    ([ins("a", 0, 16), DeleteJob("ghost")], 1),
    # insert of an id already active pre-batch (see test body)
    ([ins("standing", 0, 16)], 0),
])
def test_protocol_violations_match_strict(bad_batch, failing_index):
    def fresh():
        sched = ReservationScheduler(1, gamma=8)
        sched.insert(Job("standing", Window(0, 64)))
        return sched

    strict = fresh()
    strict_result = strict.apply_batch(bad_batch, atomic=True)
    flexible = fresh()
    flexible_result = flexible.apply_batch(bad_batch, atomic=True,
                                           semantics="flexible")
    assert strict_result.failed and flexible_result.failed
    assert strict_result.failed_index == failing_index
    assert flexible_result.failed_index == failing_index
    assert flexible_result.failure == strict_result.failure
    assert fingerprint(flexible) == fingerprint(strict)


# ----------------------------------------------------------------------
# atomic rollback: bit-identical pre-batch state
# ----------------------------------------------------------------------
def test_flexible_atomic_rollback_bit_identical():
    """A protocol-VALID flexible batch that fails on infeasibility
    (never planned away — distinct ids) rolls back to the exact
    pre-batch state, and the scheduler's future matches one that never
    saw the batch."""
    seq = mixed_churn(200, 13, 1, 0.3)
    sched = ReservationScheduler(1, gamma=8)
    for r in seq[:120]:
        sched.apply(r)
    sched.insert(Job("fill", Window(0, 1)))  # packs the only [0,1) slot
    pre = fingerprint(sched)

    bad = ([ins(f"burst{i}", 0, 256) for i in range(6)]
           + [ins("infeasible", 0, 1)])
    result = sched.apply_batch(bad, atomic=True, semantics="flexible")
    assert result.failed and result.rolled_back
    assert result.processed == 0
    assert result.failed_index == len(bad) - 1  # arrival position
    assert isinstance(result.error, ReproError)
    assert fingerprint(sched) == pre

    # future behavior: identical to a scheduler that never saw the batch
    reference = ReservationScheduler(1, gamma=8)
    for r in seq[:120]:
        reference.apply(r)
    reference.insert(Job("fill", Window(0, 1)))
    for r in seq[120:160]:
        sched.apply(r)
        reference.apply(r)
    assert fingerprint(sched) == fingerprint(reference)


# ----------------------------------------------------------------------
# sanitizer coverage: the joint planner leaves no unjournaled mutations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("atomic", [True, False],
                         ids=["batched", "batched-nonatomic"])
def test_flexible_under_arena_sanitize(atomic):
    """Flexible drives under the checking journal proxies: zero
    unjournaled-mutation reports (any would raise), and results
    bit-identical to the plain arena run."""
    seq = mixed_churn(240, 17, 3, 0.4)

    def run(journal):
        sched = ReservationScheduler(3, gamma=8, journal=journal)
        for burst in iter_batches(seq, 32):
            result = sched.apply_batch(burst, atomic=atomic,
                                       semantics="flexible")
            assert not result.failed
        return fingerprint(sched)

    assert run("arena-sanitize") == run("arena")


# ----------------------------------------------------------------------
# session / CLI plumbing
# ----------------------------------------------------------------------
def test_run_sequence_flexible_bounds_equivalent():
    seq = churn_storm_sequence(requests=600, seed=5, num_machines=3)

    def run(semantics):
        sched = ReservationScheduler(3, gamma=8)
        res = Session(sched, seq, ExecutionPlan(
            batch_size=64, batch_semantics=semantics, backend="batched",
            stop_on_error=True)).run()
        assert not res.failed
        return sched, res

    strict_sched, strict_res = run("strict")
    flex_sched, flex_res = run("flexible")
    assert dict(flex_sched.jobs) == dict(strict_sched.jobs)
    assert flex_sched._max_span_cache == strict_sched._max_span_cache
    assert len(flex_res.ledger.entries) == len(strict_res.ledger.entries)
    assert flex_res.ledger.total_migrations <= len(seq)


def test_run_engine_flexible_smoke(tmp_path):
    seq = churn_storm_sequence(requests=400, seed=6, num_machines=3)
    result = Session(ReservationScheduler(3, gamma=8), seq, ExecutionPlan(
        batch_size=64, batch_semantics="flexible", backend="batched",
        atomic_batches=True, verify="incremental")).run()
    assert not result.failed
    assert result.requests_processed == len(seq)


def test_cli_batch_semantics_flag(capsys):
    from repro.cli import main

    assert main(["demo", "--requests", "120", "--batch-size", "16",
                 "--batch-semantics", "flexible"]) == 0
    out = capsys.readouterr().out
    assert "semantics=flexible" in out
    with pytest.raises(SystemExit):
        main(["demo", "--batch-semantics", "loose"])
