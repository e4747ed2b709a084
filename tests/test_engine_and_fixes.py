"""Regression tests for the fast-path engine PR.

Covers the three driver/scheduler bugfixes (timing contamination,
failed-request partial state, run_comparison dropping validate_each),
the sparse cost accounting, the incremental verifier, the batch engine,
and the Observation 7 history-independence guard for the memoized
fulfillment target.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_stack import snapshot_costed

from repro.core.api import ReservationScheduler
from repro.core.exceptions import (
    InfeasibleError,
    UnderallocationError,
    ValidationError,
)
from repro.core.job import Job, Placement
from repro.core.window import Window
from repro.reservation import AlignedReservationScheduler, validate_scheduler
from repro.sim import (
    IncrementalVerifier,
    run_comparison,
    run_engine,
    run_sequence,
    run_sweep,
)
from repro.workloads import (
    SCENARIOS,
    AlignedWorkloadConfig,
    adversarial_span_mix_sequence,
    churn_storm_sequence,
    random_aligned_sequence,
    steady_state_sequence,
)


def small_sequence(n=120, seed=0, **overrides):
    cfg = AlignedWorkloadConfig(
        num_requests=n, gamma=8, horizon=1 << 10, max_span=1 << 10,
        delete_fraction=0.3, **overrides,
    )
    return random_aligned_sequence(cfg, seed=seed)


# ----------------------------------------------------------------------
# Bugfix 1: audit time must not contaminate scheduler_time_s
# ----------------------------------------------------------------------
class TestTimingSplit:
    def test_audit_time_excluded_from_scheduler_time(self):
        seq = small_sequence(40)

        def slow_validator(_sched):
            time.sleep(0.002)

        result = run_sequence(
            AlignedReservationScheduler(), seq,
            verify_each=False, validate_each=slow_validator,
        )
        # ~80ms of validator sleep must land in audit, not scheduler, time
        assert result.audit_time_s >= 0.05
        assert result.scheduler_time_s < result.audit_time_s / 2
        assert result.wall_time_s >= result.scheduler_time_s + result.audit_time_s

    def test_phase_fields_present_and_consistent(self):
        seq = small_sequence(60)
        result = run_sequence(AlignedReservationScheduler(), seq)
        assert result.scheduler_time_s > 0
        assert result.audit_time_s > 0
        assert result.wall_time_s >= result.scheduler_time_s
        summary = result.summary
        assert {"wall_s", "sched_s", "verify_s", "validate_s"} <= set(summary)
        assert result.audit_time_s == pytest.approx(
            result.verify_time_s + result.validate_time_s)
        assert result.requests_per_second == pytest.approx(
            result.requests_processed / result.scheduler_time_s)


# ----------------------------------------------------------------------
# Bugfix 2: failed requests roll back to the pre-request state
# ----------------------------------------------------------------------
def scheduler_state(sched: AlignedReservationScheduler) -> dict:
    """Deep snapshot of every mutable structure, for exact comparison."""
    return {
        "slot_job": dict(sched.slot_job),
        "job_slot": dict(sched.job_slot),
        "placements": dict(sched.placements),
        "job_levels": dict(sched._job_levels),
        "window_states": {
            lv: {
                w: (set(ws.jobs), ws.backed_empty.snapshot(),
                    ws.backed_covered.snapshot())
                for w, ws in states.items()
            }
            for lv, states in sched.window_states.items()
        },
        "intervals": {
            lv: {
                idx: (set(iv.lower_occupied), dict(iv.dynamic_res),
                      {w: set(s) for w, s in iv.assigned.items()},
                      dict(iv.slot_owner))
                for idx, iv in table.items()
            }
            for lv, table in sched.intervals.items()
        },
    }


class TestFailedRequestRollback:
    def overfill(self, sched, window, start=0):
        """Insert same-window jobs until the scheduler rejects one."""
        for i in range(start, 4 * window.span):
            job = Job(f"x{i}", window)
            before = scheduler_state(sched)
            try:
                sched.insert(job)
            except UnderallocationError:
                return job, before
        raise AssertionError("scheduler never hit underallocation")

    def test_failed_insert_restores_exact_state(self):
        sched = AlignedReservationScheduler()
        window = Window(0, 64)  # level-1 window
        failing_job, before = self.overfill(sched, window)
        assert sched.poisoned
        assert scheduler_state(sched) == before
        assert failing_job.id not in sched.jobs
        # the rolled-back state is internally consistent: no phantom
        # jobs, indexes intact (lemma-8 slack is legitimately exhausted)
        validate_scheduler(sched, check_lemma8=False)

    def test_failed_insert_with_cascade_restores_state(self):
        sched = AlignedReservationScheduler()
        # occupy base level under the same region to force displacement
        # interactions between levels before exhausting the slack
        for i in range(8):
            sched.insert(Job(f"b{i}", Window(8 * i, 8 * (i + 1))))
        _, before = self.overfill(sched, Window(0, 64), start=100)
        assert sched.poisoned
        assert scheduler_state(sched) == before
        validate_scheduler(sched, check_lemma8=False)

    def test_failed_delete_restores_exact_state(self, monkeypatch):
        sched = AlignedReservationScheduler()
        jobs = [Job(f"d{i}", Window(0, 64)) for i in range(6)]
        for job in jobs:
            sched.insert(job)
        before = scheduler_state(sched)

        def boom(slot, level):
            raise UnderallocationError("injected delete-path failure")

        monkeypatch.setattr(sched, "_notify_raised", boom)
        with pytest.raises(UnderallocationError):
            sched.delete(jobs[2].id)
        monkeypatch.undo()
        assert sched.poisoned
        assert scheduler_state(sched) == before
        assert jobs[2].id in sched.jobs  # the delete did not half-apply
        validate_scheduler(sched, check_lemma8=False)

    def test_poisoned_scheduler_rejects_further_requests(self):
        sched = AlignedReservationScheduler()
        self.overfill(sched, Window(0, 64))
        with pytest.raises(UnderallocationError):
            sched.insert(Job("after", Window(64, 128)))


# ----------------------------------------------------------------------
# Bugfix 3: run_comparison forwards validate_each
# ----------------------------------------------------------------------
class TestRunComparisonValidateEach:
    def test_validator_called_for_every_scheduler_and_request(self):
        seq = small_sequence(30)
        calls = []
        results = run_comparison(
            {"a": AlignedReservationScheduler,
             "b": AlignedReservationScheduler},
            seq,
            validate_each=calls.append,
        )
        assert len(calls) == 2 * len(seq)
        # two distinct scheduler instances; ``calls`` keeps both alive,
        # since a dead object's id() may be reused by the next one
        assert len({id(sched) for sched in calls}) == 2
        assert all(not r.failed for r in results.values())


# ----------------------------------------------------------------------
# Sparse cost accounting equals the full-snapshot diff
# ----------------------------------------------------------------------
class TestSparseCosting:
    def test_ledger_matches_dense_reference(self):
        seq = small_sequence(150, seed=3)
        sched = AlignedReservationScheduler()
        for request in seq:
            got, want = snapshot_costed(sched, request)
            assert got == want, request
        assert len(sched.ledger) == len(seq)

    def test_theorem1_stack_matches_dense_reference(self):
        seq = small_sequence(150, seed=4)
        sched = ReservationScheduler(2, gamma=8)
        for request in seq:
            got, want = snapshot_costed(sched, request)
            assert got == want, request
        assert sched.ledger.total_migrations > 0  # migrations were costed


# ----------------------------------------------------------------------
# Incremental verifier
# ----------------------------------------------------------------------
class TestIncrementalVerifier:
    def test_clean_run_passes_and_audits(self):
        seq = small_sequence(200, seed=5)
        result = run_sequence(
            AlignedReservationScheduler(), seq,
            verify_each=True, verify_mode="incremental", full_audit_every=50,
        )
        assert not result.failed

    def test_detects_out_of_window_placement(self):
        sched = AlignedReservationScheduler()
        verifier = IncrementalVerifier(1)
        cost = sched.insert(Job("ok", Window(0, 32)))
        verifier.observe(sched, cost)
        # corrupt: teleport the job outside its window
        slot = sched.job_slot["ok"]
        sched._placements["ok"] = Placement(0, slot + 64)
        with pytest.raises(ValidationError):
            verifier.full_audit(sched)

    def test_detects_unreported_move_at_full_audit(self):
        sched = AlignedReservationScheduler()
        verifier = IncrementalVerifier(1)
        for i in range(4):
            cost = sched.insert(Job(f"j{i}", Window(0, 32)))
            verifier.observe(sched, cost)
        # move a job without reporting it in any cost: mirror diverges
        sched._placements["j0"] = Placement(0, 30)
        with pytest.raises(ValidationError, match="without being reported"):
            verifier.full_audit(sched)

    def test_detects_double_booking(self):
        sched = AlignedReservationScheduler()
        verifier = IncrementalVerifier(1)
        c1 = sched.insert(Job("a", Window(0, 32)))
        verifier.observe(sched, c1)
        c2 = sched.insert(Job("b", Window(0, 32)))
        # corrupt b onto a's slot, then report b's change
        sched._placements["b"] = sched._placements["a"]
        with pytest.raises(ValidationError, match="double-booked"):
            verifier.observe(sched, c2)


# ----------------------------------------------------------------------
# Engine + scenarios
# ----------------------------------------------------------------------
class TestEngine:
    def test_phase_split_and_checkpoints(self):
        seq = steady_state_sequence(requests=600, horizon=1 << 12,
                                    max_span=1 << 10, target_active=60, seed=1)
        seen = []
        result = run_engine(
            AlignedReservationScheduler(), seq,
            verify="incremental", checkpoint_every=200,
            on_checkpoint=seen.append,
            validator=lambda s: validate_scheduler(s, check_lemma8=False),
            validate_every=100,
        )
        assert not result.failed
        assert result.requests_processed == len(seq)
        assert len(result.checkpoints) == len(seen) == 3
        assert result.scheduler_time_s > 0
        assert result.verify_time_s > 0
        assert result.validate_time_s > 0
        assert result.wall_time_s >= (result.scheduler_time_s
                                      + result.verify_time_s
                                      + result.validate_time_s)
        assert result.requests_per_second > 0

    def test_sweep_runs_all_cells(self):
        scenarios = {
            "storm": churn_storm_sequence(requests=300, horizon=1 << 12,
                                          max_span=1 << 10, seed=2),
            "mix": adversarial_span_mix_sequence(requests=300,
                                                 horizon=1 << 12, seed=2),
        }
        results = run_sweep(
            scenarios,
            {"reservation": lambda: ReservationScheduler(1, gamma=8)},
        )
        assert set(results) == {("storm", "reservation"),
                                ("mix", "reservation")}
        assert all(not r.failed for r in results.values())

    def test_scenario_registry_builds_all(self):
        for name, builder in SCENARIOS.items():
            seq = builder(200, 0, 1)
            assert len(seq) == 200, name


# ----------------------------------------------------------------------
# Observation 7 guard: memoized target == fresh recomputation, always
# ----------------------------------------------------------------------
@st.composite
def churn_ops(draw):
    """A random interleaving of inserts and deletes over aligned windows."""
    ops = []
    alive = []
    n = draw(st.integers(min_value=10, max_value=60))
    uid = 0
    for _ in range(n):
        if alive and draw(st.booleans()):
            ops.append(("delete", alive.pop(draw(
                st.integers(min_value=0, max_value=len(alive) - 1)))))
        else:
            exp = draw(st.integers(min_value=0, max_value=9))
            span = 1 << exp
            start = draw(st.integers(min_value=0,
                                     max_value=(1 << 10) // span - 1)) * span
            ops.append(("insert", f"h{uid}", Window(start, start + span)))
            alive.append(f"h{uid}")
            uid += 1
    return ops


class TestHistoryIndependenceGuard:
    @settings(max_examples=30, deadline=None)
    @given(churn_ops())
    def test_cached_target_always_equals_fresh_recompute(self, ops):
        sched = AlignedReservationScheduler()
        for op in ops:
            try:
                if op[0] == "insert":
                    sched.insert(Job(op[1], op[2]))
                else:
                    sched.delete(op[1])
            except (UnderallocationError, InfeasibleError):
                break  # random churn may exhaust slack or be infeasible
            for table in sched.intervals.values():
                for iv in table.values():
                    assert iv.target_fulfilled() == iv.compute_target_fresh()
        if not sched.poisoned:
            validate_scheduler(sched, check_lemma8=False)
