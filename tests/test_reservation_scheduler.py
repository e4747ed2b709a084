"""Integration tests for the aligned single-machine reservation scheduler.

Every scenario validates the complete internal state (all paper
invariants) after every request, plus schedule feasibility.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    EventTracer,
    InfeasibleError,
    Job,
    UnderallocationError,
    Window,
    verify_schedule,
)
from repro.core.api import TrimmedReservationScheduler
from repro.core.window import aligned_ladder
from repro.levels import PAPER_POLICY
from repro.reservation import AlignedReservationScheduler, validate_scheduler
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence

from test_reservation_units import oracle_interval


def checked(sched):
    """Validate everything after an operation."""
    validate_scheduler(sched)
    verify_schedule(sched.jobs, sched.placements, 1)


def apply_all(sched, seq, *, check_each=True):
    for req in seq:
        sched.apply(req)
        if check_each:
            checked(sched)


class TestBaseLevelOnly:
    """Spans <= 32: the naive pecking-order base case."""

    def test_single_job(self):
        s = AlignedReservationScheduler()
        s.insert(Job("a", Window(0, 4)))
        checked(s)
        assert s.level_of("a") == 0
        assert s.placements["a"].slot in Window(0, 4)

    def test_fill_window_exactly(self):
        s = AlignedReservationScheduler()
        for i in range(4):
            s.insert(Job(i, Window(0, 4)))
            checked(s)
        slots = {s.placements[i].slot for i in range(4)}
        assert slots == {0, 1, 2, 3}

    def test_overfull_window_infeasible(self):
        s = AlignedReservationScheduler()
        for i in range(4):
            s.insert(Job(i, Window(0, 4)))
        with pytest.raises(InfeasibleError):
            s.insert(Job("x", Window(0, 4)))
        assert s.poisoned

    def test_nested_displacement_cascade(self):
        # A span-1 job forces a cascade through span-2 and span-4 jobs.
        s = AlignedReservationScheduler()
        s.insert(Job("w4a", Window(0, 4)))
        s.insert(Job("w4b", Window(0, 4)))
        s.insert(Job("w2a", Window(0, 2)))
        checked(s)
        # [0,2) is now fully held by level-0 jobs (w2a plus one span-4 job).
        cost = s.insert(Job("w1", Window(0, 1)))
        checked(s)
        assert s.placements["w1"].slot == 0
        # Cascade: w1 evicts the slot-0 job, which evicts a span-4 job.
        assert 1 <= cost.reallocation_cost <= 2

    def test_overnested_detected_infeasible(self):
        # w1 in [0,1) plus two jobs in [0,2) = 3 jobs nested in 2 slots.
        s = AlignedReservationScheduler()
        s.insert(Job("w2a", Window(0, 2)))
        s.insert(Job("w2b", Window(0, 2)))
        with pytest.raises(InfeasibleError):
            s.insert(Job("w1", Window(0, 1)))

    def test_delete_and_reuse(self):
        s = AlignedReservationScheduler()
        for i in range(4):
            s.insert(Job(i, Window(0, 4)))
        s.delete(2)
        checked(s)
        s.insert(Job("new", Window(0, 4)))
        checked(s)
        assert len(s.jobs) == 4

    def test_deterministic(self):
        def build():
            s = AlignedReservationScheduler()
            for i in range(8):
                s.insert(Job(i, Window(0, 16)))
            s.delete(3)
            s.insert(Job("z", Window(8, 16)))
            return dict(s.placements)
        assert build() == build()


class TestLevelOneReservations:
    """Spans 64..256: one reservation level."""

    def test_single_level1_job(self):
        s = AlignedReservationScheduler()
        s.insert(Job("a", Window(0, 64)))
        checked(s)
        assert s.level_of("a") == 1
        # Its window has 2 intervals materialized with assignments.
        assert len(s.intervals[1]) >= 1

    def test_many_jobs_same_window(self):
        s = AlignedReservationScheduler()
        # gamma=8 budget for span 64 on 1 machine: 8 jobs.
        for i in range(8):
            s.insert(Job(i, Window(0, 64)))
            checked(s)
        for i in range(0, 8, 2):
            s.delete(i)
            checked(s)
        for i in range(20, 24):
            s.insert(Job(i, Window(0, 64)))
            checked(s)

    def test_mixed_windows_level1(self):
        s = AlignedReservationScheduler()
        jobs = [
            Job("a64", Window(0, 64)), Job("b64", Window(64, 128)),
            Job("c128", Window(0, 128)), Job("d256", Window(0, 256)),
            Job("e64", Window(128, 192)),
        ]
        for j in jobs:
            s.insert(j)
            checked(s)
        for j in jobs:
            s.delete(j.id)
            checked(s)
        assert not s.jobs

    def test_base_jobs_displace_level1(self):
        s = AlignedReservationScheduler()
        s.insert(Job("big", Window(0, 64)))
        checked(s)
        big_slot = s.placements["big"].slot
        # Fill the aligned span-4 window around big's slot with base jobs;
        # one of them lands on big's slot, displacing it.
        base = (big_slot // 4) * 4
        for i in range(4):
            s.insert(Job(f"small{i}", Window(base, base + 4)))
            checked(s)
        assert s.placements["big"].slot != big_slot
        small_slots = {s.placements[f"small{i}"].slot for i in range(4)}
        assert small_slots == set(range(base, base + 4))

    def test_reservation_contention_moves_are_bounded(self):
        # Two span-64 windows sharing a 256 window, filled to the gamma=8
        # density budget; per-request costs must stay tiny.
        s = AlignedReservationScheduler()
        max_cost = 0
        jid = 0
        for w in (Window(0, 64), Window(64, 128), Window(0, 256)):
            budget = w.span // 8 - (4 if w.span == 256 else 0)
            for _ in range(max(budget, 1)):
                cost = s.insert(Job(jid, w))
                checked(s)
                max_cost = max(max_cost, cost.reallocation_cost)
                jid += 1
        assert max_cost <= 4


class TestLevelTwo:
    def test_level2_job(self):
        s = AlignedReservationScheduler()
        s.insert(Job("huge", Window(0, 1024)))
        checked(s)
        assert s.level_of("huge") == 2

    def test_three_level_stack(self):
        s = AlignedReservationScheduler()
        s.insert(Job("l2", Window(0, 512)))
        s.insert(Job("l1", Window(0, 64)))
        s.insert(Job("l0", Window(0, 8)))
        checked(s)
        assert s.active_levels() == {0: 1, 1: 1, 2: 1}
        # Cross-level displacement: fill the base window where l1/l2 sit
        # (7 more span-8 jobs join l0, saturating [0, 8)).
        for i in range(7):
            s.insert(Job(f"b{i}", Window(0, 8)))
            checked(s)

    def test_cascading_displacement_cost_bounded(self):
        s = AlignedReservationScheduler()
        s.insert(Job("l2", Window(0, 512)))
        s.insert(Job("l1", Window(0, 64)))
        costs = []
        for i in range(7):
            c = s.insert(Job(f"l0_{i}", Window(0, 8)))
            checked(s)
            costs.append(c.reallocation_cost)
        # Each insert displaces at most one job per level above.
        assert max(costs) <= 2 * PAPER_POLICY.num_reservation_levels + 2


class TestInputValidation:
    def test_rejects_unaligned(self):
        s = AlignedReservationScheduler()
        from repro.core import InvalidRequestError
        with pytest.raises(InvalidRequestError):
            s.insert(Job("a", Window(1, 3)))

    def test_rejects_sized(self):
        s = AlignedReservationScheduler()
        from repro.core import InvalidRequestError
        with pytest.raises(InvalidRequestError):
            s.insert(Job("a", Window(0, 4), size=2))

    def test_poisoned_refuses_work(self):
        s = AlignedReservationScheduler()
        for i in range(4):
            s.insert(Job(i, Window(0, 4)))
        with pytest.raises(InfeasibleError):
            s.insert(Job("x", Window(0, 4)))
        with pytest.raises(UnderallocationError):
            s.insert(Job("y", Window(0, 4)))


class TestRandomizedChurn:
    """Random gamma-underallocated churn with full validation."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_small_horizon_churn(self, seed):
        cfg = AlignedWorkloadConfig(
            num_requests=120, gamma=8, horizon=256, max_span=256,
            delete_fraction=0.35,
        )
        seq = random_aligned_sequence(cfg, seed=seed)
        s = AlignedReservationScheduler()
        apply_all(s, seq)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_two_level_churn(self, seed):
        cfg = AlignedWorkloadConfig(
            num_requests=150, gamma=8, horizon=2048, max_span=2048,
            delete_fraction=0.4,
        )
        seq = random_aligned_sequence(cfg, seed=seed)
        s = AlignedReservationScheduler()
        apply_all(s, seq)

    def test_insert_only_saturation(self):
        cfg = AlignedWorkloadConfig(
            num_requests=100, gamma=8, horizon=512, max_span=512,
            delete_fraction=0.0,
        )
        seq = random_aligned_sequence(cfg, seed=11)
        s = AlignedReservationScheduler()
        apply_all(s, seq)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hypothesis_seeds(self, seed):
        cfg = AlignedWorkloadConfig(
            num_requests=60, gamma=8, horizon=512, max_span=256,
            delete_fraction=0.3,
        )
        seq = random_aligned_sequence(cfg, seed=seed)
        s = AlignedReservationScheduler()
        apply_all(s, seq)


class TestCostProperties:
    def test_costs_stay_constant_ish(self):
        """The log* bound at this scale means every request costs O(1)."""
        cfg = AlignedWorkloadConfig(
            num_requests=400, gamma=8, horizon=4096, max_span=4096,
            delete_fraction=0.35,
        )
        seq = random_aligned_sequence(cfg, seed=5)
        s = AlignedReservationScheduler()
        apply_all(s, seq, check_each=False)
        checked(s)
        # 2 levels above base: each request moves O(1) jobs per level.
        assert s.ledger.max_reallocation <= 12
        assert s.ledger.mean_reallocation < 2.0

    def test_no_migrations_single_machine(self):
        cfg = AlignedWorkloadConfig(num_requests=100, horizon=256, max_span=256)
        seq = random_aligned_sequence(cfg, seed=3)
        s = AlignedReservationScheduler()
        apply_all(s, seq, check_each=False)
        assert s.ledger.total_migrations == 0


class TestEventTracing:
    def test_tracer_sees_places(self):
        tracer = EventTracer()
        s = AlignedReservationScheduler(tracer=tracer)
        s.insert(Job("a", Window(0, 64)))
        s.insert(Job("b", Window(0, 4)))
        s.delete("a")
        actions = set(tracer.breakdown())
        assert "place" in actions or "base-place" in actions
        assert "reserve" in actions
        assert "delete" in actions


class TestHistoryIndependence:
    """Observation 7: fulfilled reservation sets are history independent."""

    def fulfilled_map(self, sched):
        out = {}
        for level, table in sched.intervals.items():
            for idx, iv in table.items():
                t = {w: c for w, c in iv.target_fulfilled().items() if c}
                out[(level, idx)] = t
        return out

    def test_same_active_set_same_fulfillment(self):
        jobs = [Job(i, Window(0, 64)) for i in range(4)] + \
               [Job(10 + i, Window(64, 128)) for i in range(4)]
        s1 = AlignedReservationScheduler()
        for j in jobs:
            s1.insert(j)
        s2 = AlignedReservationScheduler()
        # Different history: insert extras then remove them, reverse order.
        extras = [Job(f"x{i}", Window(128, 192)) for i in range(3)]
        for j in extras:
            s2.insert(j)
        for j in reversed(jobs):
            s2.insert(j)
        for j in extras:
            s2.delete(j.id)
        f1, f2 = self.fulfilled_map(s1), self.fulfilled_map(s2)
        shared = set(f1) & set(f2)
        assert shared
        for key in shared:
            assert f1[key] == f2[key]


@pytest.mark.parametrize("stack", ["trimmed", "deamortized"])
def test_materializations_match_oracle_and_see_no_published_window(
        stack, monkeypatch):
    """Every interval a run materializes equals the slot-by-slot oracle
    built from the live occupancy, and no published window state covers
    it yet — so skipping the ladder-cache seeding and the assignment
    hooks loses nothing."""
    materialize = AlignedReservationScheduler._materialize_interval
    seen = []

    def checked_materialize(self, level, index):
        span = PAPER_POLICY.interval_span(level)
        ladder = aligned_ladder(index * span, self._enc_spans[level])
        states = self.window_states[level]
        assert not any(w in states for w in ladder), (level, index)
        oracle = oracle_interval(level, index, dict(self.slot_job),
                                 dict(self._job_levels))
        iv = materialize(self, level, index)
        assert {k: v for k, v in vars(iv).items() if k != "_windows"} == {
            k: v for k, v in vars(oracle).items() if k != "_windows"}
        seen.append(level)
        return iv

    monkeypatch.setattr(AlignedReservationScheduler, "_materialize_interval",
                        checked_materialize)
    if stack == "trimmed":
        sched = TrimmedReservationScheduler(gamma=8)
        gamma = 8
    else:
        sched = DeamortizedReservationScheduler()
        gamma = 16
    cfg = AlignedWorkloadConfig(
        num_requests=600, gamma=gamma, horizon=1 << 11, max_span=1 << 11,
        min_span=2, delete_fraction=0.35)
    for req in random_aligned_sequence(cfg, seed=5):
        sched.apply(req)
    assert set(seen) == {1, 2}
