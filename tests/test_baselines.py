"""Tests for the baseline schedulers (EDF, LLF, naive pecking, matching, sized)."""

import pytest
from hypothesis import given, settings, strategies as st

from oracle_stack import snapshot_costed

from repro.core import InfeasibleError, Job, Window, verify_schedule
from repro.core.requests import InsertJob
from repro.baselines import (
    EDFRebuildScheduler,
    LLFRebuildScheduler,
    MinChangeMatchingScheduler,
    NaivePeckingScheduler,
    SizedGreedyScheduler,
    UniformSizedReservationScheduler,
    edf_schedule,
    llf_schedule,
    sized_first_fit,
)
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


def drive(sched, seq, m):
    for req in seq:
        sched.apply(req)
        verify_schedule(sched.jobs, sched.placements, m)


class TestEDF:
    def test_simple(self):
        s = EDFRebuildScheduler(1)
        s.insert(Job("a", Window(0, 2)))
        s.insert(Job("b", Window(0, 2)))
        verify_schedule(s.jobs, s.placements, 1)
        # earliest deadline (both equal) -> id order: a at 0, b at 1
        assert s.placements["a"].slot == 0
        assert s.placements["b"].slot == 1

    def test_infeasible_raises_and_rolls_back(self):
        s = EDFRebuildScheduler(1)
        s.insert(Job("a", Window(0, 1)))
        with pytest.raises(InfeasibleError):
            s.insert(Job("b", Window(0, 1)))
        assert set(s.jobs) == {"a"}

    def test_exactness_matches_checker(self):
        cfg = AlignedWorkloadConfig(num_requests=120, horizon=256,
                                    max_span=128, gamma=2, delete_fraction=0.3)
        seq = random_aligned_sequence(cfg, seed=4)
        s = EDFRebuildScheduler(1)
        drive(s, seq, 1)

    def test_brittleness_cascade(self):
        """A single insert shifts Omega(n) jobs under EDF rebuild."""
        s = EDFRebuildScheduler(1)
        n = 32
        # Jobs j_i with window [i, i+2): EDF packs each at slot i.
        for i in range(n):
            s.insert(Job(f"j{i}", Window(i, i + 2)))
        cost = s.insert(Job("intruder", Window(0, 1)))
        # The intruder takes slot 0, pushing every staircase job right.
        assert cost.reallocation_cost >= n - 1

    def test_multi_machine(self):
        s = EDFRebuildScheduler(3)
        for i in range(9):
            s.insert(Job(i, Window(0, 3)))
        verify_schedule(s.jobs, s.placements, 3)

    def test_empty_schedule(self):
        assert edf_schedule({}, 2) == {}


class TestLLF:
    def test_agrees_with_edf_on_feasibility(self):
        cfg = AlignedWorkloadConfig(num_requests=100, horizon=128,
                                    max_span=64, gamma=2, delete_fraction=0.3)
        seq = random_aligned_sequence(cfg, seed=8)
        s = LLFRebuildScheduler(1)
        drive(s, seq, 1)

    def test_differs_from_edf_in_trace(self):
        jobs = {
            "late": Job("late", Window(2, 8)),
            "early": Job("early", Window(0, 8)),
            "mid": Job("mid", Window(1, 8)),
        }
        e = edf_schedule(jobs, 1)
        l = llf_schedule(jobs, 1)
        verify_schedule(jobs, e, 1)
        verify_schedule(jobs, l, 1)
        # Same feasibility; traces may differ but need not — just check
        # both are complete.
        assert set(e) == set(l) == set(jobs)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            llf_schedule({
                "a": Job("a", Window(0, 1)),
                "b": Job("b", Window(0, 1)),
            }, 1)


class TestNaivePecking:
    def test_basic_cascade(self):
        s = NaivePeckingScheduler()
        s.insert(Job("big", Window(0, 4)))
        s.insert(Job("big2", Window(0, 4)))
        s.insert(Job("small", Window(0, 2)))
        s.insert(Job("small2", Window(0, 2)))
        verify_schedule(s.jobs, s.placements, 1)
        assert {s.placements["small"].slot, s.placements["small2"].slot} == {0, 1}

    def test_cascade_cost_logarithmic(self):
        """Cost <= number of distinct spans on the cascade path (Lemma 4)."""
        s = NaivePeckingScheduler()
        horizon = 1 << 10
        jid = 0
        # One job per span at each scale, all nested at the left edge.
        for log_span in range(10, 0, -1):
            span = 1 << log_span
            for _ in range(span // 4):
                s.insert(Job(jid, Window(0, span)))
                jid += 1
        costs = []
        for i in range(4):
            cost = s.insert(Job(f"probe{i}", Window(0, 1 << (i + 1))))
            costs.append(cost.reallocation_cost)
            verify_schedule(s.jobs, s.placements, 1)
        assert max(costs) <= 11  # log2(horizon) + 1

    def test_delete_is_free(self):
        s = NaivePeckingScheduler()
        s.insert(Job("a", Window(0, 4)))
        s.insert(Job("b", Window(0, 4)))
        cost = s.delete("a")
        assert cost.reallocation_cost == 0

    def test_infeasible_detected(self):
        s = NaivePeckingScheduler()
        s.insert(Job("a", Window(0, 1)))
        with pytest.raises(InfeasibleError):
            s.insert(Job("b", Window(0, 1)))

    def test_rejects_unaligned(self):
        from repro.core import InvalidRequestError
        s = NaivePeckingScheduler()
        with pytest.raises(InvalidRequestError):
            s.insert(Job("a", Window(1, 3)))

    def test_random_aligned_churn(self):
        cfg = AlignedWorkloadConfig(num_requests=150, horizon=512,
                                    max_span=512, gamma=4, delete_fraction=0.35)
        seq = random_aligned_sequence(cfg, seed=6)
        s = NaivePeckingScheduler()
        drive(s, seq, 1)


class TestMinChangeMatching:
    def test_zero_cost_when_room(self):
        s = MinChangeMatchingScheduler(1)
        s.insert(Job("a", Window(0, 4)))
        cost = s.insert(Job("b", Window(0, 4)))
        assert cost.reallocation_cost == 0

    def test_minimal_moves(self):
        s = MinChangeMatchingScheduler(1)
        s.insert(Job("a", Window(0, 2)))
        s.insert(Job("b", Window(1, 3)))
        # c must take slot 0; if a sat at 0 and b at 1 the optimal chain
        # is a->1, b->2 (2 moves); never more.
        cost = s.insert(Job("c", Window(0, 1)))
        assert cost.reallocation_cost <= 2
        verify_schedule(s.jobs, s.placements, 1)

    def test_minimal_moves_with_slack(self):
        s = MinChangeMatchingScheduler(1)
        s.insert(Job("a", Window(0, 4)))
        s.insert(Job("b", Window(0, 4)))
        # With slack, displacing at most the slot-0 occupant suffices.
        cost = s.insert(Job("c", Window(0, 1)))
        assert cost.reallocation_cost <= 1
        verify_schedule(s.jobs, s.placements, 1)

    def test_staircase_intruder_moves_everything(self):
        """Even the optimal scheduler pays Omega(n) on the Lemma 12 pattern."""
        s = MinChangeMatchingScheduler(1)
        n = 10
        for i in range(n):
            s.insert(Job(f"j{i}", Window(i, i + 2)))
        c1 = s.insert(Job("front", Window(0, 1)))
        verify_schedule(s.jobs, s.placements, 1)
        s.delete("front")
        c2 = s.insert(Job("back", Window(n, n + 1)))
        verify_schedule(s.jobs, s.placements, 1)
        # one of the two toggles forces a full shift
        assert max(c1.reallocation_cost, c2.reallocation_cost) >= n - 1

    def test_migration_penalty_prefers_same_machine(self):
        s = MinChangeMatchingScheduler(2)
        for i in range(4):
            s.insert(Job(i, Window(0, 4)))
        cost = s.insert(Job("x", Window(0, 4)))
        assert cost.migration_cost == 0

    def test_infeasible(self):
        s = MinChangeMatchingScheduler(1)
        s.insert(Job("a", Window(0, 1)))
        with pytest.raises(InfeasibleError):
            s.insert(Job("b", Window(0, 1)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_never_beaten_by_reservation_per_request(self, seed):
        """Matching's per-request cost is a local lower bound."""
        cfg = AlignedWorkloadConfig(num_requests=40, horizon=128,
                                    max_span=64, gamma=8, delete_fraction=0.3)
        seq = random_aligned_sequence(cfg, seed=seed)
        s = MinChangeMatchingScheduler(1)
        for req in seq:
            s.apply(req)
            verify_schedule(s.jobs, s.placements, 1)


class TestSizedGreedy:
    def test_mixed_sizes(self):
        s = SizedGreedyScheduler(1)
        s.insert(Job("big", Window(0, 8), size=4))
        s.insert(Job("u1", Window(0, 8)))
        s.insert(Job("u2", Window(0, 8)))
        verify_schedule(s.jobs, s.placements, 1)

    def test_first_fit_order(self):
        placements = sized_first_fit({
            "tight": Job("tight", Window(0, 2), size=2),
            "loose": Job("loose", Window(0, 8)),
        }, 1)
        assert placements["tight"].slot == 0
        assert placements["loose"].slot >= 2

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            sized_first_fit({
                "a": Job("a", Window(0, 2), size=2),
                "b": Job("b", Window(0, 2), size=2),
            }, 1)

    def test_observation13_shape(self):
        """One size-k job toggling across a window of unit jobs."""
        k = 4
        m_horizon = 2 * 2 * k  # 2*gamma*k with gamma=2
        s = SizedGreedyScheduler(1)
        for i in range(k):
            s.insert(Job(f"u{i}", Window(0, m_horizon)))
        s.insert(Job("big", Window(0, k), size=k))
        verify_schedule(s.jobs, s.placements, 1)
        c_del = s.delete("big")
        c_ins = s.insert(Job("big2", Window(k, 2 * k), size=k))
        verify_schedule(s.jobs, s.placements, 1)
        # relocating the big job forces unit jobs out of its way; the
        # cost may land on the delete-rebuild or the insert-rebuild.
        assert c_del.reallocation_cost + c_ins.reallocation_cost >= 1


# ----------------------------------------------------------------------
# sparse costing: every baseline's cost equals the full-snapshot diff
# ----------------------------------------------------------------------
def _sized(seq, size):
    """The same churn with size-``size`` jobs on a ``size``-times finer grid."""
    for request in seq:
        if isinstance(request, InsertJob):
            job = request.job
            window = Window(job.release * size, job.deadline * size)
            yield InsertJob(Job(job.id, window, size=size))
        else:
            yield request


BASELINES = {
    "edf": (lambda: EDFRebuildScheduler(2), 2, 1),
    "llf": (lambda: LLFRebuildScheduler(2), 2, 1),
    "matching": (lambda: MinChangeMatchingScheduler(2), 2, 1),
    "naive-pecking": (NaivePeckingScheduler, 1, 1),
    "sized": (lambda: SizedGreedyScheduler(2), 2, 2),
    "uniform-sized": (lambda: UniformSizedReservationScheduler(4, 2), 2, 4),
}


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_every_baseline_costs_like_a_snapshot_diff(name):
    """Each request's cost, built from the baseline's touched log,
    equals ``diff_placements`` of full before/after snapshots."""
    factory, machines, size = BASELINES[name]
    cfg = AlignedWorkloadConfig(num_requests=150, num_machines=machines,
                                horizon=256, max_span=128, gamma=2,
                                delete_fraction=0.3)
    sched = factory()
    for request in _sized(random_aligned_sequence(cfg, seed=6), size):
        got, want = snapshot_costed(sched, request)
        assert got == want, (name, request)
    assert len(sched.ledger) == 150
    # the slack is tight enough that every baseline moves jobs
    assert sum(cost.reallocation_cost for cost in sched.ledger) > 0
