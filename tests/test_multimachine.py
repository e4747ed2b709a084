"""Tests for Section 3 (delegation) and Section 5 (alignment) layers,
plus the full Theorem 1 facade."""

import pytest

from repro.core import Job, Window, verify_schedule
from repro.core.api import ReservationScheduler
from repro.alignment import align_job, align_jobs
from repro.multimachine import DelegatingScheduler, WindowBalancer
from repro.reservation import AlignedReservationScheduler
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


class TestWindowBalancer:
    def test_round_robin_insert(self):
        b = WindowBalancer(3)
        w = Window(0, 8)
        machines = []
        for i in range(7):
            m = b.choose_insert_machine(w)
            machines.append(m)
            b.record_insert(i, w, m)
        assert machines == [0, 1, 2, 0, 1, 2, 0]
        b.check_balance()

    def test_delete_plans_migration(self):
        b = WindowBalancer(2)
        w = Window(0, 8)
        for i in range(4):
            b.record_insert(i, w, b.choose_insert_machine(w))
        # jobs 0,2 on machine 0; 1,3 on machine 1. Delete job 0:
        machine, mover = b.plan_delete(0)
        assert machine == 0
        assert mover in (1, 3)  # must come from machine 1 (the donor)
        b.record_delete(0)
        b.record_migration(mover, 0)
        b.check_balance()

    def test_delete_from_donor_no_migration(self):
        b = WindowBalancer(2)
        w = Window(0, 8)
        for i in range(3):
            b.record_insert(i, w, b.choose_insert_machine(w))
        # count=3: donor = 2 % 2 = 0; job 2 is on machine 0.
        machine, mover = b.plan_delete(2)
        assert machine == 0 and mover is None

    def test_balance_violation_detected(self):
        b = WindowBalancer(2)
        w = Window(0, 8)
        b.record_insert("a", w, 1)  # wrong machine on purpose
        b.record_insert("b", w, 1)
        with pytest.raises(AssertionError):
            b.check_balance()

    def test_count_per_window_isolated(self):
        b = WindowBalancer(2)
        b.record_insert("a", Window(0, 8), 0)
        assert b.count(Window(8, 16)) == 0
        assert b.count(Window(0, 8)) == 1


class TestDelegatingScheduler:
    def make(self, m=2):
        return DelegatingScheduler(m, lambda: AlignedReservationScheduler())

    def test_spreads_same_window(self):
        s = self.make(2)
        for i in range(6):
            s.insert(Job(i, Window(0, 8)))
        machines = [s.placements[i].machine for i in range(6)]
        assert machines.count(0) == 3 and machines.count(1) == 3
        verify_schedule(s.jobs, s.placements, 2)
        s.check_balance()

    def test_at_most_one_migration_per_request(self):
        s = self.make(3)
        for i in range(12):
            s.insert(Job(i, Window(0, 16)))
        for i in range(10):
            cost = s.delete(i)
            assert cost.migration_cost <= 1
            verify_schedule(s.jobs, s.placements, 3)
            s.check_balance()

    def test_insert_never_migrates(self):
        s = self.make(2)
        for i in range(8):
            cost = s.insert(Job(i, Window(0, 16)))
            assert cost.migration_cost == 0

    def test_capacity_beyond_single_machine(self):
        # 12 jobs in a span-8 window is infeasible on 1 machine but fine on 2.
        s = self.make(2)
        for i in range(12):
            s.insert(Job(i, Window(0, 8)))
        verify_schedule(s.jobs, s.placements, 2)

    def test_rejects_multi_machine_factory(self):
        with pytest.raises(ValueError):
            DelegatingScheduler(2, lambda: DelegatingScheduler(
                2, lambda: AlignedReservationScheduler()))


class TestAlignment:
    def test_align_job(self):
        j = Job("a", Window(1, 8))
        aligned = align_job(j)
        assert aligned.window == Window(4, 8)
        assert aligned.id == "a"

    def test_align_jobs(self):
        jobs = {"a": Job("a", Window(1, 8)), "b": Job("b", Window(0, 4))}
        out = align_jobs(jobs)
        assert out["a"].window.is_aligned and out["b"].window == Window(0, 4)


class TestReservationSchedulerFacade:
    """End-to-end Theorem 1 behaviour."""

    def test_docstring_example(self):
        sched = ReservationScheduler(num_machines=2)
        cost = sched.insert(Job("patient-1", Window(3, 17)))
        assert cost.reallocation_cost == 0
        assert sched.placements["patient-1"].slot in Window(3, 17)

    def test_unaligned_multimachine_churn(self):
        import numpy as np
        rng = np.random.default_rng(0)
        sched = ReservationScheduler(num_machines=2, gamma=8)
        active = []
        horizon = 1 << 12
        for step in range(300):
            if active and rng.random() < 0.35:
                idx = int(rng.integers(len(active)))
                sched.delete(active.pop(idx))
            else:
                span = int(1 << rng.integers(1, 9))
                start = int(rng.integers(0, horizon - span))
                job_id = f"job{step}"
                # generous slack: only insert if well under capacity
                sched.insert(Job(job_id, Window(start, start + span)))
                active.append(job_id)
            verify_schedule(sched.jobs, sched.placements, 2)
            sched.check_balance()
        assert sched.ledger.max_migration <= 1

    def test_costs_bounded_on_underallocated_workload(self):
        cfg = AlignedWorkloadConfig(
            num_requests=400, num_machines=2, gamma=64,
            horizon=1 << 12, max_span=1 << 12, delete_fraction=0.35,
        )
        seq = random_aligned_sequence(cfg, seed=9)
        sched = ReservationScheduler(num_machines=2, gamma=8)
        for req in seq:
            cost = sched.apply(req)
            assert cost.migration_cost <= 1
        verify_schedule(sched.jobs, sched.placements, 2)
        assert sched.ledger.mean_reallocation < 4.0

    def test_no_trim_variant(self):
        sched = ReservationScheduler(num_machines=1, trim=False)
        for i in range(5):
            sched.insert(Job(i, Window(0, 256)))
        verify_schedule(sched.jobs, sched.placements, 1)
