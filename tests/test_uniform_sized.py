"""Tests for the uniform size-k extension (Section 7, question 1)."""

import pytest

from repro.baselines import UniformSizedReservationScheduler
from repro.core import (
    InfeasibleError,
    InvalidRequestError,
    Job,
    UnderallocationError,
    Window,
    verify_schedule,
)


def make(size=4, m=1):
    return UniformSizedReservationScheduler(size, m, gamma=8)


class TestUniformSized:
    def test_params(self):
        with pytest.raises(ValueError):
            UniformSizedReservationScheduler(0)

    def test_basic_placement(self):
        s = make(size=4)
        s.insert(Job("a", Window(0, 64), size=4))
        verify_schedule(s.jobs, s.placements, 1)
        pl = s.placements["a"]
        assert pl.slot % 4 == 0  # aligned-start restriction
        assert 0 <= pl.slot and pl.slot + 4 <= 64

    def test_rejects_wrong_size(self):
        s = make(size=4)
        with pytest.raises(InvalidRequestError):
            s.insert(Job("a", Window(0, 64), size=2))

    def test_too_tight_window(self):
        s = make(size=4)
        # window [3, 6) has span 3 < size... use a span-4 window that
        # straddles a grid boundary: [2, 7) fits a size-4 job at 2 or 3,
        # but no multiple of 4.
        with pytest.raises(UnderallocationError):
            s.insert(Job("a", Window(2, 7), size=4))
        # fresh scheduler (facade may be poisoned after the failure)
        s2 = make(size=4)
        s2.insert(Job("b", Window(2, 12), size=4))  # slot 4 or 8 works
        assert s2.placements["b"].slot in (4, 8)

    def test_many_jobs_no_overlap(self):
        s = make(size=4)
        for i in range(8):
            s.insert(Job(i, Window(0, 256), size=4))
            verify_schedule(s.jobs, s.placements, 1)
        starts = sorted(pl.slot for pl in s.placements.values())
        for a, b in zip(starts, starts[1:]):
            assert b - a >= 4

    def test_churn_costs_bounded(self):
        s = make(size=8)
        horizon = 8 * 1024
        for i in range(24):
            s.insert(Job(i, Window(0, horizon), size=8))
        for i in range(0, 24, 2):
            s.delete(i)
        for i in range(30, 42):
            s.insert(Job(i, Window(1024, horizon), size=8))
        verify_schedule(s.jobs, s.placements, 1)
        # O(log* n) amortized coarse-moves per request (the max includes
        # one n*-rebuild spike from the inner trimming layer).
        assert s.ledger.mean_reallocation <= 3.0
        assert s.ledger.max_reallocation <= len(s.jobs) + 4

    def test_multi_machine_migration_bound(self):
        s = make(size=4, m=2)
        for i in range(16):
            s.insert(Job(i, Window(0, 512), size=4))
        for i in range(12):
            cost = s.delete(i)
            assert cost.migration_cost <= 1
        s.check_balance()
        verify_schedule(s.jobs, s.placements, 2)

    def test_placements_track_the_scaled_inner_map(self):
        """The kept map equals the inner map scaled to real slots after
        every request, each job on its own machine, and an insert the
        inner stack rejects leaves it as it was."""
        s = make(size=4, m=2)

        def scaled():
            return {job_id: (pl.machine, 4 * pl.slot)
                    for job_id, pl in s.inner.placements.items()}

        for i in range(40):
            s.insert(Job(i, Window(0, 1024), size=4))
            if i % 3 == 2:
                s.delete(i - 1)
            assert {j: (pl.machine, pl.slot)
                    for j, pl in s.placements.items()} == scaled()
        assert {pl.machine for pl in s.placements.values()} == {0, 1}
        with pytest.raises(InfeasibleError):
            for k in range(64):
                before = dict(s.placements)
                s.insert(Job(f"x{k}", Window(0, 64), size=4))
        assert dict(s.placements) == before
        assert {j: (pl.machine, pl.slot)
                for j, pl in s.placements.items()} == scaled()

    def test_size_one_degenerates_to_unit(self):
        s = make(size=1)
        s.insert(Job("a", Window(0, 16)))
        verify_schedule(s.jobs, s.placements, 1)

    def test_deterministic(self):
        def build():
            s = make(size=4)
            for i in range(10):
                s.insert(Job(i, Window(0, 256), size=4))
            s.delete(3)
            return dict(s.placements)
        assert build() == build()
