"""Tests for the n*-trimming / rebuild wrapper (Section 4, end)."""

import pytest

from repro.core import Job, Window, verify_schedule
from repro.core.api import TrimmedReservationScheduler
from repro.reservation import validate_scheduler
from repro.reservation.trimming import trim_aligned
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


class TestTrimAligned:
    def test_noop_below_bound(self):
        assert trim_aligned(Window(0, 16), 64) == Window(0, 16)

    def test_trims_to_power_of_two_prefix(self):
        assert trim_aligned(Window(0, 64), 16) == Window(0, 16)
        assert trim_aligned(Window(64, 128), 16) == Window(64, 80)

    def test_trim_bound_not_power_of_two(self):
        # bound 48 -> largest power of two <= 48 is 32
        assert trim_aligned(Window(0, 64), 48) == Window(0, 32)

    def test_result_always_aligned_and_nested(self):
        for span_log in range(0, 10):
            for bound in (1, 3, 7, 8, 50, 100):
                w = Window(0, 1 << span_log)
                t = trim_aligned(w, bound)
                assert t.is_aligned
                assert w.contains_window(t)
                assert t.span <= bound

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError):
            trim_aligned(Window(1, 3), 4)


class TestTrimmedScheduler:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            TrimmedReservationScheduler(gamma=3)

    def test_large_window_gets_trimmed(self):
        s = TrimmedReservationScheduler(gamma=8)
        # trim bound = 2 * 8 * 4 = 64
        assert s.trim_span == 64
        s.insert(Job("big", Window(0, 1 << 12)))
        inner_job = s.inner.jobs["big"]
        assert inner_job.window.span <= 64
        # placement is valid for the ORIGINAL window too
        verify_schedule(s.jobs, s.placements, 1)

    def test_doubling_rebuild(self):
        s = TrimmedReservationScheduler(gamma=8)
        for i in range(20):
            s.insert(Job(i, Window(0, 1 << 10)))
            verify_schedule(s.jobs, s.placements, 1)
            validate_scheduler(s.inner)
        # n* doubled at least twice: 4 -> 8 -> 16 -> 32
        assert s.n_star >= 32
        assert s.rebuilds >= 2

    def test_halving_rebuild(self):
        s = TrimmedReservationScheduler(gamma=8)
        for i in range(40):
            s.insert(Job(i, Window(0, 1 << 10)))
        big_n_star = s.n_star
        for i in range(38):
            s.delete(i)
            verify_schedule(s.jobs, s.placements, 1)
        assert s.n_star < big_n_star

    def test_amortized_cost_constant(self):
        s = TrimmedReservationScheduler(gamma=8)
        cfg = AlignedWorkloadConfig(
            num_requests=500, gamma=16, horizon=1 << 12, max_span=1 << 12,
            delete_fraction=0.4,
        )
        # gamma=16 workload gives headroom over the scheduler's gamma=8
        # trimming (trimming can only consume slack).
        seq = random_aligned_sequence(cfg, seed=2)
        for req in seq:
            s.apply(req)
        verify_schedule(s.jobs, s.placements, 1)
        validate_scheduler(s.inner)
        # Amortized reallocations stay constant despite rebuilds.
        assert s.ledger.mean_reallocation < 4.0
        assert s.rebuilds >= 1

    def test_rejects_unaligned(self):
        """An unaligned window is aligned, then trimmed: the window the
        reservation scheduler sees is aligned, within the trim bound,
        and nests in the original."""
        s = TrimmedReservationScheduler(gamma=8)
        original = Window(3, 1000)
        s.insert(Job("a", original))
        eff = s.inner.jobs["a"].window
        assert eff.is_aligned and eff.span <= s.trim_span
        assert original.aligned_within().contains_window(eff)
        assert original.contains_window(eff)
        assert s.jobs["a"].window == original
        verify_schedule(s.jobs, s.placements, 1)

    def test_trim_preserves_validity_through_resize(self):
        """Windows are re-trimmed against the new bound at every rebuild."""
        s = TrimmedReservationScheduler(gamma=8)
        jobs = [Job(i, Window((i % 4) * 4096, (i % 4) * 4096 + 4096))
                for i in range(30)]
        for j in jobs:
            s.insert(j)
            verify_schedule(s.jobs, s.placements, 1)
        # After growth, trim bound is generous; all inner windows respect it.
        for job in s.inner.jobs.values():
            assert job.window.span <= s.trim_span
