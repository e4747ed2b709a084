"""Tests for the deamortized even/odd-slot rebuild scheduler."""

import pytest

from repro.core import InvalidRequestError, Job, Window, verify_schedule
from repro.core.api import TrimmedReservationScheduler
from repro.core.requests import DeleteJob, InsertJob
from repro.reservation import DeamortizedReservationScheduler, virtual_window
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


class TestVirtualWindow:
    def test_halves_aligned_windows(self):
        assert virtual_window(Window(0, 8)) == Window(0, 4)
        assert virtual_window(Window(8, 16)) == Window(4, 8)
        assert virtual_window(Window(6, 8)) == Window(3, 4)

    def test_rejects_span_one(self):
        with pytest.raises(InvalidRequestError):
            virtual_window(Window(3, 4))

    def test_rejects_unaligned(self):
        with pytest.raises(InvalidRequestError):
            virtual_window(Window(1, 3))

    def test_real_slot_in_real_window(self):
        # every virtual slot of either parity maps into the real window
        for start_idx in range(8):
            for log_span in range(1, 5):
                span = 1 << log_span
                w = Window(start_idx * span, (start_idx + 1) * span)
                vw = virtual_window(w)
                for q in (0, 1):
                    for v in vw.slots():
                        assert (2 * v + q) in w


class TestDeamortizedScheduler:
    def test_params(self):
        with pytest.raises(ValueError):
            DeamortizedReservationScheduler(gamma=3)

    def test_basic_insert_delete(self):
        s = DeamortizedReservationScheduler(gamma=8)
        s.insert(Job("a", Window(0, 8)))
        s.insert(Job("b", Window(0, 8)))
        verify_schedule(s.jobs, s.placements, 1)
        slots = {pl.slot for pl in s.placements.values()}
        assert len(slots) == 2
        s.delete("a")
        verify_schedule(s.jobs, s.placements, 1)

    def test_parities_partition(self):
        """During a phase, old jobs sit on one parity, new on the other."""
        s = DeamortizedReservationScheduler(gamma=8)
        for i in range(12):
            s.insert(Job(i, Window(0, 1 << 12)))
            verify_schedule(s.jobs, s.placements, 1)
        # some phase happened (n* doubled beyond 4)
        assert s.phases_started >= 1
        assert s.n_star >= 8

    def test_span_one_rejected(self):
        s = DeamortizedReservationScheduler()
        with pytest.raises(InvalidRequestError):
            s.insert(Job("tiny", Window(5, 6)))

    def test_no_bulk_finishes_under_hysteresis(self):
        s = DeamortizedReservationScheduler(gamma=8)
        cfg = AlignedWorkloadConfig(
            num_requests=600, gamma=32, horizon=1 << 12, max_span=1 << 12,
            min_span=2, delete_fraction=0.4,
        )
        seq = random_aligned_sequence(cfg, seed=3)
        for req in seq:
            s.apply(req)
            verify_schedule(s.jobs, s.placements, 1)
        assert s.bulk_finishes == 0

    def test_worst_case_request_cost_constant(self):
        """The deamortized point: no Theta(n) spikes at n* boundaries."""
        deam = DeamortizedReservationScheduler(gamma=8)
        amort = TrimmedReservationScheduler(gamma=8)
        n = 80
        for i in range(n):
            deam.insert(Job(i, Window(0, 1 << 12)))
            amort.insert(Job(i, Window(0, 1 << 12)))
        # growth phases happened in both
        assert amort.rebuilds >= 2
        # amortized: some request paid a rebuild-size cost
        assert amort.ledger.max_reallocation >= 16
        # deamortized: every request paid O(1) — 2 migrations + O(1)
        # reservation churn on each side.
        assert deam.ledger.max_reallocation <= 8
        verify_schedule(deam.jobs, deam.placements, 1)

    def test_shrink_phase(self):
        s = DeamortizedReservationScheduler(gamma=8)
        for i in range(60):
            s.insert(Job(i, Window(0, 1 << 12)))
        grown = s.n_star
        for i in range(58):
            s.delete(i)
            verify_schedule(s.jobs, s.placements, 1)
        assert s.n_star < grown
        assert s.ledger.max_reallocation <= 8

    def test_mixed_spans_churn(self):
        s = DeamortizedReservationScheduler(gamma=8)
        cfg = AlignedWorkloadConfig(
            num_requests=400, gamma=32, horizon=1 << 11, max_span=1 << 11,
            min_span=2, delete_fraction=0.35,
        )
        seq = random_aligned_sequence(cfg, seed=11)
        for req in seq:
            s.apply(req)
            verify_schedule(s.jobs, s.placements, 1)
        assert s.ledger.max_reallocation <= 10


def _phase_job(i: int) -> Job:
    """Mixed spans, so the drain order depends on span and id."""
    span = 1 << (12 + i % 3)
    return Job(f"j{i:03d}", Window(0, span))


class TestDeamortizedAtomicAbort:
    def test_abort_mid_phase_after_drain_matches_reference(self):
        """An atomic batch that drains part of an open phase and then
        fails restores the pre-batch state, drain order included: the
        jobs the batch migrated are back on the outgoing side, and the
        rest of the phase matches a scheduler that never saw the batch."""
        def build():
            return DeamortizedReservationScheduler(gamma=8)

        prefix = [InsertJob(_phase_job(i)) for i in range(36)]
        prefix += [DeleteJob("j001"), DeleteJob("j004")]
        inside = [InsertJob(_phase_job(i)) for i in range(36, 40)]
        inside += [DeleteJob("j007"), InsertJob(Job("dup", Window(0, 64))),
                   InsertJob(Job("dup", Window(0, 64)))]
        after = [InsertJob(_phase_job(i)) for i in range(40, 90)]
        after += [DeleteJob(f"j{i:03d}")
                  for i in (*range(8, 34, 5), *range(41, 89, 3))]

        sched, reference = build(), build()
        for request in prefix:
            sched.apply(request)
            reference.apply(request)
        assert sched.in_phase, "the batch must open mid-phase"
        pre_outgoing = dict(sched.active.jobs)
        drained_before = len(sched.incoming.jobs)
        assert drained_before > 0, "the phase must have drained already"
        pre_placements = dict(sched.placements)
        pre_ledger = len(sched.ledger)

        result = sched.apply_batch(inside, atomic=True)
        assert result.failed and result.rolled_back
        assert sched.in_phase
        assert sched.active.jobs == pre_outgoing
        assert len(sched.incoming.jobs) == drained_before
        assert dict(sched.placements) == pre_placements
        assert len(sched.ledger) == pre_ledger

        for request in after:
            sched.apply(request)
            reference.apply(request)
        assert sched.phases_started == reference.phases_started >= 2
        assert dict(sched.placements) == dict(reference.placements)
        assert sched.ledger.entries[pre_ledger:] == \
            reference.ledger.entries[pre_ledger:]
        verify_schedule(sched.jobs, sched.placements, 1)
