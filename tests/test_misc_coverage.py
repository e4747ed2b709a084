"""Edge-case coverage across smaller APIs."""

import pytest

from repro.core import Job, Window
from repro.core.api import TrimmedReservationScheduler
from repro.core.costs import CostLedger, diff_placements
from repro.core.job import Placement
from repro.core.schedule import format_schedule
from repro.levels import PAPER_POLICY
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.reservation.interval import Interval
from repro.sim import (
    ExecutionPlan,
    Session,
    SessionResult,
    sparkline,
    summarize_series,
)
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


class TestFormatSchedule:
    def test_explicit_bounds(self):
        jobs = {"a": Job("a", Window(0, 4))}
        text = format_schedule(jobs, {"a": Placement(0, 2)}, 1, lo=0, hi=8)
        assert "slots [0, 8)" in text
        # 8 cells on the machine row
        row = text.splitlines()[1]
        assert row.startswith("m0:")

    def test_window_outside_bounds_clipped(self):
        jobs = {"a": Job("a", Window(0, 16))}
        text = format_schedule(jobs, {"a": Placement(0, 12)}, 1, lo=0, hi=4)
        assert "a" not in text.splitlines()[1]


class TestLevel2Interval:
    def test_enclosing_windows_level2(self):
        span = PAPER_POLICY.interval_span(2)
        iv = Interval(level=2, index=3, lo=3 * span, hi=4 * span,
                      enclosing_spans=tuple(PAPER_POLICY.enclosing_spans(2)))
        windows = iv.enclosing_windows()
        # Equation 1 budget: at most L_2/4 = 64 enclosing spans.
        assert 1 <= len(windows) <= span // 4
        for w in windows:
            assert w.contains_window(Window(iv.lo, iv.hi))
            assert PAPER_POLICY.level_of_span(w.span) == 2


class TestTrimmedExtras:
    def test_active_levels_passthrough(self):
        s = TrimmedReservationScheduler(gamma=8)
        s.insert(Job("a", Window(0, 64)))
        s.insert(Job("b", Window(0, 8)))
        levels = s.active_levels()
        assert sum(levels.values()) == 2

    def test_poisoned_passthrough(self):
        s = TrimmedReservationScheduler(gamma=8)
        assert not s.poisoned

    def test_effective_window_shrinks(self):
        s = TrimmedReservationScheduler(gamma=8)
        s.insert(Job("wide", Window(0, 1 << 16)))
        eff = s.inner.jobs["wide"].window
        assert eff == Window(0, s.trim_span)  # 2 * 8 * 4 = 64


class TestDeamortizedExtras:
    def test_virtual_trim_span(self):
        s = DeamortizedReservationScheduler(gamma=8)
        assert s.virtual_trim_span == 8 * 4
        assert not s.in_phase

    def test_ledger_counts_migration_ticks(self):
        s = DeamortizedReservationScheduler(gamma=8)
        for i in range(10):
            s.insert(Job(i, Window(0, 1 << 10)))
        # phase ticks moved settled jobs; their moves were ledgered
        assert s.phases_started >= 1
        assert s.ledger.total_reallocations >= 2


class TestReportingEdges:
    def test_sparkline_zero_values(self):
        text = sparkline([0.0, 0.0])
        assert text.count("|") == 2

    def test_summarize_series_growth(self):
        out = summarize_series([1, 2, 4, 8], [1, 2, 4, 8])
        assert out["growth_factor"] == 8.0
        out0 = summarize_series([1, 2, 4, 8], [0, 0, 1, 2])
        assert out0["growth_factor"] == float("inf")

    def test_run_result_failed_summary(self):
        ledger = CostLedger()
        r = SessionResult(
            name="x", scheduler_name="S", backend="sequential",
            requests_processed=3, wall_time_s=0.5, scheduler_time_s=0.4,
            verify_time_s=0.0, validate_time_s=0.0, verify_mode="off",
            ledger=ledger, ledger_summary=ledger.summary(),
            failed=True, failure="Boom: y")
        assert r.summary["FAILED"] == "Boom: y"


class TestLedgerExtras:
    def test_worst_requests_ordering(self):
        ledger = CostLedger()
        for moved in (1, 5, 3):
            before = {f"j{i}": Placement(0, i) for i in range(moved)}
            after = {f"j{i}": Placement(0, i + 100) for i in range(moved)}
            ledger.record(diff_placements(before, after, kind="insert",
                                          subject="s", n_active=1, max_span=2))
        worst = ledger.worst_requests(2)
        assert [w.reallocation_cost for w in worst] == [5, 3]

    def test_percentile_bounds_checked(self):
        ledger = CostLedger()
        ledger.record(diff_placements({}, {}, kind="insert", subject="s",
                                      n_active=1, max_span=1))
        with pytest.raises(ValueError):
            ledger.percentile_reallocation(101)


class TestDriverNames:
    def test_custom_run_name(self):
        cfg = AlignedWorkloadConfig(num_requests=10, horizon=64, max_span=64)
        seq = random_aligned_sequence(cfg, seed=0)
        from repro.reservation import AlignedReservationScheduler
        result = Session(AlignedReservationScheduler(), seq,
                         ExecutionPlan(name="custom")).run()
        assert result.name == "custom"
        assert result.summary["run"] == "custom"
        assert result.summary["scheduler"] == "AlignedReservationScheduler"
