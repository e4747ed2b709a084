"""Tests for the simulation harness, metrics, and scenario workloads."""

import pytest

from repro.baselines import EDFRebuildScheduler, NaivePeckingScheduler
from repro.core.api import ReservationScheduler
from repro.feasibility import check_feasible
from repro.reservation import AlignedReservationScheduler
from repro.sim import (
    ExecutionPlan,
    Session,
    doubling_series,
    experiment_header,
    fit_growth,
    format_series,
    format_table,
    sparkline,
    summarize_series,
)
from repro.workloads import (
    AlignedWorkloadConfig,
    appointment_book_sequence,
    cluster_trace_sequence,
    random_aligned_sequence,
    saturated_aligned_jobs,
)


class TestDriver:
    def seq(self):
        cfg = AlignedWorkloadConfig(num_requests=60, horizon=256, max_span=128,
                                    gamma=8, delete_fraction=0.3)
        return random_aligned_sequence(cfg, seed=1)

    def test_run_sequence_basic(self):
        result = Session(AlignedReservationScheduler(), self.seq(),
                         ExecutionPlan()).run()
        assert result.requests_processed == 60
        assert not result.failed
        assert result.summary["requests"] == 60

    def test_run_sequence_validator_hook(self):
        from repro.reservation import validate_scheduler
        calls = []

        def validator(s):
            validate_scheduler(s)
            calls.append(1)

        Session(AlignedReservationScheduler(), self.seq(),
                ExecutionPlan(validator=validator, stop_on_error=True)).run()
        assert len(calls) == 60

    def test_graceful_failure_mode(self):
        seq = self.seq()
        # A poisoned-by-design run: 1-slot window inserted twice.
        from repro.core.requests import RequestSequence
        bad = RequestSequence()
        bad.insert("a", 0, 1)
        bad.insert("b", 0, 1)
        result = Session(AlignedReservationScheduler(), bad,
                         ExecutionPlan()).run()
        assert result.failed
        assert result.requests_processed == 1
        assert "Infeasible" in result.failure

    def test_stop_on_error_raises(self):
        from repro.core.requests import RequestSequence
        from repro.core import InfeasibleError
        bad = RequestSequence()
        bad.insert("a", 0, 1)
        bad.insert("b", 0, 1)
        with pytest.raises(InfeasibleError):
            Session(AlignedReservationScheduler(), bad,
                    ExecutionPlan(stop_on_error=True)).run()

    def test_run_comparison(self):
        seq = self.seq()
        results = {
            name: Session(sched, seq, ExecutionPlan(name=name)).run()
            for name, sched in (("reservation", AlignedReservationScheduler()),
                                ("edf", EDFRebuildScheduler(1)),
                                ("naive", NaivePeckingScheduler()))}
        for name, r in results.items():
            assert r.name == name and not r.failed
            assert r.requests_processed == 60


class TestMetrics:
    def test_fit_constant(self):
        xs = [10, 100, 1000, 10000]
        assert fit_growth(xs, [3, 3, 3, 3]).best == "constant"

    def test_fit_log(self):
        xs = [2 ** i for i in range(2, 12)]
        ys = [i for i in range(2, 12)]
        assert fit_growth(xs, ys).best in ("log", "logstar")
        # pure log data fits log far better than linear
        fit = fit_growth(xs, ys)
        assert fit.residuals["log"] < fit.residuals["linear"]

    def test_fit_linear(self):
        xs = list(range(1, 40))
        ys = [3 * x + 1 for x in xs]
        assert fit_growth(xs, ys).best == "linear"

    def test_fit_quadratic(self):
        xs = list(range(1, 40))
        ys = [x * x for x in xs]
        assert fit_growth(xs, ys).best == "quadratic"

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_growth([1, 2], [1, 2])

    def test_doubling_series(self):
        assert doubling_series(4, 64) == [4, 8, 16, 32, 64]
        with pytest.raises(ValueError):
            doubling_series(0, 4)

    def test_summarize_series(self):
        out = summarize_series([1, 2, 4, 8, 16], [5, 5, 5, 5, 5])
        assert out["best_shape"] == "constant"
        assert out["growth_factor"] == 1.0


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, "x"]], title="T")
        assert "T" in text and "a" in text and "2.500" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("n", [1, 2], {"edf": [10, 20], "res": [1, 1]})
        assert "edf" in text and "res" in text

    def test_sparkline(self):
        text = sparkline([1, 2, 4])
        assert text.count("|") == 3
        assert sparkline([]) == "(empty)"

    def test_experiment_header(self):
        text = experiment_header("E1", "Theorem 1")
        assert "E1" in text and "Theorem 1" in text


class TestScenarioWorkloads:
    def test_appointments_valid_and_feasible(self):
        seq = appointment_book_sequence(requests=150, seed=0)
        assert len(seq) == 150
        # every prefix is feasible on one machine
        for i in (50, 100, 150):
            jobs = seq.active_after(i)
            assert check_feasible(jobs, 1)

    def test_appointments_run_on_theorem1_scheduler(self):
        seq = appointment_book_sequence(requests=200, seed=3)
        sched = ReservationScheduler(num_machines=1, gamma=8)
        result = Session(sched, seq, ExecutionPlan()).run()
        assert not result.failed
        assert result.ledger.max_migration == 0

    def test_cluster_trace_multi_machine(self):
        seq = cluster_trace_sequence(num_machines=4, requests=200, seed=1)
        sched = ReservationScheduler(num_machines=4, gamma=8)
        result = Session(sched, seq, ExecutionPlan()).run()
        assert not result.failed
        assert result.ledger.max_migration <= 1

    def test_deterministic(self):
        a = appointment_book_sequence(requests=80, seed=5).to_json()
        b = appointment_book_sequence(requests=80, seed=5).to_json()
        assert a == b

    def test_saturated_generator(self):
        seq = saturated_aligned_jobs(1, 8, 256, seed=0)
        jobs = seq.final_active_jobs
        assert len(jobs) >= 256 // 8 // 2  # at least half the budget used
        assert check_feasible(jobs, 1)
