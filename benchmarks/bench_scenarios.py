"""E15 — end-to-end scenario regression: the paper's motivating settings.

Not a theorem — a deployment-shaped regression pin. Runs the
appointment-book and cluster-trace scenarios (the two applications the
paper's introduction motivates) through the Theorem 1 scheduler and the
EDF rebuild baseline, and asserts the qualitative story: the
reservation scheduler's total and per-request reallocations stay far
below EDF's, and its migration guarantee holds. Numbers land in
benchmarks/results/ so behavioural drift across library versions is
visible in review diffs.
"""

from __future__ import annotations

from repro.baselines import EDFRebuildScheduler
from repro.core.api import ReservationScheduler
from repro.sim import ExecutionPlan, Session, format_table
from repro.sim.report import experiment_header
from repro.workloads import appointment_book_sequence, cluster_trace_sequence


def test_e15_appointment_book(benchmark, record_result):
    seq = appointment_book_sequence(requests=400, seed=42)

    def run():
        return {label: Session(sched, seq, ExecutionPlan(
                    stop_on_error=True, name=label)).run()
                for label, sched in (
                    ("reservation", ReservationScheduler(1, gamma=8)),
                    ("edf", EDFRebuildScheduler(1)))}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, r.ledger.total_reallocations,
             round(r.ledger.mean_reallocation, 3),
             r.ledger.percentile_reallocation(99)]
            for name, r in results.items()]
    record_result(
        "e15a_appointments",
        format_table(["scheduler", "total rescheduled", "mean/req", "p99"],
                     rows,
                     title=experiment_header(
                         "E15a", "doctor's office: patients rescheduled")),
    )
    res, edf = results["reservation"].ledger, results["edf"].ledger
    assert res.total_reallocations * 5 <= edf.total_reallocations
    assert res.total_migrations == 0


def test_e15_cluster_trace(benchmark, record_result):
    m = 4
    seq = cluster_trace_sequence(num_machines=m, requests=600, seed=7)

    def run():
        return {label: Session(sched, seq, ExecutionPlan(
                    stop_on_error=True, name=label)).run()
                for label, sched in (
                    ("reservation", ReservationScheduler(m, gamma=8)),
                    ("edf", EDFRebuildScheduler(m)))}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, r.ledger.total_migrations, r.ledger.max_migration,
             round(r.ledger.mean_reallocation, 3)]
            for name, r in results.items()]
    record_result(
        "e15b_cluster",
        format_table(["scheduler", "total migrations", "max migr/req",
                      "mean realloc/req"],
                     rows,
                     title=experiment_header(
                         "E15b", f"cluster trace on m={m} machines")),
    )
    res, edf = results["reservation"].ledger, results["edf"].ledger
    assert res.max_migration <= 1
    assert edf.max_migration > 1  # EDF migrates freely
    assert res.total_migrations < edf.total_migrations
