"""E3 — EDF/LLF brittleness: Omega(n) cascades even with huge slack.

The paper's Section 1/4 motivation: classical greedy policies (EDF,
LLF), recomputed after each request, are *brittle* — one insertion can
move every job, even in massively underallocated instances, because the
greedy order has no memory.

Construction: n jobs share the window [0, 4n) (4-underallocated). EDF
packs them left at slots 0..n-1. Inserting one job with window [0, 1)
re-sorts everything: the intruder takes slot 0 and all n standing jobs
shift — a Theta(n) cascade. The reservation scheduler and the
min-change matcher move O(1) jobs on the same request.

Series: per-insert reallocation cost vs n. EDF/LLF must fit `linear`;
reservation and matching must stay constant.
"""

from __future__ import annotations

from repro.baselines import (
    EDFRebuildScheduler,
    LLFRebuildScheduler,
    MinChangeMatchingScheduler,
)
from repro.core import Job, Window
from repro.core.api import ReservationScheduler
from repro.sim import fit_growth, format_series
from repro.sim.report import experiment_header


def intruder_cost(scheduler, n: int) -> int:
    """Standing jobs with window [0, 4n); one [0,1) intruder; its cost."""
    for i in range(n):
        scheduler.insert(Job(f"standing{i}", Window(0, 4 * n)))
    cost = scheduler.insert(Job("intruder", Window(0, 1)))
    return cost.reallocation_cost


def test_e3_edf_cascades_linearly(benchmark, record_result):
    ns = [8, 16, 32, 64, 128]
    edf_costs = [intruder_cost(EDFRebuildScheduler(1), n) for n in ns]
    llf_costs = [intruder_cost(LLFRebuildScheduler(1), n) for n in ns]
    # trim=False isolates per-request reservation mechanics from the
    # amortized n*-rebuild spikes (which would otherwise land on
    # arbitrary requests; the deamortized variant removes them — E12).
    res_costs = [intruder_cost(ReservationScheduler(1, trim=False), n)
                 for n in ns]
    # matching is O(n^3)/request: keep its sweep short but shaped.
    match_costs = [intruder_cost(MinChangeMatchingScheduler(1), n)
                   for n in ns[:4]]

    table = format_series(
        "n", ns,
        {
            "EDF rebuild": edf_costs,
            "LLF rebuild": llf_costs,
            "reservation": res_costs,
            "min-change (first 4)": match_costs + ["-"] * (len(ns) - 4),
        },
        title=experiment_header(
            "E3", "brittleness: one insert moves Omega(n) jobs under "
            "EDF/LLF, O(1) under reservation"
        ),
    )
    edf_fit = fit_growth(ns, edf_costs)
    res_fit = fit_growth(ns, res_costs)
    table += (f"\nEDF growth fit: {edf_fit.best}; "
              f"reservation growth fit: {res_fit.best}")
    record_result("e3_brittleness", table)

    # EDF/LLF: the full cascade — every standing job moves.
    assert edf_costs == ns
    assert llf_costs == ns
    assert edf_fit.best == "linear"
    # Reservation and matching: constant.
    assert max(res_costs) <= 4
    assert res_fit.best in ("constant", "logstar")
    assert max(match_costs) <= 1

    benchmark.pedantic(lambda: intruder_cost(EDFRebuildScheduler(1), 64),
                       rounds=1, iterations=1)


def test_e3_churn_mean_costs(benchmark, record_result):
    """Mean per-request cost on random churn: EDF pays a constant
    fraction of n per request; reservation pays a constant."""
    from repro.sim import ExecutionPlan, Session
    from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence

    cfg = AlignedWorkloadConfig(
        num_requests=300, gamma=8, horizon=1 << 10, max_span=1 << 10,
        delete_fraction=0.35,
    )
    seq = random_aligned_sequence(cfg, seed=12)

    def compare():
        return {label: Session(sched, seq, ExecutionPlan(
                    verify="off", stop_on_error=True, name=label)).run()
                for label, sched in (
                    ("reservation", ReservationScheduler(1, gamma=8)),
                    ("EDF rebuild", EDFRebuildScheduler(1)),
                    ("LLF rebuild", LLFRebuildScheduler(1)))}

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = [[name, r.ledger.max_reallocation,
             round(r.ledger.mean_reallocation, 3),
             r.ledger.total_reallocations]
            for name, r in results.items()]
    from repro.sim import format_table
    table = format_table(
        ["scheduler", "max/req", "mean/req", "total"],
        rows,
        title=experiment_header("E3b", "random churn, same sequence"),
    )
    record_result("e3b_churn_comparison", table)
    res = results["reservation"].ledger
    edf = results["EDF rebuild"].ledger
    assert res.mean_reallocation < edf.mean_reallocation
