"""E14 — extension: uniform size-k jobs escape the Observation 13 bound.

Observation 13 forces Omega(k) amortized cost only when sizes *mix*
(a size-k job sliding across unit jobs). With a single uniform size k,
the coarse-grid reduction recovers the unit-job guarantees: O(log* n)
reallocations per request, each moving one size-k job.

Series: per-request reallocation cost vs k for (a) the uniform-size
reservation scheduler on a pure size-k workload — must stay flat — and
(b) the mixed-size pump of E6 — grows linearly. The contrast localizes
the hardness exactly where the paper puts it: size *heterogeneity*,
not size itself.
"""

from __future__ import annotations

from repro.baselines import SizedGreedyScheduler, UniformSizedReservationScheduler
from repro.core import Job, Window
from repro.adversaries import sized_pump_sequence
from repro.sim import ExecutionPlan, Session, fit_growth, format_series
from repro.sim.report import experiment_header


def uniform_churn_cost(k: int) -> float:
    """Mean per-request cost of pure size-k churn on the coarse scheduler."""
    sched = UniformSizedReservationScheduler(k, 1, gamma=8)
    horizon = k * 2048
    for i in range(24):
        sched.insert(Job(i, Window(0, horizon), size=k))
    for rnd in range(3):
        for i in range(rnd * 8, rnd * 8 + 8):
            sched.delete(i)
        for i in range(100 + rnd * 8, 108 + rnd * 8):
            sched.insert(Job(i, Window(0, horizon), size=k))
    return sched.ledger.mean_reallocation


def mixed_pump_cost(k: int) -> float:
    seq = sized_pump_sequence(k=k, gamma=2, sweeps=3)
    result = Session(SizedGreedyScheduler(1), seq,
                     ExecutionPlan(verify="off", stop_on_error=True)).run()
    return result.ledger.total_reallocations / len(seq)


def test_e14_uniform_flat_mixed_linear(benchmark, record_result):
    ks = [2, 4, 8, 16, 32]
    uniform, mixed = [], []

    def sweep():
        for k in ks:
            uniform.append(round(uniform_churn_cost(k), 3))
            mixed.append(round(mixed_pump_cost(k), 3))

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_series(
        "k", ks,
        {
            "uniform size-k mean cost": uniform,
            "mixed {1,k} mean cost (E6)": mixed,
        },
        title=experiment_header(
            "E14", "extension: uniform sizes keep O(log* n) guarantees; "
            "only MIXED sizes pay Omega(k)",
        ),
    )
    u_fit = fit_growth(ks, uniform)
    m_fit = fit_growth(ks, mixed)
    table += f"\nuniform fit: {u_fit.best}; mixed fit: {m_fit.best}"
    record_result("e14_uniform_sized", table)
    assert m_fit.best == "linear"
    assert u_fit.best != "linear" or max(uniform) < 2.0
    assert max(uniform) <= 3.0
    # at k=32 the mixed workload pays >= 3x the uniform one per request
    assert mixed[-1] >= 3 * max(uniform[-1], 0.5)
