"""E6 — Observation 13: mixed sizes force Omega(k*n) reallocations.

The size-k pump: k unit jobs with full windows plus one size-k job
hopping across the horizon in k-slot steps. Each hop evicts the unit
jobs in its path; over a sweep every unit job moves, so per-sweep cost
is Omega(k) and the per-request amortized cost grows linearly in k —
the reason the paper restricts its upper bounds to unit jobs.

Substitution note (per DESIGN.md): there is no exact polynomial
scheduler for mixed sizes (the offline problem is NP-hard), so the
measuring scheduler is the deadline-ordered first-fit rebuild, which is
exact on this family.
"""

from __future__ import annotations

from repro.adversaries import SizedLowerBound, sized_pump_sequence
from repro.baselines import SizedGreedyScheduler
from repro.sim import ExecutionPlan, Session, fit_growth, format_series
from repro.sim.report import experiment_header


def pump_cost(k: int, gamma: int = 2, sweeps: int = 3) -> tuple[int, int, int]:
    seq = sized_pump_sequence(k=k, gamma=gamma, sweeps=sweeps)
    sched = SizedGreedyScheduler(1)
    result = Session(sched, seq, ExecutionPlan(stop_on_error=True)).run()
    bound = SizedLowerBound(k, gamma, sweeps).min_total_reallocations
    return len(seq), result.ledger.total_reallocations, bound


def test_e6_cost_linear_in_k(benchmark, record_result):
    ks = [2, 4, 8, 16, 32]
    totals, bounds, per_request = [], [], []
    requests = []
    for k in ks:
        s, total, bound = pump_cost(k)
        requests.append(s)
        totals.append(total)
        bounds.append(bound)
        per_request.append(round(total / s, 2))
    table = format_series(
        "k", ks,
        {
            "total reallocations": totals,
            "Obs 13 bound": bounds,
            "per-request cost": per_request,
            "requests": requests,
        },
        title=experiment_header(
            "E6", "Observation 13: size-k jobs force Omega(k*n) reallocations"
        ),
    )
    fit = fit_growth(ks, per_request)
    table += f"\ngrowth fit of per-request cost vs k: best={fit.best}"
    record_result("e6_sized_lb", table)

    for total, bound in zip(totals, bounds):
        assert total >= bound
    # per-request cost grows linearly with k (the Omega(k) amortized bound)
    assert fit.best == "linear"
    assert per_request[-1] >= 4 * per_request[0]
    benchmark.pedantic(lambda: pump_cost(8), rounds=1, iterations=1)


def test_e6_unit_jobs_immune(benchmark, record_result):
    """Contrast: the same pump with k=1-style unit probes costs O(1)
    per request under the reservation scheduler (Theorem 1 regime)."""
    from repro.core.api import ReservationScheduler
    from repro.core.requests import RequestSequence

    gamma, hops = 8, 48
    horizon = 2 * gamma * 16
    seq = RequestSequence()
    for i in range(16):
        seq.insert(f"u{i}", 0, horizon)
    uid = 0
    seq.insert(f"p{uid}", 0, 16)
    positions = list(range(0, horizon - 16 + 1, 16))
    for h in range(hops):
        pos = positions[(h + 1) % len(positions)]
        seq.delete(f"p{uid}")
        uid += 1
        seq.insert(f"p{uid}", pos, pos + 16)

    def run():
        # trim=False: isolate reservation mechanics from amortized
        # rebuild spikes (see E12 for the deamortization story).
        return Session(ReservationScheduler(1, trim=False), seq,
                       ExecutionPlan(stop_on_error=True)).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "e6b_unit_contrast",
        experiment_header("E6b", "unit-size probe pump is cheap with slack")
        + f"\nmax/request: {result.ledger.max_reallocation}, "
        f"mean: {result.ledger.mean_reallocation:.3f}",
    )
    assert result.ledger.max_reallocation <= 8
