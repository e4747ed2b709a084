"""E5 — Lemma 12: Omega(s^2) total reallocations without underallocation.

The staircase toggle: eta standing jobs with windows [j, j+2), a probe
alternately pinning slot 0 and slot eta. Every toggle flips all eta jobs
between their early and late slots, so total cost grows quadratically in
the sequence length — for *any* scheduler, which we demonstrate on both
EDF and the per-request-optimal matcher.
"""

from __future__ import annotations

from repro.adversaries import ReallocLowerBound, staircase_toggle_sequence
from repro.baselines import EDFRebuildScheduler, MinChangeMatchingScheduler
from repro.sim import ExecutionPlan, Session, fit_growth, format_series
from repro.sim.report import experiment_header


def staircase_total(scheduler_factory, eta: int) -> tuple[int, int]:
    seq = staircase_toggle_sequence(eta)
    sched = scheduler_factory()
    result = Session(sched, seq, ExecutionPlan(verify="off", stop_on_error=True)).run()
    return len(seq), result.ledger.total_reallocations


def test_e5_quadratic_total_cost(benchmark, record_result):
    etas = [4, 8, 16, 32, 64]
    ss, edf_totals, bounds = [], [], []
    for eta in etas:
        s, total = staircase_total(lambda: EDFRebuildScheduler(1), eta)
        ss.append(s)
        edf_totals.append(total)
        bounds.append(ReallocLowerBound(eta, eta).min_total_reallocations)
    # the matcher is slow; probe a shorter sweep
    match_totals = []
    for eta in etas[:3]:
        _, total = staircase_total(lambda: MinChangeMatchingScheduler(1), eta)
        match_totals.append(total)

    table = format_series(
        "s (requests)", ss,
        {
            "EDF total reallocations": edf_totals,
            "Lemma 12 bound": bounds,
            "min-change total (first 3)": match_totals + ["-"] * (len(etas) - 3),
        },
        title=experiment_header(
            "E5", "Lemma 12: staircase toggle forces Theta(s^2) total cost"
        ),
    )
    fit = fit_growth(ss, edf_totals)
    table += f"\ngrowth fit of EDF total: best={fit.best}"
    record_result("e5_realloc_lb", table)

    for total, bound in zip(edf_totals, bounds):
        assert total >= bound
    for total, bound in zip(match_totals, bounds):
        assert total >= bound
    assert fit.best == "quadratic"
    # doubling eta ~ doubles s and ~quadruples cost
    assert edf_totals[-1] >= 3.2 * edf_totals[-2]
    benchmark.pedantic(
        lambda: staircase_total(lambda: EDFRebuildScheduler(1), 32),
        rounds=1, iterations=1,
    )


def test_e5_underallocated_staircase_is_cheap(benchmark, record_result):
    """Contrast: give the staircase gamma=8 slack (windows [j, j+16))
    and the reservation scheduler handles the same toggle pattern with
    O(1) cost per request — quantifying the value of underallocation."""
    from repro.core.api import ReservationScheduler
    from repro.core.requests import RequestSequence

    eta = 64
    seq = RequestSequence()
    for j in range(eta):
        seq.insert(f"stair{j}", j, j + 16)
    for t in range(eta):
        if t % 2 == 0:
            seq.insert(f"probe{t}", 0, 8)
        else:
            seq.insert(f"probe{t}", eta, eta + 8)
        seq.delete(f"probe{t}")

    def run():
        return Session(ReservationScheduler(1, gamma=8), seq,
                       ExecutionPlan(stop_on_error=True)).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_result(
        "e5b_slack_contrast",
        experiment_header("E5b", "the same toggle with slack is O(1)/request")
        + f"\ntotal reallocations: {result.ledger.total_reallocations} over "
        f"{len(seq)} requests (max/request: {result.ledger.max_reallocation})",
    )
    assert result.ledger.max_reallocation <= 8
    assert result.ledger.total_reallocations <= 2 * len(seq)
