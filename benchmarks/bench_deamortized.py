"""E12 — deamortization: O(1) worst-case vs O(n) amortized spikes.

Section 4's closing construction. The amortized trimming wrapper
rebuilds everything when n* changes: mean cost O(1) but the triggering
request pays Theta(n). The deamortized wrapper (even/odd-slot split,
two migrations per request) caps every request at O(1), at the price of
requiring twice the slack.

Series: worst single-request reallocation cost vs n for both variants
on the same growth workload. The amortized spike must grow linearly
with n; the deamortized max must stay constant.
"""

from __future__ import annotations

from repro.core import Job, Window
from repro.core.api import TrimmedReservationScheduler
from repro.reservation import DeamortizedReservationScheduler
from repro.sim import fit_growth, format_series
from repro.sim.report import experiment_header


def grow_and_measure(scheduler, n: int) -> int:
    for i in range(n):
        scheduler.insert(Job(i, Window(0, 1 << 14)))
    return scheduler.ledger.max_reallocation


def test_e12_deamortization(benchmark, record_result):
    ns = [32, 64, 128, 256, 512]
    amortized, deamortized = [], []

    def sweep():
        for n in ns:
            amortized.append(grow_and_measure(
                TrimmedReservationScheduler(gamma=8), n))
            deamortized.append(grow_and_measure(
                DeamortizedReservationScheduler(gamma=8), n))

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_series(
        "n", ns,
        {
            "amortized max/request": amortized,
            "deamortized max/request": deamortized,
        },
        title=experiment_header(
            "E12", "deamortized rebuild: worst-case O(1) vs Theta(n) spikes"
        ),
    )
    am_fit = fit_growth(ns, amortized)
    de_fit = fit_growth(ns, deamortized)
    table += (f"\namortized spike growth: {am_fit.best}; "
              f"deamortized growth: {de_fit.best}")
    record_result("e12_deamortized", table)

    # Amortized spikes scale with n (the rebuild moves ~n jobs)...
    assert am_fit.best == "linear"
    # the biggest spike is the last n* crossing, which moves ~45-50% of n
    assert amortized[-1] >= 0.4 * ns[-1]
    # ...while the deamortized worst case is a small constant: bounded
    # absolutely and not growing past the smallest scale (a 16x increase
    # in n leaves the max within +1 of its n=64 value).
    assert max(deamortized) <= 8
    assert deamortized[-1] <= deamortized[1] + 1
    assert de_fit.best != "linear"
