"""E2 — Lemma 4 vs Section 4: log Delta cascades vs log* Delta.

Two measurements, matching the two claims:

1. **Naive pecking-order worst case (Lemma 4).** On the tight "pyramid"
   instance — windows [0, 2^j) holding exactly 2^(j-1) jobs each, so
   every prefix window is exactly full — the final span-1 insertion
   cascades through every span: cost ~ log2(Delta). The series must fit
   `log`, not `constant`.

2. **Reservation scheduler worst case (Section 4).** On maximally
   contended 8-underallocated workloads with max span Delta, the max
   per-request cost stays bounded by a small constant times
   log*(Delta) — flat at any simulatable scale.

The two use different workloads by necessity: Lemma 4 needs only
feasibility, while the reservation guarantee requires underallocation —
that asymmetry is itself one of the paper's points.
"""

from __future__ import annotations

from repro.analysis.logstar import log_star
from repro.baselines import NaivePeckingScheduler
from repro.core import Job, Window
from repro.reservation import AlignedReservationScheduler
from repro.sim import ExecutionPlan, Session, fit_growth, format_series
from repro.sim.report import experiment_header
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


def pyramid_probe_cost(k: int) -> int:
    """Insert the tight pyramid for Delta = 2^k; return the probe cost.

    Jobs: 2^(j-1) jobs with window [0, 2^j) for j = k..1, inserted
    large-to-small, then one span-1 probe — its cascade must displace
    one job per span level.
    """
    sched = NaivePeckingScheduler()
    uid = 0
    for j in range(k, 0, -1):
        for _ in range(1 << (j - 1)):
            sched.insert(Job(f"p{uid}", Window(0, 1 << j)))
            uid += 1
    cost = sched.insert(Job("probe", Window(0, 1)))
    return cost.reallocation_cost


def reservation_max_cost(delta_log: int, seed: int = 0) -> int:
    horizon = 1 << delta_log
    cfg = AlignedWorkloadConfig(
        num_requests=600, gamma=8, horizon=horizon, max_span=horizon,
        delete_fraction=0.3,
    )
    seq = random_aligned_sequence(cfg, seed=seed)
    sched = AlignedReservationScheduler()
    result = Session(sched, seq, ExecutionPlan(verify="off", stop_on_error=True)).run()
    return result.ledger.max_reallocation


def test_e2_naive_cascade_grows_logarithmically(benchmark, record_result):
    ks = list(range(3, 13))
    costs = [pyramid_probe_cost(k) for k in ks]
    deltas = [1 << k for k in ks]
    fit = fit_growth(deltas, costs)
    table = format_series(
        "Delta", deltas,
        {"naive probe cost": costs, "log2 Delta": ks},
        title=experiment_header(
            "E2a", "Lemma 4: naive pecking-order cascades cost Theta(log Delta)"
        ),
    )
    table += f"\ngrowth fit: best={fit.best}"
    record_result("e2a_naive_log_cascade", table)
    # The cascade displaces exactly one job per span level: cost == k.
    assert costs == ks
    assert fit.best == "log"
    benchmark.pedantic(lambda: pyramid_probe_cost(10), rounds=1, iterations=1)


def test_e2_reservation_stays_flat(benchmark, record_result):
    delta_logs = [6, 8, 10, 12, 14]
    costs = [max(reservation_max_cost(dl, seed=s) for s in range(2))
             for dl in delta_logs]
    deltas = [1 << dl for dl in delta_logs]
    table = format_series(
        "Delta", deltas,
        {
            "reservation max cost": costs,
            "log* Delta": [log_star(d) for d in deltas],
            "log2 Delta (naive shape)": delta_logs,
        },
        title=experiment_header(
            "E2b", "Section 4: reservation scheduler cost ~ log* Delta (flat)"
        ),
    )
    fit = fit_growth(deltas, costs)
    table += f"\ngrowth fit: best={fit.best}"
    record_result("e2b_reservation_flat", table)
    # Bounded by a small constant; in particular beats log2(Delta)'s
    # growth: doubling Delta 256x must not double the cost.
    assert max(costs) <= 12
    assert costs[-1] <= costs[0] + 6
    assert fit.best in ("constant", "logstar", "log")
    benchmark.pedantic(lambda: reservation_max_cost(10, seed=9),
                       rounds=1, iterations=1)


def test_e2_head_to_head_on_underallocated(benchmark, record_result):
    """Both schedulers on the same 8-underallocated churn: both cheap,
    but only the reservation scheduler carries a worst-case guarantee."""
    cfg = AlignedWorkloadConfig(
        num_requests=500, gamma=8, horizon=1 << 12, max_span=1 << 12,
        delete_fraction=0.35,
    )
    seq = random_aligned_sequence(cfg, seed=3)

    def run_both():
        plan = ExecutionPlan(verify="off", stop_on_error=True)
        return (Session(NaivePeckingScheduler(), seq, plan).run(),
                Session(AlignedReservationScheduler(), seq, plan).run())

    naive, res = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = (
        experiment_header("E2c", "same-workload comparison (8-underallocated)")
        + f"\nnaive:       max={naive.ledger.max_reallocation} "
        f"mean={naive.ledger.mean_reallocation:.3f}"
        + f"\nreservation: max={res.ledger.max_reallocation} "
        f"mean={res.ledger.mean_reallocation:.3f}"
    )
    record_result("e2c_head_to_head", table)
    assert naive.ledger.max_reallocation <= 16
    assert res.ledger.max_reallocation <= 16
