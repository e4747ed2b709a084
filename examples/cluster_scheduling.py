#!/usr/bin/env python
"""Multiprocessor batch scheduling with bounded migrations.

Run:  PYTHONPATH=src python examples/cluster_scheduling.py

The multi-machine setting of Theorem 1: batch tasks with deadlines
arrive in bursts on an m-machine cluster and finish (depart) over time.
Migrating a task between machines is expensive (state transfer), so we
track migrations separately from same-machine reallocations — the
paper's central cost split. Theorem 1 promises at most ONE migration per
request; EDF-style rebuilds migrate freely. (For driving bursts of a
cluster trace through the batched backend, see
``session_backends.py`` — ``run_comparison`` here is the sequential
``Session`` adapter.)
"""

from repro.baselines import EDFRebuildScheduler
from repro.core.api import ReservationScheduler
from repro.sim import format_table, run_comparison
from repro.workloads import cluster_trace_sequence


def main() -> None:
    m = 4
    seq = cluster_trace_sequence(
        num_machines=m, horizon=1 << 12, requests=600,
        burst_size=6, finish_fraction=0.4, gamma=8, seed=7,
    )
    print(f"cluster trace: {len(seq)} requests on {m} machines, "
          f"peak {seq.max_active} concurrent tasks\n")

    results = run_comparison({
        "reservation (paper)": lambda: ReservationScheduler(m, gamma=8),
        "EDF rebuild": lambda: EDFRebuildScheduler(m),
    }, seq)

    rows = []
    for name, result in results.items():
        s = result.summary
        rows.append([
            name,
            s["max_migration"], s["mean_migration"], s["total_migrations"],
            s["max_realloc"], s["mean_realloc"],
        ])
    print(format_table(
        ["scheduler", "max migr/req", "mean migr", "total migr",
         "max realloc/req", "mean realloc"],
        rows,
        title="migration and reallocation costs",
    ))

    res = results["reservation (paper)"]
    print()
    print(f"Theorem 1 check: max migrations per request = "
          f"{res.ledger.max_migration} (bound: 1)")

    # Show the per-machine balance invariant of Section 3 in action.
    sched = ReservationScheduler(m, gamma=8)
    for req in seq:
        sched.apply(req)
    sched.check_balance()
    per_machine = [len(sub.jobs) for sub in sched.machine_schedulers()]
    print(f"final tasks per machine: {per_machine}")
    print("(Section 3 balances each *window's* jobs across machines — "
          "singleton windows all start at machine 0, so total load may "
          "skew while every window stays within floor/ceil of n_W/m; "
          "check_balance() verified that invariant)")
    print()
    print("note: the reservation scheduler's max realloc/req includes "
          "amortized n*-rebuild spikes (Section 4 trims windows to the "
          "active-job scale); its *mean* is what the amortized bound "
          "promises. See benchmarks/bench_theorem1.py for the split.")


if __name__ == "__main__":
    main()
