#!/usr/bin/env python
"""The doctor's office from the paper's introduction, end to end.

Run:  PYTHONPATH=src python examples/doctors_office.py

Patients phone in with availability windows; some cancel. The scheduler
(the paper's ophthalmologist) reschedules existing patients to make
room — the quantity we care about is *how many patients get rescheduled
per booking*, since rescheduled patients are unhappy patients.

We compare the paper's reservation scheduler against the naive policy of
recomputing an earliest-deadline-first schedule after every change,
which reschedules large swaths of the book. Each scheduler runs one
``Session`` (``repro.sim``) — the same drive loop the CLI's
demo/compare/engine/sweep commands use.
"""

from repro.baselines import EDFRebuildScheduler, MinChangeMatchingScheduler
from repro.core.api import ReservationScheduler
from repro.sim import ExecutionPlan, Session, format_table
from repro.workloads import appointment_book_sequence


def main() -> None:
    seq = appointment_book_sequence(
        days=8, slots_per_day=32, requests=400,
        cancel_fraction=0.25, gamma=8, seed=42,
    )
    inserts = sum(1 for r in seq if r.kind == "insert")
    print(f"appointment book: {len(seq)} requests "
          f"({inserts} bookings, {len(seq) - inserts} cancellations), "
          f"peak {seq.max_active} concurrent patients\n")

    results = {
        name: Session(sched, seq,
                      ExecutionPlan(stop_on_error=True, name=name)).run()
        for name, sched in (
            ("reservation (paper)", ReservationScheduler(1, gamma=8)),
            ("EDF rebuild", EDFRebuildScheduler(1)),
            ("min-change matching", MinChangeMatchingScheduler(1)))}

    rows = []
    for name, result in results.items():
        s = result.summary
        rows.append([
            name, s["max_realloc"], s["mean_realloc"], s["p99_realloc"],
            s["total_realloc"],
        ])
    print(format_table(
        ["scheduler", "max moved/request", "mean", "p99", "total rescheduled"],
        rows,
        title="patients rescheduled per booking/cancellation",
    ))

    res = results["reservation (paper)"]
    edf = results["EDF rebuild"]
    print()
    print(f"worst single request under EDF rebuild: "
          f"{edf.ledger.max_reallocation} patients rescheduled")
    print(f"worst single request under the paper's scheduler: "
          f"{res.ledger.max_reallocation}")
    worst = edf.ledger.worst_requests(1)[0]
    print(f"(EDF's worst was a {worst.kind} with {worst.n_active} active "
          f"patients — a classic cascade)")


if __name__ == "__main__":
    main()
