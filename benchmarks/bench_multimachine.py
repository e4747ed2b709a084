"""E8 — Section 3: the multi-machine reduction's invariants at scale.

Sweeps the machine count m and verifies, over full churn runs on the
Theorem 1 scheduler:

- at most one migration per request (and inserts never migrate);
- the per-window floor/ceil balance invariant holds after every request;
- every machine's sub-instance stays feasible (verified implicitly by
  the per-request feasibility check).

Reports migrations per delete — the paper's reduction migrates only on
deletes, so inserts must show zero.
"""

from __future__ import annotations

import pytest

from repro.core.api import ReservationScheduler
from repro.sim import ExecutionPlan, Session, format_series
from repro.sim.report import experiment_header
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


@pytest.mark.parametrize("seed", [0, 1])
def test_e8_delegation_invariants(benchmark, record_result, seed):
    ms = [1, 2, 4, 8, 16]
    max_migr, insert_migr, delete_migr_rate, balance_ok = [], [], [], []

    def sweep():
        for m in ms:
            cfg = AlignedWorkloadConfig(
                num_requests=400, num_machines=m, gamma=8,
                horizon=1 << 11, max_span=1 << 11, delete_fraction=0.4,
            )
            seq = random_aligned_sequence(cfg, seed=seed)
            sched = ReservationScheduler(num_machines=m, gamma=8)
            result = Session(sched, seq, ExecutionPlan(
                validator=lambda s: s.check_balance(),
                stop_on_error=True)).run()
            assert not result.failed
            ins = [e for e in result.ledger if e.kind == "insert"]
            dels = [e for e in result.ledger if e.kind == "delete"]
            max_migr.append(result.ledger.max_migration)
            insert_migr.append(sum(e.migration_cost for e in ins))
            rate = (sum(e.migration_cost for e in dels) / len(dels)
                    if dels else 0.0)
            delete_migr_rate.append(round(rate, 3))
            balance_ok.append("yes")

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_series(
        "m", ms,
        {
            "max migrations/request": max_migr,
            "insert migrations (total)": insert_migr,
            "migrations per delete": delete_migr_rate,
            "balance invariant": balance_ok,
        },
        title=experiment_header(
            f"E8 (seed={seed})",
            "Section 3: round-robin delegation, <= 1 migration, only on deletes",
        ),
    )
    record_result(f"e8_multimachine_seed{seed}", table)
    assert max(max_migr) <= 1
    assert max(insert_migr) == 0
