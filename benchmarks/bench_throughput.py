"""E10/E11/E12/E14 — systems throughput: requests/second per scheduler.

The engineering table: how fast is each scheduler at processing the
same 8-underallocated churn sequence (no feasibility verification in
the timed region)? The reservation scheduler does O(poly(L_l)) local
work per request; the rebuild baselines pay O(n log n) (EDF/LLF) or
O(n^3) (matching) per request, so their throughput collapses as n
grows. pytest-benchmark provides the timing statistics.

Throughput is reported from ``SessionResult.scheduler_time_s`` — the time
spent inside ``scheduler.apply`` only. Earlier revisions divided by the
whole loop wall time, which silently charged the driver's audit hooks
to the scheduler.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    EDFRebuildScheduler,
    LLFRebuildScheduler,
    MinChangeMatchingScheduler,
    NaivePeckingScheduler,
)
from repro.core.api import ReservationScheduler
from repro.reservation import AlignedReservationScheduler
from repro.sim import run_sequence
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


def make_sequence(num_requests=400, seed=0):
    cfg = AlignedWorkloadConfig(
        num_requests=num_requests, gamma=8, horizon=1 << 11,
        max_span=1 << 11, delete_fraction=0.35,
    )
    return random_aligned_sequence(cfg, seed=seed)


SEQ = make_sequence()
SMALL_SEQ = make_sequence(num_requests=120, seed=1)

FACTORIES = {
    "reservation_raw": (lambda: AlignedReservationScheduler(), SEQ),
    "reservation_theorem1": (lambda: ReservationScheduler(1, gamma=8), SEQ),
    "naive_pecking": (lambda: NaivePeckingScheduler(), SEQ),
    "edf_rebuild": (lambda: EDFRebuildScheduler(1), SEQ),
    "llf_rebuild": (lambda: LLFRebuildScheduler(1), SEQ),
    "minchange_matching": (lambda: MinChangeMatchingScheduler(1), SMALL_SEQ),
}


@pytest.mark.parametrize("name", list(FACTORIES))
def test_e10_throughput(benchmark, name):
    factory, seq = FACTORIES[name]
    sched_times = []

    def kernel():
        result = run_sequence(factory(), seq, verify_each=False)
        sched_times.append(result.scheduler_time_s)

    benchmark.pedantic(kernel, rounds=3, iterations=1)
    benchmark.extra_info["requests"] = len(seq)
    # honest per-request cost: scheduler.apply time only, best of rounds
    benchmark.extra_info["requests_per_second"] = len(seq) / min(sched_times)


def test_e10b_scaling_crossover(benchmark, record_result):
    """EDF's per-request time grows with n (it rebuilds the whole
    schedule); the reservation scheduler's per-request time does not.
    This measures the scaling direction behind the crossover claim."""
    from repro.sim.report import experiment_header, format_series

    def per_request_us(factory, n_target, seed):
        horizon = 1 << max(10, (16 * n_target - 1).bit_length())
        cfg = AlignedWorkloadConfig(
            num_requests=3 * n_target, gamma=8, horizon=horizon,
            max_span=horizon, delete_fraction=0.25,
        )
        seq = random_aligned_sequence(cfg, seed=seed)
        result = run_sequence(factory(), seq, verify_each=False)
        return 1e6 * result.scheduler_time_s / len(seq)

    ns = [64, 256, 1024]
    edf_us, res_us = [], []

    def sweep():
        for n in ns:
            edf_us.append(round(per_request_us(
                lambda: EDFRebuildScheduler(1), n, seed=0), 1))
            res_us.append(round(per_request_us(
                lambda: AlignedReservationScheduler(), n, seed=0), 1))

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_series(
        "n", ns,
        {"EDF us/request": edf_us, "reservation us/request": res_us},
        title=experiment_header(
            "E10b", "per-request wall time scaling: rebuilds grow with n, "
            "reservations do not",
        ),
    )
    edf_growth = edf_us[-1] / edf_us[0]
    res_growth = res_us[-1] / res_us[0]
    table += (f"\ngrowth n=64 -> n=1024: EDF {edf_growth:.1f}x, "
              f"reservation {res_growth:.1f}x")
    record_result("e10b_scaling", table)
    # EDF's per-request time grows markedly faster than reservation's.
    assert edf_growth > 3 * res_growth


def test_e10c_fastpath_10k(benchmark, record_result, record_json):
    """The indexed fast path on the 10k-request scenario-scale workload.

    Reports scheduler-only requests/second with verification off, plus
    the verified-mode ratio: incremental verification must keep a
    verified run within 2x of the unverified wall time (it replaced the
    O(n)-per-request full audit).
    """
    from repro.sim.report import experiment_header, format_table

    seq = make_sequence(num_requests=10_000, seed=0)

    results = {}

    def kernel():
        # best-of-5 per mode: the recorded metric is the run with the
        # smallest scheduler time, the standard noise-robust estimator
        # (single-shot numbers on a shared box swing by 20%+)
        for key, verify in (("off", False), ("incremental", True)):
            best = None
            for _ in range(5):
                res = run_sequence(
                    AlignedReservationScheduler(), seq, verify_each=verify)
                if best is None or res.scheduler_time_s < best.scheduler_time_s:
                    best = res
            results[key] = best

    benchmark.pedantic(kernel, rounds=1, iterations=1)
    off, inc = results["off"], results["incremental"]
    ratio = inc.wall_time_s / off.wall_time_s
    rows = [
        ["verify off", round(off.requests_per_second),
         round(off.scheduler_time_s, 3), round(off.audit_time_s, 3)],
        ["incremental", round(inc.requests_per_second),
         round(inc.scheduler_time_s, 3), round(inc.audit_time_s, 3)],
    ]
    table = format_table(
        ["mode", "req/s (sched)", "sched_s", "audit_s"], rows,
        title=experiment_header(
            "E10c", "fast-path engine on 10k requests: scheduler-only "
            f"throughput; verified/unverified wall ratio {ratio:.2f}x",
        ),
    )
    record_result("e10c_fastpath_10k", table)
    # Pre-hot-path-lint numbers (PR 6's committed BENCH_e10c.json) — the
    # before side of the HOT001/HOT002/HOT003 burn-down in this PR.
    before = {
        "requests_per_second_unverified": 16165,
        "requests_per_second_incremental": 16524,
        "scheduler_time_s_unverified": 0.619,
        "scheduler_time_s_incremental": 0.605,
    }
    record_json("BENCH_e10c", {
        "experiment": "e10c",
        "workload": {"requests": 10_000, "seed": 0},
        "metrics": {
            "requests_per_second_unverified": round(
                off.requests_per_second),
            "requests_per_second_incremental": round(
                inc.requests_per_second),
            "scheduler_time_s_unverified": round(off.scheduler_time_s, 3),
            "scheduler_time_s_incremental": round(inc.scheduler_time_s, 3),
            "audit_time_s_incremental": round(inc.audit_time_s, 3),
            "verified_wall_ratio": round(ratio, 3),
        },
        "hot_path_fix_delta": {
            "before": before,
            "throughput_ratio_unverified": round(
                off.requests_per_second
                / before["requests_per_second_unverified"], 3),
            "throughput_ratio_incremental": round(
                inc.requests_per_second
                / before["requests_per_second_incremental"], 3),
        },
        "claims": {"verified_wall_ratio_below": 2.0},
    })
    benchmark.extra_info["requests_per_second"] = off.requests_per_second
    benchmark.extra_info["verified_ratio"] = ratio
    # Incremental verification keeps verified runs within 2x unverified.
    assert ratio < 2.0


def test_e11_batched_vs_sequential(benchmark, record_result, record_json):
    """E11 — the batch-first API on churn-storm at batch size 64.

    Paired-interleaved measurement: a sequential scheduler and an
    atomic-batched scheduler advance through the same churn-storm
    stream segment by segment, alternating which runs first, so CPU
    throttling and cache effects hit both sides equally. Placements and
    ledgers are asserted identical at the end — the batched side does
    the same scheduling work and amortizes only bookkeeping: one batch
    journal instead of a per-request undo journal, rollback-free
    trimming rebuilds (an abort discards the rebuild inner wholesale),
    suspended inner-layer cost finalization, and one feasibility check
    per commit. That bounds the honest gain: the strict
    sequential-equivalence contract pins every placement decision, so
    only the bookkeeping fraction (~10-20% of wall time) is batchable.
    """
    import time

    from repro.core.requests import iter_batches
    from repro.sim.report import experiment_header, format_table
    from repro.workloads.scenarios import churn_storm_sequence

    import statistics

    seq = list(churn_storm_sequence(requests=8000, seed=0))
    batch_size = 64
    segments = 20
    seg = len(seq) // segments

    results = {}

    def kernel():
        import gc

        # The batch journal lives for 64 requests instead of one, so
        # with the collector enabled its entries get promoted and full
        # collections land disproportionately on batch segments —
        # measuring CPython GC generation policy, not the scheduler.
        # Disable collection inside the timed region (standard
        # microbenchmark hygiene; allocation/free costs still count).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            s_seq = ReservationScheduler(1, gamma=8)
            s_bat = ReservationScheduler(1, gamma=8)
            t_seq = t_bat = 0.0
            ratios = []
            pt = time.process_time
            for i in range(segments):
                chunk = (seq[i * seg:(i + 1) * seg] if i < segments - 1
                         else seq[(segments - 1) * seg:])
                seg_times = [0.0, 0.0]
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    if side == 0:
                        t0 = pt()
                        for r in chunk:
                            s_seq.apply(r)
                        seg_times[0] = pt() - t0
                    else:
                        t0 = pt()
                        for b in iter_batches(chunk, batch_size):
                            res = s_bat.apply_batch(b, atomic=True)
                            if res.failed:
                                raise AssertionError(res.failure)
                        seg_times[1] = pt() - t0
                t_seq += seg_times[0]
                t_bat += seg_times[1]
                ratios.append(seg_times[0] / seg_times[1])
        finally:
            if gc_was_enabled:
                gc.enable()
        assert dict(s_seq.placements) == dict(s_bat.placements)
        assert s_seq.ledger.entries == s_bat.ledger.entries
        results["seq"] = t_seq
        results["bat"] = t_bat
        results["ratios"] = ratios

    benchmark.pedantic(kernel, rounds=1, iterations=1)
    t_seq, t_bat = results["seq"], results["bat"]
    # Median of per-segment ratios: each segment's two sides run
    # back-to-back, so frequency throttling cancels pairwise and a few
    # GC/scheduler outlier segments cannot swing the verdict.
    median_ratio = statistics.median(results["ratios"])
    rows = [
        ["sequential apply", round(len(seq) / t_seq), round(t_seq, 3)],
        [f"apply_batch({batch_size}, atomic)", round(len(seq) / t_bat),
         round(t_bat, 3)],
    ]
    table = format_table(
        ["mode", "req/s (sched)", "sched_s"], rows,
        title=experiment_header(
            "E11", "batched vs sequential on churn-storm (paired segments, "
            "identical placements+ledgers): median segment speedup "
            f"{median_ratio:.2f}x, aggregate {t_seq / t_bat:.2f}x",
        ),
    )
    record_result("e11_batched_throughput", table)
    record_json("BENCH_e11", {
        "experiment": "e11",
        "workload": {"scenario": "churn-storm", "requests": len(seq),
                     "seed": 0, "batch_size": batch_size},
        "metrics": {
            "requests_per_second_sequential": round(len(seq) / t_seq),
            "requests_per_second_batched": round(len(seq) / t_bat),
            "batched_over_sequential_median": round(median_ratio, 3),
            "batched_over_sequential_aggregate": round(t_seq / t_bat, 3),
        },
        "claims": {"median_segment_speedup_above": 0.95},
    })
    benchmark.extra_info["batched_over_sequential_median"] = median_ratio
    benchmark.extra_info["batched_over_sequential_aggregate"] = t_seq / t_bat
    benchmark.extra_info["batch_size"] = batch_size
    # Regression floor: batching must never lose to sequential (the
    # measured gain is ~1.1x; CI boxes are too noisy to pin it tighter).
    assert median_ratio > 0.95


@pytest.mark.parametrize("scenario", ["churn-storm", "burst-arrivals"])
def test_e12_backend_comparison_m3(benchmark, record_result, record_json,
                                   scenario):
    """E12 — the two drive backends head to head at m=3, batch 64.

    Paired-segment measurement (E11's throttling-robust protocol at
    m=3): a sequential and an atomic-batched scheduler advance through
    the same 3-machine stream segment by segment, alternating which
    runs first, and placements + ledgers are asserted identical at the
    end — both do the same scheduling work. The batched side crosses
    machines through ``apply_batch`` itself: the delegation layer opens
    one batch context per machine and places each insert by the same
    round-robin choice as a single request, so only bookkeeping is
    batchable and the honest
    expectation is parity with sequential (measured 0.95-0.98x on a
    shared 2-core container).
    """
    import gc
    import statistics
    import time

    from repro.core.requests import iter_batches
    from repro.sim.report import experiment_header, format_table
    from repro.workloads.scenarios import (
        burst_arrivals_sequence,
        churn_storm_sequence,
    )

    gen = (churn_storm_sequence if scenario == "churn-storm"
           else burst_arrivals_sequence)
    seq = list(gen(requests=6000, seed=0, num_machines=3))
    batch_size = 64
    segments = 16
    seg = len(seq) // segments

    results = {}

    def kernel():
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            scheds = [ReservationScheduler(3, gamma=8) for _ in range(2)]
            times = [0.0, 0.0]
            ratios = []
            pt = time.process_time
            for i in range(segments):
                chunk = (seq[i * seg:(i + 1) * seg] if i < segments - 1
                         else seq[(segments - 1) * seg:])
                seg_times = [0.0, 0.0]
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    t0 = pt()
                    if side == 0:
                        for r in chunk:
                            scheds[0].apply(r)
                    else:
                        for b in iter_batches(chunk, batch_size):
                            res = scheds[1].apply_batch(b, atomic=True)
                            if res.failed:
                                raise AssertionError(res.failure)
                    seg_times[side] = pt() - t0
                times[0] += seg_times[0]
                times[1] += seg_times[1]
                ratios.append(seg_times[0] / seg_times[1])
        finally:
            if gc_was_enabled:
                gc.enable()
        assert dict(scheds[1].placements) == dict(scheds[0].placements)
        assert scheds[1].ledger.entries == scheds[0].ledger.entries
        results["times"] = times
        results["ratios"] = ratios

    benchmark.pedantic(kernel, rounds=1, iterations=1)
    times, ratios = results["times"], results["ratios"]
    med_bat = statistics.median(ratios)
    n = len(seq)
    rows = [
        ["sequential apply", round(n / times[0]), round(times[0], 3), "1.00x"],
        [f"apply_batch({batch_size}, atomic)", round(n / times[1]),
         round(times[1], 3), f"{med_bat:.2f}x"],
    ]
    table = format_table(
        ["backend", "req/s (sched)", "sched_s", "median segment speedup"],
        rows,
        title=experiment_header(
            "E12", f"drive backends on {scenario} at m=3 (paired segments, "
            "identical placements+ledgers)",
        ),
    )
    record_result(f"e12_backends_{scenario}", table)
    record_json("BENCH_e12", {
        "experiment": "e12",
        "workload": {"scenario": scenario, "requests": n, "seed": 0,
                     "num_machines": 3, "batch_size": batch_size},
        "metrics": {
            "requests_per_second_sequential": round(n / times[0]),
            "requests_per_second_batched": round(n / times[1]),
            "batched_over_sequential_median": round(med_bat, 3),
        },
        "claims": {"batched_median_speedup_above": 0.9},
    }, section=scenario)
    benchmark.extra_info["batched_over_sequential_median"] = med_bat
    # Regression floor only: atomic batching at m=3 must not fall below
    # sequential beyond CI noise (measured ~0.95-0.98x).
    assert med_bat > 0.9


@pytest.mark.parametrize("scenario", ["churn-storm", "burst-arrivals"])
def test_e14_flexible_vs_strict(benchmark, record_result, record_json,
                                scenario):
    """E14 — flexible batch semantics vs strict sequential, single core.

    Paired-segment measurement (E11's throttling-robust protocol, three
    sides): a strict sequential scheduler and two flexible-batched
    schedulers (batch 16 and 64) advance through the same stream segment
    by segment with rotating order. Unlike E11, the flexible sides are
    NOT placement-identical — that is the point. The bounds-equivalence
    contract frees placements, which legalizes real work reduction:
    interior insert/delete pairs elide entirely, joint inserts run in
    rebuild order, and the n*-trimming layer pre-sizes once per burst
    from the planner's final-count hint instead of rebuilding at every
    mid-batch threshold crossing — on churn-storm those skipped rebuild
    storms are the dominant win (~2x at batch 64). What stays pinned is
    asserted at the end: identical job tables and max-span, one ledger
    entry per request; per-request Theorem 1 bounds are covered by the
    differential suite (``test_backend_differential`` bounds mode).
    """
    import gc
    import statistics
    import time

    from repro.core.requests import iter_batches
    from repro.sim.report import experiment_header, format_table
    from repro.workloads.scenarios import (
        burst_arrivals_sequence,
        churn_storm_sequence,
    )

    gen = (churn_storm_sequence if scenario == "churn-storm"
           else burst_arrivals_sequence)
    seq = list(gen(requests=8000, seed=0))
    batch_sizes = (16, 64)
    segments = 20
    seg = len(seq) // segments

    results = {}

    def kernel():
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            scheds = [ReservationScheduler(1, gamma=8) for _ in range(3)]
            times = [0.0, 0.0, 0.0]
            ratios = {bs: [] for bs in batch_sizes}
            pt = time.process_time

            def drive(side, chunk):
                t0 = pt()
                if side == 0:
                    for r in chunk:
                        scheds[0].apply(r)
                else:
                    for b in iter_batches(chunk, batch_sizes[side - 1]):
                        res = scheds[side].apply_batch(
                            b, semantics="flexible")
                        if res.failed:
                            raise AssertionError(res.failure)
                times[side] += pt() - t0
                return pt() - t0

            for i in range(segments):
                chunk = (seq[i * seg:(i + 1) * seg] if i < segments - 1
                         else seq[(segments - 1) * seg:])
                seg_times = [0.0, 0.0, 0.0]
                for side in [(i + j) % 3 for j in range(3)]:
                    seg_times[side] = drive(side, chunk)
                for k, bs in enumerate(batch_sizes):
                    ratios[bs].append(seg_times[0] / seg_times[k + 1])
        finally:
            if gc_was_enabled:
                gc.enable()
        # bounds-equivalence end state: placements are free, everything
        # else is pinned
        base = scheds[0]
        for other in scheds[1:]:
            assert dict(other.jobs) == dict(base.jobs)
            assert other._max_span_cache == base._max_span_cache
            assert len(other.ledger.entries) == len(base.ledger.entries)
        results["times"] = times
        results["ratios"] = ratios

    benchmark.pedantic(kernel, rounds=1, iterations=1)
    times, ratios = results["times"], results["ratios"]
    med = {bs: statistics.median(ratios[bs]) for bs in batch_sizes}
    n = len(seq)
    rows = [["strict sequential apply", round(n / times[0]),
             round(times[0], 3), "1.00x"]]
    for k, bs in enumerate(batch_sizes):
        rows.append([f"apply_batch({bs}, flexible)",
                     round(n / times[k + 1]), round(times[k + 1], 3),
                     f"{med[bs]:.2f}x"])
    table = format_table(
        ["mode", "req/s (sched)", "sched_s", "median segment speedup"],
        rows,
        title=experiment_header(
            "E14", f"flexible vs strict-sequential on {scenario} "
            "(paired segments, identical job tables + max-span, "
            "placements bounds-equivalent)",
        ),
    )
    record_result(f"e14_flexible_{scenario}", table)
    floor = 1.3 if scenario == "churn-storm" else 1.0
    record_json("BENCH_e14", {
        "experiment": "e14",
        "workload": {"scenario": scenario, "requests": n, "seed": 0,
                     "num_machines": 1, "batch_sizes": list(batch_sizes)},
        "metrics": {
            "requests_per_second_sequential": round(n / times[0]),
            "requests_per_second_flexible_b16": round(n / times[1]),
            "requests_per_second_flexible_b64": round(n / times[2]),
            "flexible_b16_over_sequential_median": round(med[16], 3),
            "flexible_b64_over_sequential_median": round(med[64], 3),
        },
        "claims": {"flexible_b64_median_speedup_above": floor},
    }, section=scenario)
    benchmark.extra_info["flexible_b64_over_sequential_median"] = med[64]
    # The acceptance bar: flexible wins >= 1.3x at batch 64 on the
    # rebuild-heavy scenario (measured ~2x; the pre-size hint removes
    # the trimming layer's mid-batch rebuild storms). Burst-arrivals
    # has little churn to elide, so it only has to not lose.
    assert med[64] >= floor
