"""Process-resident shard workers: lifecycle, crashes, CLI mapping.

What the tentpole must guarantee (procworkers module docstring):

- process-sharded bursts are bit-identical to sequential execution
  while the per-machine sub-schedulers stay resident in worker
  processes (state never ships per burst);
- a worker process dying mid-burst rolls the WHOLE burst back, leaves
  the scheduler usable and equivalent to one that never saw the burst,
  and re-seeds the worker from its last state snapshot (so the very
  same burst succeeds on retry);
- any in-memory entry point syncs worker state back transparently;
- a traced session survives worker restarts: a crash fails the burst
  through the session's normal failure policy, and a resume continues
  from the last checkpoint to a bit-identical final state.

Plus the CLI satellite: ``--shard-workers {serial,processes}``
(default ``serial``).
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.core.api import ReservationScheduler
from repro.core.base import SHARD_WORKER_MODES
from repro.core.exceptions import WorkerCrashError
from repro.core.requests import iter_batches
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation import AlignedReservationScheduler
from repro.sim import run_engine
from repro.sim.session import ExecutionPlan, Session, SessionTrace
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


def make_workload(num_requests=600, seed=0, machines=3):
    cfg = AlignedWorkloadConfig(
        num_requests=num_requests, num_machines=machines, gamma=8,
        horizon=1 << 11, max_span=1 << 11, delete_fraction=0.35,
    )
    return list(random_aligned_sequence(cfg, seed=seed))


def assert_equivalent(a, b):
    assert dict(a.placements) == dict(b.placements)
    assert a.ledger.entries == b.ledger.entries
    assert a._max_span_cache == b._max_span_cache
    assert a.jobs == b.jobs


def drive_process_bursts(sched, requests, batch_size=32):
    for burst in iter_batches(requests, batch_size):
        result = sched.apply_batch_sharded(burst, workers="processes")
        assert not result.failed, result.failure


# ----------------------------------------------------------------------
# worker-resident lifecycle
# ----------------------------------------------------------------------
def test_workers_stay_resident_across_bursts():
    """One pool (same worker processes) serves many bursts; the
    in-memory sub-schedulers stay untouched until the sync-back."""
    seq = make_workload(400, seed=0)
    sched = ReservationScheduler(3, gamma=8)
    deleg = sched.delegator
    drive_process_bursts(sched, seq[:64], batch_size=32)
    pool = deleg._shard_pool
    assert pool is not None
    pids = [w.process.pid for w in pool.workers]
    assert all(w.process.is_alive() for w in pool.workers)
    # in-memory subs are stale while the pool is open (state lives in
    # the workers); the merged parent-level map is live
    assert sum(len(s.jobs) for s in deleg.machines) == 0
    assert len(deleg.placements) > 0
    drive_process_bursts(sched, seq[64:128], batch_size=32)
    assert deleg._shard_pool is pool
    assert [w.process.pid for w in pool.workers] == pids
    sched.close_shard_workers()
    assert deleg._shard_pool is None
    # state synced back: in-memory subs now hold the active jobs
    assert sum(len(s.jobs) for s in deleg.machines) == len(sched.jobs)


def test_process_bursts_then_in_memory_use_is_seamless():
    """An in-memory entry point (plain apply) after process bursts
    syncs the worker state back implicitly; the final state matches a
    scheduler that ran everything sequentially."""
    seq = make_workload(500, seed=1)
    reference = ReservationScheduler(3, gamma=8)
    for r in seq:
        reference.apply(r)
    sched = ReservationScheduler(3, gamma=8)
    drive_process_bursts(sched, seq[:256], batch_size=32)
    assert sched.delegator._shard_pool is not None
    for r in seq[256:]:  # plain apply -> implicit sync + pool close
        sched.apply(r)
    assert sched.delegator._shard_pool is None
    assert_equivalent(sched, reference)
    sched.check_balance()


def test_machine_schedulers_sync_back():
    seq = make_workload(200, seed=2)
    sched = ReservationScheduler(3, gamma=8)
    drive_process_bursts(sched, seq, batch_size=32)
    subs = sched.machine_schedulers()  # syncs implicitly
    assert sched.delegator._shard_pool is None
    assert sum(len(s.jobs) for s in subs) == len(sched.jobs)


def test_snapshot_cadence_bounds_replay_log():
    """Every snapshot_every committed bursts the worker re-snapshots
    and the crash-replay log resets — state ships on the cadence, not
    per burst."""
    seq = make_workload(600, seed=3)
    sched = DelegatingScheduler(3, AlignedReservationScheduler)
    pool = None
    for i, burst in enumerate(iter_batches(seq, 16)):
        result = sched.apply_batch_sharded(burst, workers="processes")
        assert not result.failed, result.failure
        if pool is None:
            pool = sched._shard_pool
            pool.snapshot_every = 4
    assert pool is not None
    assert all(w.bursts_since_snapshot < 4 for w in pool.workers)
    assert all(len(w.replay) < 4 for w in pool.workers)
    sched.close_shard_workers()


# ----------------------------------------------------------------------
# crash injection
# ----------------------------------------------------------------------
def test_worker_crash_mid_burst_rolls_back_and_recovers():
    """Kill a worker mid-burst: the whole burst rolls back, the
    scheduler stays usable and equivalent to never having applied the
    burst, the worker is re-seeded, and the SAME burst then succeeds."""
    seq = make_workload(700, seed=4)
    prefix, burst, rest = seq[:320], seq[320:352], seq[352:]

    sched = ReservationScheduler(3, gamma=8)
    drive_process_bursts(sched, prefix, batch_size=32)
    pool = sched.delegator._shard_pool
    victim = pool.workers[1].process.pid

    # reference that never saw the burst
    untouched = ReservationScheduler(3, gamma=8)
    for r in prefix:
        untouched.apply(r)

    pool.crash_worker_after(1, 2)  # hard-exit after 2 ops of next burst
    result = sched.apply_batch_sharded(burst, workers="processes")
    assert result.failed and result.rolled_back
    assert isinstance(result.error, WorkerCrashError)
    assert result.processed == 0

    # pre-burst state is exactly restored (compare via sync-less parent
    # state first, then full equivalence after closing the pool)
    assert pool.workers[1].process.pid != victim  # re-seeded worker
    snapshot = ReservationScheduler(3, gamma=8)
    for r in prefix:
        snapshot.apply(r)
    assert dict(sched.placements) == dict(snapshot.placements)
    assert sched.jobs == snapshot.jobs

    # the same burst now succeeds on the re-seeded worker, and the full
    # run matches a sequential reference bit for bit
    result = sched.apply_batch_sharded(burst, workers="processes")
    assert not result.failed, result.failure
    drive_process_bursts(sched, rest, batch_size=32)
    sched.close_shard_workers()
    reference = ReservationScheduler(3, gamma=8)
    for r in seq:
        reference.apply(r)
    assert_equivalent(sched, reference)
    sched.check_balance()
    untouched.close_shard_workers()


def test_external_kill_between_bursts_recovers():
    """A worker killed from outside (not mid-protocol) fails the next
    burst with rollback; the burst after that succeeds."""
    seq = make_workload(500, seed=5)
    sched = DelegatingScheduler(3, AlignedReservationScheduler)
    chunks = list(iter_batches(seq, 32))
    for burst in chunks[:6]:
        result = sched.apply_batch_sharded(burst, workers="processes")
        assert not result.failed, result.failure
    pool = sched._shard_pool
    pool.kill_worker(0)
    result = sched.apply_batch_sharded(chunks[6], workers="processes")
    assert result.failed and result.rolled_back
    assert isinstance(result.error, WorkerCrashError)
    for burst in chunks[6:]:
        result = sched.apply_batch_sharded(burst, workers="processes")
        assert not result.failed, result.failure
    sched.close_shard_workers()
    reference = DelegatingScheduler(3, AlignedReservationScheduler)
    for r in seq:
        reference.apply(r)
    assert_equivalent(sched, reference)


def test_sync_back_after_worker_death_rebuilds_locally():
    """Closing the pool with a dead worker reconstructs that shard's
    state from snapshot + replay (no worker round trip available)."""
    seq = make_workload(400, seed=6)
    reference = DelegatingScheduler(3, AlignedReservationScheduler)
    for r in seq:
        reference.apply(r)
    sched = DelegatingScheduler(3, AlignedReservationScheduler)
    for burst in iter_batches(seq, 32):
        result = sched.apply_batch_sharded(burst, workers="processes")
        assert not result.failed, result.failure
    sched._shard_pool.kill_worker(2)
    sched.close_shard_workers()  # shard 2 rebuilt from snapshot+replay
    assert_equivalent(sched, reference)
    sched.check_balance()


def test_scheduler_failure_in_worker_rolls_back_all_shards():
    """A scheduler-level failure (duplicate insert reaches a shard) is
    reported with the failing request's index and rolls the burst back;
    the workers survive (no crash, no respawn)."""
    from repro.core.requests import insert

    seq = make_workload(300, seed=7)
    sched = ReservationScheduler(3, gamma=8)
    drive_process_bursts(sched, seq[:128], batch_size=32)
    pool = sched.delegator._shard_pool
    pids = [w.process.pid for w in pool.workers]
    pre_placements = dict(sched.placements)

    bad = list(seq[128:150]) + [insert("dup", 0, 64), insert("dup", 0, 64)]
    result = sched.apply_batch_sharded(bad, workers="processes")
    assert result.failed and result.rolled_back
    assert not isinstance(result.error, WorkerCrashError)
    assert dict(sched.placements) == pre_placements
    # same processes, still alive — failure is not a crash
    assert [w.process.pid for w in pool.workers] == pids
    drive_process_bursts(sched, seq[128:], batch_size=32)
    sched.close_shard_workers()
    sched.check_balance()


# ----------------------------------------------------------------------
# sessions: process backend, crash policy, resume across restart
# ----------------------------------------------------------------------
def test_session_process_backend_matches_sequential_and_releases_pool():
    seq = make_workload(600, seed=8)
    sequential = ReservationScheduler(3, gamma=8)
    ref = Session(sequential, seq, ExecutionPlan(backend="sequential")).run()
    sched = ReservationScheduler(3, gamma=8)
    result = Session(sched, seq, ExecutionPlan(
        backend="sharded", shard_workers="processes", batch_size=32)).run()
    assert not result.failed and not ref.failed
    assert result.requests_processed == len(seq)
    assert_equivalent(sched, sequential)
    # the session's finish hook released the pool and synced state back
    assert sched.delegator._shard_pool is None
    assert (sum(len(s.jobs) for s in sched.delegator.machines)
            == len(sched.jobs))


def test_traced_session_resumes_across_worker_restart(tmp_path):
    """A worker crash mid-session fails that burst through the normal
    failure policy (checkpointed trace intact); resuming the trace —
    with brand-new worker processes — completes the run bit-identical
    to an uninterrupted one."""
    seq = make_workload(900, seed=9)
    trace = tmp_path / "run.jsonl"

    full_sched = ReservationScheduler(3, gamma=8)
    full = run_engine(full_sched, seq, batch_size=32, backend="sharded",
                      shard_workers="processes", checkpoint_every=128)
    assert not full.failed

    sched = ReservationScheduler(3, gamma=8)
    armed = []

    def arm_crash(cp):
        # first checkpoint: arm a deterministic crash in the next burst
        if not armed:
            pool = sched.delegator._shard_pool
            pool.crash_worker_after(0, 1)
            armed.append(cp.processed)

    crashed = run_engine(sched, seq, batch_size=32, backend="sharded",
                         shard_workers="processes", checkpoint_every=128,
                         on_checkpoint=arm_crash, trace_path=trace)
    assert crashed.failed and "WorkerCrashError" in crashed.failure
    assert crashed.requests_processed >= armed[0]
    assert sched.delegator._shard_pool is None  # finish hook ran

    records = SessionTrace.read_records(trace)
    assert SessionTrace.resume_offset(records) >= armed[0]

    resumed_sched = ReservationScheduler(3, gamma=8)
    resumed = run_engine(resumed_sched, seq, batch_size=32,
                         backend="sharded", shard_workers="processes",
                         checkpoint_every=128, trace_path=trace,
                         resume=True)
    assert not resumed.failed
    assert resumed.resumed_from > 0
    assert resumed.requests_processed == len(seq)
    assert resumed.ledger_summary == full.ledger_summary
    assert_equivalent(resumed_sched, full_sched)


def test_stop_and_resume_with_fresh_worker_pool(tmp_path):
    """The plain kill/resume round trip on the process backend: the
    first session's pool dies with it; the resumed session spawns a
    fresh pool and converges to the uninterrupted result."""
    seq = make_workload(600, seed=10)
    trace = tmp_path / "run.jsonl"
    full_sched = ReservationScheduler(3, gamma=8)
    full = run_engine(full_sched, seq, batch_size=32, backend="sharded",
                      shard_workers="processes", checkpoint_every=96)

    part = run_engine(ReservationScheduler(3, gamma=8), seq, batch_size=32,
                      backend="sharded", shard_workers="processes",
                      checkpoint_every=96, trace_path=trace, stop_after=192)
    assert part.interrupted

    resumed_sched = ReservationScheduler(3, gamma=8)
    resumed = run_engine(resumed_sched, seq, batch_size=32,
                         backend="sharded", shard_workers="processes",
                         checkpoint_every=96, trace_path=trace, resume=True)
    assert resumed.requests_processed == len(seq)
    assert resumed.ledger_summary == full.ledger_summary
    assert_equivalent(resumed_sched, full_sched)


# ----------------------------------------------------------------------
# CLI flag mapping (satellite)
# ----------------------------------------------------------------------
def _parse(argv):
    return build_parser().parse_args(argv)


def test_shard_workers_flag_mapping(capsys):
    # default: serial, no warning
    assert _parse(["engine"]).shard_workers == "serial"
    # explicit modes pass through
    for mode in ("serial", "processes"):
        assert _parse(["engine", "--shard-workers", mode]).shard_workers == mode
    assert capsys.readouterr().err == ""
    # the deleted thread-pool mode is rejected like any unknown mode
    with pytest.raises(SystemExit):
        _parse(["engine", "--shard-workers", "threads"])
    capsys.readouterr()


def test_shard_workers_flag_rejects_unknown_mode(capsys):
    with pytest.raises(SystemExit):
        _parse(["engine", "--shard-workers", "fibers"])
    capsys.readouterr()


def test_plan_validates_shard_workers():
    for mode in ("fibers", "threads"):
        with pytest.raises(ValueError):
            ExecutionPlan(shard_workers=mode)
    assert SHARD_WORKER_MODES == ("serial", "processes")
    assert ExecutionPlan().resolved_shard_workers == "serial"
    assert ExecutionPlan(
        shard_workers="processes").resolved_shard_workers == "processes"
