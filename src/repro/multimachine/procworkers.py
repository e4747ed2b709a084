"""Process-resident shard workers: true parallelism for sharded bursts.

The serial shard workers of :mod:`repro.multimachine.delegation`
prove exact m-way independence per burst, but run on one core. This module turns that
measured independence into wall-clock speedup: each machine's
single-machine sub-scheduler lives *persistently* in a worker process
across bursts — state never ships per burst — and the coordinator
streams only per-burst op streams (planned by
``DelegatingScheduler.plan_shard_execution``) over a ``multiprocessing``
pipe, collecting per-op touched logs back for the existing global-order
merge.

Protocol (coordinator -> worker, one duplex pipe per worker)
------------------------------------------------------------
- ``("burst", ops)`` — apply one burst's op stream under an atomic
  batch context and reply ``("ok", results)`` (per-op changed ids and
  post-op slots — exactly what the in-process
  :class:`~repro.multimachine.delegation.ShardWorker` records) or
  ``("fail", req_index, failure)`` after self-aborting. The context
  stays open until the verdict arrives.
- ``("commit",)`` / ``("abort",)`` — the coordinator's verdict after
  *all* shards answered: commit on success, abort when any shard
  failed (whole-burst rollback).
- ``("snapshot",)`` — reply with the pickled sub-scheduler (valid only
  between bursts; used on the snapshot cadence and to sync state back
  before the parent resumes in-memory execution).
- ``("crash_after", k)`` — test hook: hard-exit after applying ``k``
  ops of the next burst (deterministic mid-burst crash injection).
- ``("stop",)`` — exit the worker loop.

Failure semantics
-----------------
A worker that *reports* a failure (``ReproError``) aborts its own batch
context; the coordinator then aborts every other shard, so the burst
rolls back wholesale and nothing merges. A worker that *dies* (pipe
EOF) triggers the same all-shard abort, after which the coordinator
re-seeds a fresh worker process from the dead shard's last state
snapshot plus the op streams committed since (bounded by
``snapshot_every``), reporting the burst as failed with
:class:`~repro.core.exceptions.WorkerCrashError`. Either way the
delegating scheduler stays usable and equivalent to one that never saw
the burst.

Serialization boundary
----------------------
Seeding and re-seeding pickle whole sub-schedulers (the reservation
stack supports this via ``__getstate__``/``__setstate__`` — the
per-level probe closures are rebuilt on restore, and the scheduler's
undo-journal arena is dropped and rebuilt fresh: journals are empty at
every legal pickling point, and the restored worker's arena is then
reused for every burst of its lifetime — each burst's atomic batch log
borrows the same containers). Everything else on the pipe is op streams
(:class:`~repro.core.job.Job` objects and ids) and per-op
``(changed, post-slots)`` results. Exceptions are pickled when
possible, else reconstructed from their message.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.base import ReallocatingScheduler
from ..core.exceptions import ReproError, WorkerCrashError
from ..core.job import JobId, Placement

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime import cycle
    from .delegation import ShardPlan

#: default number of committed bursts between worker state snapshots —
#: bounds crash-recovery replay (and coordinator memory) without
#: shipping state per burst
DEFAULT_SNAPSHOT_EVERY = 64

#: one planned shard op on the wire: (req_index, is_insert, Job | JobId)
WireOp = tuple


def _failure_index(failure: tuple[int, ReproError]) -> int:
    """Sort key for shard failures: the failing request's global index."""
    return failure[0]


def _describe_failure(exc: ReproError) -> tuple:
    """Best-effort picklable form of a worker-side scheduler failure."""
    try:
        return ("pickle", pickle.dumps(exc))
    except Exception:
        return ("repr", type(exc).__name__, str(exc))


def _restore_failure(blob: tuple) -> ReproError:
    if blob[0] == "pickle":
        try:
            exc = pickle.loads(blob[1])
            if isinstance(exc, ReproError):
                return exc
        except Exception:
            pass
        return ReproError("shard worker failure (unpicklable exception)")
    return ReproError(f"{blob[1]}: {blob[2]}")


def apply_op_stream(
    sub: ReallocatingScheduler,
    ops: Sequence[WireOp],
    *,
    crash_after: int | None = None,
) -> tuple[list, tuple | None]:
    """Apply one burst's op stream under a fresh atomic batch context.

    Returns ``(results, failure)``: per-op ``(changed_ids, post_slots)``
    tuples — the raw material of the delegator's global-order merge —
    and, on a scheduler failure, ``(req_index, failure_blob)``. The
    batch context is left OPEN on success (the caller commits or aborts
    on the coordinator's verdict) and is already aborted on failure.
    Shared by the worker loop and the coordinator's local crash-rebuild.
    """
    from .delegation import _changed_ids

    sub._batch_begin(atomic=True)
    results: list[tuple[tuple, dict]] = []
    applied = 0
    for req_index, is_insert, payload in ops:
        if crash_after is not None and applied >= crash_after:
            os._exit(1)
        try:
            if is_insert:
                cost = sub.insert(payload)
                jid: JobId = payload.id
            else:
                cost = sub.delete(payload)
                jid = payload
        except ReproError as exc:
            sub._batch_abort()
            return results, (req_index, _describe_failure(exc))
        applied += 1
        changed = _changed_ids(sub, cost, jid)
        placements = sub.placements
        post = {}
        for j in changed:
            pl = placements.get(j)
            post[j] = None if pl is None else pl.slot
        results.append((changed, post))
    return results, None


def _worker_main(conn: Connection, machine: int, snapshot: bytes) -> None:
    """The worker-process loop: one resident sub-scheduler, many bursts."""
    sub: ReallocatingScheduler = pickle.loads(snapshot)
    crash_after: int | None = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # coordinator is gone; nothing to clean up
        kind = msg[0]
        if kind == "burst":
            results, failure = apply_op_stream(sub, msg[1],
                                               crash_after=crash_after)
            crash_after = None
            if failure is None:
                conn.send(("ok", results))
            else:
                conn.send(("fail", failure[0], failure[1]))
        elif kind == "commit":
            sub._batch_commit()
        elif kind == "abort":
            sub._batch_abort()
        elif kind == "snapshot":
            conn.send(("snapshot", pickle.dumps(sub)))
        elif kind == "crash_after":
            crash_after = msg[1]
        elif kind == "stop":
            break
    conn.close()


class _WorkerHandle:
    """Coordinator-side state for one shard's worker process."""

    __slots__ = ("machine", "process", "conn", "snapshot", "replay",
                 "bursts_since_snapshot")

    def __init__(self, machine: int, process: BaseProcess,
                 conn: Connection, snapshot: bytes) -> None:
        self.machine = machine
        self.process = process
        self.conn = conn
        #: pickled sub-scheduler as of the last snapshot point
        self.snapshot = snapshot
        #: op streams committed since the snapshot (crash replay log)
        self.replay: list[Sequence[WireOp]] = []
        self.bursts_since_snapshot = 0


class ProcessShardPool:
    """One persistent worker process per machine, coordinated per burst.

    Built from the delegator's live sub-schedulers (pickled once as the
    initial seed). ``run_burst`` streams each shard's planned ops out
    and fills the plan's :class:`~repro.multimachine.delegation.ShardOp`
    results in; ``commit_burst`` delivers the commit verdict and
    advances the snapshot cadence; ``abort`` paths are handled inside
    ``run_burst``. ``sync_subs`` pulls every shard's full state back
    (for the parent to resume in-memory execution) and ``close`` ends
    the worker processes.
    """

    def __init__(
        self,
        subs: Iterable[ReallocatingScheduler],
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        start_method: str | None = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self.snapshot_every = snapshot_every
        self.workers: list[_WorkerHandle] = [
            self._spawn(i, pickle.dumps(sub), ())
            for i, sub in enumerate(subs)
        ]
        #: streams of the in-flight (applied, unverdicted) burst
        self._pending: dict[int, Sequence[WireOp]] | None = None
        self.closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, machine: int, snapshot: bytes,
               replay: Sequence[Sequence[WireOp]]) -> _WorkerHandle:
        """Start a worker from ``snapshot`` and replay committed bursts.

        The pipe is created immediately before the fork and the child
        end closed in the parent right after, so a worker's death is
        always observable as EOF (no other process holds the write end).
        """
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, machine, snapshot),
            name=f"shard-worker-{machine}", daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(machine, process, parent_conn, snapshot)
        replay_log = handle.replay
        for ops in replay:
            parent_conn.send(("burst", ops))
            reply = parent_conn.recv()
            if reply[0] != "ok":  # pragma: no cover - replay is deterministic
                raise RuntimeError(
                    f"shard worker {machine} failed replaying a committed "
                    f"burst: {reply!r}"
                )
            parent_conn.send(("commit",))
            replay_log.append(ops)
        handle.bursts_since_snapshot = len(replay_log)
        return handle

    def _respawn(self, machine: int) -> None:
        """Replace a dead worker: last snapshot + committed-burst replay."""
        handle = self.workers[machine]
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        if handle.process.is_alive():  # pragma: no cover - defensive
            handle.process.kill()
        handle.process.join()
        self.workers[machine] = self._spawn(
            machine, handle.snapshot, handle.replay)

    def close(self) -> None:
        """Stop every worker process (state is NOT synced back)."""
        if self.closed:
            return
        self.closed = True
        for handle in self.workers:
            try:
                handle.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        for handle in self.workers:
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - defensive
                handle.process.kill()
                handle.process.join()

    def sync_subs(self) -> list[ReallocatingScheduler]:
        """Pull every shard's resident sub-scheduler state back.

        Live workers answer a snapshot request; a dead worker's state is
        rebuilt locally from its last snapshot plus the committed replay
        log (bit-identical: the streams are deterministic). Valid only
        between bursts.
        """
        if self._pending is not None:  # pragma: no cover - defensive
            raise RuntimeError("cannot sync shard state mid-burst")
        subs: list[ReallocatingScheduler] = []
        for handle in self.workers:
            sub = None
            try:
                handle.conn.send(("snapshot",))
                reply = handle.conn.recv()
                sub = pickle.loads(reply[1])
            except (EOFError, OSError, BrokenPipeError):
                sub = self._rebuild_local(handle)
            subs.append(sub)
        return subs

    @staticmethod
    def _rebuild_local(handle: _WorkerHandle) -> ReallocatingScheduler:
        sub = pickle.loads(handle.snapshot)
        for ops in handle.replay:
            _, failure = apply_op_stream(sub, ops)
            if failure is not None:  # pragma: no cover - deterministic
                raise RuntimeError(
                    f"shard {handle.machine} local rebuild failed: {failure!r}")
            sub._batch_commit()
        return sub

    # ------------------------------------------------------------------
    # the per-burst drive
    # ------------------------------------------------------------------
    def run_burst(self,
                  plan: ShardPlan) -> tuple[int | None, ReproError] | None:
        """Stream one planned burst to the workers and collect results.

        On success fills every :class:`ShardOp`'s ``changed`` / ``post``
        (single-machine placements are machine-tagged later by the
        delegator's merge) and leaves the burst pending for
        :meth:`commit_burst`; returns None. On any shard failure or
        worker crash, aborts every shard, re-seeds crashed workers, and
        returns ``(failed_index, error)`` — the burst never merges.
        """
        if self._pending is not None:  # pragma: no cover - defensive
            raise RuntimeError("previous burst has no verdict yet")
        streams: dict[int, list[WireOp]] = {}
        for machine, ops in plan.per_machine.items():
            if not ops:
                continue
            stream: list[WireOp] = []
            for op in ops:
                stream.append((op.req_index, op.insert,
                               op.job if op.insert else op.job_id))
            streams[machine] = stream
        crashed: list[int] = []
        active: list[int] = []
        for machine, payload in streams.items():
            try:
                self.workers[machine].conn.send(("burst", payload))
                active.append(machine)
            except (OSError, BrokenPipeError):
                crashed.append(machine)
        replies: dict[int, tuple] = {}
        for machine in active:
            try:
                replies[machine] = self.workers[machine].conn.recv()
            except (EOFError, OSError):
                crashed.append(machine)
        failures = [(reply[1], _restore_failure(reply[2]))
                    for reply in replies.values() if reply[0] == "fail"]
        if crashed or failures:
            # whole-burst rollback: abort every shard that applied its
            # stream (failed shards aborted themselves; crashed shards
            # lost their state and are re-seeded below)
            for machine, reply in replies.items():
                if reply[0] != "ok":
                    continue
                try:
                    self.workers[machine].conn.send(("abort",))
                except (OSError, BrokenPipeError):
                    crashed.append(machine)
            for machine in dict.fromkeys(crashed):
                self._respawn(machine)
            if failures:
                return min(failures, key=_failure_index)
            dead = sorted(dict.fromkeys(crashed))
            return None, WorkerCrashError(
                f"shard worker(s) {dead} died mid-burst; burst rolled "
                "back, worker(s) re-seeded from the last state snapshot"
            )
        for machine in active:
            results = replies[machine][1]
            for op, (changed, post) in zip(plan.per_machine[machine], results):
                op.changed = tuple(changed)
                restored: dict[JobId, Placement | None] = {}
                for jid, slot in post.items():
                    restored[jid] = None if slot is None else Placement(0, slot)
                op.post = restored
        self._pending = streams
        return None

    def commit_burst(self) -> None:
        """Deliver the commit verdict for the pending burst.

        Appends each shard's stream to its crash-replay log *before*
        sending the verdict, so a worker that dies around the commit is
        re-seeded to the committed state (which the coordinator has
        already merged). Every ``snapshot_every`` committed bursts the
        worker's state is re-snapshotted and the replay log cleared.
        """
        streams, self._pending = self._pending, None
        if streams is None:  # pragma: no cover - defensive
            raise RuntimeError("no pending burst to commit")
        for machine, payload in streams.items():
            handle = self.workers[machine]
            handle.replay.append(payload)
            handle.bursts_since_snapshot += 1
            try:
                handle.conn.send(("commit",))
            except (OSError, BrokenPipeError):
                self._respawn(machine)
                continue
            if handle.bursts_since_snapshot >= self.snapshot_every:
                try:
                    handle.conn.send(("snapshot",))
                    reply = handle.conn.recv()
                    handle.snapshot = reply[1]
                    handle.replay.clear()
                    handle.bursts_since_snapshot = 0
                except (EOFError, OSError, BrokenPipeError):
                    self._respawn(machine)

    # ------------------------------------------------------------------
    # crash injection (tests)
    # ------------------------------------------------------------------
    def kill_worker(self, machine: int) -> None:
        """Hard-kill one worker process (external-failure simulation)."""
        handle = self.workers[machine]
        handle.process.kill()
        handle.process.join()

    def crash_worker_after(self, machine: int, ops: int) -> None:
        """Arm a deterministic crash: exit after ``ops`` ops next burst."""
        self.workers[machine].conn.send(("crash_after", ops))

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
