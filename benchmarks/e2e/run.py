#!/usr/bin/env python3
"""End-to-end benchmark of the Theorem 1 scheduler stack.

Four closed-loop workloads with one client each: the client sends its
next request (or burst) only after the previous ``apply`` (or
``apply_batch``) returned, because a caller of this library blocks on
the returned cost. ``README.md`` next to this file documents the
metrics, the workloads and the measurement rules.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0               # all workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace 1     # per-layer run
    python3 benchmarks/e2e/run.py --workload steady-m1 --seed 3 --seconds 20

One workload runs in this process. ``--workload all`` (the default)
runs each workload in its own child process, one after another, while
this process waits. The full result, with per-repeat values and
provenance, goes to a JSON file under ``--out``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every run verified, reproduced itself and saw no input drift.
"""

from __future__ import annotations

import argparse
import functools
import gc
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    # measure this checkout's source, never an installed copy
    raise ImportError(f"{SRC / 'repro'} not found: run from a repository "
                      "checkout")
for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2e_workloads import WORKLOADS, Workload  # noqa: E402

from repro.core import api as core_api  # noqa: E402
from repro.core.api import ReservationScheduler  # noqa: E402
from repro.core.base import ReallocatingScheduler  # noqa: E402
from repro.core.requests import Request  # noqa: E402
from repro.multimachine.delegation import DelegatingScheduler  # noqa: E402
from repro.reservation.deamortized import (  # noqa: E402
    DeamortizedReservationScheduler,
)
from repro.reservation.interval import Interval  # noqa: E402
from repro.reservation.scheduler import AlignedReservationScheduler  # noqa: E402
from repro.reservation.trimming import TrimmedReservationScheduler  # noqa: E402
from repro.sim.incremental import IncrementalVerifier  # noqa: E402
from repro.sim.session import (  # noqa: E402
    DriveBackend,
    ExecutionPlan,
    Session,
    StepOutcome,
    placements_fingerprint,
    sequence_fingerprint,
)

PERF = time.perf_counter
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS_PATH = HERE / "pins.json"
RESULTS_DIR = HERE / "results"

#: the drift guard pins the fingerprint of this seed's inputs ...
PIN_SEED = 0
#: ... and the warm-up runs this many requests of that pinned prefix
WARMUP_REQUESTS = 2048
#: timed repeats per run at least, however short ``--seconds`` is
MIN_REPEATS = 3

#: layer -> span names recorded for it (a span named ``<layer>.<x>``
#: belongs to ``<layer>``); the verifier runs outside the timed region
LAYERS = (
    "sim.session", "core.api", "alignment", "multimachine.delegation",
    "reservation.trimming", "reservation.deamortized",
    "reservation.scheduler", "reservation.interval", "sim.incremental",
)
INTERVAL_METHODS = ("add_dynamic", "slot_lowered", "slot_raised",
                    "rebalance", "swap_slots")

#: (owner, attribute, span name): every entry point the traced run wraps
PATCH_POINTS: tuple[tuple[Any, str, str], ...] = (
    (ReservationScheduler, "insert", "core.api"),
    (ReservationScheduler, "delete", "core.api"),
    (ReservationScheduler, "apply_batch", "core.api"),
    (core_api, "align_job", "alignment"),
    (DelegatingScheduler, "insert", "multimachine.delegation"),
    (DelegatingScheduler, "delete", "multimachine.delegation"),
    (TrimmedReservationScheduler, "insert", "reservation.trimming"),
    (TrimmedReservationScheduler, "delete", "reservation.trimming"),
    (DeamortizedReservationScheduler, "insert", "reservation.deamortized"),
    (DeamortizedReservationScheduler, "delete", "reservation.deamortized"),
    (AlignedReservationScheduler, "insert", "reservation.scheduler"),
    (AlignedReservationScheduler, "delete", "reservation.scheduler"),
    *((Interval, method, f"reservation.interval.{method}")
      for method in INTERVAL_METHODS),
    (IncrementalVerifier, "observe", "sim.incremental"),
    (IncrementalVerifier, "verify_batch", "sim.incremental"),
    (IncrementalVerifier, "full_audit", "sim.incremental"),
)


class InputDrift(Exception):
    """A generator no longer produces the pinned seed-0 input."""


class ChildFailed(Exception):
    """A workload's child process ended without reporting a result."""


# ----------------------------------------------------------------------
# tracing: spans recorded from outside the program
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans with per-name self time, built outside-in.

    A span is ``(name, start, end, parent, step)``; the spans of one
    request or burst share ``step``. Self time is a span's duration
    minus its children's, accumulated per name as spans close.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_step = array("q")
        #: open spans: [name id, start, children's time, span index]
        self._open: list[list] = []
        self.step = 0
        self.rebuild_reinserts = 0
        self.rebuild_moves = 0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    def intern(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return name_id

    def enter(self, name_id: int) -> None:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1][3] if self._open else -1)
        self.span_step.append(self.step)
        self.span_end.append(0.0)
        start = PERF()
        self.span_start.append(start)
        self._open.append([name_id, start, 0.0, index])

    def exit(self, rename: int | None = None) -> float:
        end = PERF()
        name_id, start, children, index = self._open.pop()
        if rename is not None:
            name_id = rename
            self.span_name[index] = rename
        self.span_end[index] = end
        duration = end - start
        self.self_s[name_id] += duration - children
        self.total_s[name_id] += duration
        self.calls[name_id] += 1
        if self._open:
            self._open[-1][2] += duration
        return duration

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = PERF()
            return
        self.gc_pause_s += PERF() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    def by_layer(self, stat: list) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0)
        for name, value in zip(self.names, stat):
            layer = next(layer for layer in LAYERS
                         if name == layer or name.startswith(layer + "."))
            out[layer] += value
        return out

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.span_start)):
                fh.write(
                    f'{{"name": "{names[self.span_name[i]]}", '
                    f'"start": {self.span_start[i]!r}, '
                    f'"end": {self.span_end[i]!r}, '
                    f'"parent": {self.span_parent[i]}, '
                    f'"step_id": {self.span_step[i]}}}\n')


def _span_wrapper(tracer: Tracer, name: str,
                  fn: Callable[..., Any]) -> Callable[..., Any]:
    name_id = tracer.intern(name)
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        enter(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    return traced


def _moved(scheduler: ReallocatingScheduler) -> int:
    """Jobs the scheduler's last request moved (its public touched log)."""
    touched = scheduler.last_touched or {}
    placements = scheduler.placements
    return sum(1 for job_id, old in touched.items()
               if old is not None and placements.get(job_id, old) != old)


def _trimming_wrapper(tracer: Tracer, attr: str,
                      fn: Callable[..., Any]) -> Callable[..., Any]:
    """Trimming span, renamed ``.rebuild`` when the call rebuilt.

    A rebuild inside ``insert`` runs before the new job is placed, so
    its survivors are the jobs active before the call; inside
    ``delete`` it runs after the job left, so they are the jobs active
    after it.
    """
    plain = tracer.intern("reservation.trimming")
    rebuild = tracer.intern("reservation.trimming.rebuild")

    @functools.wraps(fn)
    def traced(self: TrimmedReservationScheduler, *args: Any,
               **kwargs: Any) -> Any:
        rebuilds, before = self.rebuilds, len(self.jobs)
        tracer.enter(plain)
        try:
            return fn(self, *args, **kwargs)
        finally:
            if self.rebuilds == rebuilds:
                tracer.exit()
            else:
                tracer.rebuild_reinserts += (before if attr == "insert"
                                             else len(self.jobs))
                tracer.rebuild_moves += _moved(self)
                tracer.exit(rebuild)
    return traced


_MISSING = object()


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Wrap every :data:`PATCH_POINTS` entry; restore the originals after."""
    saved: list[tuple[Any, str, Any]] = []
    gc.callbacks.append(tracer.on_gc)
    try:
        for owner, attr, name in PATCH_POINTS:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            fn = getattr(owner, attr)
            if owner is TrimmedReservationScheduler:
                wrapper = _trimming_wrapper(tracer, attr, fn)
            else:
                wrapper = _span_wrapper(tracer, name, fn)
            setattr(owner, attr, wrapper)
        yield
    finally:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)  # inherited: uncover the base's
            else:
                setattr(owner, attr, original)



# ----------------------------------------------------------------------
# one pass: a fresh stack drives the whole input once, verified
# ----------------------------------------------------------------------
class TimedBackend(DriveBackend):
    """Wraps a drive backend; times each ``apply`` (request or burst).

    When tracing, each ``apply`` is the root span of its step.
    """

    def __init__(self, inner: DriveBackend, tracer: Tracer | None) -> None:
        self.inner = inner
        self.name = inner.name
        self.chunked = inner.chunked
        self.tracer = tracer
        self.latencies = array("d")
        if tracer is not None:
            self._root = tracer.intern("sim.session")

    def prepare(self, scheduler: ReallocatingScheduler,
                plan: ExecutionPlan) -> None:
        self.inner.prepare(scheduler, plan)

    def steps(self, sequence: Any, plan: ExecutionPlan,
              skip: int = 0) -> Iterator:
        return self.inner.steps(sequence, plan, skip)

    def finish(self, scheduler: ReallocatingScheduler) -> None:
        self.inner.finish(scheduler)

    def apply(self, scheduler: ReallocatingScheduler,
              step: Any) -> StepOutcome:
        tracer = self.tracer
        if tracer is None:
            start = PERF()
            outcome = self.inner.apply(scheduler, step)
            self.latencies.append(PERF() - start)
            return outcome
        tracer.step += 1
        tracer.enter(self._root)
        try:
            return self.inner.apply(scheduler, step)
        finally:
            self.latencies.append(tracer.exit())


@dataclass
class Pass:
    """What one pass measured; holds no reference to its scheduler."""

    requests: int
    processed: int
    failure: str | None
    sched_s: float
    latencies: array
    ledger: dict
    placements: str
    max_migration: int
    layers: dict[str, float] | None


def run_pass(workload: Workload, sequence: list[Request],
             tracer: Tracer | None = None) -> Pass:
    scheduler, backend = workload.build()
    timed = TimedBackend(backend, tracer)
    plan = ExecutionPlan(batch_size=workload.batch, backend=timed,
                         verify="incremental", name=workload.name)
    result = Session(scheduler, sequence, plan).run()
    ledger = result.ledger
    layers = None
    if tracer is not None:
        layers = _layer_metrics(tracer, scheduler, result.scheduler_time_s,
                                result.requests_processed,
                                ledger.total_migrations)
    return Pass(
        requests=len(sequence),
        processed=result.requests_processed,
        failure=result.failure,
        sched_s=result.scheduler_time_s,
        latencies=timed.latencies,
        ledger=ledger.summary(),
        placements=placements_fingerprint(scheduler),
        max_migration=ledger.max_migration,
        layers=layers,
    )


def _layer_metrics(tracer: Tracer, scheduler: ReservationScheduler,
                   sched_s: float, requests: int,
                   migrations: int) -> dict[str, float]:
    self_s = tracer.by_layer(tracer.self_s)
    calls = tracer.by_layer(tracer.calls)
    machines = scheduler.machine_schedulers()
    rebuild_id = tracer.intern("reservation.trimming.rebuild")
    rebuild_s = tracer.total_s[rebuild_id]
    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer == "sim.incremental":
            out["sim.incremental.verify_s"] = self_s[layer]
        else:
            out[f"{layer}.self_s"] = self_s[layer]
        if layer != "sim.session":
            out[f"{layer}.calls"] = calls[layer]
    for method in INTERVAL_METHODS:
        name_id = tracer.intern(f"reservation.interval.{method}")
        out[f"reservation.interval.{method}_calls"] = tracer.calls[name_id]
    out.update({
        "reservation.trimming.rebuilds":
            sum(getattr(m, "rebuilds", 0) for m in machines),
        "reservation.trimming.rebuild_s": rebuild_s,
        "reservation.trimming.rebuild_share": rebuild_s / sched_s,
        "reservation.trimming.rebuild_reinserts": tracer.rebuild_reinserts,
        "reservation.trimming.rebuild_move_ratio":
            tracer.rebuild_moves / max(1, tracer.rebuild_reinserts),
        "reservation.scheduler.journal_entries_per_request":
            sum(m.journal_entries_total for m in machines) / requests,
        "reservation.deamortized.phases":
            sum(getattr(m, "phases_started", 0) for m in machines),
        "multimachine.delegation.migrations": migrations,
        "runtime.gc.pause_s": tracer.gc_pause_s,
        "runtime.gc.gen2_collections": tracer.gc_gen2,
        "trace.coverage":
            (sum(self_s.values()) - self_s["sim.incremental"]) / sched_s,
    })
    return out


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in (0, 1])."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(values: list[float],
              value: float | None = None) -> dict[str, Any]:
    """A metric: reported value, per-repeat values, median and IQR.

    The reported value is the median unless given; callers add the unit.
    """
    median = statistics.median(values)
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"value": median if value is None else value,
            "values": values, "median": median, "iqr": iqr}


def probe_setup(workload: Workload) -> float:
    """Seconds a fresh interpreter takes to import repro and build the stack."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
            "from e2e_workloads import WORKLOADS\n"
            f"WORKLOADS[{workload.name!r}].build()\n"
            "print(time.perf_counter() - t0)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def _check_pin(pins: dict, key: str, fingerprint: str, where: str) -> None:
    if pins.get(key) != fingerprint:
        raise InputDrift(
            f"{where}: input fingerprint {fingerprint} differs from the "
            f"pinned {pins.get(key)!r} ({key}); the generator changed, so "
            "results would not compare with earlier runs")


@dataclass
class Rounds:
    """Everything the measuring loop collected."""

    untraced: list[Pass]
    traced: list[Pass]
    #: set-up probe times, one per round of an untraced run
    setup: list[float]
    #: the last traced pass's tracer (None in an untraced run)
    tracer: Tracer | None


def _timed_passes(workload: Workload, sequence: list[Request],
                  seconds: float, trace: bool) -> Rounds:
    """Repeat rounds until the next one would end after ``seconds``.

    Every pass builds a fresh stack and keeps nothing of the previous
    one alive: dead schedulers and ledgers left for the collector slow
    the next pass down through GC scans of state no caller would hold.
    A round of a traced run is an untraced and a traced pass; a round
    of an untraced run is a pass and a set-up probe. Spreading the
    probes over the run keeps one slow spell of a shared machine from
    setting every probe's time.
    """
    rounds = Rounds([], [], [], None)
    start = PERF()
    while True:
        gc.collect()
        rounds.untraced.append(run_pass(workload, sequence))
        if trace:
            gc.collect()
            rounds.tracer = Tracer()
            with patched(rounds.tracer):
                rounds.traced.append(
                    run_pass(workload, sequence, rounds.tracer))
        else:
            rounds.setup.append(probe_setup(workload))
        done = len(rounds.untraced)
        elapsed = PERF() - start
        if ((trace or done >= MIN_REPEATS)
                and elapsed * (done + 1) / done > seconds):
            return rounds


def measure_workload(name: str, *, seed: int, seconds: float, trace: bool,
                     scale: float = 1.0, pins_path: Path = PINS_PATH,
                     out: Path = RESULTS_DIR) -> dict[str, Any]:
    """Run one workload here and return its full result record.

    Raises :class:`InputDrift` before measuring anything if the inputs
    no longer match the pinned fingerprints. A traced run writes the
    spans of its last traced pass to ``out``.
    """
    workload = WORKLOADS[name]
    pins = json.loads(Path(pins_path).read_text())[name]
    t0 = PERF()
    warm = workload.generate(PIN_SEED, WARMUP_REQUESTS)
    _check_pin(pins, f"prefix{WARMUP_REQUESTS}", sequence_fingerprint(warm),
               f"{name} seed {PIN_SEED}")
    requests = max(1, round(workload.requests * scale))
    sequence = workload.generate(seed, requests)
    fingerprint = sequence_fingerprint(sequence)
    if seed == PIN_SEED and requests == workload.requests:
        _check_pin(pins, "full", fingerprint, f"{name} seed {PIN_SEED}")
    generation_s = PERF() - t0

    # untimed: caches, lazy imports; never longer than one timed pass
    warm_pass = run_pass(workload, warm[:requests])
    del warm
    gc.collect()
    gc.freeze()  # the input is long-lived: keep it out of GC scans
    try:
        rounds = _timed_passes(workload, sequence, seconds, trace)
    finally:
        gc.unfreeze()
    passes, traced, tracer = rounds.untraced, rounds.traced, rounds.tracer

    problems = _problems(warm_pass, passes + traced)
    attempted = sum(p.requests for p in passes + traced)
    failed = attempted - sum(p.processed for p in passes + traced)
    record: dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace), "scale": scale,
        "run_id": f"{os.getpid()}-{time.time_ns()}",
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "repeats": len(passes), "traced_repeats": len(traced),
        "info": {
            "requests_per_pass": requests,
            "batch": workload.batch,
            "sequence_fingerprint": fingerprint,
            "placements_fingerprint": passes[0].placements,
            "ledger": passes[0].ledger,
            "generation_s": generation_s,
        },
    }
    if tracer is not None:
        spans = Path(out) / f"spans-{name}.jsonl.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(spans)
        record["metrics"] = _per_layer(passes, traced)
        record["info"]["spans_jsonl"] = str(spans)
        record["info"]["wait_s"] = dict.fromkeys(LAYERS, 0.0)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["metrics"], info = _end_to_end(passes, rounds.setup, rss_mb)
        record["info"].update(info)
    return record


def _problems(warm: Pass, passes: list[Pass]) -> list[str]:
    """What went wrong in the warm-up or the measured passes, if anything.

    The measured passes all drive the same input through a fresh,
    deterministic stack, so they must end with the same ledger and the
    same placements, traced or not.
    """
    problems = []
    for p in (warm, *passes):
        if p.failure is not None:
            problems.append(f"run failed: {p.failure}")
        elif p.processed != p.requests:
            problems.append(f"processed {p.processed} of {p.requests}")
        if p.max_migration > 1:
            problems.append(f"{p.max_migration} migrations in one request "
                            "(Theorem 1 allows one)")
    if len({json.dumps(p.ledger, sort_keys=True) for p in passes}) > 1:
        problems.append("repeats disagree on the cost ledger")
    if len({p.placements for p in passes}) > 1:
        problems.append("repeats disagree on the final placements")
    return problems


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _end_to_end(passes: list[Pass], setup: list[float],
                rss_mb: float) -> tuple[dict[str, Any], dict[str, Any]]:
    """The gated end-to-end metrics, and numbers kept for context only.

    Every pass makes the same calls in the same order, so call ``i``
    has one latency per pass; the timing metrics use the fastest of
    them. Other tenants of a shared machine slow some passes down by
    up to half for seconds or minutes at a time, while the program's
    own costs (rebuild spikes, GC pauses, which recur at the same
    calls) are in every pass. ``values`` keeps each pass's own figure.
    """
    units = _units("end_to_end")
    best = sorted(map(min, zip(*(p.latencies for p in passes))))
    per_pass = [sorted(p.latencies) for p in passes]

    def latency(q: float) -> dict[str, Any]:
        return summarize([percentile(lat, q) * 1e6 for lat in per_pass],
                         percentile(best, q) * 1e6)

    metrics = {
        "throughput_rps": summarize([p.processed / p.sched_s
                                     for p in passes],
                                    passes[0].processed / sum(best)),
        "latency_p50_us": latency(0.50),
        "latency_p99_us": latency(0.99),
        "reallocs_per_request": summarize([p.ledger["total_realloc"]
                                           / p.ledger["requests"]
                                           for p in passes]),
        "setup_s": summarize(setup),
        "peak_rss_mb": summarize([rss_mb]),
    }
    for name, metric in metrics.items():
        metric["unit"] = units[name]
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"BENCHMARK.json names unmeasured metrics {missing}")
    ledger = passes[0].ledger
    info = {
        "calls_per_pass": len(best),
        "latency_p999_us": percentile(best, 0.999) * 1e6,
        "latency_max_us": best[-1] * 1e6,
        "max_reallocs_per_request": ledger["max_realloc"],
        "migrations_per_request": ledger["total_migrations"]
                                  / ledger["requests"],
        "failed_ratio": 1 - sum(p.processed for p in passes)
                        / sum(p.requests for p in passes),
        "sched_s_per_pass": [p.sched_s for p in passes],
    }
    return metrics, info


def _per_layer(untraced: list[Pass], traced: list[Pass]) -> dict[str, Any]:
    units = _units("per_layer")
    overhead = (statistics.median(p.sched_s for p in traced)
                / statistics.median(p.sched_s for p in untraced))
    metrics: dict[str, Any] = {}
    for name, unit in units.items():
        values = ([overhead] if name == "trace.overhead_ratio"
                  else [p.layers[name] for p in traced])
        metrics[name] = {**summarize(values), "unit": unit}
    return metrics


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def provenance(args: argparse.Namespace) -> dict[str, Any]:
    # the ceiling keeps git from reporting a repository above a checkout
    # that is not one itself
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "trace": args.trace, "min_repeats": MIN_REPEATS,
        "warmup_requests": WARMUP_REQUESTS,
    }


def _run_children(args: argparse.Namespace) -> list[dict[str, Any]]:
    """One child process per workload, one at a time, this one waiting."""
    records = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), "--out", str(args.out)]
        path = _result_path(args.out, name, args.seed, args.trace)
        path.unlink(missing_ok=True)
        child = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=900)
        sys.stderr.write(child.stderr)
        if not path.exists():  # drift or a crash: nothing was reported
            raise ChildFailed(f"workload {name}: child process exited "
                              f"with code {child.returncode} and no result")
        records.append(json.loads(path.read_text())["workloads"][name])
    return records


def _result_path(out: Path, label: str, seed: int, trace: int) -> Path:
    return Path(out) / f"{label}-seed{seed}-trace{trace}.json"


def _print_record(record: dict[str, Any]) -> None:
    status = "ok" if record["correct"] else "FAILED"
    print(f"== {record['workload']} seed={record['seed']} "
          f"repeats={record['repeats']} attempted={record['attempted']} "
          f"failed={record['failed']} {status}")
    for problem in record["problems"]:
        print(f"   problem: {problem}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<52} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="measure for about this long per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply each pass's request count (tests)")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR,
                        help="directory for the result JSON")
    args = parser.parse_args(argv)

    try:
        if args.workload == "all":
            records = _run_children(args)
        else:
            records = [measure_workload(
                args.workload, seed=args.seed, seconds=args.seconds,
                trace=bool(args.trace), scale=args.scale, out=args.out)]
    except (InputDrift, ChildFailed) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    args.out.mkdir(parents=True, exist_ok=True)
    path = _result_path(args.out, args.workload, args.seed, args.trace)
    path.write_text(json.dumps({
        "provenance": provenance(args),
        "workloads": {r["workload"]: r for r in records},
    }, indent=1) + "\n")

    for record in records:
        _print_record(record)
    print(f"result written to {path}")
    single = len(records) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (name if single else f"{r['workload']}/{name}"):
                {"value": m["value"], "unit": m["unit"]}
            for r in records for name, m in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
