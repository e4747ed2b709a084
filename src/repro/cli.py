"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
- ``demo`` — run a short churn workload through the Theorem 1
  scheduler and print the cost table (sanity check of an install).
- ``compare`` — head-to-head cost comparison of all schedulers on a
  generated workload (``--requests``, ``--machines``, ``--seed``).
- ``engine`` — run one scenario at scale through the batch engine with
  phase-split timing, incremental verification, and checkpoints.
- ``sweep`` — run every (scenario x scheduler) cell through the engine
  and print the comparison table.
- ``generate`` — emit a workload as JSON (replayable with ``replay``).
- ``replay`` — run a JSON request trace through a chosen scheduler,
  verifying feasibility after every request.
- ``bounds`` — print the paper's bound values at given parameters.

``demo``, ``engine``, and ``sweep`` accept ``--batch-size N`` (drive
requests through the transactional ``apply_batch`` API in bursts of N),
``--atomic-batches`` (all-or-nothing bursts), ``--batch-semantics
{strict,flexible}`` (``flexible`` plans each burst jointly — deletes
coalesced, interior insert/delete pairs elided, surviving inserts
placed in span order; bounds-equivalent rather than
placement-identical), and ``--backend {auto,sequential,batched}``
— the session drive backend.

``engine`` and ``sweep`` support resumable runs: ``--trace FILE`` /
``--trace-dir DIR`` write the session's JSONL checkpoint trace,
``--stop-after N`` ends a run gracefully mid-stream, and ``--resume``
continues from the last checkpoint (completed sweep cells are read
back from their traces without re-running).
"""

from __future__ import annotations

import argparse
import sys

from .analysis.bounds import (
    PAPER_SLACK,
    lemma4_cost_bound,
    lemma11_migration_bound,
    lemma12_reallocation_bound,
    theorem1_cost_bound,
)
from .baselines.edf import EDFRebuildScheduler
from .baselines.llf import LLFRebuildScheduler
from .baselines.matching import MinChangeMatchingScheduler
from .baselines.naive_pecking import NaivePeckingScheduler
from .core.api import ReservationScheduler
from .core.base import BATCH_SEMANTICS
from .core.requests import RequestSequence
from .sim.driver import run_comparison, run_sequence
from .sim.engine import run_engine, run_sweep, sweep_table
from .sim.report import format_table
from .sim.session import BACKENDS
from .workloads.random_aligned import AlignedWorkloadConfig, random_aligned_sequence
from .workloads.scenarios import SCENARIOS

SCHEDULERS = {
    "reservation": lambda m: ReservationScheduler(m, gamma=8),
    "reservation-deamortized": lambda m: ReservationScheduler(
        m, gamma=8, deamortized=True),
    "edf": lambda m: EDFRebuildScheduler(m),
    "llf": lambda m: LLFRebuildScheduler(m),
    "naive": lambda m: (_require_single(m), NaivePeckingScheduler())[1],
    "matching": lambda m: MinChangeMatchingScheduler(m),
}


def _require_single(m: int) -> None:
    if m != 1:
        raise SystemExit("the naive pecking scheduler is single-machine only")


def _make_workload(args) -> RequestSequence:
    cfg = AlignedWorkloadConfig(
        num_requests=args.requests,
        num_machines=args.machines,
        gamma=args.gamma,
        horizon=args.horizon,
        max_span=args.horizon,
        delete_fraction=args.delete_fraction,
    )
    return random_aligned_sequence(cfg, seed=args.seed)


def cmd_demo(args) -> int:
    seq = _make_workload(args)
    sched = ReservationScheduler(args.machines, gamma=8)
    result = run_sequence(sched, seq, batch_size=args.batch_size,
                          atomic_batches=args.atomic_batches,
                          batch_semantics=args.batch_semantics,
                          backend=args.backend)
    rows = [[k, v] for k, v in result.summary.items()]
    title = f"Theorem 1 scheduler on {len(seq)} requests"
    if args.batch_size > 1:
        title += (f", batch={args.batch_size}"
                  f"{' atomic' if args.atomic_batches else ''}")
    if args.batch_semantics != "strict":
        title += f", semantics={args.batch_semantics}"
    if args.backend != "auto":
        title += f", backend={args.backend}"
    print(format_table(["metric", "value"], rows, title=title))
    return 0


def cmd_compare(args) -> int:
    seq = _make_workload(args)
    names = args.schedulers.split(",") if args.schedulers else [
        "reservation", "edf", "llf"]
    factories = {}
    for name in names:
        if name not in SCHEDULERS:
            raise SystemExit(
                f"unknown scheduler {name!r}; choices: {sorted(SCHEDULERS)}")
        factories[name] = (lambda nm=name: SCHEDULERS[nm](args.machines))
    results = run_comparison(factories, seq)
    rows = []
    for name, r in results.items():
        s = r.summary
        rows.append([name, s["max_realloc"], s["mean_realloc"],
                     s["max_migration"], s["total_migrations"], s["wall_s"]])
    print(format_table(
        ["scheduler", "max realloc", "mean realloc", "max migr",
         "total migr", "wall s"],
        rows,
        title=f"{len(seq)} requests, m={args.machines}, "
              f"gamma={args.gamma}, seed={args.seed}",
    ))
    return 0


def cmd_engine(args) -> int:
    if args.scenario not in SCENARIOS:
        raise SystemExit(
            f"unknown scenario {args.scenario!r}; choices: {sorted(SCENARIOS)}")
    if args.scheduler not in SCHEDULERS:
        raise SystemExit(
            f"unknown scheduler {args.scheduler!r}; choices: {sorted(SCHEDULERS)}")
    seq = SCENARIOS[args.scenario](args.requests, args.seed, args.machines)
    sched = SCHEDULERS[args.scheduler](args.machines)

    def progress(cp):
        print(f"  [{args.scenario}] {cp.processed} requests, "
              f"{cp.requests_per_second:.0f} req/s "
              f"(sched {cp.scheduler_time_s:.2f}s, verify {cp.verify_time_s:.2f}s, "
              f"validate {cp.validate_time_s:.2f}s)", file=sys.stderr)

    result = run_engine(
        sched, seq,
        batch_size=args.batch_size,
        atomic_batches=args.atomic_batches,
        batch_semantics=args.batch_semantics,
        backend=args.backend,
        verify=args.verify,
        checkpoint_every=args.checkpoint_every,
        on_checkpoint=progress if args.checkpoint_every else None,
        stop_after=args.stop_after,
        trace_path=args.trace or None,
        resume=args.resume,
        name=f"{args.scenario}/{args.scheduler}",
    )
    rows = [[k, v] for k, v in result.summary.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"engine: {args.scenario} x {args.scheduler}, "
                             f"{len(seq)} requests"
                             + (f", batch={args.batch_size}"
                                f"{' atomic' if args.atomic_batches else ''}"
                                if args.batch_size > 1 else "")
                             + (f", backend={result.backend}"
                                if args.backend != "auto" else "")))
    return 1 if result.failed else 0


def cmd_sweep(args) -> int:
    scen_names = args.scenarios.split(",") if args.scenarios else sorted(SCENARIOS)
    sched_names = args.schedulers.split(",") if args.schedulers else ["reservation"]
    for name in scen_names:
        if name not in SCENARIOS:
            raise SystemExit(
                f"unknown scenario {name!r}; choices: {sorted(SCENARIOS)}")
    for name in sched_names:
        if name not in SCHEDULERS:
            raise SystemExit(
                f"unknown scheduler {name!r}; choices: {sorted(SCHEDULERS)}")
    scenarios = {
        name: SCENARIOS[name](args.requests, args.seed, args.machines)
        for name in scen_names
    }
    factories = {
        name: (lambda nm=name: SCHEDULERS[nm](args.machines))
        for name in sched_names
    }
    results = run_sweep(scenarios, factories, verify=args.verify,
                        batch_size=args.batch_size,
                        atomic_batches=args.atomic_batches,
                        batch_semantics=args.batch_semantics,
                        backend=args.backend,
                        stop_after=args.stop_after,
                        trace_dir=args.trace_dir or None,
                        resume=args.resume)
    print(sweep_table(
        results,
        title=f"scenario sweep: {args.requests} requests/cell, "
              f"m={args.machines}, seed={args.seed}, verify={args.verify}"
              + (f", backend={args.backend}" if args.backend != "auto" else ""),
    ))
    return 1 if any(r.failed for r in results.values()) else 0


def cmd_generate(args) -> int:
    seq = _make_workload(args)
    out = seq.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
        print(f"wrote {len(seq)} requests to {args.output}", file=sys.stderr)
    else:
        print(out)
    return 0


def cmd_replay(args) -> int:
    with open(args.trace) as fh:
        seq = RequestSequence.from_json(fh.read())
    if args.scheduler not in SCHEDULERS:
        raise SystemExit(
            f"unknown scheduler {args.scheduler!r}; choices: {sorted(SCHEDULERS)}")
    sched = SCHEDULERS[args.scheduler](args.machines)
    result = run_sequence(sched, seq, stop_on_error=False)
    rows = [[k, v] for k, v in result.summary.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.scheduler} on {args.trace}"))
    return 1 if result.failed else 0


def cmd_lint(args) -> int:
    from .analysis.staticcheck import main as staticcheck_main

    argv = [str(p) for p in args.paths]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.select:
        argv += ["--select", args.select]
    if args.format_ != "text":
        argv += ["--format", args.format_]
    if args.strict:
        argv.append("--strict")
    if args.ratchet:
        argv.append("--ratchet")
    if args.write_baseline:
        argv.append("--write-baseline")
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.list_rules:
        argv.append("--list-rules")
    return staticcheck_main(argv)


def cmd_bounds(args) -> int:
    rows = [
        ["Theorem 1 cost (3*log*)", theorem1_cost_bound(args.n, args.delta)],
        ["Lemma 4 naive cost", lemma4_cost_bound(args.n, args.delta)],
        ["Lemma 11 migrations (s=n)", lemma11_migration_bound(args.n)],
        ["Lemma 12 staircase total (eta=n/2)",
         lemma12_reallocation_bound(args.n // 2, args.n // 2)],
        ["composed slack constant", PAPER_SLACK.composed_gamma],
    ]
    print(format_table(["bound", "value"], rows,
                       title=f"paper bounds at n={args.n}, Delta={args.delta}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument("--requests", type=int, default=300)
        p.add_argument("--machines", type=int, default=1)
        p.add_argument("--gamma", type=int, default=8)
        p.add_argument("--horizon", type=int, default=1 << 11)
        p.add_argument("--delete-fraction", type=float, default=0.35,
                       dest="delete_fraction")
        p.add_argument("--seed", type=int, default=0)

    def add_batch_args(p):
        p.add_argument("--batch-size", type=int, default=1, dest="batch_size",
                       help="drive requests through apply_batch in bursts "
                            "of this size (1 = per-request)")
        p.add_argument("--atomic-batches", action="store_true",
                       dest="atomic_batches",
                       help="apply each batch all-or-nothing (rolls the "
                            "whole burst back on a mid-batch failure)")
        p.add_argument("--batch-semantics", default="strict",
                       dest="batch_semantics",
                       choices=list(BATCH_SEMANTICS),
                       help="burst semantics: 'strict' replays bursts "
                            "request-for-request (placement-identical); "
                            "'flexible' plans each burst jointly — "
                            "bounds-equivalent placements, lower cost "
                            "on churny bursts")
        p.add_argument("--backend", default="auto",
                       choices=list(BACKENDS),
                       help="session drive backend ('auto' batches when "
                            "--batch-size > 1)")

    def add_trace_args(p, directory=False):
        if directory:
            p.add_argument("--trace-dir", default="", dest="trace_dir",
                           help="write one JSONL session trace per sweep "
                                "cell into this directory")
        else:
            p.add_argument("--trace", default="",
                           help="write the session's JSONL checkpoint "
                                "trace to this file")
        p.add_argument("--resume", action="store_true",
                       help="continue from the trace's last checkpoint "
                            "(deterministic prefix replay)")
        p.add_argument("--stop-after", type=int, default=0,
                       dest="stop_after",
                       help="end the run gracefully after this many "
                            "requests this session (0 = run to the end)")

    p = sub.add_parser("demo", help="run the Theorem 1 scheduler once")
    add_workload_args(p)
    add_batch_args(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("compare", help="compare schedulers on one workload")
    add_workload_args(p)
    p.add_argument("--schedulers", default="",
                   help="comma-separated subset of "
                        f"{sorted(SCHEDULERS)}")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("engine", help="run one scenario through the batch engine")
    p.add_argument("--scenario", default="steady-state",
                   help=f"one of {sorted(SCENARIOS)}")
    p.add_argument("--scheduler", default="reservation")
    p.add_argument("--requests", type=int, default=10000)
    p.add_argument("--machines", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", default="incremental",
                   choices=["incremental", "full", "off"])
    p.add_argument("--checkpoint-every", type=int, default=0,
                   dest="checkpoint_every")
    add_batch_args(p)
    add_trace_args(p)
    p.set_defaults(func=cmd_engine)

    p = sub.add_parser("sweep", help="run every scenario x scheduler cell")
    p.add_argument("--scenarios", default="",
                   help=f"comma-separated subset of {sorted(SCENARIOS)}")
    p.add_argument("--schedulers", default="",
                   help=f"comma-separated subset of {sorted(SCHEDULERS)}")
    p.add_argument("--requests", type=int, default=5000)
    p.add_argument("--machines", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", default="incremental",
                   choices=["incremental", "full", "off"])
    add_batch_args(p)
    add_trace_args(p, directory=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="emit a workload trace as JSON")
    add_workload_args(p)
    p.add_argument("--output", default="")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("replay", help="replay a JSON trace")
    p.add_argument("trace")
    p.add_argument("--scheduler", default="reservation")
    p.add_argument("--machines", type=int, default=1)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bounds", help="print paper bounds at parameters")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--delta", type=int, default=1 << 16)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "lint", help="run the repo contract linter (staticcheck)")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: the repro package)")
    p.add_argument("--rules", default="",
                   help="comma-separated rule subset (default: all)")
    p.add_argument("--select", default="",
                   help="comma-separated rule families to keep from the "
                        "resolved set (exit 2 on unknown names)")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   dest="format_")
    p.add_argument("--strict", action="store_true",
                   help="fail on warnings too, not just errors")
    p.add_argument("--ratchet", action="store_true",
                   help="run the ratcheted hot-path rules against the "
                        "checked-in baseline")
    p.add_argument("--baseline", default="",
                   help="ratchet baseline path (default: repo root)")
    p.add_argument("--write-baseline", action="store_true",
                   dest="write_baseline",
                   help="regenerate the ratchet baseline from this run")
    p.add_argument("--list-rules", action="store_true", dest="list_rules")
    p.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
