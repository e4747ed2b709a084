#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results against the bounds.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A B

``A`` (the baseline) and ``B`` (the change) are each a result JSON file
written by ``run.py`` or a directory of them. Every end-to-end metric of
``BENCHMARK.json`` gets one row per workload:

- ``better`` / ``worse``: the medians differ by more than the bound in
  the metric's direction;
- ``within-bound``: they differ by no more than the bound;
- ``unresolved``: the spread (IQR over median) on either side is wider
  than the bound, and not every run of ``B`` reads better (or, for
  ``worse``, every run worse) than every run of ``A``.

A side with several runs of a workload compares the runs' reported
values; a side with one run compares that run's per-repeat values.
The exit code is 1 when any row is ``worse``, when ``B`` failed more
requests than ``A`` relative to the attempts, or when a ``B`` run did
not pass its own checks; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> dict[str, list[dict[str, Any]]]:
    """workload -> untraced run records in ``path`` (file or directory).

    A record that appears in several files (a ``--workload all`` file
    repeats its children's records) counts once, by its ``run_id``.
    """
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, dict[str, dict[str, Any]]] = {}
    for file in files:
        data = json.loads(file.read_text())
        for name, record in data.get("workloads", {}).items():
            if record["trace"] == 0:
                runs.setdefault(name, {})[record["run_id"]] = record
    return {name: list(by_id.values()) for name, by_id in runs.items()}


def samples(records: list[dict[str, Any]], metric: str) -> list[float]:
    if len(records) == 1:
        return list(records[0]["metrics"][metric]["values"])
    return [r["metrics"][metric]["value"] for r in records]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median) of ``values``."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def verdict(a: list[float], b: list[float], higher_better: bool,
            bound: float) -> tuple[str, float, float]:
    """(verdict, relative worsening of B's median, wider side's spread)."""
    med_a, spread_a = spread(a)
    med_b, spread_b = spread(b)
    sign = -1.0 if higher_better else 1.0
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    wide = max(spread_a, spread_b)
    if wide > bound:
        def better(x: float, y: float) -> bool:
            return x > y if higher_better else x < y
        if all(better(y, x) for x in a for y in b):
            return "better", worse_by, wide
        if worse_by > bound and all(better(x, y) for x in a for y in b):
            return "worse", worse_by, wide
        return "unresolved", worse_by, wide
    if worse_by > bound:
        return "worse", worse_by, wide
    if -worse_by > bound:
        return "better", worse_by, wide
    return "within-bound", worse_by, wide


def failure_ratio(records: list[dict[str, Any]]) -> float:
    return (sum(r["failed"] for r in records)
            / max(1, sum(r["attempted"] for r in records)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="result file or directory")
    parser.add_argument("change", type=Path, help="result file or directory")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load_runs(args.baseline), load_runs(args.change)

    bad = []
    print(f"{'workload':<18} {'metric':<26} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(runs_a) | set(runs_b)):
        a_runs, b_runs = runs_a.get(workload), runs_b.get(workload)
        if not b_runs:
            bad.append(f"{workload}: no untraced run in B")
            continue
        if not a_runs:
            print(f"{workload:<18} no untraced run in A")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = samples(a_runs, name), samples(b_runs, name)
            result, worse_by, wide = verdict(
                a, b, metric["better"] == "higher", metric["bound"])
            print(f"{workload:<18} {name:<26} {statistics.median(a):>12.6g} "
                  f"{statistics.median(b):>12.6g} {worse_by:>+9.2%} "
                  f"{wide:>7.2%} {metric['bound']:>6.0%}  {result}")
            if result == "worse":
                bad.append(f"{workload} {name} worse by {worse_by:.1%}")
        if failure_ratio(b_runs) > failure_ratio(a_runs):
            bad.append(f"{workload}: more failed requests in B")
        if not all(r["correct"] for r in b_runs):
            bad.append(f"{workload}: a B run failed its checks")
    for line in bad:
        print(f"REGRESSION: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
