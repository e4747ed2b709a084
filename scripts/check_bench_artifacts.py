#!/usr/bin/env python
"""Bench-artifact schema gate: ``python scripts/check_bench_artifacts.py``.

Validates every committed perf-trajectory artifact
(``benchmarks/results/BENCH_*.json``, ROADMAP observability item c):

1. the file parses as JSON (an interrupted bench can no longer truncate
   one — ``record_json`` writes atomically — but a bad merge still can);
2. each experiment record (the top level for flat artifacts, every
   section for sectioned ones like E12/E14) carries ``experiment``,
   ``workload`` and ``metrics`` blocks;
3. ``metrics`` contains at least one ``requests_per_second*`` field and
   every metric value is a finite number;
4. the E12 drive-backend and E14 flexible-semantics artifacts
   additionally report both sides of their comparison
   (``requests_per_second_sequential`` and
   ``requests_per_second_batched`` / ``requests_per_second_flexible_b64``)
   and the speedup claim each is asserted against — a bench that
   silently dropped one side would otherwise still pass the generic
   schema.

Exit 0 when every artifact conforms, 1 otherwise (listing each
violation). CI runs this right after the bench smoke so a bench that
silently stopped recording its headline number fails the build.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"

REQUIRED_BLOCKS = ("experiment", "workload", "metrics")


#: per-experiment extra requirements: metrics keys and claims keys that
#: must be present in every record of that experiment
EXPERIMENT_CONTRACTS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "e12": (
        ("requests_per_second_sequential",
         "requests_per_second_batched",
         "batched_over_sequential_median"),
        ("batched_median_speedup_above",),
    ),
    "e14": (
        ("requests_per_second_sequential",
         "requests_per_second_flexible_b64",
         "flexible_b64_over_sequential_median"),
        ("flexible_b64_median_speedup_above",),
    ),
}


def check_record(name: str, record: dict, problems: list[str]) -> None:
    """Validate one experiment record (a flat artifact or one section)."""
    for block in REQUIRED_BLOCKS:
        if block not in record:
            problems.append(f"{name}: missing '{block}' block")
    contract = EXPERIMENT_CONTRACTS.get(record.get("experiment", ""))
    if contract is not None:
        metric_keys, claim_keys = contract
        have_metrics = record.get("metrics") or {}
        have_claims = record.get("claims") or {}
        for key in metric_keys:
            if key not in have_metrics:
                problems.append(f"{name}: missing contract metric '{key}'")
        for key in claim_keys:
            if key not in have_claims:
                problems.append(f"{name}: missing contract claim '{key}'")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        if "metrics" in record:
            problems.append(f"{name}: 'metrics' is not an object")
        return
    if not any(k.startswith("requests_per_second") for k in metrics):
        problems.append(f"{name}: no requests_per_second* metric")
    for key, value in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"{name}: metric '{key}' is not a finite number "
                            f"(got {value!r})")


def main() -> int:
    artifacts = sorted(RESULTS.glob("BENCH_*.json"))
    if not artifacts:
        print(f"no BENCH_*.json artifacts under {RESULTS}", file=sys.stderr)
        return 1
    problems: list[str] = []
    for path in artifacts:
        rel = path.relative_to(REPO)
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            problems.append(f"{rel}: unparseable JSON ({exc})")
            continue
        if not isinstance(data, dict) or not data:
            problems.append(f"{rel}: top level is not a non-empty object")
            continue
        if "metrics" in data or "experiment" in data:
            check_record(str(rel), data, problems)
        else:  # sectioned artifact: one record per scenario/machine count
            for section, record in data.items():
                if not isinstance(record, dict):
                    problems.append(
                        f"{rel}[{section}]: section is not an object")
                    continue
                check_record(f"{rel}[{section}]", record, problems)
    if problems:
        for p in problems:
            print(f"bench-artifact: {p}", file=sys.stderr)
        print(f"bench-artifact: {len(problems)} problem(s) in "
              f"{len(artifacts)} artifact(s)", file=sys.stderr)
        return 1
    print(f"bench-artifact: {len(artifacts)} artifact(s) conform")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
