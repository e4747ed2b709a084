"""Self-test of the end-to-end benchmark, at 2% of its input size.

Runs every workload untraced through the command line and traced in
this process, and checks what the benchmark promises: every metric
named in ``BENCHMARK.json`` is emitted and finite, the trace accounts
for the timed scheduler work, the traced run leaves the program's
classes as it found them, and a drifted input stops the run.
"""

from __future__ import annotations

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.02


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_e2e_{name}",
                                                  HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


run = _load("run")
compare = _load("compare")


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def test_command_line_emits_every_end_to_end_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", str(SCALE),
         "--seconds", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            emitted = last["metrics"][f"{workload['name']}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert _finite(emitted["value"]), (workload, metric, emitted)

    result = json.loads((tmp_path / "all-seed0-trace0.json").read_text())
    assert {"commit", "python", "usable_cores", "seed"} <= set(
        result["provenance"])
    for record in result["workloads"].values():
        assert record["repeats"] >= run.MIN_REPEATS
        for metric in record["metrics"].values():
            assert {"values", "median", "iqr"} <= set(metric)
    # the same results compare as within bounds of themselves
    assert compare.main([str(tmp_path), str(tmp_path)]) == 0


def test_traced_run_covers_the_work_and_restores_every_patch(tmp_path):
    missing = object()
    before = [(owner, attr, vars(owner).get(attr, missing),
               getattr(owner, attr)) for owner, attr, _ in run.PATCH_POINTS]
    for workload in SPEC["workloads"]:
        record = run.measure_workload(workload["name"], seed=0, seconds=0,
                                      trace=True, scale=SCALE, out=tmp_path)
        assert record["correct"], record["problems"]
        for metric in SPEC["per_layer"]:
            value = record["metrics"][metric["name"]]["value"]
            assert _finite(value), (workload["name"], metric["name"], value)
        assert record["metrics"]["trace.coverage"]["value"] >= 0.98
        assert Path(record["info"]["spans_jsonl"]).stat().st_size > 0
    for owner, attr, own, resolved in before:
        assert vars(owner).get(attr, missing) is own, (owner, attr)
        assert getattr(owner, attr) is resolved, (owner, attr)


def test_tampered_input_fingerprint_fails_the_run(tmp_path):
    pins = json.loads(run.PINS_PATH.read_text())
    pins["steady-m1"]["prefix2048"] = "0" * 16
    tampered = tmp_path / "pins.json"
    tampered.write_text(json.dumps(pins))
    with pytest.raises(run.InputDrift):
        run.measure_workload("steady-m1", seed=0, seconds=0, trace=True,
                             scale=SCALE, pins_path=tampered, out=tmp_path)
    assert not list(tmp_path.glob("spans-*"))


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.0]
    assert compare.verdict(steady, [98.0, 99.0, 100.0, 99.0],
                           False, 0.1)[0] == "within-bound"
    assert compare.verdict(steady, [130.0, 131.0, 129.0, 130.0],
                           False, 0.1)[0] == "worse"
    assert compare.verdict(steady, [130.0, 131.0, 129.0, 130.0],
                           True, 0.1)[0] == "better"
    noisy = [50.0, 150.0, 100.0, 120.0]
    assert compare.verdict(steady, noisy, False, 0.1)[0] == "unresolved"
