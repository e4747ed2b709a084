"""The import contract: a scheduler stack loads only what its run uses.

Building and driving the Theorem 1 stack must not import numpy, scipy,
or a ``repro`` module no request calls; the package re-exports resolve
on first access instead (``repro/_exports.py``). The first test pins
that in a fresh interpreter; the second checks that every exported name
still resolves to the object its submodule defines.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules a scheduler stack's build and drive never call
NOT_LOADED = (
    "numpy",
    "scipy",
    "fractions",
    "repro.sim.metrics",
    "repro.sim.engine",
    "repro.sim.driver",
    "repro.sim.breakdown",
    "repro.sim.replay",
    "repro.sim.report",
    "repro.reservation.validation",
    "repro.multimachine.elastic",
    "repro.feasibility.checker",
    "repro.feasibility.matching",
    "repro.baselines",
)

DRIVE = """
import json, sys
from repro.core.api import ReservationScheduler
from repro.core.job import Job
from repro.core.requests import DeleteJob, InsertJob
from repro.core.window import Window
from repro.sim.session import ExecutionPlan, Session
import repro.workloads

requests = [InsertJob(Job(f"j{i}", Window(16 * i, 16 * i + 64)))
            for i in range(6)]
requests += [DeleteJob("j1"), DeleteJob("j4")]
plans = {
    "m1": (ReservationScheduler(1), ExecutionPlan(verify="incremental")),
    "m3-flexible-atomic": (
        ReservationScheduler(3),
        ExecutionPlan(verify="incremental", batch_size=4, atomic_batches=True,
                      batch_semantics="flexible")),
    "deamortized": (ReservationScheduler(1, deamortized=True),
                    ExecutionPlan(verify="incremental")),
}
processed = {name: Session(sched, requests, plan).run().requests_processed
             for name, (sched, plan) in plans.items()}
print(json.dumps({"processed": processed, "modules": sorted(sys.modules)}))
"""


def test_scheduler_stack_imports_only_what_it_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", DRIVE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["processed"] == {
        "m1": 8, "m3-flexible-atomic": 8, "deamortized": 8}
    loaded = set(report["modules"])
    assert "repro.sim.session" in loaded  # the probe ran at all
    assert sorted(loaded.intersection(NOT_LOADED)) == []


def _packages():
    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]


@pytest.mark.parametrize("name", _packages())
def test_package_exports_resolve(name):
    package = import_module(name)
    exports = getattr(package, "_EXPORTS", None)
    if exports is not None:
        assert package.__all__ == list(exports)
    listing = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listing
        if exports is not None:
            source = import_module(exports[export], name)
            assert value is getattr(source, export)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")


def test_trimming_keeps_the_old_scheduler_path():
    from repro.core.api import TrimmedReservationScheduler
    from repro.reservation import trimming

    assert trimming.TrimmedReservationScheduler is TrimmedReservationScheduler
    assert "TrimmedReservationScheduler" in dir(trimming)
