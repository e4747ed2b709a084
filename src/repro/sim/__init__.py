"""Simulation harness: the Session loop, sweeps, metrics, growth fits, reports.

Every run drives a :class:`Session` with an :class:`ExecutionPlan`,
returns one result type, :class:`SessionResult`, and records one trace
format, :class:`SessionTrace`. Each name below loads its submodule on
first access, so ``from repro.sim import Session`` does not import the
growth fits or the sweep.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "breakdown_table": ".breakdown",
    "by_level": ".breakdown",
    "cascade_depths": ".breakdown",
    "movement_breakdown": ".breakdown",
    "replay_and_diff": ".replay",
    "shrink_failing_prefix": ".replay",
    "Checkpoint": ".session",
    "IncrementalVerifier": ".incremental",
    "run_sweep": ".engine",
    "sweep_table": ".engine",
    "BatchedBackend": ".session",
    "DEFAULT_FULL_AUDIT_EVERY": ".session",
    "DriveBackend": ".session",
    "ExecutionPlan": ".session",
    "SequentialBackend": ".session",
    "Session": ".session",
    "SessionResult": ".session",
    "SessionTrace": ".session",
    "GrowthFit": ".metrics",
    "doubling_series": ".metrics",
    "fit_growth": ".metrics",
    "summarize_series": ".metrics",
    "experiment_header": ".report",
    "format_series": ".report",
    "format_table": ".report",
    "sparkline": ".report",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
