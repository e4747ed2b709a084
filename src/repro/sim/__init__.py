"""Simulation harness: drivers, engine, metrics, growth fitting, reports.

Every drive surface returns one result type, :class:`SessionResult`, and
records one trace format, :class:`SessionTrace`.
"""

from .breakdown import breakdown_table, by_level, cascade_depths, movement_breakdown
from .driver import run_comparison, run_sequence
from .engine import run_engine, run_sweep, sweep_table
from .incremental import IncrementalVerifier
from .metrics import GrowthFit, doubling_series, fit_growth, summarize_series
from .replay import replay_and_diff, shrink_failing_prefix
from .report import experiment_header, format_series, format_table, sparkline
from .session import (
    BatchedBackend,
    Checkpoint,
    DEFAULT_FULL_AUDIT_EVERY,
    DriveBackend,
    ExecutionPlan,
    SequentialBackend,
    Session,
    SessionResult,
    SessionTrace,
)

__all__ = [
    "breakdown_table",
    "by_level",
    "cascade_depths",
    "movement_breakdown",
    "replay_and_diff",
    "shrink_failing_prefix",
    "run_comparison",
    "run_sequence",
    "Checkpoint",
    "IncrementalVerifier",
    "run_engine",
    "run_sweep",
    "sweep_table",
    "BatchedBackend",
    "DEFAULT_FULL_AUDIT_EVERY",
    "DriveBackend",
    "ExecutionPlan",
    "SequentialBackend",
    "Session",
    "SessionResult",
    "SessionTrace",
    "GrowthFit",
    "doubling_series",
    "fit_growth",
    "summarize_series",
    "experiment_header",
    "format_series",
    "format_table",
    "sparkline",
]
