"""Baseline reallocating schedulers the experiments compare against.

- :class:`EDFRebuildScheduler` / :class:`LLFRebuildScheduler` — the
  classical greedy policies the paper calls brittle (Section 1);
- :class:`NaivePeckingScheduler` — the Lemma 4 warm-up with
  O(log Delta) cascades;
- :class:`MinChangeMatchingScheduler` — per-request-optimal
  reallocation via the Hungarian method (our yardstick);
- :class:`SizedGreedyScheduler` — first-fit rebuild for the sized-job
  lower bound (Observation 13).

Each name below loads its submodule on first access; the matching
baseline imports numpy and scipy only when it solves.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "UniformSizedReservationScheduler": ".uniform_sized",
    "EDFRebuildScheduler": ".edf",
    "edf_schedule": ".edf",
    "LLFRebuildScheduler": ".llf",
    "llf_schedule": ".llf",
    "MinChangeMatchingScheduler": ".matching",
    "NaivePeckingScheduler": ".naive_pecking",
    "SizedGreedyScheduler": ".sized_jobs",
    "sized_first_fit": ".sized_jobs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
