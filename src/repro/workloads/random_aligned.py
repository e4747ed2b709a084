"""Random aligned, guaranteed-underallocated workload generation.

The reservation scheduler's guarantees require the request sequence to
stay gamma-underallocated after *every* request (Section 2). The
generator enforces that constructively: a
:class:`~repro.feasibility.hall.LaminarLoadTree` tracks the job count of
every aligned window, and a candidate insertion is admitted only if
``gamma * (load(W) + 1) <= m * |W|`` holds for the window and all its
aligned ancestors — exactly the Lemma 2 density budget, which for
laminar instances certifies gamma-underallocation (the inductive
argument of Lemma 3: the density bound lets size-gamma jobs be packed
window by window).

Generators are deterministic given a seed (``numpy.random.Generator``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.job import Job
from ..core.requests import DeleteJob, InsertJob, RequestSequence
from ..core.window import Window
from ..feasibility.hall import LaminarLoadTree

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class AlignedWorkloadConfig:
    """Knobs for :func:`random_aligned_sequence`.

    Attributes
    ----------
    num_requests:
        Total request count (inserts + deletes).
    num_machines:
        Machine count m used in the density budget.
    gamma:
        Underallocation target enforced after every request.
    horizon:
        Power-of-two time horizon; all windows live in [0, horizon).
    max_span:
        Largest window span to draw (power of two, <= horizon).
    min_span:
        Smallest window span to draw (power of two).
    delete_fraction:
        Probability that a request is a delete (when jobs are active).
    span_bias:
        Geometric bias towards small spans in (0, 1]; 1.0 = uniform
        over the power-of-two span ladder.
    """

    num_requests: int = 1000
    num_machines: int = 1
    gamma: int = 8
    horizon: int = 1 << 14
    max_span: int = 1 << 12
    min_span: int = 1
    delete_fraction: float = 0.35
    span_bias: float = 1.0

    def __post_init__(self) -> None:
        for name in ("horizon", "max_span", "min_span"):
            v = getattr(self, name)
            if v < 1 or v & (v - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if self.max_span > self.horizon:
            raise ValueError("max_span cannot exceed horizon")
        if self.min_span > self.max_span:
            raise ValueError("min_span cannot exceed max_span")
        if not 0 <= self.delete_fraction < 1:
            raise ValueError("delete_fraction must be in [0, 1)")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")


def _draw_span(rng: np.random.Generator, cfg: AlignedWorkloadConfig) -> int:
    import numpy as np

    lo = cfg.min_span.bit_length() - 1
    hi = cfg.max_span.bit_length() - 1
    exps = np.arange(lo, hi + 1)
    if cfg.span_bias >= 1.0:
        weights = np.ones_like(exps, dtype=float)
    else:
        weights = cfg.span_bias ** np.arange(len(exps), dtype=float)
    weights /= weights.sum()
    return 1 << int(rng.choice(exps, p=weights))


def random_aligned_sequence(
    cfg: AlignedWorkloadConfig, seed: int = 0
) -> RequestSequence:
    """Generate a gamma-underallocated aligned insert/delete churn sequence.

    Every prefix of the returned sequence keeps the active set
    m-machine gamma-underallocated (density certificate). If the
    density budget rejects too many candidate windows in a row the
    generator falls back to deleting, so it always terminates.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    seq = RequestSequence()
    tree = LaminarLoadTree(cfg.horizon)
    active: list = []  # job ids, insertion order
    next_id = 0
    attempts_per_request = 64

    while len(seq) < cfg.num_requests:
        do_delete = active and rng.random() < cfg.delete_fraction
        if not do_delete:
            placed = False
            for _ in range(attempts_per_request):
                span = _draw_span(rng, cfg)
                start = int(rng.integers(0, cfg.horizon // span)) * span
                w = Window(start, start + span)
                if tree.would_fit(w, cfg.num_machines, cfg.gamma):
                    job_id = f"j{next_id}"
                    next_id += 1
                    tree.add(job_id, w)
                    seq.append(InsertJob(Job(job_id, w)))
                    active.append(job_id)
                    placed = True
                    break
            if placed:
                continue
            if not active:
                raise RuntimeError(
                    "generator cannot place any job; horizon too small for gamma"
                )
            do_delete = True
        if do_delete:
            victim_idx = int(rng.integers(0, len(active)))
            job_id = active.pop(victim_idx)
            tree.remove(job_id)
            seq.append(DeleteJob(job_id))
    return seq


def saturated_aligned_jobs(
    num_machines: int,
    gamma: int,
    horizon: int,
    seed: int = 0,
    *,
    max_span: int | None = None,
) -> RequestSequence:
    """Insert-only sequence filling the horizon close to the gamma budget.

    Useful for stress tests: the resulting instance is
    gamma-underallocated but nearly tight, maximizing reservation
    contention.
    """
    import numpy as np

    if max_span is None:
        max_span = horizon
    cfg = AlignedWorkloadConfig(
        num_requests=10**9,  # effectively unbounded; we stop at saturation
        num_machines=num_machines,
        gamma=gamma,
        horizon=horizon,
        max_span=max_span,
        delete_fraction=0.0,
    )
    rng = np.random.default_rng(seed)
    seq = RequestSequence()
    tree = LaminarLoadTree(horizon)
    next_id = 0
    misses = 0
    while misses < 200:
        span = _draw_span(rng, cfg)
        start = int(rng.integers(0, horizon // span)) * span
        w = Window(start, start + span)
        if tree.would_fit(w, num_machines, gamma):
            job_id = f"s{next_id}"
            next_id += 1
            tree.add(job_id, w)
            seq.append(InsertJob(Job(job_id, w)))
            misses = 0
        else:
            misses += 1
    return seq
