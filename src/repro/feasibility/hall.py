"""Hall-condition / density certificates and the laminar load tree.

Lemma 2 of the paper: if a recursively aligned job set is m-machine
gamma-underallocated, then any aligned window ``W`` contains at most
``m * |W| / gamma`` jobs whose windows nest inside ``W``. For laminar
(recursively aligned) instances the converse also holds — the density
condition is exactly feasibility of the gamma-inflated instance when
jobs run on a gamma-coarse grid (the inductive argument in Lemma 3).

For *general* (unaligned) windows the density over all intervals
``[a, b)`` spanned by job endpoints is necessary and, for unit jobs,
also sufficient at gamma = 1 (Hall's theorem for interval bipartite
graphs); for gamma > 1 it is the certificate the paper's definition
uses operationally.

:class:`LaminarLoadTree` maintains, under inserts/deletes of aligned
jobs, the job count of every aligned window, supporting O(log span)
underallocation queries. The random workload generators use it to emit
instances with an exact target underallocation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from ..core.job import Job, JobId
from ..core.window import Window

if TYPE_CHECKING:  # imported where used: the generators need no Fraction
    from fractions import Fraction

def interval_density_bound(jobs: Iterable[Job], num_machines: int) -> Fraction:
    """max over candidate intervals of  (#jobs with window inside I) / (m * |I|).

    The reciprocal of this quantity is the largest gamma for which the
    density certificate of gamma-underallocation holds. Candidate
    intervals are all [release_i, deadline_j) pairs — O(n^2) of them —
    which is exhaustive: the maximizing interval's endpoints can be
    assumed to coincide with job window endpoints.

    Returns 0 for an empty instance.
    """
    from fractions import Fraction
    job_list = list(jobs)
    if not job_list:
        return Fraction(0)
    releases = sorted({j.release for j in job_list})
    deadlines = sorted({j.deadline for j in job_list})
    best = Fraction(0)
    # Sort jobs once; for each candidate window count contained jobs.
    job_list.sort(key=lambda j: (j.release, j.deadline))
    for a in releases:
        for b in deadlines:
            if b <= a:
                continue
            count = sum(1 for j in job_list if a <= j.release and j.deadline <= b)
            if count == 0:
                continue
            density = Fraction(count, num_machines * (b - a))
            if density > best:
                best = density
    return best


def underallocation_factor(jobs: Iterable[Job], num_machines: int) -> Fraction:
    """Largest gamma such that the density certificate holds (Fraction).

    ``gamma = 1 / max-density``; an empty instance is infinitely
    underallocated, reported as Fraction(10**9) for practical purposes.
    """
    from fractions import Fraction
    density = interval_density_bound(jobs, num_machines)
    if density == 0:
        return Fraction(10**9)
    return 1 / density


def is_density_underallocated(
    jobs: Iterable[Job], num_machines: int, gamma: int
) -> bool:
    """Does the density certificate of gamma-underallocation hold?"""
    return interval_density_bound(jobs, num_machines) * gamma <= 1


class LaminarLoadTree:
    """Aligned-window job counts under dynamic insert/delete.

    For every aligned window ``W`` (span a power of two, start a
    multiple of the span) with at least one contained job, ``load(W)``
    is the number of active jobs whose windows nest inside ``W``.

    The tree is keyed by (span, start-index) and updated along the
    O(log max_span) ancestor chain of each job's window. ``max_span``
    bounds the largest aligned window tracked; loads of windows larger
    than ``max_span`` are not stored (their density only improves).
    """

    def __init__(self, max_span: int) -> None:
        if max_span < 1:
            raise ValueError("max_span must be >= 1")
        self.max_span = max_span
        self._load: dict[Window, int] = {}
        self._jobs: dict[JobId, Window] = {}

    def __len__(self) -> int:
        return len(self._jobs)

    def _chain(self, window: Window) -> Iterable[Window]:
        """The window itself plus all aligned ancestors up to max_span."""
        yield window
        yield from window.aligned_ancestors(self.max_span)

    def add(self, job_id: JobId, window: Window) -> None:
        if not window.is_aligned:
            raise ValueError(f"{window} is not aligned")
        if job_id in self._jobs:
            raise ValueError(f"job {job_id!r} already tracked")
        self._jobs[job_id] = window
        for w in self._chain(window):
            self._load[w] = self._load.get(w, 0) + 1

    def remove(self, job_id: JobId) -> None:
        window = self._jobs.pop(job_id)
        for w in self._chain(window):
            new = self._load[w] - 1
            if new:
                self._load[w] = new
            else:
                del self._load[w]

    def load(self, window: Window) -> int:
        """Number of tracked jobs whose windows nest inside ``window``."""
        return self._load.get(window, 0)

    def would_fit(self, window: Window, num_machines: int, gamma: int) -> bool:
        """Would adding one job with ``window`` keep the instance
        density-gamma-underallocated?

        Checks ``gamma * (load + 1) <= m * |W|`` for the window and all
        its aligned ancestors — for laminar instances that is the full
        Lemma 2 condition (windows disjoint from this one are
        unaffected).
        """
        for w in self._chain(window):
            if gamma * (self._load.get(w, 0) + 1) > num_machines * w.span:
                return False
        return True

    def max_density(self, num_machines: int) -> Fraction:
        """Max over tracked aligned windows of load / (m * span)."""
        from fractions import Fraction
        best = Fraction(0)
        for w, load in self._load.items():
            d = Fraction(load, num_machines * w.span)
            if d > best:
                best = d
        return best

    def verify_against(self, jobs: Mapping[JobId, Job]) -> bool:
        """Cross-check loads against a from-scratch recount (for tests)."""
        recount: dict[Window, int] = {}
        for job in jobs.values():
            w = job.window
            recount[w] = recount.get(w, 0) + 1
            for anc in w.aligned_ancestors(self.max_span):
                recount[anc] = recount.get(anc, 0) + 1
        return recount == self._load


def coarse_grid_jobs(jobs: Mapping[JobId, Job], gamma: int) -> dict[JobId, Job]:
    """Reduce 'length-gamma jobs on a unit grid' to unit jobs on a gamma grid.

    The sufficiency direction of Lemma 2/3: gamma-size jobs restricted
    to start at multiples of gamma are exactly unit jobs over coarse
    slots ``[ceil(r/gamma), floor(d/gamma))``. Jobs whose windows cannot
    fit any full coarse slot map to None and make the certificate fail —
    we signal that by raising ValueError.
    """
    out: dict[JobId, Job] = {}
    for job_id, job in jobs.items():
        lo = -(-job.release // gamma)  # ceil
        hi = job.deadline // gamma  # floor
        if hi <= lo:
            raise ValueError(
                f"job {job_id!r} window {job.window} admits no aligned gamma-slot"
            )
        out[job_id] = Job(job_id, Window(lo, hi))
    return out
