"""Window alignment transform ALIGNED(W) (Section 5, Lemma 10)."""

from .align import align_job, align_jobs

__all__ = ["align_job", "align_jobs"]
