"""The four end-to-end workloads: input streams and scheduler stacks.

Kept apart from ``run.py`` so that the set-up probe can time a fresh
interpreter importing ``repro`` and building one workload's stack, and
nothing else: ``python -c`` imports this module and calls
:meth:`Workload.build`. ``README.md`` next to this file says why each
workload was chosen.

Every stream is prefix-stable: the first ``k`` requests of
``stream(seed, n)`` do not depend on ``n``. The drift guard relies on
that, since it pins the fingerprint of a short seed-0 prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable
from itertools import islice

from repro.core.api import ReservationScheduler
from repro.core.requests import Request
from repro.sim.session import BatchedBackend, DriveBackend, SequentialBackend
from repro.workloads import (
    AlignedWorkloadConfig,
    iter_burst_arrivals,
    iter_churn_storm,
    iter_steady_state,
    random_aligned_sequence,
)

#: the scheduler's slack constant on every workload (the paper's default)
GAMMA = 8


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: its input stream and the stack it drives.

    ``requests`` is the size of one timed pass at ``--scale 1``;
    ``batch`` > 1 drives atomic flexible ``apply_batch`` bursts of that
    size, otherwise one ``apply`` per request.
    """

    name: str
    requests: int
    machines: int
    stream: Callable[[int, int], Iterable[Request]]
    deamortized: bool = False
    batch: int = 1

    def generate(self, seed: int, requests: int) -> list[Request]:
        """The first ``requests`` requests of the stream for ``seed``."""
        return list(islice(self.stream(seed, requests), requests))

    def build(self) -> tuple[ReservationScheduler, DriveBackend]:
        """A fresh scheduler stack and the drive backend that feeds it."""
        scheduler = ReservationScheduler(self.machines, gamma=GAMMA,
                                         deamortized=self.deamortized)
        backend: DriveBackend
        if self.batch > 1:
            backend = BatchedBackend(atomic=True, semantics="flexible")
        else:
            backend = SequentialBackend()
        return scheduler, backend


def _steady(seed: int, requests: int) -> Iterable[Request]:
    return iter_steady_state(requests=requests, target_active=1024, seed=seed)


def _churn_storm(seed: int, requests: int) -> Iterable[Request]:
    return iter_churn_storm(requests=requests, seed=seed)


def _burst_m3(seed: int, requests: int) -> Iterable[Request]:
    # Small delete bursts and a horizon of 3072 jobs' capacity: the
    # active set climbs to the density limit early and churns there on
    # every seed. With the generator's defaults it random-walks instead,
    # and whether a pass hits a run of halving rebuilds depends on the
    # seed (6 to 94 rebuilds in 28.8k requests).
    return iter_burst_arrivals(requests=requests, num_machines=3,
                               horizon=1 << 13, delete_burst_fraction=0.05,
                               seed=seed)


def _deamortized(seed: int, requests: int) -> Iterable[Request]:
    # 2*gamma slack and span >= 2: the deamortized stack requires both.
    # The horizon saturates the density budget at 4096 active jobs, so
    # most of the pass runs at the underallocation limit.
    cfg = AlignedWorkloadConfig(
        num_requests=requests, gamma=2 * GAMMA, horizon=1 << 16,
        max_span=1 << 14, min_span=2, delete_fraction=0.35)
    return random_aligned_sequence(cfg, seed=seed)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("steady-m1", 30_000, 1, _steady),
        Workload("churn-storm-m1", 15_000, 1, _churn_storm),
        Workload("burst-m3-flex64", 64_000, 3, _burst_m3, batch=64),
        Workload("deamortized-m1", 15_000, 1, _deamortized,
                 deamortized=True),
    )
}
