"""The paper's Theorem 1 scheduler, assembled end to end.

:class:`ReservationScheduler` composes the three constructions exactly
as the proof of Theorem 1 does:

1. **Align** (Section 5): each new job's window is replaced by
   ``ALIGNED(W)`` (losing a factor <= 4 of slack, Lemma 10);
2. **Delegate** (Section 3): the job is assigned to a machine by
   per-window round-robin (losing a factor 6, Lemma 3; at most one
   migration per request). With one machine the round-robin is the
   identity, so an m=1 facade drives its single-machine scheduler
   directly and builds no delegation layer;
3. **Reserve** (Section 4): each machine runs single-machine
   pecking-order scheduling with reservations, with windows trimmed to
   ``2 * gamma * n*`` (Lemma 9: ``O(min{log* n, log* Delta})``
   reallocations per request).

Guarantee: for gamma-underallocated request sequences (gamma a
sufficiently large constant; the paper does not optimize it and neither
do we — experiment E9 measures the empirical threshold), every request
costs ``O(min{log* n, log* Delta})`` reallocations and at most one
migration.
"""

from __future__ import annotations

from typing import Mapping

from ..alignment.align import align_job
from ..analysis.sanitize import sanitize_enabled
from ..levels.policy import LevelPolicy, PAPER_POLICY
from ..multimachine.delegation import DelegatingScheduler
from ..reservation.trimming import TrimmedReservationScheduler
from .base import ReallocatingScheduler
from .job import Job, JobId, Placement


class ReservationScheduler(ReallocatingScheduler):
    """Theorem 1: m-machine reallocating scheduler for unit jobs.

    The facade aligns each job and costs each request; :attr:`inner`
    does the rest. At m=1 that is the single-machine scheduler itself
    (trimmed, deamortized or plain reservation); at m>1 it is a
    :class:`~repro.multimachine.delegation.DelegatingScheduler` over m
    of them.

    Parameters
    ----------
    num_machines:
        Machine count m.
    gamma:
        Power-of-two slack constant used by the trimming layer.
    policy:
        Level decomposition policy (paper tower by default).
    trim:
        Disable to skip the n*-trimming layer (pure log* Delta bound);
        enabled by default, giving the min{log* n, log* Delta} bound.
    deamortized:
        Use the even/odd-slot incremental rebuild (Section 4, end):
        O(1) *worst-case* cost per request instead of O(1) amortized
        with Theta(n) rebuild spikes. Requires twice the slack
        (2*gamma-underallocated instances) and aligned spans >= 2, so
        original windows must have span >= 5 to survive ALIGNED().
    journal:
        Undo-journal mode of the per-machine reservation schedulers:
        ``"arena"`` (default — tuple-opcode entries on a reusable
        arena) or ``"arena-sanitize"`` (arena plus checking container
        proxies, the runtime journal-coverage oracle; also selected by
        ``REPRO_SANITIZE=1`` in the environment). Any other value
        raises :class:`ValueError`.

    Example
    -------
    >>> from repro import Job, Window
    >>> from repro.core.api import ReservationScheduler
    >>> sched = ReservationScheduler(num_machines=2)
    >>> cost = sched.insert(Job("patient-1", Window(3, 17)))
    >>> cost.reallocation_cost
    0
    >>> sched.placements["patient-1"].slot in Window(3, 17)
    True
    """

    _sparse_costing = True

    def __init__(
        self,
        num_machines: int = 1,
        *,
        gamma: int = 8,
        policy: LevelPolicy = PAPER_POLICY,
        trim: bool = True,
        deamortized: bool = False,
        journal: str = "arena",
    ) -> None:
        super().__init__(num_machines=num_machines)
        if journal == "arena" and sanitize_enabled():
            journal = "arena-sanitize"
        self.gamma = gamma
        self.policy = policy
        self.journal_impl = journal
        if deamortized:
            from ..reservation.deamortized import DeamortizedReservationScheduler

            def factory() -> ReallocatingScheduler:
                return DeamortizedReservationScheduler(gamma=gamma, policy=policy,
                                                       journal=journal)
        elif trim:
            def factory() -> ReallocatingScheduler:
                return TrimmedReservationScheduler(gamma=gamma, policy=policy,
                                                   journal=journal)
        else:
            from ..reservation.scheduler import AlignedReservationScheduler

            def factory() -> ReallocatingScheduler:
                return AlignedReservationScheduler(policy, journal=journal)
        #: the single-machine scheduler at m=1, else the delegation
        #: layer over m of them; this facade costs every request
        self.inner: ReallocatingScheduler = self._adopt(
            factory() if num_machines == 1
            else DelegatingScheduler(num_machines, factory))

    @property
    def placements(self) -> Mapping[JobId, Placement]:
        return self.inner.placements

    def _apply_insert(self, job: Job) -> None:
        self.inner.insert(align_job(job))
        self._merge_touched(self.inner.last_touched)

    def _apply_delete(self, job: Job) -> None:
        self.inner.delete(job.id)
        self._merge_touched(self.inner.last_touched)

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    #: placements pass through the inner scheduler, whose own abort
    #: restores them — no batch touched log needed at this layer
    #: (unless top, where the batch net diff still requires one)
    _batch_restore_needs_touched = False

    def _subs(self) -> tuple[ReallocatingScheduler]:
        return (self.inner,)

    # ------------------------------------------------------------------
    def check_balance(self) -> None:
        """Assert the Section 3 per-window balance invariant.

        One machine is balanced by definition, so m=1 checks nothing.
        """
        inner = self.inner
        if isinstance(inner, DelegatingScheduler):
            inner.check_balance()

    def machine_schedulers(self) -> list[ReallocatingScheduler]:
        """The per-machine single-machine schedulers (diagnostics).

        At m=1 that is :attr:`inner` itself; at m>1, the delegation
        layer's machines. Either way they are nested (adopted by an
        owning layer): their ledgers stay empty, their
        ``insert``/``delete``/``apply`` return None, and ``apply_batch``
        on one raises — drive this scheduler instead.
        """
        inner = self.inner
        if isinstance(inner, DelegatingScheduler):
            return list(inner.machines)
        return [inner]
