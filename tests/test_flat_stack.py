"""The one-machine Theorem 1 stack drives its scheduler directly.

Section 3's reduction balances each window's jobs over m machines by
round-robin; with m=1 every job lands on machine 0 and nothing
migrates, so delegation is the identity. ``ReservationScheduler(1)``
therefore adopts the single-machine scheduler itself. The stack it
replaced — alignment over ``DelegatingScheduler(1, factory)`` — is
kept here as the oracle, built from the existing classes: both stacks
must cost every request identically and end with the same placements
and ledger.
"""

from __future__ import annotations

from itertools import islice

import pytest

from repro.alignment.align import AligningScheduler
from repro.core.api import ReservationScheduler
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.reservation.trimming import TrimmedReservationScheduler
from repro.workloads import (
    AlignedWorkloadConfig,
    iter_churn_storm,
    iter_steady_state,
    random_aligned_sequence,
)

REQUESTS = 3000


def _churn_storm(seed):
    return iter_churn_storm(requests=REQUESTS, seed=seed)


def _steady(seed):
    return iter_steady_state(requests=REQUESTS, target_active=1024,
                             seed=seed)


def _deamortized(seed):
    # 2*gamma slack and span >= 2, as the deamortized stack requires
    cfg = AlignedWorkloadConfig(
        num_requests=REQUESTS, gamma=16, horizon=1 << 16, max_span=1 << 14,
        min_span=2, delete_fraction=0.35)
    return random_aligned_sequence(cfg, seed=seed)


STREAMS = {"churn-storm": _churn_storm, "steady": _steady,
           "deamortized": _deamortized}

STACKS = {
    "trimmed": (lambda: TrimmedReservationScheduler(gamma=8), False),
    "deamortized": (lambda: DeamortizedReservationScheduler(gamma=8), True),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_flat_m1_matches_delegating_oracle(stack, stream):
    """Request by request, the flattened facade and the pre-flatten
    stack (alignment over a one-machine delegation) agree on the cost;
    at the end, on placements and the whole ledger."""
    factory, deamortized = STACKS[stack]
    flat = ReservationScheduler(1, gamma=8, deamortized=deamortized)
    oracle = AligningScheduler(lambda: DelegatingScheduler(1, factory))
    for i, request in enumerate(islice(STREAMS[stream](3), REQUESTS)):
        got = flat.apply(request)
        want = oracle.apply(request)
        assert got == want, (i, request)
    assert len(flat.ledger) == REQUESTS
    assert dict(flat.placements) == dict(oracle.placements)
    assert flat.ledger.entries == oracle.ledger.entries


@pytest.mark.parametrize("deamortized", [False, True])
def test_one_machine_builds_no_delegation(monkeypatch, deamortized):
    """``ReservationScheduler(1)`` never constructs a delegation layer;
    its single machine is the facade's ``inner``."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("m=1 constructed a DelegatingScheduler")

    monkeypatch.setattr(DelegatingScheduler, "__init__", refuse)
    sched = ReservationScheduler(1, gamma=8, deamortized=deamortized)
    assert sched.machine_schedulers() == [sched.inner]
    assert not isinstance(sched.inner, DelegatingScheduler)
    sched.check_balance()  # one machine is balanced by definition
    with pytest.raises(AssertionError, match="DelegatingScheduler"):
        ReservationScheduler(2, gamma=8, deamortized=deamortized)
