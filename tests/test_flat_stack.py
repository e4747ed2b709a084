"""The one-machine Theorem 1 stack is one layer over its scheduler.

Section 3's reduction balances each window's jobs over m machines by
round-robin; with m=1 every job lands on machine 0 and nothing
migrates, so delegation is the identity, and ``ReservationScheduler(1)``
builds none. Alignment and n*-trimming are window transforms: the
default m=1 scheduler, :class:`TrimmedReservationScheduler`, applies
both itself and drives one :class:`AlignedReservationScheduler`.

The stacks these replaced are the oracles: alignment over
``DelegatingScheduler(1, factory)``, and alignment over the old
trimming wrapper (``tests/oracle_stack.py``). Every stack must cost
each request identically and end with the same placements and ledger;
the trimmed one also rebuilds at the same requests to the same n*.
"""

from __future__ import annotations

import pickle
from itertools import islice

import pytest

from oracle_stack import AligningScheduler, OracleTrimmed

from repro.core.api import ReservationScheduler, TrimmedReservationScheduler
from repro.core.base import ReallocatingScheduler
from repro.core.job import Job
from repro.core.requests import DeleteJob, InsertJob
from repro.core.window import Window
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.reservation.scheduler import AlignedReservationScheduler
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
    "trimmed": (lambda: OracleTrimmed(gamma=8), False),
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
    """``ReservationScheduler(1)`` never constructs a delegation layer.
    Trimmed, it is itself the one machine's scheduler and drives one
    reservation scheduler; deamortized, its single machine is the
    facade's ``inner``."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("m=1 constructed a DelegatingScheduler")

    monkeypatch.setattr(DelegatingScheduler, "__init__", refuse)
    sched = ReservationScheduler(1, gamma=8, deamortized=deamortized)
    if deamortized:
        assert type(sched) is ReservationScheduler
        assert sched.machine_schedulers() == [sched.inner]
    else:
        assert type(sched) is TrimmedReservationScheduler
        assert sched.machine_schedulers() == [sched]
        assert type(sched.inner) is AlignedReservationScheduler
    assert not isinstance(sched.inner, DelegatingScheduler)
    sched.check_balance()  # one machine is balanced by definition
    with pytest.raises(AssertionError, match="DelegatingScheduler"):
        ReservationScheduler(2, gamma=8, deamortized=deamortized)


# ----------------------------------------------------------------------
# the trimmed facade against the old three-layer stack
# ----------------------------------------------------------------------
def _old_stack():
    return AligningScheduler(lambda: OracleTrimmed(gamma=8))


def assert_same_state(new, old, where):
    """Placements, ledger, rebuild count and n* agree."""
    assert dict(new.placements) == dict(old.placements), where
    assert new.ledger.entries == old.ledger.entries, where
    assert (new.rebuilds, new.n_star) == (old.inner.rebuilds,
                                          old.inner.n_star), where


@pytest.mark.parametrize("stream", ["churn-storm", "steady"])
def test_trimmed_facade_matches_old_stack(stream):
    """Request by request: the same cost, placements, ledger, rebuilds
    and n* as alignment over the old trimming wrapper."""
    new = ReservationScheduler(1, gamma=8)
    old = _old_stack()
    for i, request in enumerate(islice(STREAMS[stream](5), REQUESTS)):
        assert new.apply(request) == old.apply(request), (i, request)
        assert_same_state(new, old, i)
    assert new.rebuilds > 0


def test_trimmed_facade_matches_old_stack_on_aborted_burst(monkeypatch):
    """An atomic flexible burst of 64 that rebuilds and then fails:
    both stacks report the same failure, roll back to the same state,
    and go on identically."""
    resizes = []
    for cls in (TrimmedReservationScheduler, OracleTrimmed):
        resize = cls._resize

        def counting(self, new_n_star, resize=resize):
            resizes.append(type(self).__name__)
            resize(self, new_n_star)

        monkeypatch.setattr(cls, "_resize", counting)
    new, old = ReservationScheduler(1, gamma=8), _old_stack()
    warm = [InsertJob(Job(f"w{i}", Window(64 * i + 1, 64 * i + 200)))
            for i in range(60)]
    warm.append(InsertJob(Job("fill", Window(0, 1))))
    for request in warm:
        assert new.apply(request) == old.apply(request)
    pre = dict(new.placements)
    # the deletes run first and halve n*; the span-1 insert cannot fit
    burst = ([DeleteJob(f"w{i}") for i in range(55)]
             + [InsertJob(Job(f"b{i}", Window(0, 1 << 12)))
                for i in range(8)]
             + [InsertJob(Job("infeasible", Window(0, 1)))])
    assert len(burst) == 64
    resizes.clear()
    got = new.apply_batch(burst, atomic=True, semantics="flexible")
    want = old.apply_batch(burst, atomic=True, semantics="flexible")
    assert sorted(resizes) == ["OracleTrimmed", "TrimmedReservationScheduler"]
    assert got.failed and got.rolled_back
    assert (got.costs, got.failed_index, got.failure) == (
        want.costs, want.failed_index, want.failure)
    assert dict(new.placements) == pre
    assert_same_state(new, old, "abort")
    for i, request in enumerate(burst[:-1]):
        assert new.apply(request) == old.apply(request), (i, request)
        assert_same_state(new, old, i)


# ----------------------------------------------------------------------
# structure pins: one layer above the reservation scheduler
# ----------------------------------------------------------------------
def test_trimmed_request_crosses_two_layers(monkeypatch):
    """A trimmed m=1 request that triggers no rebuild makes exactly two
    ``insert``/``delete`` calls: the facade's and its scheduler's."""
    calls = []
    for name in ("insert", "delete"):
        method = getattr(ReallocatingScheduler, name)

        def counting(self, arg, method=method):
            calls.append(type(self).__name__)
            return method(self, arg)

        monkeypatch.setattr(ReallocatingScheduler, name, counting)
    sched = ReservationScheduler(1, gamma=8)
    sched.insert(Job("a", Window(3, 17)))
    sched.delete("a")
    assert sched.rebuilds == 0
    assert calls == ["TrimmedReservationScheduler",
                     "AlignedReservationScheduler"] * 2


@pytest.mark.parametrize("options", [
    {}, {"deamortized": True}, {"trim": False}, {"num_machines": 3},
], ids=["trimmed", "deamortized", "untrimmed", "m3"])
def test_pickle_keeps_the_stack_class(options):
    """Pickle re-creates through ``__new__`` with no arguments; the
    facade passes what picks its class, so a clone keeps its type."""
    sched = ReservationScheduler(**{"num_machines": 1, "gamma": 8,
                                    **options})
    sched.insert(Job("a", Window(0, 64)))
    clone = pickle.loads(pickle.dumps(sched))
    assert type(clone) is type(sched)
    assert type(clone.inner) is type(sched.inner)
    assert dict(clone.placements) == dict(sched.placements)
