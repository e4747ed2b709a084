"""Every Theorem 1 stack is one costed layer over its schedulers.

Section 3's reduction balances each window's jobs over m machines by
round-robin; with m=1 every job lands on machine 0 and nothing
migrates, so delegation is the identity, and ``ReservationScheduler(1)``
builds none. At m > 1 the delegation layer is the facade itself.
Alignment and n*-trimming are window transforms: the top scheduler of
each stack aligns each insert once and costs each request, and the
schedulers below it only trim (or split into phase sides) and place.

The stacks these replaced are the oracles (``tests/oracle_stack.py``):
alignment over the old single-machine schedulers, or over a
``DelegatingScheduler`` of them. Every stack must cost each request
identically and end with the same placements and ledger; the trimmed
and deamortized ones also rebuild, or start phases, at the same
requests to the same n*.
"""

from __future__ import annotations

import pickle
import sys
from collections import Counter
from itertools import islice

import pytest

from oracle_stack import (
    AligningScheduler,
    OracleDeamortized,
    OracleTrimmed,
    oracle_stack,
)

import repro.alignment.align
from repro.core.api import (
    DelegatingReservationScheduler,
    ReservationScheduler,
    TrimmedMachine,
    TrimmedReservationScheduler,
    UntrimmedReservationScheduler,
)
from repro.core.base import ReallocatingScheduler
from repro.core.job import Job
from repro.core.requests import DeleteJob, InsertJob, iter_batches
from repro.core.window import Window
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation.deamortized import (
    DeamortizedMachine,
    DeamortizedReservationScheduler,
)
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
    "deamortized": (lambda: OracleDeamortized(gamma=8), True),
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
    Trimmed or deamortized, it is itself the one machine's scheduler:
    it drives one reservation scheduler, or two phase sides."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("m=1 constructed a DelegatingScheduler")

    monkeypatch.setattr(DelegatingScheduler, "__init__", refuse)
    sched = ReservationScheduler(1, gamma=8, deamortized=deamortized)
    assert sched.machine_schedulers() == [sched]
    if deamortized:
        assert type(sched) is DeamortizedReservationScheduler
        assert type(sched.active) is AlignedReservationScheduler
    else:
        assert type(sched) is TrimmedReservationScheduler
        assert type(sched.inner) is AlignedReservationScheduler
    assert not isinstance(sched, DelegatingScheduler)
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
    {"num_machines": 3, "trim": False},
    {"num_machines": 3, "deamortized": True},
], ids=["trimmed", "deamortized", "untrimmed", "m3", "m3-untrimmed",
        "m3-deamortized"])
def test_pickle_keeps_the_stack_class(options):
    """Pickle re-creates through ``__new__`` with no arguments; the
    facade passes what picks its class, so a clone keeps its type, its
    machines' types, and goes on like the original."""
    sched = ReservationScheduler(**{"num_machines": 1, "gamma": 8,
                                    **options})
    for i in range(6):
        sched.insert(Job(f"a{i}", Window(0, 64)))
    clone = pickle.loads(pickle.dumps(sched))
    assert type(clone) is type(sched)
    assert ([type(m) for m in clone.machine_schedulers()]
            == [type(m) for m in sched.machine_schedulers()])
    assert dict(clone.placements) == dict(sched.placements)
    for stack in (sched, clone):
        stack.delete("a0")
    assert clone.insert(Job("b", Window(0, 64))) == sched.insert(
        Job("b", Window(0, 64)))
    assert clone.ledger.entries == sched.ledger.entries


# ----------------------------------------------------------------------
# every flattened stack against its oracle stack
# ----------------------------------------------------------------------
FLAT_REQUESTS = 1500

FLAT_STACKS = {
    "m3-trimmed": (3, {}),
    "m3-untrimmed": (3, {"trim": False}),
    "m3-deamortized": (3, {"deamortized": True}),
    "m1-deamortized": (1, {"deamortized": True}),
    "m1-untrimmed": (1, {"trim": False}),
}


def _widened(request):
    """An insert's window one slot wider: unaligned, and ALIGNED() of
    it is the original aligned window again."""
    if isinstance(request, InsertJob):
        job = request.job
        return InsertJob(job.with_window(Window(job.release,
                                                job.deadline + 1)))
    return request


def _stack_stream(stack, seed=7):
    """Churn storm, or for a deamortized stack the 2*gamma-slack,
    span >= 2 stream it requires, with unaligned windows (so phase
    migrations drain jobs the facade holds unaligned)."""
    machines, options = FLAT_STACKS[stack]
    if options.get("deamortized"):
        cfg = AlignedWorkloadConfig(
            num_requests=FLAT_REQUESTS, num_machines=machines, gamma=16,
            horizon=1 << 14, max_span=1 << 12, min_span=2,
            delete_fraction=0.35)
        return [_widened(r) for r in random_aligned_sequence(cfg, seed=seed)]
    return list(islice(iter_churn_storm(requests=FLAT_REQUESTS,
                                        num_machines=machines, seed=seed),
                       FLAT_REQUESTS))


def machine_state(sched):
    """Per machine: rebuilds, phases started and n* (None where the
    machine's scheduler keeps no such count)."""
    return [(getattr(m, "rebuilds", None), getattr(m, "phases_started", None),
             getattr(m, "n_star", None)) for m in sched.machine_schedulers()]


def assert_same_stack(new, old, where):
    """Placements, ledger and per-machine rebuilds, phases and n* agree."""
    assert dict(new.placements) == dict(old.placements), where
    assert new.ledger.entries == old.ledger.entries, where
    assert machine_state(new) == machine_state(old), where


@pytest.mark.parametrize("drive", ["sequential", "atomic-flexible64"])
@pytest.mark.parametrize("stack", sorted(FLAT_STACKS))
def test_flat_stack_matches_oracle(stack, drive):
    """Request by request (or burst by burst): the same costs,
    placements, ledger, rebuilds and phases as the old nested stack.
    Every fourth burst is first tried with a delete of an absent job at
    its end, so both stacks also abort the same bursts to the same
    state."""
    machines, options = FLAT_STACKS[stack]
    new = ReservationScheduler(machines, gamma=8, **options)
    old = oracle_stack(machines, gamma=8, **options)
    seq = _stack_stream(stack)
    if drive == "sequential":
        for i, request in enumerate(seq):
            assert new.apply(request) == old.apply(request), (i, request)
            assert machine_state(new) == machine_state(old), i
    else:
        for i, burst in enumerate(iter_batches(seq, 64)):
            bursts = [burst]
            if i % 4 == 0:
                bursts.insert(0, [*burst, DeleteJob("absent")])  # aborts
            for attempt in bursts:
                got = new.apply_batch(attempt, atomic=True,
                                      semantics="flexible")
                want = old.apply_batch(attempt, atomic=True,
                                       semantics="flexible")
                assert (got.costs, got.net, got.failed, got.failure) == (
                    want.costs, want.net, want.failed, want.failure), i
                assert got.failed == (attempt is not burst), i
                assert_same_stack(new, old, i)
    assert_same_stack(new, old, "end")
    new.check_balance()
    if machines > 1:
        assert new.ledger.total_migrations > 0
    state = machine_state(new)
    if options.get("deamortized"):
        assert sum(phases for _, phases, _ in state) > 0
    elif options.get("trim", True) and drive == "sequential":
        assert sum(rebuilds for rebuilds, _, _ in state) > 0


@pytest.mark.parametrize("stack", ["m3-trimmed", "m3-deamortized",
                                   "m1-deamortized"])
def test_align_job_runs_once_per_insert(monkeypatch, stack):
    """The facade aligns each top-level insert exactly once: no machine,
    phase migration or delegation migration aligns again."""
    original = repro.alignment.align.align_job
    calls = []

    def counting(job):
        calls.append(job.id)
        return original(job)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "align_job", None) is original):
            monkeypatch.setattr(module, "align_job", counting)
    machines, options = FLAT_STACKS[stack]
    sched = ReservationScheduler(machines, gamma=8, **options)
    seq = _stack_stream(stack)[:800]
    for request in seq[:400]:
        sched.apply(request)
    for burst in iter_batches(seq[400:], 64):
        assert not sched.apply_batch(burst, atomic=True).failed
    inserted = [r.job.id for r in seq if isinstance(r, InsertJob)]
    assert Counter(calls) == Counter(inserted)
    if machines > 1:
        assert sched.ledger.total_migrations > 0
    if options.get("deamortized"):
        assert sum(m.phases_started for m in sched.machine_schedulers()) > 0


@pytest.mark.parametrize("stack,layers", [
    ("m3-trimmed", ["DelegatingReservationScheduler", "TrimmedMachine",
                    "AlignedReservationScheduler"]),
    ("m3-untrimmed", ["DelegatingReservationScheduler",
                      "AlignedReservationScheduler"]),
    ("m3-deamortized", ["DelegatingReservationScheduler",
                        "DeamortizedMachine", "AlignedReservationScheduler"]),
    ("m1-deamortized", ["DeamortizedReservationScheduler",
                        "AlignedReservationScheduler"]),
    ("m1-untrimmed", ["UntrimmedReservationScheduler",
                      "AlignedReservationScheduler"]),
])
def test_request_crosses_one_layer_per_scheduler(monkeypatch, stack, layers):
    """A request that rebuilds, phases and migrates nothing makes one
    ``insert``/``delete`` call per scheduler of the stack, the facade's
    first."""
    calls = []
    for name in ("insert", "delete"):
        method = getattr(ReallocatingScheduler, name)

        def counting(self, arg, method=method):
            calls.append(type(self).__name__)
            return method(self, arg)

        monkeypatch.setattr(ReallocatingScheduler, name, counting)
    machines, options = FLAT_STACKS[stack]
    sched = ReservationScheduler(machines, gamma=8, **options)
    sched.insert(Job("a", Window(3, 17)))
    sched.delete("a")
    assert calls == layers * 2


def test_stack_classes_refuse_other_stacks():
    """A concrete stack class builds only its own stack."""
    for cls, options in [
        (TrimmedReservationScheduler, {"trim": False}),
        (TrimmedReservationScheduler, {"num_machines": 3}),
        (UntrimmedReservationScheduler, {"trim": True}),
        (DeamortizedReservationScheduler, {"deamortized": False}),
        (DelegatingReservationScheduler, {"num_machines": 1}),
    ]:
        with pytest.raises(ValueError):
            cls(**options)
    assert isinstance(DelegatingReservationScheduler(2), DelegatingScheduler)
    assert type(TrimmedMachine()) is TrimmedMachine
    assert type(DeamortizedMachine()) is DeamortizedMachine
