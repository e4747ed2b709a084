"""Object lifecycle and cost-ledger ownership of the reservation stack.

Two contracts of the request path:

- **Garbage-free replacement.** Intervals hold no reference to their
  scheduler (hooks receive the scheduler as an argument), so a
  single-machine scheduler that the stack replaces — by a trimming
  rebuild, an atomic batch's commit or abort, or a deamortized phase
  end — is freed by reference counting the moment it is dropped. The
  tests run with the cyclic collector disabled: a weak reference to
  the replaced scheduler must be dead right after the request.
- **One ledger per stack.** Only the scheduler the caller invoked
  costs a request and records it; nested sparse layers publish their
  touched logs and nothing else. Placements and ledgers are pinned to
  golden values, so the change of who records stays bit-exact.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.core.api import ReservationScheduler, TrimmedReservationScheduler
from repro.core.costs import RequestCost
from repro.core.exceptions import InvalidRequestError
from repro.core.job import Job
from repro.core.requests import InsertJob, insert, iter_batches
from repro.core.window import Window
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.reservation.scheduler import AlignedReservationScheduler
from repro.sim.session import placements_fingerprint
from repro.workloads import (
    AlignedWorkloadConfig,
    churn_storm_sequence,
    random_aligned_sequence,
)


@contextmanager
def collector_off():
    """Disable the cyclic garbage collector for the block."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def growth_requests(count: int, start: int = 0) -> list:
    """Inserts with wide aligned windows: every n* doubling rebuilds."""
    return [insert(f"g{i}", 0, 1 << 12) for i in range(start, start + count)]


# ----------------------------------------------------------------------
# garbage-free replacement
# ----------------------------------------------------------------------
def test_trimming_rebuild_frees_the_replaced_inner():
    stack = ReservationScheduler(1, gamma=8)
    trimmed = stack.machine_schedulers()[0]
    rebuilds = 0
    with collector_off():
        for request in churn_storm_sequence(requests=1500, seed=1):
            before = trimmed.rebuilds
            ref = weakref.ref(trimmed.inner)
            stack.apply(request)
            if trimmed.rebuilds != before:
                assert ref() is None, "replaced inner survived its rebuild"
                rebuilds += 1
    assert rebuilds >= 2


def test_trimming_rebuild_frees_the_outgoing_inner_before_reinserting(
        monkeypatch):
    """The old and new schedules never coexist: the replaced inner is
    dead by the time the rebuild re-inserts its first survivor."""
    stack = ReservationScheduler(1, gamma=8)
    for request in growth_requests(4):
        stack.apply(request)
    ref = weakref.ref(stack.inner)
    outgoing_alive = []
    insert = AlignedReservationScheduler.insert

    def watching(self, job):
        outgoing_alive.append(ref() is not None)
        return insert(self, job)

    monkeypatch.setattr(AlignedReservationScheduler, "insert", watching)
    with collector_off():
        stack.apply(growth_requests(1, start=4)[0])
    assert stack.rebuilds == 1
    assert outgoing_alive and not any(outgoing_alive)


def test_committed_atomic_rebuild_frees_the_saved_inner():
    stack = ReservationScheduler(1, gamma=8)
    trimmed = stack.machine_schedulers()[0]
    for request in growth_requests(4):
        stack.apply(request)
    with collector_off():
        before = trimmed.rebuilds
        ref = weakref.ref(trimmed.inner)
        result = stack.apply_batch(growth_requests(20, start=4), atomic=True)
        assert not result.failed, result.failure
        assert trimmed.rebuilds > before
        assert ref() is None, "saved pre-batch inner survived the commit"


def test_aborted_atomic_rebuild_frees_the_replacement(monkeypatch):
    stack = ReservationScheduler(1, gamma=8)
    trimmed = stack.machine_schedulers()[0]
    for request in growth_requests(4):
        stack.apply(request)
    replacements: list[weakref.ref] = []
    resize = TrimmedReservationScheduler._resize

    def recording_resize(self, new_n_star):
        resize(self, new_n_star)
        replacements.append(weakref.ref(self.inner))

    monkeypatch.setattr(TrimmedReservationScheduler, "_resize",
                        recording_resize)
    pre_inner = trimmed.inner
    pre_placements = dict(stack.placements)
    bad = growth_requests(20, start=4) + [insert("dup", 0, 64),
                                          insert("dup", 0, 64)]
    with collector_off():
        result = stack.apply_batch(bad, atomic=True)
        assert result.failed and result.rolled_back
        assert replacements, "the batch never rebuilt"
        assert all(ref() is None for ref in replacements), (
            "an aborted rebuild's replacement inner survived the abort")
    assert trimmed.inner is pre_inner
    assert dict(stack.placements) == pre_placements


def test_deamortized_phase_end_frees_the_retired_side():
    sched = DeamortizedReservationScheduler(gamma=8)
    phases_ended = 0
    with collector_off():
        for i in range(200):
            parity = sched.parity
            ref = weakref.ref(sched.active)
            sched.insert(Job(i, Window(0, 1 << 14)))
            if sched.parity != parity:
                assert ref() is None, "retired phase side survived"
                phases_ended += 1
    assert phases_ended >= 3


# ----------------------------------------------------------------------
# one ledger per stack
# ----------------------------------------------------------------------
@pytest.fixture
def cost_counter(monkeypatch):
    """Counts every RequestCost constructed while the test runs."""
    made = [0]
    init = RequestCost.__init__

    def counting_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RequestCost, "__init__", counting_init)
    return made


def nested_ledgers(stack: ReservationScheduler) -> list:
    """The ledger of every scheduler the stack drives, at any depth."""
    ledgers, todo = [], list(stack._subs())
    while todo:
        sub = todo.pop()
        ledgers.append(sub.ledger)
        todo.extend(sub._subs())
    return ledgers


@pytest.mark.parametrize("machines", [1, 3])
@pytest.mark.parametrize("batch", [0, 32])
def test_one_cost_per_request_in_the_top_ledger(cost_counter, machines,
                                                batch):
    seq = list(churn_storm_sequence(requests=1200, seed=2,
                                    num_machines=machines))
    stack = ReservationScheduler(machines, gamma=8)
    batches = 0
    if batch:
        for chunk in iter_batches(seq, batch):
            result = stack.apply_batch(chunk, atomic=True)
            assert not result.failed, result.failure
            batches += 1
    else:
        for request in seq:
            stack.apply(request)
    assert len(stack.ledger) == len(seq)
    # one cost per request, plus each batch's net diff
    assert cost_counter[0] == len(seq) + batches
    assert all(len(ledger) == 0 for ledger in nested_ledgers(stack))


@pytest.mark.parametrize("factory", [
    lambda: TrimmedReservationScheduler(gamma=8),
    lambda: DeamortizedReservationScheduler(gamma=8),
    lambda: DelegatingScheduler(2, lambda: TrimmedReservationScheduler(gamma=8)),
], ids=["trimmed", "deamortized", "delegating"])
def test_standalone_layers_record_their_own_ledger(factory):
    sched = factory()
    for i in range(40):
        sched.insert(Job(i, Window(0, 1 << 12)))
    for i in range(0, 40, 3):
        sched.delete(i)
    assert len(sched.ledger) == 40 + 14
    if isinstance(sched, DelegatingScheduler):
        inners = [sub.inner for sub in sched.machines] + sched.machines
    elif isinstance(sched, DeamortizedReservationScheduler):
        inners = [sched.active]
    else:
        inners = [sched.inner]
    assert all(len(inner.ledger) == 0 for inner in inners)


def test_adopted_scheduler_records_nothing_and_refuses_batches():
    """An adopted (nested) sparse scheduler returns no cost and keeps
    an empty ledger; a batch must go through its owner."""
    owner = DelegatingScheduler(1, lambda: TrimmedReservationScheduler(gamma=8))
    sub = owner.machines[0]
    assert sub.apply(InsertJob(Job("a", Window(0, 8)))) is None
    assert sub.last_touched is not None and len(sub.ledger) == 0
    with pytest.raises(InvalidRequestError):
        sub.apply_batch([InsertJob(Job("b", Window(0, 8)))])
    assert "b" not in sub.jobs


# ----------------------------------------------------------------------
# golden pins: placements and ledgers of seeded churn-storm runs
# ----------------------------------------------------------------------
GOLDEN = {
    "trimmed-m1": ("2d379386deede563", {
        "requests": 4000, "total_realloc": 1212, "total_migrations": 0,
        "max_realloc": 288, "mean_realloc": 0.303, "max_migration": 0,
        "mean_migration": 0.0, "p99_realloc": 1}),
    "deamortized-m1": ("3d41c6be52a24321", {
        "requests": 4000, "total_realloc": 2348, "total_migrations": 0,
        "max_realloc": 3, "mean_realloc": 0.587, "max_migration": 0,
        "mean_migration": 0.0, "p99_realloc": 2}),
    "flexible-atomic64-m3": ("492cff4114ecbe32", {
        "requests": 4000, "total_realloc": 724, "total_migrations": 418,
        "max_realloc": 60, "mean_realloc": 0.181, "max_migration": 1,
        "mean_migration": 0.1045, "p99_realloc": 1}),
    "untrimmed-m1": ("413fd8f911659a38", {
        "requests": 4000, "total_realloc": 44, "total_migrations": 0,
        "max_realloc": 2, "mean_realloc": 0.011, "max_migration": 0,
        "mean_migration": 0.0, "p99_realloc": 0}),
    "strict-trimmed-m3": ("b5395cfccd4b4875", {
        "requests": 4000, "total_realloc": 946, "total_migrations": 421,
        "max_realloc": 50, "mean_realloc": 0.2365, "max_migration": 1,
        "mean_migration": 0.1052, "p99_realloc": 2}),
    "deamortized-m3": ("e04fc746d69afc21", {
        "requests": 4000, "total_realloc": 2062, "total_migrations": 383,
        "max_realloc": 7, "mean_realloc": 0.5155, "max_migration": 1,
        "mean_migration": 0.0958, "p99_realloc": 5}),
}


@pytest.mark.parametrize("name,machines,deamortized,batch", [
    ("trimmed-m1", 1, False, 0),
    ("deamortized-m1", 1, True, 0),
    ("flexible-atomic64-m3", 3, False, 64),
])
def test_golden_churn_storm_runs(name, machines, deamortized, batch):
    seq = list(churn_storm_sequence(requests=4000, seed=5,
                                    num_machines=machines))
    stack = ReservationScheduler(machines, gamma=8, deamortized=deamortized)
    if batch:
        for chunk in iter_batches(seq, batch):
            result = stack.apply_batch(chunk, atomic=True,
                                       semantics="flexible")
            assert not result.failed, result.failure
    else:
        for request in seq:
            stack.apply(request)
    machines_ = stack.machine_schedulers()
    # the pins must cover the replacement paths
    if deamortized:
        assert sum(m.phases_started for m in machines_) > 0
    else:
        assert sum(m.rebuilds for m in machines_) > 0
    fingerprint, summary = GOLDEN[name]
    assert placements_fingerprint(stack) == fingerprint
    assert stack.ledger.summary() == summary


def _slack2_sequence(machines):
    """2*gamma slack and span >= 2, as the deamortized stack requires."""
    cfg = AlignedWorkloadConfig(num_requests=4000, num_machines=machines,
                                gamma=16, min_span=2)
    return list(random_aligned_sequence(cfg, seed=5))


@pytest.mark.parametrize("name,machines,options", [
    ("untrimmed-m1", 1, {"trim": False}),
    ("strict-trimmed-m3", 3, {}),
    ("deamortized-m3", 3, {"deamortized": True}),
])
def test_golden_sequential_runs(name, machines, options):
    """Stacks driven one request at a time: untrimmed at m=1 (churn
    storm), trimmed at m=3 (churn storm), and deamortized at m=3 (a
    2*gamma-slack stream, which that stack requires)."""
    if options.get("deamortized"):
        seq = _slack2_sequence(machines)
    else:
        seq = list(churn_storm_sequence(requests=4000, seed=5,
                                        num_machines=machines))
    stack = ReservationScheduler(machines, gamma=8, **options)
    for request in seq:
        stack.apply(request)
    machines_ = stack.machine_schedulers()
    # the pins must cover the replacement paths the stack has
    if options.get("deamortized"):
        assert sum(m.phases_started for m in machines_) > 0
    elif options.get("trim", True):
        assert sum(m.rebuilds for m in machines_) > 0
    fingerprint, summary = GOLDEN[name]
    assert placements_fingerprint(stack) == fingerprint
    assert stack.ledger.summary() == summary
