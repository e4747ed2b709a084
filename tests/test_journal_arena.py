"""Undo-journal rollback restores the exact pre-request state.

The journal representation (tuple opcodes on a reusable arena) is free
to change because the paper's guarantees depend only on *what* a
rollback restores, never *how*. Theorem 1 bounds the reallocations of
the requests that happen, so a failed request (or aborted burst) must
leave the schedule exactly as it was. These tests check that directly
across every rollback path in the stack:

- failed-request rollback (poisoned schedulers keep exact pre-request
  state),
- deep atomic-batch aborts through the full Theorem 1 stack,
- trimming rebuilds replaced mid-batch and discarded on abort,
- arena reuse across pickling (a clone gets a fresh arena and still
  rolls back exactly).

Each rollback case asserts two things: the deep state fingerprint after
the abort equals the fingerprint taken before the failing request or
burst (the poison flag aside), and continuing the run matches a twin
stack that never saw the failure. Deep failures come from fault
injection: an ``UnderallocationError`` raised at the k-th call of a
scheduler method that runs mid-request (``INJECTION_POINTS``), so
the abort has real mutations to undo. The fingerprint is structural:
placements, job tables, per-interval reservations/assignments/
allowances, and window-state backed indexes — not just the public
placement map.
"""

from __future__ import annotations

import itertools
import pickle
import random

import pytest

from repro.core.api import ReservationScheduler, TrimmedReservationScheduler
from repro.core.exceptions import ReproError, UnderallocationError
from repro.core.job import Job
from repro.core.requests import DeleteJob, InsertJob
from repro.core.window import Window
from repro.levels.policy import PAPER_POLICY
from repro.multimachine.delegation import DelegatingScheduler
from repro.reservation import AlignedReservationScheduler
from repro.reservation.deamortized import DeamortizedReservationScheduler
from repro.reservation.interval import Interval
from repro.reservation.journal import (
    OP_LOWERED,
    OP_POP,
    OP_RAISED,
    OP_SWAP,
    UndoArena,
    replay_entries,
)
from repro.reservation.validation import validate_scheduler
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


def make_workload(num_requests=400, seed=0, machines=1):
    cfg = AlignedWorkloadConfig(
        num_requests=num_requests, num_machines=machines, gamma=8,
        horizon=1 << 11, max_span=1 << 11, delete_fraction=0.35,
    )
    return list(random_aligned_sequence(cfg, seed=seed))


def make_deamortized_workload(num_requests=400, seed=0, machines=1):
    """Input for the gamma=8 deamortized stack: 2*gamma slack, span >= 2."""
    cfg = AlignedWorkloadConfig(
        num_requests=num_requests, num_machines=machines, gamma=16,
        horizon=1 << 11, max_span=1 << 11, min_span=2, delete_fraction=0.35,
    )
    return list(random_aligned_sequence(cfg, seed=seed))


# ----------------------------------------------------------------------
# deep state fingerprints
# ----------------------------------------------------------------------
def _wkey(window):
    return (window.release, window.deadline)


def aligned_fingerprint(s: AlignedReservationScheduler):
    """Every semantic structure of the single-machine scheduler.

    Lazy caches (memoized targets, free-slot indexes) are deliberately
    excluded — ``validate_scheduler`` cross-checks them against
    recomputation separately — and so is the poison flag, which a
    failed request sets on purpose (tests assert it separately).
    """
    intervals = tuple(
        (lv, idx, iv.lo, iv.hi, frozenset(iv.lower_occupied),
         tuple(sorted(((_wkey(w), c) for w, c in iv.dynamic_res.items()))),
         tuple(sorted((_wkey(w), tuple(sorted(slots)))
                      for w, slots in iv.assigned.items())),
         tuple(sorted(iv.slot_owner.items(),
                      key=lambda kv: kv[0])))
        for lv, table in sorted(s.intervals.items())
        for idx, iv in sorted(table.items())
    )
    window_states = tuple(
        (lv, _wkey(w), frozenset(ws.jobs),
         tuple(ws.backed_empty.snapshot()),
         tuple(ws.backed_covered.snapshot()))
        for lv, states in sorted(s.window_states.items())
        for w, ws in sorted(states.items(), key=lambda kv: _wkey(kv[0]))
    )
    return (
        dict(s.placements), dict(s.slot_job), dict(s.job_slot),
        dict(s._job_levels), set(s.jobs),
        s._max_span_cache, dict(s._span_counts), intervals, window_states,
    )


def trimmed_fingerprint(s: TrimmedReservationScheduler):
    return (s.n_star, s.rebuilds, set(s.jobs), s._max_span_cache,
            dict(s._span_counts), len(s.ledger.entries),
            aligned_fingerprint(s.inner))


def deamortized_fingerprint(s: DeamortizedReservationScheduler):
    incoming = (None if s.incoming is None
                else aligned_fingerprint(s.incoming))
    return (s.parity, s.incoming_parity, s.n_star, s.phases_started,
            dict(s.placements), set(s.jobs),
            aligned_fingerprint(s.active), incoming)


def stack_fingerprint(s):
    """Recursive fingerprint for any scheduler stack under test."""
    if isinstance(s, AlignedReservationScheduler):
        return ("aligned", aligned_fingerprint(s))
    if isinstance(s, TrimmedReservationScheduler):
        return ("trimmed", trimmed_fingerprint(s))
    if isinstance(s, DeamortizedReservationScheduler):
        return ("deamortized", deamortized_fingerprint(s))
    if isinstance(s, DelegatingScheduler):
        bal = s.balancer
        return ("delegating", dict(s.placements), set(s.jobs),
                dict(bal._count),
                {jid: (_wkey(w), m) for jid, (w, m) in bal._where.items()},
                tuple(stack_fingerprint(sub) for sub in s.machines))
    if isinstance(s, ReservationScheduler):
        return ("theorem1", set(s.jobs), dict(s._span_counts),
                len(s.ledger.entries), stack_fingerprint(s.inner))
    raise AssertionError(f"no fingerprint for {type(s).__name__}")


def validate_stack(s):
    """``validate_scheduler`` on every single-machine reservation
    scheduler of the stack ``s``."""
    if isinstance(s, AlignedReservationScheduler):
        validate_scheduler(s)
    elif isinstance(s, TrimmedReservationScheduler):
        validate_stack(s.inner)
    elif isinstance(s, DeamortizedReservationScheduler):
        for side in (s.active, s.incoming):
            if side is not None:
                validate_stack(side)
    elif isinstance(s, ReservationScheduler):
        for machine in s.machine_schedulers():
            validate_stack(machine)
    else:
        raise AssertionError(f"cannot validate {type(s).__name__}")


def assert_no_open_scopes(s):
    """After a batch commits or aborts, no scheduler the stack reaches
    through ``_subs()`` holds an open batch context, and no leaf holds
    an open journal scope (the one batch fan-out closed them all)."""
    assert s._batch is None, type(s).__name__
    subs = s._subs()
    if not subs:
        assert s._journal is None, type(s).__name__
    for sub in subs:
        assert_no_open_scopes(sub)


def is_poisoned(s):
    """Whether a failed request poisoned ``s`` (for a Theorem 1 facade:
    any of its single-machine schedulers)."""
    subs = (s.machine_schedulers() if isinstance(s, ReservationScheduler)
            else [s])
    return any(sub.poisoned for sub in subs)


def assert_poisoned_at_pre_state(sched, pre, poison):
    """``poison`` fails, rolls back to ``pre``, and poisons ``sched``."""
    with pytest.raises(ReproError):
        sched.insert(poison)
    assert sched.poisoned
    validate_scheduler(sched)
    assert stack_fingerprint(sched) == pre
    # poisoned means unusable: every later request is refused
    with pytest.raises(ReproError):
        sched.insert(Job("after-poison", Window(512, 1024)))
    assert stack_fingerprint(sched) == pre


#: scheduler methods that run inside a request's journal scope, after
#: some of its mutations: placement, MOVE, backed-index refresh, the
#: interval assignment hooks (which fire after the interval journaled
#: its own change), and interval materialization (a window's intervals
#: materialize one after another before the window is published)
INJECTION_POINTS = ("_occupy", "_move", "_reclassify_backed",
                    "_on_assign", "_on_release", "_materialize_interval")


def _fail_at(mp, method, k, in_batch=False):
    """Make ``method`` raise UnderallocationError on its k-th call
    (with ``in_batch``, counting only calls inside a batch context)."""
    orig = getattr(AlignedReservationScheduler, method)
    calls = 0

    def flaky(self, *args):
        nonlocal calls
        if in_batch and (self._batch is None or not self._batch.atomic):
            return orig(self, *args)
        calls += 1
        if calls == k:
            raise UnderallocationError(f"injected at {method} call {k}")
        return orig(self, *args)

    mp.setattr(AlignedReservationScheduler, method, flaky)


def check_injected_rollbacks(base, request, monkeypatch,
                             methods=INJECTION_POINTS):
    """Fail ``request`` at every call of every injection point, each on
    a fresh clone of ``base``: every failure must poison the clone and
    roll it back to ``base``'s state. ``base`` itself is the twin that
    never saw a failure. Returns the number of failures injected."""
    pre = stack_fingerprint(base)
    injected = 0
    for method in methods:
        for k in itertools.count(1):
            with monkeypatch.context() as mp:
                _fail_at(mp, method, k)
                # intervals call their scheduler's hooks by attribute
                # lookup at fire time, so the clone sees the patch
                clone = pickle.loads(pickle.dumps(base))
                try:
                    clone.apply(request)
                except UnderallocationError as exc:
                    assert "injected" in str(exc)
                else:
                    break  # fewer than k calls: nothing left to inject
            assert is_poisoned(clone)
            assert stack_fingerprint(clone) == pre, (method, k, request)
            if k == 1:
                validate_stack(clone)
            injected += 1
    return injected


# ----------------------------------------------------------------------
# the arena itself
# ----------------------------------------------------------------------
def test_arena_watermark_truncation_and_counter():
    arena = UndoArena()
    d = {"a": 1, "b": 2}
    # a non-atomic batch's first request: restart keeps the scope's
    # attached intervals and releases only the request's entries
    arena.entries.append((OP_POP, d, "b"))
    arena.seen.add("token")
    arena.intervals.append("iv")
    arena.restart()
    assert not arena.entries and not arena.seen
    assert arena.intervals == ["iv"] and arena.entries_total == 1
    # the next request's entries, then the scope closes
    arena.entries.append((OP_POP, d, "b"))
    arena.entries.append((OP_POP, d, "a"))
    arena.seen.add("token")
    replay_entries(arena.entries)
    assert d == {}
    arena.truncate()
    assert not arena.entries and not arena.seen and not arena.intervals
    assert arena.entries_total == 3


def _interval_state(iv):
    """An interval's semantic state (the memo flags are excluded: undo
    invalidates them on purpose rather than restoring them)."""
    return (frozenset(iv.lower_occupied), iv.dynamic_res,
            {w: frozenset(s) for w, s in iv.assigned.items()},
            iv.slot_owner, list(iv.free_slots()), list(iv._counts),
            iv._n_lower, iv._dyn_total)


@pytest.mark.parametrize("seed", range(4))
def test_interval_mutations_replay_to_pre_state(seed):
    """Every interval mutator's journal entry undoes it exactly: random
    reservation, allowance, swap, and rebalance traffic replays back to
    the pre-scope interval state. (Swaps are rare at the scheduler
    level, so this is where ``OP_SWAP`` gets its rollback coverage.)"""
    rng = random.Random(seed)
    span = PAPER_POLICY.interval_span(1)
    iv = Interval(level=1, index=0, lo=0, hi=span,
                  enclosing_spans=tuple(PAPER_POLICY.enclosing_spans(1)))
    windows = iv.enclosing_windows()

    def churn(steps):
        for _ in range(steps):
            op = rng.randrange(4)
            if op == 0:
                w = rng.choice(windows)
                delta = rng.choice([-1, 1, 2])
                if iv.dynamic_res.get(w, 0) + delta >= 0:
                    iv.add_dynamic(w, delta)
            elif op == 1:
                iv.slot_lowered(rng.randrange(span))
            elif op == 2:
                iv.slot_raised(rng.randrange(span))
            else:
                iv.swap_slots(rng.randrange(span), rng.randrange(span))
            iv.rebalance(lambda s: None, lambda s: True)

    churn(60)
    pre = _interval_state(iv)
    iv.undo_log = log = []
    churn(60)
    iv.undo_log = None
    assert {e[0] for e in log} >= {OP_SWAP, OP_LOWERED, OP_RAISED}
    replay_entries(log)
    assert _interval_state(iv) == pre


def test_journal_param_validation_and_introspection():
    for bad in ("nope", "closure"):
        with pytest.raises(ValueError):
            AlignedReservationScheduler(journal=bad)
        with pytest.raises(ValueError):
            TrimmedReservationScheduler(journal=bad)
        with pytest.raises(ValueError):
            ReservationScheduler(1, journal=bad)
    assert AlignedReservationScheduler().journal_impl == "arena"
    facade = ReservationScheduler(2, gamma=8, journal="arena-sanitize")
    assert all(m.inner.journal_impl == "arena-sanitize"
               for m in facade.machine_schedulers())


def test_journal_entry_counter_survives_aborted_rebuild():
    """An atomic abort that discards a mid-batch rebuild inner also
    rolls back the rebuild's carry increment — the counter must not
    double count the restored inner's lifetime entries. (The counter
    still grows by the aborted batch's own recorded entries: it counts
    journaling work done, not surviving state.)"""
    sched = TrimmedReservationScheduler(gamma=8)
    warm = make_workload(60, seed=29)
    for r in warm:
        sched.apply(r)
    pre_total = sched.journal_entries_total
    pre_carry = sched._journal_entries_carry
    pre_inner_total = sched.inner.journal_entries_total
    bad = [InsertJob(Job(f"g{i}", Window(0, 1 << 10)))
           for i in range(2 * sched.n_star + 4)]
    bad.append(InsertJob(Job("g0", Window(0, 1 << 10))))  # dup -> abort
    result = sched.apply_batch(bad, atomic=True)
    assert result.failed and result.rolled_back
    # the rebuild bumped the carry mid-batch; the abort restored it
    assert sched._journal_entries_carry == pre_carry
    # total grew only by the batch's own journal entries (recorded in
    # the restored inner's arena at abort) — not by a double count of
    # the pre-batch inner's lifetime (which would add >= pre_total)
    batch_entries = sched.inner.journal_entries_total - pre_inner_total
    assert sched.journal_entries_total == pre_total + batch_entries
    assert batch_entries < pre_total


def test_deamortized_counter_exists_and_carries_phases():
    """The deamortized stack exposes the same introspection as every
    other stack, and retired phase inners keep their counts."""
    sched = DeamortizedReservationScheduler()
    seq = make_workload(300, seed=31)
    counts = []
    for r in seq:
        sched.apply(r)
        counts.append(sched.journal_entries_total)
    assert sched.phases_started > 0
    assert counts == sorted(counts)  # monotone: phase swaps drop nothing
    assert counts[-1] > 0
    facade = ReservationScheduler(1, gamma=8, deamortized=True)
    for r in seq[:50]:
        facade.apply(r)
    assert sum(m.journal_entries_total
               for m in facade.machine_schedulers()) > 0


def _spread_job(i):
    """Job ``i`` of a stream spread over 64 aligned windows of span 64."""
    k = i % 64
    return Job(f"s{i}", Window(64 * k, 64 * k + 64))


@pytest.mark.parametrize("kind", ["trimmed", "deamortized"])
def test_journal_counter_counts_subs_retired_mid_batch(kind, monkeypatch):
    """A sub retired inside an atomic batch — a trimming rebuild's
    pre-batch inner, a deamortized phase's outgoing side — still holds
    the batch's open journal scope. Its entries must reach the
    wrapper's ``journal_entries_total`` all the same: the counter
    equals the entries every inner's arena ever recorded."""
    created = []
    init = AlignedReservationScheduler.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(AlignedReservationScheduler, "__init__",
                        recording_init)
    if kind == "trimmed":
        sched = TrimmedReservationScheduler(gamma=8)
        warm, burst, retirements = 40, 26, "rebuilds"
    else:
        sched = DeamortizedReservationScheduler(gamma=8)
        warm, burst, retirements = 0, 200, "phases_started"
    i = 0
    while i < warm or (kind == "deamortized" and not sched.in_phase):
        sched.insert(_spread_job(i))
        i += 1
    before = getattr(sched, retirements)
    batch = [InsertJob(_spread_job(j)) for j in range(i, i + burst)]
    assert not sched.apply_batch(batch, atomic=True).failed
    assert getattr(sched, retirements) > before
    # an inner retired with its batch scope open still holds entries
    assert any(inner._arena.entries for inner in created)
    recorded = sum(inner._arena.entries_total + len(inner._arena.entries)
                   for inner in created)
    assert sched.journal_entries_total == recorded


def test_journal_entry_counter_counts_both_modes():
    """The sanitizer mode records exactly the entries the plain arena
    does (its proxies check coverage, they journal nothing extra)."""
    seq = make_workload(120, seed=21)
    plain = AlignedReservationScheduler(journal="arena")
    checked = AlignedReservationScheduler(journal="arena-sanitize")
    for r in seq:
        plain.apply(r)
        checked.apply(r)
    assert plain.journal_entries_total > 0
    assert plain.journal_entries_total == checked.journal_entries_total
    assert stack_fingerprint(plain) == stack_fingerprint(checked)


# ----------------------------------------------------------------------
# failed-request rollback (poisoned schedulers)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_poisoned_request_state_identical(seed, monkeypatch):
    """Requests failed deep inside their journal scope — at every call
    of every injection point — roll back to the bit-identical
    pre-request state and poison the scheduler; so does a genuinely
    infeasible insert."""
    seq = make_workload(262, seed=seed)
    sched = AlignedReservationScheduler()
    sched.insert(Job("fill", Window(0, 1)))  # [0,1) is now full
    for r in seq[:250]:
        sched.apply(r)
    injected = 0
    for r in seq[250:]:
        injected += check_injected_rollbacks(sched, r, monkeypatch)
        sched.apply(r)
    assert injected >= 20
    pre = stack_fingerprint(sched)
    assert_poisoned_at_pre_state(sched, pre, Job(f"poison-{seed}", Window(0, 1)))


@pytest.mark.parametrize("seed", [3, 11])
def test_random_failing_deletes_and_inserts_identical(seed, monkeypatch):
    """Random churn with interleaved failures. Invalid requests leave
    the pre-request fingerprint intact and the run continues in
    lockstep with a twin that never saw them; requests failed at a
    random injection point roll back to the pre-request state."""
    rng = random.Random(seed)
    seq = make_workload(300, seed=seed)
    sched = AlignedReservationScheduler()
    twin = AlignedReservationScheduler()
    invalid = injected = 0
    for i, r in enumerate(seq):
        if rng.random() < 0.1:
            injected += check_injected_rollbacks(
                sched, r, monkeypatch, methods=(rng.choice(INJECTION_POINTS),))
        sched.apply(r)
        twin.apply(r)
        if rng.random() < 0.15:
            active = sorted(sched.jobs)
            bad = rng.choice([
                DeleteJob(f"ghost-{i}"),
                InsertJob(Job(f"unaligned-{i}", Window(1, 4))),
                InsertJob(sched.jobs[active[0]]) if active
                else DeleteJob(f"ghost-{i}"),
            ])
            pre = stack_fingerprint(sched)
            with pytest.raises(ReproError):
                sched.apply(bad)
            invalid += 1
            assert not sched.poisoned
            assert stack_fingerprint(sched) == pre
        if i % 25 == 0:
            assert stack_fingerprint(sched) == stack_fingerprint(twin)
    assert invalid > 0 and injected > 0
    assert stack_fingerprint(sched) == stack_fingerprint(twin)


def inject_deamortized(monkeypatch, *, in_phase):
    """Sequential failures injected into a deamortized m=1 facade, at
    every call of every injection point, on each request that starts
    inside (or outside) a rebuild phase. Every failure must roll back to
    the pre-request state. Returns the failures injected per kind."""
    seq = make_deamortized_workload(240, seed=19)
    sched = ReservationScheduler(1, gamma=8, deamortized=True)
    for r in seq[:160]:
        sched.apply(r)
    injected = {InsertJob: 0, DeleteJob: 0}
    for r in seq[160:]:
        if sched.in_phase == in_phase:
            injected[type(r)] += check_injected_rollbacks(sched, r,
                                                          monkeypatch)
        sched.apply(r)
    return injected


def test_deamortized_failed_request_outside_phase_identical(monkeypatch):
    """Outside a rebuild phase a request touches one side only, and a
    failure inside it rolls back exactly; a failed delete in particular
    keeps its job's home parity."""
    injected = inject_deamortized(monkeypatch, in_phase=False)
    assert injected[DeleteJob] >= 10 and injected[InsertJob] >= 10


@pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP, deamortized phase migration): a "
           "migration's delete and insert commit separately, so a failure "
           "after the first half is not rolled back")
def test_deamortized_failed_request_in_phase_identical(monkeypatch):
    """Inside a phase each request also migrates jobs between sides; a
    failure anywhere in it should roll back exactly as well."""
    injected = inject_deamortized(monkeypatch, in_phase=True)
    assert injected[DeleteJob] > 0 and injected[InsertJob] > 0


# ----------------------------------------------------------------------
# deep atomic aborts
# ----------------------------------------------------------------------
STACKS = [
    ("aligned", 1, lambda: AlignedReservationScheduler()),
    ("theorem1-m1", 1, lambda: ReservationScheduler(1, gamma=8)),
    ("theorem1-m3", 3, lambda: ReservationScheduler(3, gamma=8)),
    ("theorem1-deamortized-m1", 1,
     lambda: ReservationScheduler(1, gamma=8, deamortized=True)),
    ("theorem1-deamortized-m3", 3,
     lambda: ReservationScheduler(3, gamma=8, deamortized=True)),
]


def stack_workload(name, num_requests, seed, machines):
    """Input the named stack accepts: the deamortized stacks need
    2*gamma slack and span >= 2."""
    maker = (make_deamortized_workload if "deamortized" in name
             else make_workload)
    return maker(num_requests, seed=seed, machines=machines)


@pytest.mark.parametrize("name,machines,factory", STACKS)
def test_atomic_abort_state_identical(name, machines, factory):
    """A failing atomic batch aborts to the pre-burst deep state, and
    the run then continues bit-identically to a twin that never saw
    the burst."""
    seq = stack_workload(name, 420, seed=9, machines=machines)
    prefix, inside, after = seq[:200], seq[200:260], seq[260:]
    sched, twin = factory(), factory()
    for r in prefix:
        sched.apply(r)
        twin.apply(r)
    pre = stack_fingerprint(sched)
    # duplicate insert fails at the last request — deep abort after the
    # whole burst (trimming rebuilds included) already applied
    bad = inside + [InsertJob(Job("dup", Window(0, 64))),
                    InsertJob(Job("dup", Window(0, 64)))]
    result = sched.apply_batch(bad, atomic=True)
    assert result.failed and result.rolled_back
    assert stack_fingerprint(sched) == pre
    assert_no_open_scopes(sched)
    for r in inside + after:
        sched.apply(r)
        twin.apply(r)
    assert stack_fingerprint(sched) == stack_fingerprint(twin)


@pytest.mark.parametrize("name,machines,factory", STACKS)
def test_injected_atomic_abort_restores_pre_burst(name, machines, factory,
                                                  monkeypatch):
    """Bursts failed deep inside — at sampled calls of every injection
    point, anywhere in the burst — abort to the pre-burst state; the
    same burst then commits exactly as on a twin that never failed."""
    seq = stack_workload(name, 190, seed=41, machines=machines)
    prefix, burst = seq[:150], seq[150:]

    def fresh():
        s = factory()
        for r in prefix:
            s.apply(r)
        return s

    pre = stack_fingerprint(fresh())
    twin = fresh()
    assert not twin.apply_batch(burst, atomic=True).failed
    assert_no_open_scopes(twin)
    post = stack_fingerprint(twin)
    injected = 0
    for method in INJECTION_POINTS:
        for k in (1, 4, 16, 64):
            with monkeypatch.context() as mp:
                _fail_at(mp, method, k, in_batch=True)
                sched = fresh()
                result = sched.apply_batch(burst, atomic=True)
                if not result.failed:
                    break  # fewer than k calls in the burst
                assert result.rolled_back and "injected" in result.failure
                assert stack_fingerprint(sched) == pre, (method, k)
                assert_no_open_scopes(sched)
                injected += 1
                assert not sched.apply_batch(burst, atomic=True).failed
                assert_no_open_scopes(sched)
                assert stack_fingerprint(sched) == post
    assert injected >= 8


@pytest.mark.parametrize("name,machines,factory", [
    *STACKS[:2],
    pytest.param(*STACKS[2], marks=pytest.mark.xfail(
        strict=True,
        reason="known defect (ROADMAP, exact rollback of failed "
               "multi-machine requests): a migrating delete commits its "
               "sub-requests machine by machine")),
])
def test_injected_nonatomic_batch_failure_keeps_committed_prefix(
        name, machines, factory, monkeypatch):
    """A non-atomic batch's requests share one journal scope, yet a
    request failed deep inside the batch — at sampled calls of every
    injection point — still rolls back alone: the requests before it
    stay committed, and the stack equals a twin that applied exactly
    those requests one by one."""
    seq = make_workload(190, seed=41, machines=machines)
    prefix, burst = seq[:150], seq[150:]
    base = factory()
    for r in prefix:
        base.apply(r)
    blob = pickle.dumps(base)
    twin = pickle.loads(blob)
    committed = [stack_fingerprint(twin)]  # state after burst[:j]
    for r in burst:
        twin.apply(r)
        committed.append(stack_fingerprint(twin))
    injected = 0
    for method in INJECTION_POINTS:
        for k in (1, 4, 16, 64):
            with monkeypatch.context() as mp:
                _fail_at(mp, method, k)
                sched = pickle.loads(blob)
                result = sched.apply_batch(burst)
            if not result.failed:
                break  # fewer than k calls in the burst
            assert "injected" in result.failure and not result.rolled_back
            assert len(result.costs) == result.failed_index
            assert is_poisoned(sched)
            assert (stack_fingerprint(sched)
                    == committed[result.failed_index]), (method, k)
            injected += 1
    assert injected >= 8


def _fail_between_materializations(mp, j):
    """Make the j-th interval materialization that follows another one
    in the same ``_make_window_state`` raise UnderallocationError: the
    window's earlier intervals are already in their table, the window
    itself is not yet published."""
    make = AlignedReservationScheduler._make_window_state
    materialize = AlignedReservationScheduler._materialize_interval
    #: materializations so far in the open window (None: no window open)
    state = {"in_window": None, "seen": 0}

    def counting_make(self, window, level):
        saved, state["in_window"] = state["in_window"], 0
        try:
            return make(self, window, level)
        finally:
            state["in_window"] = saved

    def flaky_materialize(self, level, index):
        if state["in_window"]:
            state["seen"] += 1
            if state["seen"] == j:
                raise UnderallocationError(
                    f"injected between materializations ({j})")
        if state["in_window"] is not None:
            state["in_window"] += 1
        return materialize(self, level, index)

    mp.setattr(AlignedReservationScheduler, "_make_window_state",
               counting_make)
    mp.setattr(AlignedReservationScheduler, "_materialize_interval",
               flaky_materialize)


_IN_PHASE_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="known defect (ROADMAP, deamortized phase migration): a "
           "migration's delete and insert commit separately, so a failure "
           "after the first half is not rolled back")


@pytest.mark.parametrize("name,machines,factory,mode", [
    pytest.param(
        *stack, mode, id=f"{stack[0]}-{mode}",
        # on the deamortized stacks every such failure of a request on
        # this input falls inside a phase
        marks=(_IN_PHASE_DEFECT,)
        if "deamortized" in stack[0] and mode != "atomic" else ())
    for stack in STACKS for mode in ("request", "nonatomic", "atomic")
])
def test_failure_between_materializations_rolls_back(
        name, machines, factory, mode, monkeypatch):
    """A window's intervals materialize one after another before the
    window is published. A failure between two of them rolls back
    exactly: a single request and a non-atomic batch's failing request
    return to the state before that request, an atomic burst to the
    state before the burst."""
    seq = stack_workload(name, 190, seed=41, machines=machines)
    prefix, burst = seq[:150], seq[150:]
    base = factory()
    for r in prefix:
        base.apply(r)
    committed = [stack_fingerprint(base)]  # state after burst[:i]
    blobs = [pickle.dumps(base)]
    for r in burst:
        base.apply(r)
        committed.append(stack_fingerprint(base))
        blobs.append(pickle.dumps(base))
    injected = 0
    if mode == "request":
        for i, r in enumerate(burst):
            for j in itertools.count(1):
                with monkeypatch.context() as mp:
                    _fail_between_materializations(mp, j)
                    sched = pickle.loads(blobs[i])
                    try:
                        sched.apply(r)
                    except UnderallocationError as exc:
                        assert "injected" in str(exc)
                    else:
                        break
                assert is_poisoned(sched)
                assert stack_fingerprint(sched) == committed[i], (i, j)
                injected += 1
    else:
        atomic = mode == "atomic"
        for j in itertools.count(1):
            with monkeypatch.context() as mp:
                _fail_between_materializations(mp, j)
                sched = pickle.loads(blobs[0])
                result = sched.apply_batch(burst, atomic=atomic)
            if not result.failed:
                break
            assert "injected" in result.failure
            assert result.rolled_back == atomic
            expected = committed[0 if atomic else result.failed_index]
            assert stack_fingerprint(sched) == expected, j
            injected += 1
    assert injected >= 5


def test_atomic_abort_recomputes_no_job_levels(monkeypatch):
    """An atomic abort undoes the burst from its journal alone: the job
    levels come back through their journal entries, so the abort never
    recomputes a level, however many jobs the scheduler holds."""
    sched = AlignedReservationScheduler()
    for r in make_workload(900, seed=3):
        sched.apply(r)
    assert len(sched.jobs) >= 200
    pre = stack_fingerprint(sched)
    policy_cls = type(sched.policy)
    level_of_span = policy_cls.level_of_span
    batch_abort = AlignedReservationScheduler._batch_abort
    aborting = False
    calls = []

    def counting_level_of_span(self, span):
        if aborting:
            calls.append(span)
        return level_of_span(self, span)

    def watched_abort(self):
        nonlocal aborting
        aborting = True
        try:
            batch_abort(self)
        finally:
            aborting = False

    monkeypatch.setattr(policy_cls, "level_of_span", counting_level_of_span)
    monkeypatch.setattr(AlignedReservationScheduler, "_batch_abort",
                        watched_abort)
    victim = next(iter(sched.jobs))
    bad = [InsertJob(Job("new", Window(0, 64))), DeleteJob(victim),
           InsertJob(Job("new", Window(0, 64)))]
    result = sched.apply_batch(bad, atomic=True)
    assert result.failed and result.rolled_back
    assert calls == []
    assert stack_fingerprint(sched) == pre
    validate_scheduler(sched)


def test_trimming_rebuild_abort_identical():
    """An atomic batch that replaces the trimming inner mid-batch and
    then aborts: the pre-batch inner swaps back with the pre-burst
    state, and later rebuilds match a twin that never saw the burst."""
    sched = TrimmedReservationScheduler(gamma=8)
    twin = TrimmedReservationScheduler(gamma=8)
    warm = make_workload(60, seed=13)
    for r in warm:
        sched.apply(r)
        twin.apply(r)
    pre = stack_fingerprint(sched)
    n_star, inner = sched.n_star, sched.inner
    # enough inserts to force a doubling rebuild inside the batch, then
    # a guaranteed failure (duplicate id)
    grow = [InsertJob(Job(f"grow-{i}", Window(0, 1 << 10)))
            for i in range(2 * n_star + 4)]
    bad = grow + [InsertJob(Job("grow-0", Window(0, 1 << 10)))]
    result = sched.apply_batch(bad, atomic=True)
    assert result.failed and result.rolled_back
    assert sched.inner is inner and sched.n_star == n_star
    assert stack_fingerprint(sched) == pre
    # rebuilds still work after the abort, exactly as on the twin
    for r in grow:
        sched.apply(r)
        twin.apply(r)
    assert sched.rebuilds == twin.rebuilds > 0
    assert stack_fingerprint(sched) == stack_fingerprint(twin)


def test_sequential_rebuild_journal_diet_oracle_unchanged(monkeypatch):
    """Non-atomic rebuilds run journal-free and end bit-identical to a
    stack whose rebuilds journal every survivor re-insert."""
    seq = make_workload(400, seed=17)
    diet = TrimmedReservationScheduler(gamma=8)
    for r in seq:
        diet.apply(r)
    # test-only oracle: the per-request journal cannot be switched off
    monkeypatch.setattr(AlignedReservationScheduler, "_journal_enabled",
                        property(lambda self: True, lambda self, value: None))
    oracle = TrimmedReservationScheduler(gamma=8)
    for r in seq:
        oracle.apply(r)
    assert diet.rebuilds == oracle.rebuilds > 0
    assert stack_fingerprint(diet) == stack_fingerprint(oracle)
    # the journal-free rebuilds recorded strictly fewer entries
    assert diet.journal_entries_total < oracle.journal_entries_total


def test_unpickled_scheduler_gets_fresh_arena():
    sched = AlignedReservationScheduler()
    for r in make_workload(80, seed=2):
        sched.apply(r)
    clone = pickle.loads(pickle.dumps(sched))
    assert clone._arena is not sched._arena
    assert not clone._arena.entries and clone._arena.entries_total == 0
    # the restored scheduler journals and rolls back normally
    clone.insert(Job("fill2", Window(2, 3)))
    assert aligned_fingerprint(clone)[:5] != aligned_fingerprint(sched)[:5]
    pre = stack_fingerprint(clone)
    assert_poisoned_at_pre_state(clone, pre, Job("poison", Window(2, 3)))
