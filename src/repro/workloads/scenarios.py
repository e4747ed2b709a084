"""Scenario workloads: the settings the paper's introduction motivates.

Request-sequence generators exercising the public API the way a
deployment would:

- :func:`appointment_book_sequence` — the doctor's office from the
  paper's opening: patients phone in with an availability window
  ("any time Tuesday afternoon"), some later cancel. Windows are
  human-shaped: a mix of narrow (span 2-4 slots) and flexible (span up
  to a day), start times anywhere (unaligned), arrival order roughly by
  requested day.
- :func:`cluster_trace_sequence` — the multiprocessor setting: batch
  jobs with deadlines arriving in bursts, machine count m > 1, heavy
  churn (jobs finish and leave), spans distributed log-uniformly.

Engine-scale scenarios (built for ``repro.sim.engine`` sweeps at 10^4+
requests):

- :func:`churn_storm_sequence` — alternating calm/storm phases: the
  active set builds up, then a storm deletes a large fraction and
  immediately refills, stressing delete-side rebalancing and the
  reinsertion fast path.
- :func:`adversarial_span_mix_sequence` — deliberately hostile span
  mixture: tiny base-level jobs carpet the same regions targeted by
  level-1/level-2 jobs, maximizing cross-level displacement, allowance
  churn, and MOVE cascades.
- :func:`steady_state_sequence` — long-horizon steady state: ramp up to
  a target active population, then hold it with balanced insert/delete
  churn — the regime where per-request cost must stay flat (Theorem 1).
- :func:`burst_arrivals_sequence` — batch-shaped traffic: whole insert
  bursts (biased toward a shared focus window) alternating with whole
  delete bursts, sized to match an ``apply_batch`` batch — the native
  workload of the batch-first request API.

Streaming vs materialized
-------------------------
Every scenario exists in two shapes. The ``iter_*`` functions are lazy
generators yielding one :class:`~repro.core.requests.Request` at a time:
their working state is the *active* job set (bounded by the admission
density, not the request count), so a 10^6-request stream runs in
bounded memory and can feed a :class:`~repro.sim.session.Session`
directly. The ``*_sequence`` functions materialize the same stream into
a validated :class:`~repro.core.requests.RequestSequence` (identical
content — the generators are deterministic given a seed, and the
materialized form is just ``RequestSequence(iter_*(...))``). Use the
registries to pick a shape by name: :data:`SCENARIOS` (materialized;
the CLI's ``engine``/``sweep`` commands) or :data:`SCENARIO_STREAMS`
(lazy).

All generators enforce a target underallocation with the
interval-density certificate so the reservation scheduler's assumptions
hold, and all are deterministic given a seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from ..core.job import Job
from ..core.requests import DeleteJob, InsertJob, Request, RequestSequence
from ..core.window import Window
from ..feasibility.hall import LaminarLoadTree

if TYPE_CHECKING:
    import numpy as np


def _admit(tree: LaminarLoadTree, window: Window, m: int, gamma: int) -> bool:
    """Density admission test for an *unaligned* window.

    We budget against the aligned core ALIGNED(W) (what the scheduler
    will actually use), which by Lemma 10 keeps the aligned instance
    gamma-underallocated and the true instance at least as slack.
    """
    return tree.would_fit(window.aligned_within(), m, gamma)


def iter_appointment_book(
    *,
    days: int = 8,
    slots_per_day: int = 32,
    requests: int = 400,
    cancel_fraction: float = 0.25,
    gamma: int = 8,
    seed: int = 0,
) -> Iterator[Request]:
    """Doctor's-office appointment churn (paper Section 1 motivation).

    Slots are e.g. 15-minute increments; a patient asks for a window
    within one day (narrow: a specific hour; flexible: whole morning,
    whole day). Cancellations arrive randomly among active patients.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    horizon_bits = (days * slots_per_day - 1).bit_length()
    horizon = 1 << horizon_bits
    tree = LaminarLoadTree(horizon)
    active: list[str] = []
    uid = 0
    emitted = 0
    flavors = [
        (2, 4),                      # "that specific hour"
        (4, 8),                      # "early afternoon"
        (slots_per_day // 2, slots_per_day // 2),  # "any time that morning"
        (slots_per_day, slots_per_day),            # "any time that day"
    ]
    tries = 80
    while emitted < requests:
        if active and rng.random() < cancel_fraction:
            victim = active.pop(int(rng.integers(len(active))))
            tree.remove(victim)
            emitted += 1
            yield DeleteJob(victim)
            continue
        placed = False
        for _ in range(tries):
            day = int(rng.integers(days))
            lo_span, hi_span = flavors[int(rng.integers(len(flavors)))]
            span = int(rng.integers(lo_span, hi_span + 1))
            start_in_day = int(rng.integers(0, slots_per_day - span + 1))
            start = day * slots_per_day + start_in_day
            w = Window(start, start + span)
            if _admit(tree, w, 1, gamma):
                job_id = f"patient{uid}"
                uid += 1
                tree.add(job_id, w.aligned_within())
                active.append(job_id)
                emitted += 1
                yield InsertJob(Job(job_id, w))
                placed = True
                break
        if not placed:
            if not active:
                raise RuntimeError("appointment book saturated with no patients")
            victim = active.pop(int(rng.integers(len(active))))
            tree.remove(victim)
            emitted += 1
            yield DeleteJob(victim)


def appointment_book_sequence(**kwargs: Any) -> RequestSequence:
    """Materialized form of :func:`iter_appointment_book`."""
    return RequestSequence(iter_appointment_book(**kwargs))


def iter_cluster_trace(
    *,
    num_machines: int = 4,
    horizon: int = 1 << 12,
    requests: int = 600,
    burst_size: int = 6,
    finish_fraction: float = 0.4,
    gamma: int = 8,
    seed: int = 0,
) -> Iterator[Request]:
    """Bursty multiprocessor batch workload with deadlines.

    Jobs arrive in bursts around a moving "current time"; spans are
    log-uniform between 4 and horizon/4; jobs leave (finish/cancel) at
    the given churn rate.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    tree = LaminarLoadTree(horizon)
    active: list[str] = []
    uid = 0
    emitted = 0
    max_log = (horizon // 4).bit_length() - 1
    while emitted < requests:
        if active and rng.random() < finish_fraction:
            victim = active.pop(int(rng.integers(len(active))))
            tree.remove(victim)
            emitted += 1
            yield DeleteJob(victim)
            continue
        center = int(rng.integers(0, horizon))
        burst = int(rng.integers(1, burst_size + 1))
        for _ in range(burst):
            if emitted >= requests:
                break
            placed = False
            for _ in range(60):
                span = int(1 << rng.integers(2, max_log + 1))
                jitter = int(rng.integers(-span, span + 1))
                start = max(0, min(horizon - span, center + jitter))
                w = Window(start, start + span)
                if _admit(tree, w, num_machines, gamma):
                    job_id = f"task{uid}"
                    uid += 1
                    tree.add(job_id, w.aligned_within())
                    active.append(job_id)
                    emitted += 1
                    yield InsertJob(Job(job_id, w))
                    placed = True
                    break
            if not placed and active:
                victim = active.pop(int(rng.integers(len(active))))
                tree.remove(victim)
                emitted += 1
                yield DeleteJob(victim)


def cluster_trace_sequence(**kwargs: Any) -> RequestSequence:
    """Materialized form of :func:`iter_cluster_trace`."""
    return RequestSequence(iter_cluster_trace(**kwargs))


def _draw_insert(
    rng: np.random.Generator,
    tree: LaminarLoadTree,
    active: list,
    *,
    horizon: int,
    span_exps: tuple[int, int],
    num_machines: int,
    gamma: int,
    uid: list,
    prefix: str,
    region: tuple[int, int] | None = None,
    tries: int = 64,
) -> InsertJob | None:
    """Draw aligned windows until one passes the density admission test.

    Returns the admitted insert request (already recorded in ``tree``
    and ``active``) or None when every try failed.
    """
    lo_exp, hi_exp = span_exps
    for _ in range(tries):
        span = 1 << int(rng.integers(lo_exp, hi_exp + 1))
        lo, hi = region if region is not None else (0, horizon)
        lo_idx, hi_idx = lo // span, max(lo // span + 1, hi // span)
        start = int(rng.integers(lo_idx, hi_idx)) * span
        w = Window(start, start + span)
        if tree.would_fit(w, num_machines, gamma):
            job_id = f"{prefix}{uid[0]}"
            uid[0] += 1
            tree.add(job_id, w)
            active.append(job_id)
            return InsertJob(Job(job_id, w))
    return None


def iter_churn_storm(
    *,
    requests: int = 20_000,
    horizon: int = 1 << 14,
    max_span: int = 1 << 12,
    storm_fraction: float = 0.6,
    calm_length: int = 512,
    gamma: int = 8,
    num_machines: int = 1,
    seed: int = 0,
) -> Iterator[Request]:
    """Delete/reinsert-heavy churn: calm growth punctuated by storms.

    During a calm phase the active set grows under light churn; every
    ``calm_length`` requests a *storm* deletes ``storm_fraction`` of the
    active jobs back-to-back and the next calm refills the capacity.
    Exercises mass retraction of dynamic reservations, allowance
    regrowth, and the reinsertion fast path at scale.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    tree = LaminarLoadTree(horizon)
    active: list[str] = []
    uid = [0]
    emitted = 0
    hi_exp = max_span.bit_length() - 1
    while emitted < requests:
        # calm phase: mostly inserts, light churn
        calm_target = min(requests, emitted + calm_length)
        while emitted < calm_target:
            if active and rng.random() < 0.15:
                victim = active.pop(int(rng.integers(len(active))))
                tree.remove(victim)
                emitted += 1
                yield DeleteJob(victim)
                continue
            req = _draw_insert(rng, tree, active, horizon=horizon,
                               span_exps=(0, hi_exp),
                               num_machines=num_machines,
                               gamma=gamma, uid=uid, prefix="c")
            if req is not None:
                emitted += 1
                yield req
            else:
                if not active:
                    raise RuntimeError("churn storm saturated with no jobs")
                victim = active.pop(int(rng.integers(len(active))))
                tree.remove(victim)
                emitted += 1
                yield DeleteJob(victim)
        # storm: delete a big slice of the active set back-to-back
        storm = int(len(active) * storm_fraction)
        for _ in range(storm):
            if emitted >= requests or not active:
                break
            victim = active.pop(int(rng.integers(len(active))))
            tree.remove(victim)
            emitted += 1
            yield DeleteJob(victim)


def churn_storm_sequence(**kwargs: Any) -> RequestSequence:
    """Materialized form of :func:`iter_churn_storm`."""
    return RequestSequence(iter_churn_storm(**kwargs))


def iter_adversarial_span_mix(
    *,
    requests: int = 20_000,
    horizon: int = 1 << 14,
    gamma: int = 8,
    num_machines: int = 1,
    seed: int = 0,
) -> Iterator[Request]:
    """Hostile span mixture concentrating every level on shared regions.

    Alternates bursts of tiny base-level jobs (spans 1-8) carpeting a
    random region with large-span jobs (up to ``horizon/4``) whose
    windows contain that same region, plus random cancellations. Big
    jobs keep landing on slots the small jobs want (and vice versa), so
    cross-level displacement, slot_lowered/raised churn, and MOVE
    cascades dominate — the worst case for the allowance bookkeeping.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    tree = LaminarLoadTree(horizon)
    active: list[str] = []
    uid = [0]
    emitted = 0
    big_hi = (horizon // 4).bit_length() - 1
    while emitted < requests:
        if active and rng.random() < 0.3:
            victim = active.pop(int(rng.integers(len(active))))
            tree.remove(victim)
            emitted += 1
            yield DeleteJob(victim)
            continue
        # pick a shared battleground region of 256 slots
        region_start = int(rng.integers(0, horizon // 256)) * 256
        region = (region_start, region_start + 256)
        burst = int(rng.integers(4, 12))
        placed_any = False
        for i in range(burst):
            if emitted >= requests:
                break
            if i % 2 == 0:  # tiny job inside the battleground
                req = _draw_insert(rng, tree, active, horizon=horizon,
                                   span_exps=(0, 3),
                                   num_machines=num_machines,
                                   gamma=gamma, uid=uid, prefix="a",
                                   region=region)
            else:  # large job whose window covers the battleground
                req = _draw_insert(rng, tree, active, horizon=horizon,
                                   span_exps=(8, max(8, big_hi)),
                                   num_machines=num_machines,
                                   gamma=gamma, uid=uid, prefix="A",
                                   region=region)
            if req is not None:
                emitted += 1
                yield req
                placed_any = True
        if not placed_any:
            if not active:
                raise RuntimeError("adversarial mix saturated with no jobs")
            victim = active.pop(int(rng.integers(len(active))))
            tree.remove(victim)
            emitted += 1
            yield DeleteJob(victim)


def adversarial_span_mix_sequence(**kwargs: Any) -> RequestSequence:
    """Materialized form of :func:`iter_adversarial_span_mix`."""
    return RequestSequence(iter_adversarial_span_mix(**kwargs))


def iter_burst_arrivals(
    *,
    requests: int = 20_000,
    horizon: int = 1 << 14,
    max_span: int = 1 << 12,
    burst_size: int = 64,
    same_window_bias: float = 0.5,
    delete_burst_fraction: float = 0.4,
    gamma: int = 8,
    num_machines: int = 1,
    seed: int = 0,
) -> Iterator[Request]:
    """Batch-shaped traffic: whole bursts of inserts, whole bursts of deletes.

    The batch-first request API serves traffic that arrives in bursts;
    this generator emits exactly that shape so batching is a first-class
    dimension of the experiments: each step is either an insert burst of
    ``burst_size`` requests (a ``same_window_bias`` fraction of which
    reuse one focus window, stressing the delegator's per-window
    grouping and the round-robin continuation) or a delete burst
    clearing a random ``delete_burst_fraction`` slice of the active set
    back-to-back. Drive it with ``ExecutionPlan(batch_size=burst_size)``
    for aligned burst/batch boundaries.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    tree = LaminarLoadTree(horizon)
    active: list[str] = []
    uid = [0]
    emitted = 0
    hi_exp = max_span.bit_length() - 1
    while emitted < requests:
        do_delete = (active
                     and rng.random() < 0.45
                     and len(active) > burst_size)
        if do_delete:
            burst = min(len(active),
                        max(1, int(len(active) * delete_burst_fraction)),
                        burst_size)
            for _ in range(burst):
                if emitted >= requests or not active:
                    break
                victim = active.pop(int(rng.integers(len(active))))
                tree.remove(victim)
                emitted += 1
                yield DeleteJob(victim)
            continue
        # insert burst around a focus window
        focus_exp = int(rng.integers(0, hi_exp + 1))
        focus_span = 1 << focus_exp
        focus_start = int(rng.integers(0, horizon // focus_span)) * focus_span
        focus = (focus_start, focus_start + focus_span)
        for _ in range(burst_size):
            if emitted >= requests:
                break
            if rng.random() < same_window_bias:
                req = _draw_insert(rng, tree, active, horizon=horizon,
                                   span_exps=(focus_exp, focus_exp),
                                   num_machines=num_machines, gamma=gamma,
                                   uid=uid, prefix="b", region=focus, tries=4)
                if req is not None:
                    emitted += 1
                    yield req
                    continue
            req = _draw_insert(rng, tree, active, horizon=horizon,
                               span_exps=(0, hi_exp),
                               num_machines=num_machines, gamma=gamma,
                               uid=uid, prefix="b")
            if req is not None:
                emitted += 1
                yield req
            else:
                if not active:
                    raise RuntimeError("burst arrivals saturated with no jobs")
                victim = active.pop(int(rng.integers(len(active))))
                tree.remove(victim)
                emitted += 1
                yield DeleteJob(victim)


def burst_arrivals_sequence(**kwargs: Any) -> RequestSequence:
    """Materialized form of :func:`iter_burst_arrivals`."""
    return RequestSequence(iter_burst_arrivals(**kwargs))


def iter_steady_state(
    *,
    requests: int = 50_000,
    horizon: int = 1 << 16,
    max_span: int = 1 << 14,
    target_active: int = 2000,
    gamma: int = 8,
    num_machines: int = 1,
    seed: int = 0,
) -> Iterator[Request]:
    """Long-horizon steady state: ramp up, then hold the population.

    Inserts until ``target_active`` jobs are live, then alternates
    deletes and inserts so the population hovers at the target for the
    rest of the run — the sustained-traffic regime where Theorem 1's
    flat per-request cost (and the engine's flat per-request wall time)
    must show.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    tree = LaminarLoadTree(horizon)
    active: list[str] = []
    uid = [0]
    emitted = 0
    hi_exp = max_span.bit_length() - 1
    while emitted < requests:
        over = len(active) >= target_active
        do_delete = active and (over or rng.random() < 0.5 * len(active) / target_active)
        if not do_delete:
            req = _draw_insert(rng, tree, active, horizon=horizon,
                               span_exps=(0, hi_exp),
                               num_machines=num_machines,
                               gamma=gamma, uid=uid, prefix="s")
            if req is not None:
                emitted += 1
                yield req
                continue
            if not active:
                raise RuntimeError("steady state saturated with no jobs")
            do_delete = True
        if do_delete:
            victim = active.pop(int(rng.integers(len(active))))
            tree.remove(victim)
            emitted += 1
            yield DeleteJob(victim)


def steady_state_sequence(**kwargs: Any) -> RequestSequence:
    """Materialized form of :func:`iter_steady_state`."""
    return RequestSequence(iter_steady_state(**kwargs))


#: name -> builder(requests, seed, num_machines) used by the CLI engine
#: and sweep commands. Every builder returns a deterministic
#: *materialized* sequence sized to ``requests``; the lazy twins live in
#: :data:`SCENARIO_STREAMS`.
SCENARIOS = {
    "appointments": lambda requests, seed, num_machines: appointment_book_sequence(
        requests=requests, seed=seed,
        days=max(8, requests // 50), slots_per_day=32),
    "cluster": lambda requests, seed, num_machines: cluster_trace_sequence(
        requests=requests, seed=seed, num_machines=max(1, num_machines)),
    "churn-storm": lambda requests, seed, num_machines: churn_storm_sequence(
        requests=requests, seed=seed, num_machines=num_machines),
    "adversarial-mix": lambda requests, seed, num_machines: adversarial_span_mix_sequence(
        requests=requests, seed=seed, num_machines=num_machines),
    "burst-arrivals": lambda requests, seed, num_machines: burst_arrivals_sequence(
        requests=requests, seed=seed, num_machines=num_machines),
    "steady-state": lambda requests, seed, num_machines: steady_state_sequence(
        requests=requests, seed=seed, num_machines=num_machines,
        target_active=max(64, requests // 25)),
}

#: name -> builder(requests, seed, num_machines) returning the *lazy*
#: generator form: identical request-for-request to the materialized
#: builder of the same name, but with memory bounded by the active set
#: (10^6-request streams never build a full list).
SCENARIO_STREAMS = {
    "appointments": lambda requests, seed, num_machines: iter_appointment_book(
        requests=requests, seed=seed,
        days=max(8, requests // 50), slots_per_day=32),
    "cluster": lambda requests, seed, num_machines: iter_cluster_trace(
        requests=requests, seed=seed, num_machines=max(1, num_machines)),
    "churn-storm": lambda requests, seed, num_machines: iter_churn_storm(
        requests=requests, seed=seed, num_machines=num_machines),
    "adversarial-mix": lambda requests, seed, num_machines: iter_adversarial_span_mix(
        requests=requests, seed=seed, num_machines=num_machines),
    "burst-arrivals": lambda requests, seed, num_machines: iter_burst_arrivals(
        requests=requests, seed=seed, num_machines=num_machines),
    "steady-state": lambda requests, seed, num_machines: iter_steady_state(
        requests=requests, seed=seed, num_machines=num_machines,
        target_active=max(64, requests // 25)),
}
