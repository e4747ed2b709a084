"""Level-l interval state: allowance, reservations, fulfillment, assignment.

An :class:`Interval` is one aligned block of ``L_l`` slots at reservation
level ``l``. It tracks:

- the *allowance* — which of its slots currently hold jobs of level < l
  (the paper's lower-occupied set; the complement is the allowance);
- *dynamic reservations* per enclosing window (2 per job, round-robin);
  the *baseline* reservation (1 per enclosing window, always present)
  is added implicitly by :meth:`demands`;
- the *assignment* — which allowance slots currently back fulfilled
  reservations of which window.

Which reservations are fulfilled is a pure function of the demand
multiset and the allowance size (:meth:`target_fulfilled`): sort
enclosing windows shortest-span first (ties by start) and grant greedily
— Observation 7's history independence. :meth:`rebalance` reconciles the
assignment with the target after any change, returning the level-l jobs
whose backing slot was revoked (the scheduler then MOVEs them).

Flattened hot state (engine-scale runs). The enclosing windows of an
interval form a fixed tuple (one per legal span), and its slots a fixed
``[lo, hi)`` block — so *all* hot state is positional, no Window or slot
hashing anywhere on the mutation path:

- ``_lower`` — a ``bytearray`` over the slot block (1 = lower-occupied),
  with ``_n_lower`` tracking its popcount (allowance size in O(1));
- ``_dyn`` / ``_counts`` — dynamic-reservation and assigned-slot counts
  per ladder position, with ``_dyn_total`` the running demand sum;
- ``_aslots`` — the assigned slot set per ladder position, and
  ``_owner`` — the inverse map as a per-slot position array (-1 free);
- ``_ws`` — the owning scheduler's per-position
  :class:`~repro.reservation.window_state.WindowState` cache, so the
  assignment hooks hand the scheduler the state object directly instead
  of a Window to hash-look-up.

The legacy Window-keyed mappings (``lower_occupied``, ``dynamic_res``,
``assigned``, ``slot_owner``) survive as derived read-only properties —
the validation layer cross-checks them against the flattened forms.

The fulfillment target is *memoized* (``_tlist`` / ``_tvalid``) and
maintained incrementally where the slack structure allows: whenever the
allowance covers every demand (``allowance >= n_positions + _dyn_total``)
the target is exactly ``1 + dyn`` per position, so a dynamic delta
adjusts one entry and pure allowance changes leave it untouched; outside
slack the memo is invalidated and :meth:`_target_list` recomputes.
:meth:`compute_target_fresh` recomputes from the derived mappings and is
the oracle the property tests compare against. A sorted index of *free*
allowance slots (backing nothing) lets :meth:`rebalance` top up
fulfillments without scanning the ``L_l`` slot range, and rebalance
exits O(1)-early when nothing changed since the last reconciliation.

When ``undo_log`` is set every mutation appends its exact inverse — the
scheduler's failed-request rollback journal. Journal entries are tuple
opcodes addressing state positionally (one allocation each, dispatched
by :func:`~repro.reservation.journal.replay_entries`).

Assignment hooks. An interval holds no reference to its scheduler.
The three mutators that can change which window a slot backs —
:meth:`rebalance`, :meth:`slot_lowered` and :meth:`swap_slots` — take
the owning scheduler as a trailing ``owner`` argument and call its
``_on_assign(ws, slot)`` / ``_on_release(ws, slot)`` for every
assignment change of a window whose state is published in ``_ws``.
Without an owner (unit tests) no hook fires. Because nothing points
back from an interval to its scheduler, a scheduler that a trimming
rebuild or a deamortized phase end replaces is freed by reference
counting the moment it is dropped, with no cyclic garbage left behind.

Geometry. The enclosing-window ladder ``_windows`` and the span tuple
``enclosing_spans`` are immutable per (level, index). The ladder is
built on first read, with the trusted
:func:`~repro.core.window.aligned_ladder` constructor instead of
validated ``Window(...)`` calls; only validation and the derived
Window-keyed views read it. The scheduler passes in one
``enclosing_spans`` tuple shared by every interval of a level.

Materialization. The scheduler creates intervals with
:meth:`Interval.materialize`, which writes a fresh interval's lowered
set and baseline fulfillments down in one pass over the slot block
(Observation 7 makes the baseline a pure function of the allowance).
``Interval(...)`` followed by :meth:`seed_lower` and :meth:`rebalance`
builds the same state slot by slot; it is the oracle the tests compare
against.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping

from ..core.job import JobId
from ..core.window import Window, aligned_ladder
from .journal import (
    OP_ASSIGN,
    OP_DYNAMIC,
    OP_LOWERED,
    OP_RAISED,
    OP_RELEASE,
    OP_SWAP,
)

if TYPE_CHECKING:
    from .scheduler import AlignedReservationScheduler
    from .window_state import WindowState


class Interval:
    """One level-l interval (an aligned ``L_l``-slot block)."""

    def __init__(self, *, level: int, index: int, lo: int, hi: int,
                 enclosing_spans: tuple[int, ...],
                 undo_log: list | None = None) -> None:
        """An empty, unreconciled interval: no lowered slot, no assignment.

        The scheduler never builds one this way (see :meth:`materialize`);
        followed by :meth:`seed_lower` and :meth:`rebalance` it is the
        oracle the one-pass materializer is tested against.
        """
        self._init_fixed(level, index, lo, hi, enclosing_spans, undo_log)
        span = hi - lo
        npos = len(enclosing_spans)
        #: per-slot lower-occupied bits (index = slot - lo)
        self._lower = bytearray(span)
        #: popcount of ``_lower`` (allowance size = span - _n_lower)
        self._n_lower = 0
        #: assigned slot set per ladder position
        self._aslots: list[set[int]] = [set() for _ in range(npos)]
        #: assigned slot count per ladder position (len of _aslots entry)
        self._counts = [0] * npos
        #: per-slot owner ladder position (-1 = unowned; index = slot - lo)
        self._owner = [-1] * span
        #: sorted free allowance slots (in allowance, backing nothing)
        self._free = list(range(lo, hi))
        #: memoized positional fulfillment target + validity flag
        self._tlist = [0] * npos
        self._tvalid = False
        #: ``_dirty_all`` widens the next reconciliation to every
        #: position (target memo invalidated)
        self._dirty_all = True
        #: True when a mutation since the last rebalance may have
        #: unbalanced the assignment (fresh intervals start unreconciled)
        self._stale = True

    def _init_fixed(self, level: int, index: int, lo: int, hi: int,
                    enclosing_spans: tuple[int, ...],
                    undo_log: list | None) -> None:
        """Geometry and the state every new interval starts with alike."""
        self.level = level
        self.index = index
        self.lo = lo
        self.hi = hi
        #: legal level-l window spans (from the policy), smallest first
        self.enclosing_spans = enclosing_spans
        #: bit length of the smallest enclosing span (ladder-position
        #: arithmetic base, hoisted out of the hot ``_pos`` lookup)
        self._span_bits0 = enclosing_spans[0].bit_length()
        #: when set (by the scheduler, per request), every mutation appends
        #: its inverse here — replayed in reverse to roll back a failure
        self.undo_log = undo_log
        npos = len(enclosing_spans)
        #: dynamic reservation count per ladder position
        self._dyn = [0] * npos
        #: running sum of ``_dyn`` (slack test input)
        self._dyn_total = 0
        #: owning scheduler's WindowState per ladder position (None when
        #: the window is inactive); maintained by the scheduler
        self._ws: list[WindowState | None] = [None] * npos
        #: ladder positions whose counts may diverge from the target
        #: since the last rebalance
        self._dirty: set[int] = set()

    @classmethod
    def materialize(cls, *, level: int, index: int, lo: int, hi: int,
                    enclosing_spans: tuple[int, ...],
                    slot_job: Mapping[int, JobId],
                    job_levels: Mapping[JobId, int]) -> Interval:
        """A fresh interval, reconciled against the current occupancy.

        One pass over the slot block sorts each slot into lowered (its
        occupant's level is below ``level``), empty, or covered (any
        other occupant). With no dynamic reservation yet, the target is
        one baseline slot for each of the first ``k = min(npos,
        allowance)`` ladder positions (Observation 7), and position
        ``p`` gets the ``p``-th slot of the empty slots followed by the
        covered ones, each ascending — the pool order of
        :meth:`rebalance`'s top-up phase. The result equals
        ``Interval(...)`` + :meth:`seed_lower` + :meth:`rebalance` field
        for field, without a per-slot assignment. No assignment hook is
        fired and nothing is journaled: the caller publishes the
        interval before any window state can point at it.
        """
        iv = cls.__new__(cls)
        iv._init_fixed(level, index, lo, hi, enclosing_spans, None)
        span = hi - lo
        npos = len(enclosing_spans)
        lower = bytearray(span)
        empties: list[int] = []
        covered: list[int] = []
        # the occupied slots are few: classify those, and splice the
        # empty runs between them in as whole ranges
        prev = lo
        for s in sorted(slot_job.keys() & range(lo, hi)):
            empties += range(prev, s)
            prev = s + 1
            if job_levels[slot_job[s]] < level:
                lower[s - lo] = 1
            else:
                covered.append(s)
        empties += range(prev, hi)
        # rebalance's top-up order: empty slots first, then covered ones
        ranked = empties + covered
        allowance = len(ranked)
        k = min(npos, allowance)
        pool = ranked[:k]
        free = sorted(ranked[k:])
        owner = [-1] * span
        for pos, s in enumerate(pool):
            owner[s - lo] = pos
        counts = [1] * k + [0] * (npos - k)
        iv._lower = lower
        iv._n_lower = span - allowance
        iv._aslots = [{s} for s in pool] + [set() for _ in range(npos - k)]
        iv._counts = counts
        iv._owner = owner
        iv._free = free
        iv._tlist = counts.copy()
        iv._tvalid = True
        iv._dirty_all = False
        iv._stale = False
        return iv

    # ------------------------------------------------------------------
    # geometry / demand
    # ------------------------------------------------------------------
    @cached_property
    def _windows(self) -> tuple[Window, ...]:
        """Enclosing-window tuple, one per ladder position (built on
        first read: only validation and the derived views need it)."""
        return aligned_ladder(self.lo, self.enclosing_spans)

    @property
    def span(self) -> int:
        return self.hi - self.lo

    def slots(self) -> range:
        return range(self.lo, self.hi)

    def enclosing_windows(self) -> list[Window]:
        """All legal level-l windows containing this interval, shortest first."""
        return list(self._windows)

    def _pos(self, window: Window) -> int:
        """Position of an enclosing window in the span ladder (no hashing)."""
        return window.span.bit_length() - self._span_bits0

    def allowance_size(self) -> int:
        return self.span - self._n_lower

    def in_allowance(self, slot: int) -> bool:
        return self.lo <= slot < self.hi and not self._lower[slot - self.lo]

    # ------------------------------------------------------------------
    # derived Window-keyed views (validation / test surface; the hot
    # path never builds these)
    # ------------------------------------------------------------------
    @property
    def lower_occupied(self) -> set[int]:
        """Slots currently holding jobs of level < l (derived view)."""
        lo = self.lo
        return {lo + i for i, b in enumerate(self._lower) if b}

    @property
    def dynamic_res(self) -> dict[Window, int]:
        """Dynamic reservation count per enclosing window (derived view)."""
        return {w: d for w, d in zip(self._windows, self._dyn) if d}

    @property
    def assigned(self) -> dict[Window, set[int]]:
        """Assigned slot set per enclosing window (derived view)."""
        return {w: set(s) for w, s in zip(self._windows, self._aslots) if s}

    @property
    def slot_owner(self) -> dict[int, Window]:
        """slot -> owning window for every assigned slot (derived view)."""
        lo = self.lo
        windows = self._windows
        return {lo + i: windows[p] for i, p in enumerate(self._owner) if p >= 0}

    def demands(self) -> list[tuple[Window, int]]:
        """(window, demand) for every enclosing window, priority order.

        Demand = 1 baseline + dynamic reservations. Every enclosing
        window always demands at least its baseline (Observation 7:
        fulfillment must not depend on which windows happen to have
        jobs). Priority: shortest span first, ties by window start.
        """
        # enclosing windows are already shortest-first; starts are unique
        # per span (one window per span covers this interval), so the
        # span order is a total priority order.
        return [(w, 1 + d) for w, d in zip(self._windows, self._dyn)]

    # ------------------------------------------------------------------
    # fulfillment target (memoized, incrementally maintained under slack)
    # ------------------------------------------------------------------
    def _target_list(self) -> list[int]:
        if self._tvalid:
            return self._tlist
        remaining = self.span - self._n_lower
        out = []
        for d in self._dyn:
            if remaining <= 0:
                out.append(0)
                continue
            take = d + 1
            if take > remaining:
                take = remaining
            out.append(take)
            remaining -= take
        self._tlist = out
        self._tvalid = True
        return out

    def target_fulfilled(self) -> dict[Window, int]:
        """Fulfilled-reservation counts per window (pure function).

        Greedy by priority: each window receives
        ``min(demand, remaining allowance)``. Served from the memoized
        positional target; :meth:`compute_target_fresh` is the uncached
        oracle.
        """
        return dict(zip(self._windows, self._target_list()))

    def compute_target_fresh(self) -> dict[Window, int]:
        """Recompute the fulfillment target from scratch (no memo).

        The history-independence guard: the property tests assert this
        always equals :meth:`target_fulfilled` under arbitrary
        insert/delete interleavings. Reads through the derived
        Window-keyed views, so it also cross-checks the flattened state.
        """
        remaining = self.allowance_size()
        get = self.dynamic_res.get
        target: dict[Window, int] = {}
        for w in self._windows:
            take = min(1 + get(w, 0), remaining)
            target[w] = take
            remaining -= take
        return target

    def waitlisted(self) -> dict[Window, int]:
        """Demand minus fulfilled, per enclosing window (zero entries kept)."""
        target = self.target_fulfilled()
        return {w: d - target[w] for w, d in self.demands()}

    def _note_allowance_shrunk(self, had_owner: bool) -> None:
        """Maintain the memo after a slot left the allowance."""
        slack = (self.span - self._n_lower
                 >= len(self._dyn) + self._dyn_total)
        if had_owner:
            # an assignment was revoked: counts diverge from the target
            # (the caller marks the revoked position dirty)
            self._stale = True
            if not slack:
                self._tvalid = False
                self._dirty_all = True
        elif not (self._tvalid and slack):
            # outside slack the tail targets shift with the allowance
            self._tvalid = False
            self._dirty_all = True
            self._stale = True
        # a free slot lowered under slack changes neither the target nor
        # the counts — no rebalance needed

    def _note_allowance_grown(self) -> None:
        """Maintain the memo *before* a slot rejoins the allowance."""
        if (self._tvalid and self.span - self._n_lower
                >= len(self._dyn) + self._dyn_total):
            return  # full demand already met; growth changes nothing
        self._tvalid = False
        self._dirty_all = True
        self._stale = True

    # ------------------------------------------------------------------
    # free-slot index (allowance slots backing nothing)
    # ------------------------------------------------------------------
    def free_slots(self) -> list[int]:
        """Sorted allowance slots currently backing no reservation.

        Maintained incrementally; treat as read-only.
        """
        return self._free

    def _free_add(self, slot: int) -> None:
        insort(self._free, slot)

    def _free_discard(self, slot: int) -> None:
        free = self._free
        i = bisect_left(free, slot)
        if i < len(free) and free[i] == slot:
            del free[i]

    # ------------------------------------------------------------------
    # reservation mutation (dynamic part only)
    # ------------------------------------------------------------------
    def add_dynamic(self, window: Window, delta: int) -> None:
        """Adjust dynamic reservation count for a window by +/- delta."""
        # position lookup and validation first: nothing may raise between
        # the container mutation and the undo append (rollback would
        # miss the mutation)
        pos = window.span.bit_length() - self._span_bits0
        dyn = self._dyn
        new = dyn[pos] + delta
        if new < 0:
            raise ValueError(
                f"dynamic reservations for {window} would go negative at "
                f"interval {self.index} (level {self.level})"
            )
        dyn[pos] = new
        log = self.undo_log
        if log is not None:
            log.append((OP_DYNAMIC, self, pos, delta))
        # memo maintenance, inlined from the former _note_dyn_changed
        # (this is the single hottest interval mutation): under slack
        # (allowance covers every demand, before and after) the target
        # is exactly ``1 + dyn`` per position, so the memo adjusts in
        # place; otherwise it is invalidated.
        old_total = self._dyn_total
        new_total = old_total + delta
        self._dyn_total = new_total
        if self._tvalid:
            worst = old_total if old_total > new_total else new_total
            if self.span - self._n_lower >= len(dyn) + worst:
                self._tlist[pos] += delta
                self._dirty.add(pos)
            else:
                self._tvalid = False
                self._dirty_all = True
        else:
            self._dirty_all = True
        self._stale = True

    def _undo_dynamic(self, pos: int, delta: int) -> None:
        self._dyn[pos] -= delta
        self._dyn_total -= delta
        self._tvalid = False
        self._dirty_all = True
        self._stale = True

    # ------------------------------------------------------------------
    # assignment primitives (keep slots, counts, free index, hooks, undo
    # log consistent in one place)
    # ------------------------------------------------------------------
    def _do_assign(self, pos: int, slot: int,
                   owner: AlignedReservationScheduler | None) -> None:
        self._aslots[pos].add(slot)
        self._owner[slot - self.lo] = pos
        self._counts[pos] += 1
        self._free_discard(slot)
        # undo entry before the hook: the scheduler-side hook can raise
        # (underallocation checks), and a raise between the mutation and
        # the append would leave the assign invisible to rollback
        log = self.undo_log
        if log is not None:
            log.append((OP_ASSIGN, self, pos, slot))
        if owner is not None:
            ws = self._ws[pos]
            if ws is not None:
                owner._on_assign(ws, slot)

    def _undo_assign(self, pos: int, slot: int) -> None:
        self._aslots[pos].discard(slot)
        self._owner[slot - self.lo] = -1
        self._counts[pos] -= 1
        self._free_add(slot)
        self._dirty.add(pos)
        self._stale = True

    def _do_release(self, pos: int, slot: int,
                    owner: AlignedReservationScheduler | None) -> None:
        self._aslots[pos].discard(slot)
        self._owner[slot - self.lo] = -1
        self._counts[pos] -= 1
        self._free_add(slot)
        # undo entry before the hook, same ordering contract as
        # _do_assign: a raising hook must find the release journaled
        log = self.undo_log
        if log is not None:
            log.append((OP_RELEASE, self, pos, slot))
        if owner is not None:
            ws = self._ws[pos]
            if ws is not None:
                owner._on_release(ws, slot)

    def _undo_release(self, pos: int, slot: int) -> None:
        self._aslots[pos].add(slot)
        self._owner[slot - self.lo] = pos
        self._counts[pos] += 1
        self._free_discard(slot)
        self._dirty.add(pos)
        self._stale = True

    # ------------------------------------------------------------------
    # allowance mutation
    # ------------------------------------------------------------------
    def slot_lowered(self, slot: int,
                     owner: AlignedReservationScheduler | None = None) -> None:
        """A job of level < l now occupies ``slot`` (it leaves the allowance).

        Any assignment backing the slot is revoked (``owner``'s release
        hook fires for it); the caller must rebalance afterwards.
        """
        if not self.lo <= slot < self.hi:
            raise ValueError(f"slot {slot} outside interval [{self.lo},{self.hi})")
        i = slot - self.lo
        if self._lower[i]:
            return
        opos = self._owner[i]
        self._lower[i] = 1
        self._n_lower += 1
        if opos >= 0:
            self._owner[i] = -1
            self._aslots[opos].discard(slot)
            self._counts[opos] -= 1
            self._dirty.add(opos)
        else:
            self._free_discard(slot)
        log = self.undo_log
        if log is not None:
            log.append((OP_LOWERED, self, slot, opos))
        self._note_allowance_shrunk(opos >= 0)
        if opos >= 0 and owner is not None:
            ws = self._ws[opos]
            if ws is not None:
                owner._on_release(ws, slot)

    def _undo_slot_lowered(self, slot: int, opos: int) -> None:
        i = slot - self.lo
        self._lower[i] = 0
        self._n_lower -= 1
        if opos >= 0:
            self._aslots[opos].add(slot)
            self._owner[i] = opos
            self._counts[opos] += 1
        else:
            self._free_add(slot)
        self._tvalid = False
        self._dirty_all = True
        self._stale = True

    def slot_raised(self, slot: int) -> None:
        """The lower-level occupant of ``slot`` left (slot rejoins allowance)."""
        if not self.lo <= slot < self.hi:
            return
        i = slot - self.lo
        if not self._lower[i]:
            return
        # memo bookkeeping reads the pre-growth allowance, so it runs
        # first (it mutates nothing the undo entry must cover)
        self._note_allowance_grown()
        self._lower[i] = 0
        self._n_lower -= 1
        self._free_add(slot)
        log = self.undo_log
        if log is not None:
            log.append((OP_RAISED, self, slot))

    def _undo_slot_raised(self, slot: int) -> None:
        self._lower[slot - self.lo] = 1
        self._n_lower += 1
        self._free_discard(slot)
        self._tvalid = False
        self._dirty_all = True
        self._stale = True

    # ------------------------------------------------------------------
    # materialization seeding
    # ------------------------------------------------------------------
    def seed_lower(self, slots: list[int]) -> None:
        """Seed lower-occupied membership at materialization time.

        Exempt from per-mutation journaling: the scheduler journals the
        materialization wholesale (an ``OP_POP`` dropping the interval
        from its table), so rollback discards the object rather than
        unwinding the seed.
        """
        lower = self._lower
        lo = self.lo
        added = 0
        for s in slots:
            i = s - lo
            if not lower[i]:
                lower[i] = 1
                added += 1
        self._n_lower += added
        owner = self._owner
        self._free = [s for s in range(lo, self.hi)
                      if not lower[s - lo] and owner[s - lo] < 0]
        self._tvalid = False
        self._dirty_all = True
        self._stale = True

    # ------------------------------------------------------------------
    # assignment reconciliation
    # ------------------------------------------------------------------
    def rebalance(
        self,
        level_job_at: Callable[[int], JobId | None],
        empty_at: Callable[[int], bool],
        owner: AlignedReservationScheduler | None = None,
    ) -> list[JobId]:
        """Reconcile slot assignments with :meth:`target_fulfilled`.

        Parameters
        ----------
        level_job_at:
            slot -> id of the level-l job occupying it (None otherwise).
            Used to avoid revoking occupied backing slots when an empty
            one can be released instead, and to report forced moves.
        empty_at:
            slot -> True iff *no* job of any level occupies it. Used to
            prefer truly empty slots when assigning, minimizing future
            cross-level displacement.
        owner:
            The scheduler whose ``_on_assign`` / ``_on_release`` hooks
            see every assignment change (None: no hooks fire).

        Returns the level-l jobs whose backing slot was revoked; the
        scheduler must MOVE each of them.

        O(1) when nothing changed since the last reconciliation; when
        work is needed, only diverging windows are touched (the dirty
        position set narrows the scan while the target memo is valid)
        and top-up slots come from the free index instead of a range
        scan.
        """
        if not self._stale:
            return []
        counts = self._counts
        if self._dirty_all or not self._tvalid:
            target = self._target_list()
            self._dirty_all = False
            self._dirty.clear()
            if counts == target:
                self._stale = False
                return []
            positions = [p for p in range(len(target))
                         if counts[p] != target[p]]
        else:
            target = self._tlist
            dirty = self._dirty
            positions = [p for p in dirty if counts[p] != target[p]]
            dirty.clear()
            if not positions:
                self._stale = False
                return []
            if len(positions) > 1:
                positions.sort()
        aslots = self._aslots
        revoked: list[JobId] = []
        deficit = 0
        deficit_pos: list[int] = []

        # Phase 1: releases (excess assignments), empty slots first.
        for pos in positions:
            want = target[pos]
            have = counts[pos]
            if have < want:
                deficit += want - have
                deficit_pos.append(pos)
                continue
            excess = have - want
            # Single sorted pass partitioning empty vs occupied backing
            # slots (empties release first); stops probing once enough
            # empties are in hand, since occupied slots then never
            # release.
            empties: list[int] = []
            occupied: list[int] = []
            for s in sorted(aslots[pos]):
                if level_job_at(s) is None:
                    empties.append(s)
                    if len(empties) == excess:
                        break
                else:
                    occupied.append(s)
            for s in empties:
                self._do_release(pos, s, owner)
            for s in occupied[:excess - len(empties)]:
                self._do_release(pos, s, owner)
                job = level_job_at(s)
                if job is not None:
                    revoked.append(job)

        # Phase 2: top-ups from the free index, truly empty slots first,
        # then slots under higher-level jobs. The scan stops as soon as
        # enough empty slots are found (they always rank first).
        if deficit:
            empties = []
            covered = []
            for s in self._free:
                if empty_at(s):
                    empties.append(s)
                    if len(empties) == deficit:
                        break
                else:
                    covered.append(s)
            pool = empties + covered
            fi = 0
            for pos in deficit_pos:
                need = target[pos] - counts[pos]
                if need <= 0:
                    continue
                if fi + need > len(pool):  # pragma: no cover - defensive
                    raise AssertionError(
                        f"interval {self.index} (level {self.level}): target "
                        "fulfillment exceeds allowance"
                    )
                for s in pool[fi:fi + need]:
                    self._do_assign(pos, s, owner)
                fi += need
        self._stale = False
        return revoked

    # ------------------------------------------------------------------
    # swap support (the MOVE trick of Figure 1, lines 12-13)
    # ------------------------------------------------------------------
    def swap_slots(self, s1: int, s2: int,
                   owner: AlignedReservationScheduler | None = None) -> None:
        """Exchange the roles of two slots in this interval's bookkeeping.

        Swaps allowance membership and assignment ownership. Used by
        MOVE at ancestor levels so that relocating a lower-level job
        between two slots of the same ancestor interval is invisible to
        this level (net allowance change zero). ``owner``'s hooks see
        the swapped assignments.
        """
        if s1 == s2:
            return
        self._swap_raw(s1, s2, owner)
        log = self.undo_log
        if log is not None:
            # the raw swap is an involution; hooks are not refired on
            # undo (the scheduler's window-state journal restores those)
            log.append((OP_SWAP, self, s1, s2))

    def _swap_raw(self, s1: int, s2: int,
                  owner: AlignedReservationScheduler | None) -> None:
        lo = self.lo
        i1 = s1 - lo
        i2 = s2 - lo
        lower = self._lower
        if lower[i1] != lower[i2]:
            lower[i1], lower[i2] = lower[i2], lower[i1]
        slot_owner = self._owner
        o1 = slot_owner[i1]
        o2 = slot_owner[i2]
        slot_owner[i1] = slot_owner[i2] = -1
        aslots = self._aslots
        ws_list = self._ws
        if o1 >= 0:
            aslots[o1].discard(s1)
            if owner is not None:
                ws = ws_list[o1]
                if ws is not None:
                    owner._on_release(ws, s1)
        if o2 >= 0:
            aslots[o2].discard(s2)
            if owner is not None:
                ws = ws_list[o2]
                if ws is not None:
                    owner._on_release(ws, s2)
        if o1 >= 0:
            slot_owner[i2] = o1
            aslots[o1].add(s2)
            if owner is not None:
                ws = ws_list[o1]
                if ws is not None:
                    owner._on_assign(ws, s2)
        if o2 >= 0:
            slot_owner[i1] = o2
            aslots[o2].add(s1)
            if owner is not None:
                ws = ws_list[o2]
                if ws is not None:
                    owner._on_assign(ws, s1)
        # Per-position assignment counts are unchanged (each owner keeps
        # the same number of slots), and the target is a pure function
        # of allowance *size* and demand — both unchanged — so the memo
        # and the staleness flag survive a swap. Recompute free
        # membership for both endpoints from first principles.
        for s in (s1, s2):
            self._free_discard(s)
            i = s - lo
            if not lower[i] and slot_owner[i] < 0:
                self._free_add(s)

    # ------------------------------------------------------------------
    def total_demand(self) -> int:
        return sum(d for _, d in self.demands())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Interval(level={self.level}, idx={self.index}, "
                f"[{self.lo},{self.hi}), lower={self._n_lower}, "
                f"assigned={sum(self._counts)})")
