"""Unit tests for the reservation building blocks (rr law, Interval)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.window import Window, aligned_ladder, aligned_window_covering
from repro.levels import PAPER_POLICY
from repro.reservation.interval import Interval
from repro.reservation.window_state import (
    WindowState,
    dynamic_count,
    rr_counts,
    rr_diff,
)


class TestRoundRobinLaw:
    def test_invariant5_total(self):
        # Total reservations must equal 2x + 2**k (Invariant 5).
        for k in range(1, 6):
            n = 1 << k
            for x in range(0, 40):
                assert sum(rr_counts(x, n)) == 2 * x + n

    def test_leftmost_have_most(self):
        for x in range(0, 30):
            counts = rr_counts(x, 8)
            assert counts == sorted(counts, reverse=True)
            assert max(counts) - min(counts) <= 1

    def test_invariant5_band(self):
        # Each interval holds floor(2x/2^k)+1 or floor(2x/2^k)+2.
        for k in range(1, 5):
            n = 1 << k
            for x in range(0, 50):
                base = (2 * x) // n
                for c in rr_counts(x, n):
                    assert c in (base + 1, base + 2)

    @given(st.integers(0, 200), st.integers(1, 6))
    def test_increment_changes_exactly_two(self, x, k):
        n = 1 << k
        diff = rr_diff(x, x + 1, n)
        assert sum(diff.values()) == 2
        assert all(d == 1 for d in diff.values())
        assert len(diff) == 2 or (len(diff) == 1 and n == 1)

    @given(st.integers(1, 200), st.integers(1, 6))
    def test_decrement_mirrors_increment(self, x, k):
        n = 1 << k
        inc = rr_diff(x - 1, x, n)
        dec = rr_diff(x, x - 1, n)
        assert dec == {i: -d for i, d in inc.items()}

    def test_dynamic_count_consistency(self):
        for x in range(0, 30):
            for k in range(1, 5):
                n = 1 << k
                counts = rr_counts(x, n)
                for i in range(n):
                    assert dynamic_count(x, n, i) == counts[i] - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            rr_counts(-1, 4)
        with pytest.raises(ValueError):
            rr_counts(0, 0)


class TestWindowState:
    def make(self):
        w = Window(0, 128)  # level-1 window: 4 intervals of 32
        return WindowState(w, 1, PAPER_POLICY.intervals_of_window(1, w))

    def test_positions(self):
        ws = self.make()
        assert ws.n_intervals == 4
        assert ws.position_of(0) == 0
        assert ws.position_of(3) == 3
        with pytest.raises(ValueError):
            ws.position_of(4)

    def test_expected_dynamic(self):
        ws = self.make()
        ws.jobs.update({"a", "b", "c"})  # x=3, 2x=6 over 4 intervals
        counts = [ws.expected_dynamic(i) for i in range(4)]
        assert counts == [2, 2, 1, 1]
        assert sum(counts) == 6


def make_interval(level=1, index=0):
    return Interval(
        level=level, index=index,
        lo=index * PAPER_POLICY.interval_span(level),
        hi=(index + 1) * PAPER_POLICY.interval_span(level),
        enclosing_spans=tuple(PAPER_POLICY.enclosing_spans(level)),
    )


class TestInterval:
    def test_enclosing_windows(self):
        iv = make_interval()
        windows = iv.enclosing_windows()
        assert [w.span for w in windows] == [64, 128, 256]
        for w in windows:
            assert w.contains_window(Window(iv.lo, iv.hi))

    def test_baseline_demand(self):
        iv = make_interval()
        demands = dict(iv.demands())
        assert all(d == 1 for d in demands.values())
        assert iv.total_demand() == 3

    def test_target_all_baseline_fulfilled(self):
        iv = make_interval()
        target = iv.target_fulfilled()
        assert all(v == 1 for v in target.values())

    def test_priority_shortest_first_under_scarcity(self):
        iv = make_interval()
        w64 = aligned_window_covering(iv.lo, 64)
        w256 = aligned_window_covering(iv.lo, 256)
        iv.add_dynamic(w64, 20)
        iv.add_dynamic(w256, 20)
        # allowance 32; demand = 21 (w64) + 1 (w128) + 21 (w256)
        target = iv.target_fulfilled()
        assert target[w64] == 21
        assert target[aligned_window_covering(iv.lo, 128)] == 1
        assert target[w256] == 10
        wl = iv.waitlisted()
        assert wl[w256] == 11 and wl[w64] == 0

    def test_allowance_shrink_changes_target(self):
        iv = make_interval()
        w64 = aligned_window_covering(iv.lo, 64)
        iv.add_dynamic(w64, 40)  # demand 41 > 32; w64 has top priority
        assert iv.target_fulfilled()[w64] == 32
        for s in range(iv.lo, iv.lo + 10):
            iv.slot_lowered(s)
        assert iv.allowance_size() == 22
        assert iv.target_fulfilled()[w64] == 22

    def test_add_dynamic_negative_rejected(self):
        iv = make_interval()
        with pytest.raises(ValueError):
            iv.add_dynamic(aligned_window_covering(iv.lo, 64), -1)

    def test_rebalance_assigns_targets(self):
        iv = make_interval()
        revoked = iv.rebalance(lambda s: None, lambda s: True)
        assert revoked == []
        target = iv.target_fulfilled()
        for w, want in target.items():
            assert len(iv.assigned.get(w, ())) == want
        # owner map consistent
        for w, slots in iv.assigned.items():
            for s in slots:
                assert iv.slot_owner[s] == w

    def test_rebalance_revokes_on_demand_shift(self):
        iv = make_interval()
        w64 = aligned_window_covering(iv.lo, 64)
        w256 = aligned_window_covering(iv.lo, 256)
        iv.add_dynamic(w256, 29)  # 29 + baselines(3) = 32 = full allowance
        iv.rebalance(lambda s: None, lambda s: True)
        assert len(iv.assigned[w256]) == 30
        # Now a shorter window demands one more: w256 must lose one slot.
        iv.add_dynamic(w64, 1)
        occupied_slot = next(iter(iv.assigned[w256]))
        jobs = {occupied_slot: "victim"}
        revoked = iv.rebalance(lambda s: jobs.get(s), lambda s: s not in jobs)
        assert len(iv.assigned[w256]) == 29
        assert len(iv.assigned[w64]) == 2
        # Empty slots are preferred for release, so no job was revoked
        # unless every w256 slot held a job; here only one did.
        assert revoked == []

    def test_rebalance_revokes_job_when_no_empty_slot(self):
        iv = make_interval()
        w64 = aligned_window_covering(iv.lo, 64)
        w256 = aligned_window_covering(iv.lo, 256)
        iv.add_dynamic(w256, 29)
        iv.rebalance(lambda s: None, lambda s: True)
        jobs = {s: f"job{s}" for s in iv.assigned[w256]}  # all 30 occupied
        iv.add_dynamic(w64, 1)
        revoked = iv.rebalance(lambda s: jobs.get(s), lambda s: s not in jobs)
        assert len(revoked) == 1
        assert revoked[0] in jobs.values()

    def test_slot_lowered_revokes_assignment(self):
        iv = make_interval()
        iv.rebalance(lambda s: None, lambda s: True)
        w64 = aligned_window_covering(iv.lo, 64)
        s = next(iter(iv.assigned[w64]))
        iv.slot_lowered(s)
        assert s not in iv.slot_owner
        assert s not in iv.assigned.get(w64, set())
        assert not iv.in_allowance(s)
        iv.slot_raised(s)
        assert iv.in_allowance(s)

    def test_swap_slots(self):
        iv = make_interval()
        iv.rebalance(lambda s: None, lambda s: True)
        w64 = aligned_window_covering(iv.lo, 64)
        s1 = next(iter(iv.assigned[w64]))
        s2 = iv.lo + 31
        iv.slot_lowered(s2)
        iv.swap_slots(s1, s2)
        assert s2 in iv.assigned[w64]
        assert iv.slot_owner[s2] == w64
        assert s1 in iv.lower_occupied and s2 not in iv.lower_occupied
        iv.swap_slots(s1, s1)  # no-op

    def test_waitlist_accounting(self):
        iv = make_interval()
        w64 = aligned_window_covering(iv.lo, 64)
        iv.add_dynamic(w64, 100)
        wl = iv.waitlisted()
        assert wl[w64] == 101 - 32  # top priority takes full allowance
        assert sum(iv.target_fulfilled().values()) == 32


# ----------------------------------------------------------------------
# one-pass materialization vs the incremental oracle
# ----------------------------------------------------------------------
def occupy(level, index, occupancy):
    """(slot_job, job_levels) with ``occupancy[offset]`` the level of
    the job on slot ``lo + offset`` (None: empty). Jobs just outside
    the block are added too; materialization must ignore them."""
    span = PAPER_POLICY.interval_span(level)
    lo = index * span
    slot_job, job_levels = {}, {}
    cells = dict(occupancy)
    cells.setdefault(-1, 0)
    cells.setdefault(span, level + 1)
    for offset, job_level in cells.items():
        if job_level is not None and lo + offset >= 0:
            slot_job[lo + offset] = f"j{lo + offset}"
            job_levels[f"j{lo + offset}"] = job_level
    return slot_job, job_levels


def oracle_interval(level, index, slot_job, job_levels):
    """``Interval(...)`` + ``seed_lower`` + ``rebalance``: the
    slot-by-slot materialization the one-pass path replaces."""
    iv = make_interval(level, index)
    lowered = [s for s in iv.slots()
               if s in slot_job and job_levels[slot_job[s]] < level]
    if lowered:
        iv.seed_lower(lowered)

    def probe(s):
        occ = slot_job.get(s)
        return occ if occ is not None and job_levels[occ] == level else None

    assert iv.rebalance(probe, lambda s: s not in slot_job) == []
    return iv


def assert_materialize_matches_oracle(level, index, occupancy):
    slot_job, job_levels = occupy(level, index, occupancy)
    span = PAPER_POLICY.interval_span(level)
    spans = tuple(PAPER_POLICY.enclosing_spans(level))
    fast = Interval.materialize(
        level=level, index=index, lo=index * span, hi=(index + 1) * span,
        enclosing_spans=spans, slot_job=slot_job, job_levels=job_levels)
    oracle = oracle_interval(level, index, slot_job, job_levels)
    assert "_windows" not in vars(fast), "the ladder must be built lazily"
    for name in ("_lower", "_n_lower", "_free", "_owner", "_aslots",
                 "_counts", "_stale", "_ws"):
        assert getattr(fast, name) == getattr(oracle, name), name
    assert fast._target_list() == oracle._target_list()
    # every other field too, memo flags included
    state = {k: v for k, v in vars(fast).items() if k != "_windows"}
    assert state == {k: v for k, v in vars(oracle).items()
                     if k != "_windows"}
    assert fast._windows == aligned_ladder(fast.lo, spans)
    assert fast._windows == oracle._windows
    return fast


#: an occupant level per slot offset (None: empty)
_OCCUPANT = st.one_of(st.none(), st.integers(0, 3))


@st.composite
def occupied_blocks(draw):
    """(level, index, occupancy): a fill level for the whole block
    (empty, lowered, or covered by a higher-level job) with random
    per-slot overrides, so sparse, dense and mixed blocks all occur."""
    level = draw(st.sampled_from([1, 2]))
    span = PAPER_POLICY.interval_span(level)
    index = draw(st.integers(0, 3))
    fill = draw(st.sampled_from([None, 0, level + 1]))
    overrides = draw(st.dictionaries(st.integers(0, span - 1), _OCCUPANT,
                                     max_size=64))
    occupancy = {offset: fill for offset in range(span)}
    occupancy.update(overrides)
    return level, index, occupancy


class TestMaterialize:
    @given(occupied_blocks())
    def test_matches_incremental_oracle(self, block):
        assert_materialize_matches_oracle(*block)

    @pytest.mark.parametrize("level", [1, 2])
    def test_empty_block(self, level):
        iv = assert_materialize_matches_oracle(level, 1, {})
        npos = len(PAPER_POLICY.enclosing_spans(level))
        assert iv._counts == [1] * npos
        assert iv._free == list(range(iv.lo + npos, iv.hi))

    @pytest.mark.parametrize("level", [1, 2])
    def test_lowered_slots_leave_the_allowance(self, level):
        iv = assert_materialize_matches_oracle(
            level, 2, {0: 0, 1: 0, 5: level - 1})
        assert iv._n_lower == 3
        assert [s - iv.lo for s in iv._free][:1] == [
            len(iv.enclosing_spans) + 3]

    def test_empty_slots_back_the_baseline_before_covered_ones(self):
        # slots 0-2 sit under level-2 jobs; slots 3.. are empty
        iv = assert_materialize_matches_oracle(1, 0, {0: 2, 1: 2, 2: 2})
        assert [sorted(s) for s in iv._aslots] == [[3], [4], [5]]
        assert iv._free[:3] == [0, 1, 2]

    def test_covered_slots_fill_in_when_empties_run_out(self):
        # one empty slot, two covered ones, the rest lowered
        occupancy = {offset: 0 for offset in range(32)}
        occupancy.update({4: 2, 9: None, 20: 2})
        iv = assert_materialize_matches_oracle(1, 0, occupancy)
        assert [sorted(s) for s in iv._aslots] == [[9], [4], [20]]
        assert iv._free == []

    @pytest.mark.parametrize("holes", [0, 1, 2])
    def test_allowance_below_ladder_length(self, holes):
        # a level-1 block with 32 - holes of its 32 slots lowered: only
        # the first `holes` ladder positions get a baseline slot
        occupancy = {offset: 0 for offset in range(32 - holes)}
        iv = assert_materialize_matches_oracle(1, 3, occupancy)
        assert iv._counts == [1] * holes + [0] * (3 - holes)
        assert iv._target_list() == iv._counts and not iv._stale
