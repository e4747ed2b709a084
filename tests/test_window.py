"""Unit tests for repro.core.window."""

import pytest
from hypothesis import given, strategies as st

from repro.core.window import (
    Window,
    aligned_ladder,
    aligned_window_covering,
    floor_log2,
    is_power_of_two,
)


class TestPowerOfTwo:
    def test_powers(self):
        for i in range(20):
            assert is_power_of_two(1 << i)

    def test_non_powers(self):
        for x in [0, -1, -2, 3, 5, 6, 7, 9, 12, 100]:
            assert not is_power_of_two(x)

    def test_floor_log2(self):
        assert floor_log2(1) == 0
        assert floor_log2(2) == 1
        assert floor_log2(3) == 1
        assert floor_log2(4) == 2
        assert floor_log2(1023) == 9
        assert floor_log2(1024) == 10

    def test_floor_log2_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            floor_log2(0)


class TestWindowBasics:
    def test_span(self):
        assert Window(0, 4).span == 4
        assert Window(3, 4).span == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            Window(4, 4)
        with pytest.raises(ValueError):
            Window(5, 3)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            Window(0.5, 4)

    def test_contains_slot(self):
        w = Window(2, 6)
        assert 2 in w and 5 in w
        assert 1 not in w and 6 not in w

    def test_slots(self):
        assert list(Window(2, 5).slots()) == [2, 3, 4]

    def test_contains_window(self):
        assert Window(0, 8).contains_window(Window(2, 6))
        assert Window(0, 8).contains_window(Window(0, 8))
        assert not Window(2, 6).contains_window(Window(0, 8))
        assert not Window(0, 4).contains_window(Window(2, 6))

    def test_overlaps(self):
        assert Window(0, 4).overlaps(Window(3, 8))
        assert not Window(0, 4).overlaps(Window(4, 8))

    def test_intersect(self):
        assert Window(0, 4).intersect(Window(2, 8)) == Window(2, 4)
        assert Window(0, 4).intersect(Window(4, 8)) is None


class TestAlignment:
    def test_aligned_examples(self):
        assert Window(0, 1).is_aligned
        assert Window(4, 8).is_aligned
        assert Window(16, 32).is_aligned
        assert Window(7, 8).is_aligned  # span 1 at any start

    def test_unaligned_examples(self):
        assert not Window(1, 3).is_aligned  # span 2, start odd
        assert not Window(0, 3).is_aligned  # span 3
        assert not Window(2, 6).is_aligned  # span 4, start 2

    def test_aligned_within_identity(self):
        w = Window(8, 16)
        assert w.aligned_within() == w

    def test_aligned_within_factor_four(self):
        # Lemma 10 relies on |ALIGNED(W)| >= |W|/4.
        for release in range(0, 40):
            for span in range(1, 70):
                w = Window(release, release + span)
                a = w.aligned_within()
                assert a.is_aligned
                assert w.contains_window(a)
                assert 4 * a.span >= w.span

    def test_aligned_within_specific(self):
        # [1, 8): span 7 -> largest aligned inside is [4, 8) (span 4)
        assert Window(1, 8).aligned_within() == Window(4, 8)
        # [1, 4): span 3 -> [2, 4)
        assert Window(1, 4).aligned_within() == Window(2, 4)

    @given(st.integers(0, 10_000), st.integers(1, 5_000))
    def test_aligned_within_properties(self, release, span):
        w = Window(release, release + span)
        a = w.aligned_within()
        assert a.is_aligned
        assert w.contains_window(a)
        assert 4 * a.span > w.span  # strictly more than a quarter

    def test_aligned_parent(self):
        assert Window(4, 8).aligned_parent() == Window(0, 8)
        assert Window(8, 16).aligned_parent() == Window(0, 16)
        assert Window(2, 3).aligned_parent() == Window(2, 4)

    def test_aligned_parent_requires_aligned(self):
        with pytest.raises(ValueError):
            Window(1, 3).aligned_parent()

    def test_aligned_ancestors(self):
        w = Window(6, 7)
        ancestors = list(w.aligned_ancestors(8))
        assert ancestors == [Window(6, 8), Window(4, 8), Window(0, 8)]

    def test_aligned_children(self):
        assert Window(0, 8).aligned_children() == (Window(0, 4), Window(4, 8))
        with pytest.raises(ValueError):
            Window(0, 1).aligned_children()

    @given(st.integers(0, 1000), st.integers(0, 6))
    def test_parent_child_roundtrip(self, idx, log_span):
        span = 1 << log_span
        w = Window(idx * span, (idx + 1) * span)
        parent = w.aligned_parent()
        assert parent.contains_window(w)
        assert parent.span == 2 * span
        assert w in parent.aligned_children()


class TestTrim:
    def test_noop(self):
        w = Window(3, 10)
        assert w.trim(10) == w
        assert w.trim(7) == w

    def test_trims_prefix(self):
        assert Window(3, 10).trim(4) == Window(3, 7)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Window(0, 4).trim(0)


class TestAlignedCovering:
    def test_basic(self):
        assert aligned_window_covering(5, 4) == Window(4, 8)
        assert aligned_window_covering(5, 1) == Window(5, 6)
        assert aligned_window_covering(0, 16) == Window(0, 16)

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            aligned_window_covering(3, 3)

    @given(st.integers(0, 100_000), st.integers(0, 10))
    def test_covering_property(self, slot, log_span):
        span = 1 << log_span
        w = aligned_window_covering(slot, span)
        assert w.is_aligned
        assert slot in w
        assert w.span == span


@given(st.integers(0, 1 << 20), st.integers(0, 6))
def test_aligned_ladder_matches_validated_construction(slot, low):
    """The trusted ladder constructor builds exactly the windows the
    validated constructor would: fields, span, hash and equality."""
    spans = tuple(1 << k for k in range(low, low + 12))
    ladder = aligned_ladder(slot, spans)
    expected = tuple(aligned_window_covering(slot, s) for s in spans)
    assert ladder == expected
    for got, want in zip(ladder, expected):
        assert (got.release, got.deadline, got.span) == \
            (want.release, want.deadline, want.span)
        assert hash(got) == hash(want)
        assert {got: 1}[want] == 1


class TestLaminarity:
    """Aligned windows form a laminar family (paper, Section 2)."""

    @given(
        st.integers(0, 64), st.integers(0, 4),
        st.integers(0, 64), st.integers(0, 4),
    )
    def test_aligned_windows_laminar(self, i1, k1, i2, k2):
        s1, s2 = 1 << k1, 1 << k2
        w1 = Window(i1 * s1, (i1 + 1) * s1)
        w2 = Window(i2 * s2, (i2 + 1) * s2)
        if w1.overlaps(w2):
            assert w1.contains_window(w2) or w2.contains_window(w1)
