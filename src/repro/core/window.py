"""Time windows for unit jobs.

A :class:`Window` is a half-open integer interval ``[release, deadline)``
with ``span = deadline - release >= 1`` equal to the number of timeslots
in which a unit job with this window may run. The paper writes windows
as closed intervals ``[a_j, d_j]`` with span ``d_j - a_j``; our half-open
convention gives the same span and slot count.

Alignment (Section 2 of the paper): a window is *aligned* if its span is
a power of two ``2**i`` and its release time is a multiple of ``2**i``.
A set of aligned windows is laminar: two aligned windows are equal,
disjoint, or one contains the other.

``Window.aligned_within`` implements the paper's ``ALIGNED(W)`` operator
(Section 5): a largest aligned window contained in ``W``, which is
guaranteed to have span ``>= |W| / 4`` (Lemma 10 relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


def is_power_of_two(x: int) -> bool:
    """Return True iff ``x`` is a positive power of two (1 counts)."""
    return x > 0 and (x & (x - 1)) == 0


def floor_log2(x: int) -> int:
    """Largest ``i`` with ``2**i <= x``; requires ``x >= 1``."""
    if x < 1:
        raise ValueError(f"floor_log2 requires x >= 1, got {x}")
    return x.bit_length() - 1


@dataclass(frozen=True, slots=True)
class Window:
    """Half-open integer time window ``[release, deadline)``.

    Attributes
    ----------
    release:
        Earliest slot (inclusive) the job may occupy.
    deadline:
        First slot the job may *not* occupy (exclusive bound).
    """

    release: int
    deadline: int
    # Precomputed hash and span: windows key every reservation-level
    # table and span feeds the ladder-position arithmetic, so both are
    # hot (bench E10c) and the endpoints are frozen anyway.
    _hash: int = None  # type: ignore[assignment]
    span: int = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not isinstance(self.release, int) or not isinstance(self.deadline, int):
            raise TypeError("window endpoints must be integers")
        if self.deadline <= self.release:
            raise ValueError(
                f"window must satisfy deadline > release, got [{self.release}, {self.deadline})"
            )
        object.__setattr__(self, "_hash", hash((self.release, self.deadline)))
        object.__setattr__(self, "span", self.deadline - self.release)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Window:
            return NotImplemented
        return (self.release == other.release
                and self.deadline == other.deadline)

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    def __contains__(self, slot: int) -> bool:
        return self.release <= slot < self.deadline

    def slots(self) -> range:
        """All slots the window admits, in increasing order."""
        return range(self.release, self.deadline)

    def contains_window(self, other: "Window") -> bool:
        """True iff ``other`` nests inside (or equals) this window."""
        return self.release <= other.release and other.deadline <= self.deadline

    def overlaps(self, other: "Window") -> bool:
        """True iff the two windows share at least one slot."""
        return self.release < other.deadline and other.release < self.deadline

    def intersect(self, other: "Window") -> "Window | None":
        """The common sub-window, or None if disjoint."""
        lo = max(self.release, other.release)
        hi = min(self.deadline, other.deadline)
        if lo >= hi:
            return None
        return Window(lo, hi)

    # ------------------------------------------------------------------
    # alignment
    # ------------------------------------------------------------------
    @property
    def is_aligned(self) -> bool:
        """Span is ``2**i`` and release is a multiple of ``2**i``."""
        s = self.span
        return is_power_of_two(s) and self.release % s == 0

    def aligned_within(self) -> "Window":
        """The paper's ``ALIGNED(W)``: a largest aligned window inside W.

        Guaranteed ``span >= self.span // 4`` (and in fact strictly more
        than ``self.span / 4``); see Lemma 10. Deterministic: among the
        largest candidates, the leftmost is chosen.
        """
        if self.is_aligned:
            return self
        for i in range(floor_log2(self.span), -1, -1):
            size = 1 << i
            start = -(-self.release // size) * size  # ceil to multiple of size
            if start + size <= self.deadline:
                return Window(start, start + size)
        raise AssertionError("unreachable: span >= 1 always admits a size-1 aligned window")

    def trim(self, max_span: int) -> "Window":
        """Shrink the window to at most ``max_span`` slots (keep the left end).

        Used by the n*-trimming step of Section 4 ("reducing it
        arbitrarily to size 2*gamma*n*"); the choice of which part to
        keep is arbitrary per the paper, we keep the prefix.
        """
        if max_span < 1:
            raise ValueError("max_span must be >= 1")
        if self.span <= max_span:
            return self
        return Window(self.release, self.release + max_span)

    # ------------------------------------------------------------------
    # laminar / aligned-family helpers
    # ------------------------------------------------------------------
    def aligned_parent(self) -> "Window":
        """The aligned window of twice the span containing this one.

        Only valid for aligned windows.
        """
        if not self.is_aligned:
            raise ValueError(f"{self} is not aligned")
        size = self.span * 2
        start = (self.release // size) * size
        return Window(start, start + size)

    def aligned_ancestors(self, max_span: int) -> Iterator["Window"]:
        """Aligned windows strictly containing this one, up to ``max_span``."""
        w = self
        while w.span * 2 <= max_span:
            w = w.aligned_parent()
            yield w

    def aligned_children(self) -> tuple["Window", "Window"]:
        """The two aligned halves of an aligned window with span >= 2."""
        if not self.is_aligned:
            raise ValueError(f"{self} is not aligned")
        if self.span < 2:
            raise ValueError("a span-1 window has no children")
        mid = self.release + self.span // 2
        return Window(self.release, mid), Window(mid, self.deadline)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Window({self.release}, {self.deadline})"


def aligned_window_covering(slot: int, span: int) -> Window:
    """The unique aligned window of the given power-of-two span containing ``slot``."""
    if not is_power_of_two(span):
        raise ValueError(f"span must be a power of two, got {span}")
    start = (slot // span) * span
    return Window(start, start + span)


def aligned_ladder(slot: int, spans: tuple[int, ...]) -> tuple[Window, ...]:
    """The aligned windows of each span in ``spans`` containing ``slot``.

    A trusted constructor for the reservation scheduler's per-interval
    window ladders: ``spans`` are the level policy's power-of-two
    enclosing spans, so every window is valid by construction and the
    ``Window(...)`` validation is skipped. The result equals
    ``tuple(aligned_window_covering(slot, s) for s in spans)`` field for
    field (``tests/test_window.py`` checks it).
    """
    new = object.__new__
    set_field = object.__setattr__  # as __post_init__ does: frozen class
    out: list[Window] = []
    for span in spans:
        start = (slot // span) * span
        end = start + span
        w = new(Window)
        set_field(w, "release", start)
        set_field(w, "deadline", end)
        set_field(w, "_hash", hash((start, end)))
        set_field(w, "span", span)
        out.append(w)
    return tuple(out)
