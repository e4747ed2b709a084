"""Tuple-opcode undo journals on a reusable arena.

Every rollback in the reservation stack, a failed request's or an
aborted atomic batch's, replays one *undo journal*: a sequence of
entries, each restoring one mutation, replayed in reverse. The
representation is chosen for allocation cost:

- **Tuple opcodes** — a journal entry is a plain tuple
  ``(opcode, target, *args)``; one allocation, no closure cells,
  immutable. :func:`replay_entries` is the single dispatch loop that
  replays any journal backwards.
- **Arena** — :class:`UndoArena` owns the journal's container objects
  (entry list, first-touch dedup set, attached-interval list) once per
  scheduler instead of allocating fresh ones per scope. A scope
  appends entries, replays them backwards on failure, and releases its
  storage with :meth:`UndoArena.truncate`, so the same storage is
  reused request after request and burst after burst. Arenas are
  process-local scratch: pickling a scheduler drops its arena and a
  fresh one is rebuilt on restore (journals are empty at every
  serialization point anyway).

Opcode reference (entry layouts)
--------------------------------
========================  ==================================================
``(OP_ASSIGN, iv, pos, slot)``        undo an interval slot assignment
``(OP_RELEASE, iv, pos, slot)``       undo an interval slot release
``(OP_DYNAMIC, iv, pos, delta)``      undo a dynamic-reservation delta
``(OP_LOWERED, iv, slot, opos)``      undo an allowance shrink (opos = owner
                                      ladder position, -1 for unowned)
``(OP_RAISED, iv, slot)``             undo an allowance growth
``(OP_SWAP, iv, s1, s2)``             undo a slot-role swap (involution)
``(OP_POP, mapping, key)``            remove a key added inside the scope
``(OP_SET, mapping, key, old)``       restore a mapping entry's old value
``(OP_WINDOW_STATE, ws, jobs, empty, covered)``  restore a WindowState
========================  ==================================================

Interval entries address state *positionally* (``pos`` = the enclosing
window's ladder position, ``slot`` relative slot ints) — no Window
objects, so recording an entry never hashes a window. The placement
maps have no opcode: the rollback rewinds them from a touched log.

Rollback must restore the exact pre-request (or pre-burst) state. The
property tests in ``tests/test_journal_arena.py`` check that directly:
they fingerprint the deep scheduler state before a failing request or
burst and compare it with the state after the abort, across poisoned
requests, deep atomic aborts, and trimming rebuilds.
"""

from __future__ import annotations

# Opcodes are small ints compared with ``==`` in the dispatch loop,
# ordered roughly by hot-path frequency (assign/release dominate).
OP_ASSIGN = 0
OP_RELEASE = 1
OP_DYNAMIC = 2
OP_POP = 3
OP_SET = 4
OP_WINDOW_STATE = 5
OP_LOWERED = 6
OP_RAISED = 7
OP_SWAP = 8


def replay_entries(entries: list) -> None:
    """Replay journal entries in reverse.

    The single dispatch loop shared by failed-request rollback and
    atomic-batch abort; each entry dispatches on its opcode.
    """
    for i in range(len(entries) - 1, -1, -1):
        e = entries[i]
        op = e[0]
        if op == OP_ASSIGN:
            e[1]._undo_assign(e[2], e[3])
        elif op == OP_RELEASE:
            e[1]._undo_release(e[2], e[3])
        elif op == OP_DYNAMIC:
            e[1]._undo_dynamic(e[2], e[3])
        elif op == OP_POP:
            e[1].pop(e[2], None)
        elif op == OP_SET:
            e[1][e[2]] = e[3]
        elif op == OP_WINDOW_STATE:
            ws = e[1]
            ws.jobs = e[2]
            ws.backed_empty.restore(e[3])
            ws.backed_covered.restore(e[4])
        elif op == OP_LOWERED:
            e[1]._undo_slot_lowered(e[2], e[3])
        elif op == OP_RAISED:
            e[1]._undo_slot_raised(e[2])
        elif op == OP_SWAP:
            # the raw swap is an involution; hooks are not refired on
            # undo (the window-state journal entries restore those)
            e[1]._swap_raw(e[2], e[3], None)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown journal opcode in {e!r}")


class UndoArena:
    """Reusable journal storage, one per scheduler.

    The containers are allocated once and shared by every journal
    scope the owning scheduler opens (one scope at a time: a request's,
    or a batch's spanning its requests). A scope releases by
    truncating; the container objects themselves are never
    reallocated.

    Attributes
    ----------
    entries:
        The append-only journal of tuple opcodes. Intervals append to
        this list directly via their ``undo_log`` reference, at C speed.
    seen:
        First-touch dedup tokens (``(id(mapping), key)`` for mapping
        entries, ``id(ws)`` for window states).
    intervals:
        Intervals whose ``undo_log`` currently points at ``entries``
        (detached and truncated on scope exit).
    entries_total:
        Diagnostic: total journal entries recorded over the arena's
        lifetime (the end-to-end benchmark reports it per request).
    """

    __slots__ = ("entries", "seen", "intervals", "entries_total")

    def __init__(self) -> None:
        self.entries: list = []
        self.seen: set = set()
        self.intervals: list = []
        self.entries_total = 0

    def truncate(self) -> None:
        """Release the scope: count its entries into ``entries_total``
        and clear every container for the next scope."""
        entries = self.entries
        self.entries_total += len(entries)
        entries.clear()
        self.seen.clear()
        self.intervals.clear()

    def restart(self) -> None:
        """Release the entries and dedup tokens of a finished request,
        keeping the scope (and its attached intervals) open for the
        next one — a non-atomic batch's requests share one scope."""
        entries = self.entries
        self.entries_total += len(entries)
        entries.clear()
        self.seen.clear()
