"""Runtime journal sanitizer: checking proxies for journaled containers.

The static ``exception-flow`` rules (``staticcheck/stateflow.py``)
prove journal coverage syntactically; this module is the dynamic half
of the differential: checking ``dict`` proxies installed over the
aligned scheduler's journaled containers that raise
:class:`UnjournaledMutationError` the moment a mutation lands inside
an open request or batch scope without its journal entry having been
recorded first. A clean differential run (sequential vs batched, both
semantics) under the sanitizer shows the static rules are not unsound
(nothing slips past both); a fault-injection test that strips one
``_jdict`` call and watches both layers fire shows they are not
vacuous.

Enable per instance with ``journal="arena-sanitize"`` or globally with
``REPRO_SANITIZE=1`` in the environment (upgrades every ``"arena"``
scheduler at construction). The proxies are plain ``dict`` subclasses:
they survive pickling (items are restored before the owner backref, so
reconstruction is exempt from checking) and cost
one attribute read plus one set probe per mutation — an oracle mode,
not a production default.

What is checked: every open scope, a request's or a batch's, is
checked the same way. A mutation inside it is legal when the open
journal holds the ``(id(dict), key)`` first-touch token for that key,
or, for the placement maps (``_placements`` / ``job_slot``, keyed by
job; ``slot_job``, keyed by slot, with the job taken from the value
written or the current occupant on delete), when the job is in the
live touched log: the rollback rewinds those three maps from it.
``_job_levels`` and the ``window_states[lv]`` tables need the token.

Mutations outside any scope — construction, an atomic abort's restore
(the scope is left before replaying), journal-free rebuilds and
ephemeral inners — are always legal.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Mapping

__all__ = [
    "SanitizedDict",
    "UnjournaledMutationError",
    "install_sanitizer",
    "sanitize_enabled",
]

#: environment switch: upgrades ``journal="arena"`` schedulers to
#: ``"arena-sanitize"`` at construction time
SANITIZE_ENV = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_enabled() -> bool:
    """Is the ``REPRO_SANITIZE`` environment switch on?"""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


class UnjournaledMutationError(RuntimeError):
    """A journaled container was mutated inside an open request/batch
    scope without its journal entry having been recorded first.

    Deliberately *not* a :class:`~repro.core.errors.ReproError`
    subclass: the request paths catch and roll back domain errors, and
    a sanitizer report must never be swallowed into a rollback — it
    means the rollback itself would have been wrong.
    """


class SanitizedDict(dict):
    """A journaled container that verifies its own journal coverage.

    ``kind`` (``"job"``, ``"slot"``, ``"levels"`` or ``"states"``)
    says whether touched-log coverage applies and where the job id
    comes from (see the module docstring); ``owner`` is the scheduler
    whose journal state is consulted. The guard only arms once ``_owner`` is set — pickle
    restores items before instance state, so reconstruction mutations
    pass — and every owner probe is a defensive ``getattr``, so a
    half-reconstructed owner (deepcopy memo cycles) never trips it.
    """

    _owner: Any
    _label: str
    _kind: str

    def __init__(self, data: Mapping[Any, Any], *, owner: Any,
                 label: str, kind: str) -> None:
        super().__init__(data)
        self._label = label
        self._kind = kind
        # set last: the guard arms the moment the owner backref lands
        self._owner = owner

    # -- the guard ------------------------------------------------------
    def _report(self, key: Any, why: str) -> None:
        raise UnjournaledMutationError(
            f"unjournaled mutation of {self._label}[{key!r}]: {why}. "
            "Rollback would not restore this entry — journal first "
            "(call the matching _j* first-touch helper before mutating)"
        )

    def _guard(self, key: Any, job_id: Any) -> None:
        owner = getattr(self, "_owner", None)
        if owner is None:
            return  # unarmed: construction / pickle reconstruction
        if getattr(owner, "_journal", None) is None:
            return  # no open scope
        if (id(self), key) in owner._jseen:
            return
        # The rollback rewinds the three placement maps from the live
        # touched log, so live-touched coverage is as good as a journal
        # entry for the job/slot kinds.
        if self._kind in ("job", "slot") and job_id is not None:
            touched = getattr(owner, "_touched", None)
            if touched is not None and job_id in touched:
                return
        self._report(
            key, "the open journal holds no first-touch token for this "
                 "key and the live touched log does not cover it")

    def _guard_set(self, key: Any, value: Any) -> None:
        if getattr(self, "_owner", None) is None:
            return  # unarmed: pickle restores items before attributes
        self._guard(key, value if self._kind == "slot" else key)

    def _guard_del(self, key: Any) -> None:
        if getattr(self, "_owner", None) is None:
            return  # unarmed: pickle restores items before attributes
        if self._kind == "slot":
            occupant = dict.get(self, key)
            if occupant is None:
                return  # missing key: let the dict op raise KeyError
            self._guard(key, occupant)
        else:
            self._guard(key, key)

    # -- mutators -------------------------------------------------------
    def __setitem__(self, key: Any, value: Any) -> None:
        self._guard_set(key, value)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key: Any) -> None:
        self._guard_del(key)
        dict.__delitem__(self, key)

    def pop(self, key: Any, *default: Any) -> Any:
        if dict.__contains__(self, key):
            self._guard_del(key)
        return dict.pop(self, key, *default)

    def popitem(self) -> tuple[Any, Any]:
        if self:
            self._guard_del(next(reversed(self)))
        return dict.popitem(self)

    def clear(self) -> None:
        for key in self:
            self._guard_del(key)
        dict.clear(self)

    def update(self, *args: Iterable[Any], **kwargs: Any) -> None:
        items = dict(*args, **kwargs)
        for key, value in items.items():
            self._guard_set(key, value)
        dict.update(self, items)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if not dict.__contains__(self, key):
            self._guard_set(key, default)
        return dict.setdefault(self, key, default)


def install_sanitizer(sched: Any) -> None:
    """Wrap a freshly-constructed aligned scheduler's journaled
    containers in checking proxies (``journal="arena-sanitize"``).

    Must run before any request touches the containers; the
    window-state tables are wrapped per level (the outer level map is
    fixed at construction and never mutated afterwards).
    """
    sched.slot_job = SanitizedDict(
        sched.slot_job, owner=sched, label="slot_job", kind="slot")
    sched.job_slot = SanitizedDict(
        sched.job_slot, owner=sched, label="job_slot", kind="job")
    sched._placements = SanitizedDict(
        sched._placements, owner=sched, label="_placements", kind="job")
    sched._job_levels = SanitizedDict(
        sched._job_levels, owner=sched, label="_job_levels", kind="levels")
    for lv, table in sched.window_states.items():
        sched.window_states[lv] = SanitizedDict(
            table, owner=sched, label=f"window_states[{lv}]",
            kind="states")
