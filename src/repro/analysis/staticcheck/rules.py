"""The built-in rule families: repo-specific contract checks.

Four contract families guard the disciplines the runtime stack relies
on (see ``docs/STATIC_ANALYSIS.md`` for the catalog with examples), and
a fifth enforces the annotation coverage the strict mypy gate assumes:

- ``journal-coverage`` (JRN001) — inside journal-managed classes, every
  method that directly mutates a journaled container must acknowledge
  the undo journal (append to ``undo_log``, or call one of the
  ``_j*`` first-touch helpers) or be an explicitly exempt
  undo/rollback/serialization method.
- ``determinism`` (DET001/DET002) — on the cross-backend-equivalence
  path (``reservation/``, ``multimachine/``, ``sim/``), iterating a
  ``set`` (or a set-valued attribute) without ``sorted()`` and ordering
  by ``id()`` are errors: backend equivalence is bit-exact, so any
  hash-order dependence is a latent differential-harness counterexample.
- ``pickle-boundary`` (PKL001/PKL002) — classes cloned by pickle
  (``reservation/``, ``core/``, ``levels/``; the rollback and
  sanitizer oracles compare runs against pickled clones) must define
  ``__getstate__``/``__setstate__`` before storing closures, lambdas,
  or process resources on ``self`` (the PR 4 stale-closure bug shape:
  a pickled closure silently rebinds to a dead scheduler).
- ``rollback-safety`` (RBK001/RBK002) — ``apply_*``/``_batch_*``
  request paths may not swallow broad exceptions (a swallowed failure
  leaves half-applied state that rollback never sees), and a function
  holding an open arena ``mark()`` scope may not mutate journaled
  containers without journaling them.
- ``typing-coverage`` (TYP001/TYP002) — functions and methods in the
  strictly-typed packages must carry full parameter and return
  annotations, so the mypy gate in CI checks real signatures instead of
  inferring ``Any``.

Every rule is syntactic (stdlib ``ast``, no type inference), so each
contract errs toward precision on the real tree and is suppressible
per line (``# staticcheck: ignore[rule-name]``) where the pattern is
provably safe.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Iterator

from .engine import Rule, SourceFile, register
from .report import Finding

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------

#: method names that mutate a container in place
MUTATOR_METHODS = frozenset({
    "add", "discard", "remove", "pop", "popitem", "clear", "update",
    "setdefault", "append", "extend", "insert", "__setitem__",
})


def _mentions_attr(node: ast.AST, attrs: frozenset[str]) -> bool:
    """True when any ``<expr>.<name>`` with name in ``attrs`` occurs."""
    return any(
        isinstance(sub, ast.Attribute) and sub.attr in attrs
        for sub in ast.walk(node)
    )


def _expr_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure is cosmetic
        return "<expr>"


def _collect_aliases(fn: ast.AST, attrs: frozenset[str]) -> set[str]:
    """Local names bound from expressions rooted at a journaled attr.

    Covers ``states = self.window_states[level]`` and
    ``have = self.assigned.get(window)`` — mutating through the alias
    is mutating the journaled container.
    """
    aliases: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        if not _mentions_attr(node.value, attrs):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _is_tracked(node: ast.AST, attrs: frozenset[str],
                aliases: set[str]) -> bool:
    """Does this receiver expression denote a journaled container?"""
    if isinstance(node, ast.Attribute) and node.attr in attrs:
        return True
    if isinstance(node, ast.Name) and node.id in aliases:
        return True
    if isinstance(node, ast.Subscript):
        return _is_tracked(node.value, attrs, aliases)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "get":
            return _is_tracked(func.value, attrs, aliases)
    return False


def _iter_mutations(
    fn: ast.AST, attrs: frozenset[str],
) -> Iterator[tuple[ast.AST, str]]:
    """Yield (node, description) for direct journaled-container mutations."""
    aliases = _collect_aliases(fn, attrs)
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and _is_tracked(func.value, attrs, aliases)):
                yield node, f"{_expr_text(func)}(...)"
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.Assign):
                targets: list[ast.expr] = []
                for t in node.targets:
                    targets.extend(t.elts if isinstance(t, ast.Tuple) else [t])
            else:
                targets = [node.target]
            for t in targets:
                if (isinstance(t, ast.Subscript)
                        and _is_tracked(t.value, attrs, aliases)):
                    yield t, f"{_expr_text(t)} = ..."
                elif isinstance(t, ast.Attribute) and t.attr in attrs:
                    yield t, f"{_expr_text(t)} = ..."
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                if (isinstance(t, ast.Subscript)
                        and _is_tracked(t.value, attrs, aliases)):
                    yield t, f"del {_expr_text(t)}"
                elif isinstance(t, ast.Attribute) and t.attr in attrs:
                    yield t, f"del {_expr_text(t)}"


#: attribute reads that acknowledge the journal (appending an inverse)
ACK_ATTRS = frozenset({"undo_log", "_journal"})
#: helper calls that acknowledge the journal (first-touch capture)
ACK_CALLS = frozenset({
    "_jdict", "_jtouch", "_jwindow_state",
    "_journal_acquire", "_set_placement", "_clear_placement",
    "_log_touch",
})


def _acknowledges_journal(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr in ACK_ATTRS:
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in ACK_CALLS:
                return True
    return False


def _class_methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    return [n for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _matches_any(name: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatch(name, p) for p in patterns)


# ---------------------------------------------------------------------------
# journal-coverage (JRN001)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JournalContract:
    """Journal discipline for one class: which attrs, which exemptions."""

    #: journaled container attribute names (matched on any receiver:
    #: ``self.assigned``, ``ws.jobs``, ``iv.slot_owner``, aliases)
    attrs: frozenset[str]
    #: method-name globs allowed to mutate without journaling — the
    #: undo/rollback/serialization methods themselves
    exempt: tuple[str, ...]


#: interval containers whose every mutation must append an undo entry.
#: The first four are the legacy dict/set names (now derived read-only
#: properties, kept so mutations through an old-style alias still
#: flag); the underscore names are the flattened slot-indexed arrays
#: that replaced them. Deliberately absent: ``_dyn_total``, ``_counts``,
#: ``_tlist``, ``_free``, ``_ws`` — derived caches maintained by
#: journal-free ``_note_*``/``_free_*`` helpers and rebuilt on abort.
INTERVAL_ATTRS = frozenset({
    "lower_occupied", "dynamic_res", "assigned", "slot_owner",
    "_lower", "_n_lower", "_dyn", "_owner", "_aslots",
})

#: scheduler-side journaled containers: placement maps, job levels,
#: window-state tables, plus the window-state backed sets and the
#: interval containers it touches directly
SCHEDULER_ATTRS = INTERVAL_ATTRS | frozenset({
    "slot_job", "job_slot", "_placements", "_job_levels",
    "window_states", "intervals", "jobs", "backed_empty",
    "backed_covered",
})

COMMON_EXEMPT = (
    "__init__", "__getstate__", "__setstate__", "_undo_*",
)

#: class name -> contract; applies to classes with these names in any
#: module this rule is scoped to
JOURNAL_CONTRACTS: dict[str, JournalContract] = {
    "Interval": JournalContract(
        attrs=INTERVAL_ATTRS,
        # materialize and seed_lower are pre-publication setup on a
        # fresh interval (no journal scope can observe it yet), like
        # __init__; the scheduler journals the publication itself
        exempt=COMMON_EXEMPT + ("_swap_raw", "materialize", "seed_lower"),
    ),
    "AlignedReservationScheduler": JournalContract(
        attrs=SCHEDULER_ATTRS,
        exempt=COMMON_EXEMPT + (
            "_batch_restore", "_rollback",
            "_journal_acquire", "_journal_release",
        ),
    ),
    # Delegation layer: the incrementally-maintained merged placement
    # map must record every touched id (``_log_touch``) before mutating,
    # or the batch-restore rewind misses the entry.
    "DelegatingScheduler": JournalContract(
        attrs=frozenset({"_placements"}),
        exempt=COMMON_EXEMPT + ("_batch_restore",),
    ),
    "ElasticScheduler": JournalContract(
        attrs=frozenset({"_placements"}),
        # _rebuild_merged recomputes the map wholesale after an
        # elasticity event — the event itself is already O(n)-costed
        exempt=COMMON_EXEMPT + ("_batch_restore", "_rebuild_merged"),
    ),
}


class JournalCoverageRule(Rule):
    name = "journal-coverage"
    description = (
        "mutations of journaled containers must append an undo entry or "
        "run inside a first-touch-captured scope"
    )
    scopes = ("reservation/", "multimachine/")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            contract = JOURNAL_CONTRACTS.get(node.name)
            if contract is None:
                continue
            for method in _class_methods(node):
                if _matches_any(method.name, contract.exempt):
                    continue
                if _acknowledges_journal(method):
                    continue
                for mut, desc in _iter_mutations(method, contract.attrs):
                    yield self.finding(
                        sf, mut, "JRN001",
                        f"{node.name}.{method.name} mutates journaled "
                        f"container ({desc}) without touching the undo "
                        "journal; append an undo entry, call a _j* "
                        "first-touch helper, or add the method to the "
                        "contract's exempt list",
                    )


# ---------------------------------------------------------------------------
# determinism (DET001 / DET002)
# ---------------------------------------------------------------------------

#: attributes that hold (or may hold) sets on the equivalence path
SET_HINT_ATTRS = frozenset({"jobs", "lower_occupied"})
#: dict- or list-valued attributes whose *elements* are sets
SET_VALUED_DICT_ATTRS = frozenset({"assigned", "_aslots"})
#: set-returning method names (on any receiver)
SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})


def _is_set_like(node: ast.AST) -> bool:
    """Syntactic evidence that an expression evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in SET_METHODS:
                return True
            # iv.assigned.get(window, ()) — a set-valued dict lookup
            if (func.attr == "get" and isinstance(func.value, ast.Attribute)
                    and func.value.attr in SET_VALUED_DICT_ATTRS):
                return True
        return False
    if isinstance(node, ast.Attribute) and node.attr in SET_HINT_ATTRS:
        return True
    if isinstance(node, ast.Subscript):
        value = node.value
        if (isinstance(value, ast.Attribute)
                and value.attr in SET_VALUED_DICT_ATTRS):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_like(node.left) or _is_set_like(node.right)
    return False


def _key_uses_id(key: ast.AST) -> bool:
    for sub in ast.walk(key):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"):
            return True
        if isinstance(sub, ast.Name) and sub.id == "id" and not isinstance(
                sub.ctx, ast.Store):
            return True
    return False


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no unordered-set iteration or id()-keyed ordering on the "
        "cross-backend-equivalence path"
    )
    scopes = ("reservation/", "multimachine/", "sim/")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(sf.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_like(it):
                    yield self.finding(
                        sf, it, "DET001",
                        f"iteration over set-like expression "
                        f"'{_expr_text(it)}' has no deterministic order on "
                        "the equivalence path; wrap in sorted() or suppress "
                        "if provably order-insensitive",
                    )
            if isinstance(node, ast.Call):
                func = node.func
                orderer = None
                if isinstance(func, ast.Name) and func.id in (
                        "sorted", "min", "max"):
                    orderer = func.id
                elif isinstance(func, ast.Attribute) and func.attr == "sort":
                    orderer = "sort"
                if orderer is None:
                    continue
                for kw in node.keywords:
                    if kw.arg == "key" and _key_uses_id(kw.value):
                        yield self.finding(
                            sf, node, "DET002",
                            f"{orderer}() keyed by id() orders by memory "
                            "address, which differs across processes and "
                            "runs; key on stable identity instead",
                        )


# ---------------------------------------------------------------------------
# pickle-boundary (PKL001 / PKL002)
# ---------------------------------------------------------------------------

#: constructors whose instances cannot cross a pickle boundary
RESOURCE_CTORS = frozenset({
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
    "Event", "Barrier", "Thread", "Process", "Pipe", "Queue",
    "SimpleQueue", "Manager", "Pool", "ThreadPoolExecutor",
    "ProcessPoolExecutor", "socket", "open",
})


def _factory_methods(cls: ast.ClassDef) -> set[str]:
    """Methods that build and hand out closures (nested def / lambda)."""
    factories: set[str] = set()
    for method in _class_methods(cls):
        nested = {
            n.name for n in ast.walk(method)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and n is not method
        }
        for node in ast.walk(method):
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Lambda):
                    factories.add(method.name)
                elif (isinstance(node.value, ast.Name)
                        and node.value.id in nested):
                    factories.add(method.name)
    return factories


def _self_attr_assignments(
    cls: ast.ClassDef,
) -> Iterator[tuple[ast.FunctionDef, str, ast.expr, ast.AST]]:
    """Yield (method, attr, value, node) for every ``self.X = value``."""
    for method in _class_methods(cls):
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for t in targets:
                if (isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"):
                    yield method, t.attr, value, node


class PickleBoundaryRule(Rule):
    name = "pickle-boundary"
    description = (
        "classes cloned by pickle must define __getstate__/__setstate__ "
        "before storing closures or resources"
    )
    # the state a scheduler clone pickles: schedulers, intervals,
    # window states, jobs/windows/policies — reservation/, core/, levels/
    scopes = ("reservation/", "core/", "levels/")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        for cls in ast.walk(sf.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = {m.name for m in _class_methods(cls)}
            if "__getstate__" in names or "__setstate__" in names:
                continue
            factories = _factory_methods(cls)
            for method, attr, value, node in _self_attr_assignments(cls):
                nested = {
                    n.name for n in ast.walk(method)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and n is not method
                }
                closure_reason = None
                if any(isinstance(sub, ast.Lambda)
                       for sub in ast.walk(value)):
                    closure_reason = "a lambda"
                elif isinstance(value, ast.Name) and value.id in nested:
                    closure_reason = "a locally-defined closure"
                else:
                    for sub in ast.walk(value):
                        if (isinstance(sub, ast.Call)
                                and isinstance(sub.func, ast.Attribute)
                                and isinstance(sub.func.value, ast.Name)
                                and sub.func.value.id == "self"
                                and sub.func.attr in factories):
                            closure_reason = (
                                f"the closure factory self.{sub.func.attr}()")
                            break
                if closure_reason is not None:
                    yield self.finding(
                        sf, node, "PKL001",
                        f"{cls.name}.{method.name} stores {closure_reason} "
                        f"on self.{attr} but {cls.name} defines neither "
                        "__getstate__ nor __setstate__; a pickled closure "
                        "rebinds to a dead object on restore (the PR 4 "
                        "stale-closure bug shape)",
                    )
                    continue
                for sub in ast.walk(value):
                    if not isinstance(sub, ast.Call):
                        continue
                    func = sub.func
                    ctor = func.attr if isinstance(func, ast.Attribute) \
                        else (func.id if isinstance(func, ast.Name) else None)
                    if ctor in RESOURCE_CTORS:
                        yield self.finding(
                            sf, node, "PKL002",
                            f"{cls.name}.{method.name} stores unpicklable "
                            f"resource {ctor}() on self.{attr} without "
                            "__getstate__/__setstate__",
                        )
                        break


# ---------------------------------------------------------------------------
# rollback-safety (RBK001 / RBK002)
# ---------------------------------------------------------------------------

#: request-path function names the broad-except check applies to
REQUEST_PATH_PATTERNS = ("apply*", "_apply*", "_batch*", "insert", "delete")

#: union of every journaled attr, for the mark-scope check
ALL_JOURNALED_ATTRS = frozenset().union(
    *(c.attrs for c in JOURNAL_CONTRACTS.values()))


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    def broad(t: ast.expr) -> bool:
        return isinstance(t, ast.Name) and t.id in (
            "Exception", "BaseException")

    if handler.type is None:
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(broad(e) for e in handler.type.elts)
    return broad(handler.type)


class RollbackSafetyRule(Rule):
    name = "rollback-safety"
    description = (
        "request paths must not swallow broad exceptions, and arena "
        "mark() scopes must journal their mutations"
    )
    scopes = ("reservation/", "multimachine/", "core/")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        for fn in ast.walk(sf.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _matches_any(fn.name, REQUEST_PATH_PATTERNS):
                for node in ast.walk(fn):
                    if not isinstance(node, ast.ExceptHandler):
                        continue
                    if not _is_broad_handler(node):
                        continue
                    if any(isinstance(sub, ast.Raise)
                           for stmt in node.body
                           for sub in ast.walk(stmt)):
                        continue
                    yield self.finding(
                        sf, node, "RBK001",
                        f"{fn.name} swallows a broad exception; a "
                        "swallowed mid-request failure leaves "
                        "half-applied state that rollback never sees — "
                        "re-raise after cleanup or narrow the handler",
                    )
            opens_mark = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "mark"
                and not node.args and not node.keywords
                for node in ast.walk(fn)
            )
            if opens_mark and not _acknowledges_journal(fn):
                for mut, desc in _iter_mutations(fn, ALL_JOURNALED_ATTRS):
                    yield self.finding(
                        sf, mut, "RBK002",
                        f"{fn.name} mutates journaled container ({desc}) "
                        "inside an arena mark() scope without journaling; "
                        "a rollback to the mark would miss this mutation",
                    )


# ---------------------------------------------------------------------------
# typing-coverage (TYP001 / TYP002)
# ---------------------------------------------------------------------------

class TypingCoverageRule(Rule):
    name = "typing-coverage"
    description = (
        "functions in the strictly-typed packages must have full "
        "parameter and return annotations"
    )
    scopes = ("core/", "reservation/", "multimachine/", "sim/", "analysis/",
              "workloads/", "baselines/")

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        # module-level functions and class methods only; nested closures
        # are checked by mypy's inference, not the coverage gate
        def funcs_of(body: list[ast.stmt]) -> Iterator[ast.FunctionDef]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node
                elif isinstance(node, ast.ClassDef):
                    yield from funcs_of(node.body)

        for fn in funcs_of(sf.tree.body):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            missing = [a.arg for a in params
                       if a.annotation is None and a.arg not in (
                           "self", "cls")]
            for va in (args.vararg, args.kwarg):
                if va is not None and va.annotation is None:
                    missing.append(va.arg)
            if missing:
                yield self.finding(
                    sf, fn, "TYP001",
                    f"{fn.name} is missing parameter annotation(s): "
                    f"{', '.join(missing)}",
                )
            if fn.returns is None:
                yield self.finding(
                    sf, fn, "TYP002",
                    f"{fn.name} is missing a return annotation",
                )


# ---------------------------------------------------------------------------

register(JournalCoverageRule())
register(DeterminismRule())
register(PickleBoundaryRule())
register(RollbackSafetyRule())
register(TypingCoverageRule())
