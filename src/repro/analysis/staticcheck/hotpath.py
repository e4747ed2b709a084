"""Hot-path performance-contract rules (interprocedural, ratcheted).

These five families encode the optimizations PRs 1/5 paid for as
standing contracts, firing only on functions the call graph tags *hot*
(reachable from the request surface — see ``callgraph.py``):

- ``hot-closures`` (HOT001) — no closure/lambda construction per
  request: a nested def or lambda in a hot function allocates a
  function object every call (the PR 5 journal diet exists because of
  exactly this). Build hooks once at ``__init__``/``__setstate__``.
- ``hot-comprehensions`` (HOT002) — no allocating comprehension or
  genexp inside a loop of a hot function: that is an allocation per
  iteration per request.
- ``hot-attr-chains`` (HOT003) — the bind-to-local contract: a
  repeated ``self.x.y`` chain inside a hot loop re-runs two dict
  lookups per iteration; bind it to a local before the loop when it is
  loop-invariant.
- ``hot-complexity`` (CPLX001) — no full iteration over a journaled
  dict / placement map on the hot path: the repo maintains
  ``SlotIndex`` structures and touched-logs precisely so per-request
  work is O(changes), not O(n).
- ``hot-allocations`` (ALLOC001) — no throwaway container
  construction (``dict()``/``list()``/``set()``/empty literals) in the
  *innermost* loop of a hot function.

All five are **ratcheted** (``Rule.ratcheted``): they run via ``repro
lint --ratchet`` against ``staticcheck_baseline.json`` instead of the
strict gate, so the existing debt is enumerated and burned down rather
than suppressed. Undo helpers (``_undo_*``) and repr/debug methods are
exempt by name — they run off the per-request fast path.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from .callgraph import (
    FunctionInfo,
    Program,
    _attr_chain,
    build_program,
    iter_own_nodes,
)
from .engine import Rule, SourceFile, register
from .report import Finding

#: shared-artifact key for the per-run program (see Rule.prepare)
_PROGRAM_KEY = "hotpath:program"

#: hot functions exempt from every hot-path rule: undo/debug paths are
#: off the per-request fast path
EXEMPT_FUNCTIONS = ("_undo_*", "__repr__", "__str__")

#: journaled dicts / placement maps with an O(changes) alternative
#: (SlotIndex, touched-log, or incremental mirror)
JOURNALED_MAPS = frozenset({
    "placements", "_placements", "slot_job", "job_slot", "_job_levels",
    "jobs", "window_states", "intervals", "assigned", "dynamic_res",
    "slot_owner", "lower_occupied", "_occupied",
})

#: builtins whose call consumes a whole iterable
_SCAN_WRAPPERS = frozenset({
    "dict", "list", "set", "frozenset", "sorted", "tuple", "sum",
    "min", "max",
})

_CONTAINER_CTORS = frozenset({"dict", "list", "set"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
_LOOPS = (ast.For, ast.AsyncFor, ast.While)


def _matches_any(name: str, patterns: tuple[str, ...]) -> bool:
    from fnmatch import fnmatch

    return any(fnmatch(name, p) for p in patterns)


def _body_nodes(stmts: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested named functions."""
    stack: list[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _loops_of(info: FunctionInfo) -> list[ast.For | ast.AsyncFor | ast.While]:
    return [n for n in iter_own_nodes(info.node) if isinstance(n, _LOOPS)]


def _loop_body(loop: ast.For | ast.AsyncFor | ast.While) -> list[ast.stmt]:
    return list(loop.body) + list(loop.orelse)


def _store_names(loop: ast.For | ast.AsyncFor | ast.While) -> set[str]:
    """Names (re)bound inside the loop, including its own target."""
    names: set[str] = set()
    targets: list[ast.AST] = []
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        targets.append(loop.target)
    for node in list(_body_nodes(_loop_body(loop))) + targets:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, (ast.Store, ast.Del)):
                names.add(sub.id)
    return names


def _is_innermost(loop: ast.For | ast.AsyncFor | ast.While) -> bool:
    return not any(isinstance(n, _LOOPS)
                   for n in _body_nodes(_loop_body(loop)))


def _journaled_map_expr(node: ast.AST) -> str | None:
    """Chain text when ``node`` denotes a journaled map (or its
    ``.items()``/``.values()``/``.keys()`` view); None otherwise."""
    if (isinstance(node, ast.Call) and not node.args and not node.keywords
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "values", "keys")):
        node = node.func.value
    chain = _attr_chain(node)
    if chain is not None and len(chain) >= 2 and chain[-1] in JOURNALED_MAPS:
        return ".".join(chain)
    return None


class HotPathRule(Rule):
    """Base: builds/shares the program, iterates hot functions."""

    ratcheted = True
    scopes = ("core/", "reservation/", "multimachine/", "sim/", "levels/")

    def __init__(self) -> None:
        self._program: Program | None = None

    def prepare(self, files: Sequence[SourceFile],
                shared: dict[str, object]) -> None:
        program = shared.get(_PROGRAM_KEY)
        if not isinstance(program, Program):
            program = build_program(files)
            shared[_PROGRAM_KEY] = program
        self._program = program

    def check(self, sf: SourceFile) -> Iterator[Finding]:
        program = self._program
        if program is None:  # pragma: no cover - engine always prepares
            return
        for info in sorted(program.functions_in(sf.scope),
                           key=lambda f: f.first_lineno):
            if not info.hot or _matches_any(info.name, EXEMPT_FUNCTIONS):
                continue
            yield from self.check_function(sf, info)

    def check_function(self, sf: SourceFile,
                       info: FunctionInfo) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover

    def hot_finding(self, sf: SourceFile, info: FunctionInfo,
                    node: ast.AST, code: str, message: str) -> Finding:
        assert self._program is not None
        chain = self._program.hot_path_to(info.node_id)
        entry = chain[0].removeprefix("entry:") if chain else "?"
        return self.finding(
            sf, node, code,
            f"{message} [hot via {entry}]",
            context=info.qualname,
        )


class HotClosureRule(HotPathRule):
    name = "hot-closures"
    description = (
        "no closure/lambda construction inside hot functions — build "
        "hooks once at __init__/__setstate__, not per request"
    )

    def check_function(self, sf: SourceFile,
                       info: FunctionInfo) -> Iterator[Finding]:
        for node in iter_own_nodes(info.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield self.hot_finding(
                    sf, info, node, "HOT001",
                    f"{info.qualname} builds closure '{node.name}' on the "
                    "hot path — a function object is allocated per call; "
                    "construct it once and cache it",
                )
            elif isinstance(node, ast.Lambda):
                yield self.hot_finding(
                    sf, info, node, "HOT001",
                    f"{info.qualname} builds a lambda on the hot path — a "
                    "function object is allocated per call; construct it "
                    "once and cache it",
                )


class HotComprehensionRule(HotPathRule):
    name = "hot-comprehensions"
    description = (
        "no allocating comprehension/genexp inside a loop of a hot "
        "function (an allocation per iteration per request)"
    )

    def check_function(self, sf: SourceFile,
                       info: FunctionInfo) -> Iterator[Finding]:
        seen: set[int] = set()
        for loop in _loops_of(info):
            for node in _body_nodes(_loop_body(loop)):
                if isinstance(node, _COMPREHENSIONS) and id(node) not in seen:
                    seen.add(id(node))
                    kind = type(node).__name__
                    yield self.hot_finding(
                        sf, info, node, "HOT002",
                        f"{info.qualname} allocates a {kind} inside a "
                        "hot loop — hoist it, fuse it into the loop, or "
                        "restructure to a single pass",
                    )


class HotAttrChainRule(HotPathRule):
    name = "hot-attr-chains"
    description = (
        "bind-to-local contract: repeated self.x.y attribute chains "
        "inside hot loops re-run dict lookups per iteration"
    )

    def check_function(self, sf: SourceFile,
                       info: FunctionInfo) -> Iterator[Finding]:
        flagged: dict[str, ast.AST] = {}
        for loop in _loops_of(info):
            rebound = _store_names(loop)
            body = list(_body_nodes(_loop_body(loop)))
            has_attr_parent = {
                id(n.value) for n in body if isinstance(n, ast.Attribute)
            }
            for node in body:
                if not isinstance(node, ast.Attribute):
                    continue
                if id(node) in has_attr_parent:
                    continue  # an inner link of a longer chain
                if not isinstance(node.ctx, ast.Load):
                    continue
                chain = _attr_chain(node)
                if chain is None or len(chain) < 3:
                    continue
                if chain[0] in rebound:
                    continue  # base changes per iteration; not invariant
                text = ".".join(chain)
                prev = flagged.get(text)
                if prev is None or node.lineno < prev.lineno:
                    flagged[text] = node
        for text, node in sorted(flagged.items()):
            yield self.hot_finding(
                sf, info, node, "HOT003",
                f"{info.qualname} evaluates '{text}' inside a hot loop — "
                "bind it to a local before the loop if loop-invariant",
            )


class HotComplexityRule(HotPathRule):
    name = "hot-complexity"
    description = (
        "no full iteration over a journaled dict/placement map on the "
        "hot path — use the SlotIndex / touched-log instead"
    )

    def check_function(self, sf: SourceFile,
                       info: FunctionInfo) -> Iterator[Finding]:
        seen: set[int] = set()

        def flag(node: ast.AST, text: str) -> Finding:
            seen.add(id(node))
            return self.hot_finding(
                sf, info, node, "CPLX001",
                f"{info.qualname} scans the whole journaled map "
                f"'{text}' — O(n) per request where a SlotIndex / "
                "touched-log exists; restrict to the touched entries or "
                "move this off the request path",
            )

        for node in iter_own_nodes(info.node):
            if id(node) in seen:
                continue
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, _COMPREHENSIONS):
                iters.extend(g.iter for g in node.generators)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _SCAN_WRAPPERS and node.args):
                iters.append(node.args[0])
            for it in iters:
                text = _journaled_map_expr(it)
                if text is not None and id(it) not in seen:
                    seen.add(id(it))
                    yield flag(it, text)


class HotAllocationRule(HotPathRule):
    name = "hot-allocations"
    description = (
        "no throwaway dict()/list()/set() or empty-literal container "
        "construction in the innermost loop of a hot function"
    )

    def check_function(self, sf: SourceFile,
                       info: FunctionInfo) -> Iterator[Finding]:
        seen: set[int] = set()
        for loop in _loops_of(info):
            if not _is_innermost(loop):
                continue
            for node in _body_nodes(_loop_body(loop)):
                if id(node) in seen:
                    continue
                desc = None
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in _CONTAINER_CTORS):
                    desc = f"{node.func.id}(...)"
                elif isinstance(node, ast.List) and not node.elts:
                    desc = "[]"
                elif isinstance(node, ast.Dict) and not node.keys:
                    desc = "{}"
                if desc is not None:
                    seen.add(id(node))
                    yield self.hot_finding(
                        sf, info, node, "ALLOC001",
                        f"{info.qualname} constructs {desc} in its "
                        "innermost hot loop — hoist the container or "
                        "reuse a preallocated one",
                    )


register(HotClosureRule())
register(HotComprehensionRule())
register(HotAttrChainRule())
register(HotComplexityRule())
register(HotAllocationRule())
