"""``sorted-iteration``: order unordered collections before consuming them.

Store keys, fingerprints, and seed derivations must not depend on hash
randomization or filesystem order.  Iterating a ``set`` (iteration order
varies per process under ``PYTHONHASHSEED``), a ``dict.keys()`` view
(order encodes invisible insertion history), or a directory listing
(``os.listdir``/``glob`` order is filesystem-dependent) into anything
order-sensitive silently breaks byte-identity between two runs of the
same configuration — the exact class of bug the PR-3 golden suite exists
to catch, found here at write time instead.

Flagged consumption sites: ``for`` loops, comprehension iterables, and
materializers (``list``/``tuple``/``enumerate``/``iter``/``.join``) whose
operand is a set literal/comprehension, a ``set()``/``frozenset()`` call,
a ``.keys()`` call, a directory listing (``os.listdir``, ``glob.glob``,
``.iterdir()``, ``.glob()``, ``.rglob()``), or a local name bound to one
of those.  Wrapping the operand in ``sorted(...)`` resolves it.

Order-insensitive reductions (``len``, ``sum``, ``min``, ``max``,
``any``, ``all``) and membership tests are deliberately not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import (
    RULES,
    FileContext,
    Rule,
    Violation,
    dotted_name,
)

_UNORDERED_ATTR_CALLS = frozenset({
    "keys", "iterdir", "glob", "rglob",
})
_UNORDERED_DOTTED_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
_MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _producer_kind(node: ast.AST, bound: dict[str, str]) -> Optional[str]:
    """What unordered thing ``node`` evaluates to, or None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return f"a {name}()"
        if name in _UNORDERED_DOTTED_CALLS:
            return f"{name}() (filesystem order)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _UNORDERED_ATTR_CALLS
        ):
            if node.func.attr == "keys":
                return ".keys() (insertion-order view)"
            return f".{node.func.attr}() (filesystem order)"
    return None


class _ScopeWalker:
    """Walk one scope's statements in order, tracking set-valued names."""

    def __init__(self, context: FileContext, rule: Rule) -> None:
        self.context = context
        self.rule = rule
        self.violations: list[Violation] = []

    def walk(self, body: list[ast.stmt], bound: dict[str, str]) -> None:
        for statement in body:
            self._statement(statement, bound)

    def _statement(self, node: ast.stmt, bound: dict[str, str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.walk(node.body, {})  # fresh scope, fresh bindings
            return
        if isinstance(node, ast.ClassDef):
            self.walk(node.body, {})
            return
        # Track simple name bindings before examining uses, except for
        # loops, whose iterable is consumed *before* the target binds.
        if isinstance(node, ast.For):
            self._consume(node.iter, bound, "for-loop")
            self._expressions(node.iter, bound)
            for child in node.body + node.orelse:
                self._statement(child, bound)
            return
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
            isinstance(node.targets[0], ast.Name)
        ):
            self._expressions(node.value, bound)
            kind = _producer_kind(node.value, bound)
            if kind is not None:
                bound[node.targets[0].id] = kind
            else:
                bound.pop(node.targets[0].id, None)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._statement(child, bound)
            elif isinstance(child, ast.expr):
                self._expressions(child, bound)

    def _expressions(self, node: ast.expr, bound: dict[str, str]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                                ast.GeneratorExp)):
                for generator in sub.generators:
                    self._consume(generator.iter, bound, "comprehension")
            elif isinstance(sub, ast.Call):
                name = dotted_name(sub.func)
                if name in _MATERIALIZERS and sub.args:
                    self._consume(sub.args[0], bound, f"{name}()")
                elif (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "join"
                    and sub.args
                ):
                    self._consume(sub.args[0], bound, ".join()")

    def _consume(
        self, node: ast.expr, bound: dict[str, str], where: str
    ) -> None:
        kind = _producer_kind(node, bound)
        if kind is not None:
            self.violations.append(self.context.violation(
                self.rule, node,
                f"{where} iterates {kind} without sorted() — iteration "
                "order is not deterministic across runs",
            ))


def _check(context: FileContext) -> Iterator[Violation]:
    walker = _ScopeWalker(context, RULE)
    walker.walk(context.tree.body, {})
    yield from walker.violations


RULE = RULES.register(Rule(
    name="sorted-iteration",
    check=_check,
    description=(
        "sets, dict.keys() views, and directory listings are sorted "
        "before iteration feeds anything order-sensitive"
    ),
    hint="wrap the iterable in sorted(...)",
    profiles=("lib", "bench"),
))
