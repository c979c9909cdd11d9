"""``no-sim-wallclock``: the federation stack runs on the virtual clock only.

:mod:`repro.fl` is a discrete-event simulation — every duration, deadline,
and arrival tick derives from :class:`repro.fl.engine.VirtualClock`.  A
single host-clock read in that tree desynchronizes simulated time from
event order, and unlike the fingerprint hazards ``no-wallclock`` guards
against, even *interval* timing is wrong here: a ``perf_counter`` delta
measures the host, not the federation, so stragglers would depend on the
machine's load instead of the scenario's traces.

Accordingly this rule is stricter than ``no-wallclock`` where it applies
(any file under ``repro/fl``) and silent everywhere else: importing
``time`` or ``datetime`` at all is flagged, as is any call resolved to
them — ``perf_counter`` and ``monotonic`` included.  Benchmarks and the
sweep executors live outside ``repro/fl`` and keep their interval timing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import (
    RULES,
    FileContext,
    Rule,
    Violation,
    dotted_name,
)

_BANNED_MODULES = ("time", "datetime")


def _in_fl_tree(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return "repro/fl/" in normalized or normalized.endswith("repro/fl")


def _check(context: FileContext) -> Iterator[Violation]:
    if not _in_fl_tree(context.path):
        return
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _BANNED_MODULES:
                    yield context.violation(RULE, node, (
                        f"import {alias.name}: repro.fl derives all timing "
                        "from the virtual clock; the host clock (even "
                        "perf_counter) is banned here"
                    ))
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root in _BANNED_MODULES:
                yield context.violation(RULE, node, (
                    f"from {node.module} import ...: repro.fl derives all "
                    "timing from the virtual clock; the host clock is "
                    "banned here"
                ))
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            root = name.split(".")[0]
            origin = context.imports.get(root) or context.from_imports.get(
                name, context.from_imports.get(root)
            )
            if origin and origin.split(".")[0] in _BANNED_MODULES:
                yield context.violation(RULE, node, (
                    f"{name}() resolves to a host-clock module; use "
                    "repro.fl.engine.VirtualClock ticks instead"
                ))


RULE = RULES.register(Rule(
    name="no-sim-wallclock",
    check=_check,
    description=(
        "repro/fl files derive all timing from the virtual clock — "
        "time/datetime imports and calls (perf_counter included) are "
        "banned in the federation stack"
    ),
    hint=(
        "express durations in VirtualClock ticks (repro.fl.engine.ticks); "
        "host-side interval timing belongs in benchmarks, outside repro/fl"
    ),
    profiles=("lib",),
))
