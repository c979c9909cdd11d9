"""``no-wallclock``: cell execution and fingerprints never read the clock.

A sweep cell's result — and the fingerprint that keys its store entry and
seeds its RNG streams — must be a pure function of configuration.  One
``time.time()`` folded into a result dict or a derived seed makes two
byte-identical runs diverge, which the golden suite would catch hours
later with no pointer to the cause.

Flagged: ``time.time`` / ``time.time_ns``, ``datetime.now`` / ``utcnow``
/ ``today``, ``date.today`` (dotted or from-imported).

Deliberately *not* flagged: ``time.perf_counter`` / ``monotonic`` — the
executors use interval timing for progress reporting and benchmarks, and
elapsed seconds are reported, never stored in cell results or hashed into
keys.  (If a timing ever needs to ride in a persisted artifact, stamp it
outside the deterministic path.)
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

_TIME_FUNCTIONS = frozenset({"time", "time_ns"})
_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})


def _check(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        root, leaf = parts[0], parts[-1]

        # time.time() / time.time_ns() via "import time".
        if (
            len(parts) == 2
            and context.imports.get(root) == "time"
            and leaf in _TIME_FUNCTIONS
        ):
            yield context.violation(RULE, node, (
                f"time.{leaf}() reads the wall clock — results must be "
                "pure functions of configuration"
            ))
            continue

        # datetime.now()/utcnow()/today(), date.today() — whether the
        # name came from "import datetime" (datetime.datetime.now) or
        # "from datetime import datetime" (datetime.now).
        if leaf in _DATETIME_METHODS and len(parts) >= 2:
            base = ".".join(parts[:-1])
            origin = context.from_imports.get(base, context.imports.get(base))
            if origin in ("datetime.datetime", "datetime.date") or (
                context.imports.get(root) == "datetime" and len(parts) == 3
            ):
                yield context.violation(RULE, node, (
                    f"{name}() reads the wall clock — a timestamp in a "
                    "result or fingerprint breaks byte-identity"
                ))
                continue

        # from time import time / time_ns.
        origin = context.from_imports.get(name)
        if origin is not None:
            module, _, imported = origin.rpartition(".")
            if module == "time" and imported in _TIME_FUNCTIONS:
                yield context.violation(RULE, node, (
                    f"{name}() (time.{imported}) reads the wall clock"
                ))


RULE = RULES.register(Rule(
    name="no-wallclock",
    check=_check,
    description=(
        "no wall-clock reads (time.time, datetime.now) in deterministic "
        "library paths; perf_counter interval timing is fine"
    ),
    hint=(
        "derive values from configuration; for intervals use "
        "time.perf_counter, and stamp artifacts outside the cell path"
    ),
    profiles=("lib",),
))
