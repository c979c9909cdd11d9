"""``no-global-rng``: every random draw must be seeded and explicit.

The byte-identity guarantee (serial == parallel == resumed sweeps) holds
because every stochastic component draws from a generator derived via
:mod:`repro.utils.rng` from a configuration fingerprint.  Three patterns
silently break that:

- ``np.random.<fn>(...)`` module-level calls (``np.random.normal``,
  ``np.random.seed``, ...) share one hidden global ``RandomState`` whose
  stream depends on every other consumer and on execution order.
- stdlib ``random.<fn>(...)`` calls share the module-global Mersenne
  twister the same way.
- ``default_rng()`` / ``SeedSequence()`` / ``Random()`` *without* a seed
  pull OS entropy — two runs of the same cell produce different results.

Seeded construction (``np.random.default_rng(seed)``) is allowed: the
stream is then a pure function of its arguments, and
:func:`repro.utils.rng.rng_for` / :func:`~repro.utils.rng.derive_seed`
are the preferred way to obtain those arguments.
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

# np.random attributes that are explicit constructors (fine to call with
# arguments), not draws from the hidden module-global RandomState.
_NP_RANDOM_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "RandomState", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

# Constructors that are nondeterministic when called with no arguments
# (they fall back to OS entropy).
_UNSEEDED_SUSPECTS = frozenset({
    "default_rng", "SeedSequence", "RandomState", "Random",
})


def _numpy_random_leaf(context: FileContext, name: str) -> "str | None":
    """The ``<fn>`` of an ``np.random.<fn>`` dotted chain, else None."""
    parts = name.split(".")
    if len(parts) < 3 or parts[-2] != "random":
        return None
    root = ".".join(parts[:-2])
    if context.imports.get(root) == "numpy" or root == "numpy":
        return parts[-1]
    return None


def _stdlib_random_leaf(context: FileContext, name: str) -> "str | None":
    """The ``<fn>`` of a stdlib ``random.<fn>`` chain, else None."""
    parts = name.split(".")
    if len(parts) != 2:
        return None
    if context.imports.get(parts[0]) == "random":
        return parts[1]
    return None


def _check(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        unseeded = not node.args and not node.keywords

        leaf = _numpy_random_leaf(context, name)
        if leaf is not None:
            if leaf not in _NP_RANDOM_CONSTRUCTORS:
                yield context.violation(RULE, node, (
                    f"np.random.{leaf}() draws from numpy's hidden global "
                    "RandomState — its stream depends on every other "
                    "consumer and on execution order"
                ))
                continue
            if leaf in _UNSEEDED_SUSPECTS and unseeded:
                yield context.violation(RULE, node, (
                    f"np.random.{leaf}() without a seed draws OS entropy — "
                    "two runs of the same configuration will differ"
                ))
            continue

        leaf = _stdlib_random_leaf(context, name)
        if leaf is not None:
            if leaf in ("Random", "SystemRandom"):
                if leaf == "SystemRandom" or unseeded:
                    yield context.violation(RULE, node, (
                        f"random.{leaf}() without a seed is OS-entropy "
                        "nondeterminism"
                    ))
            else:
                yield context.violation(RULE, node, (
                    f"random.{leaf}() uses the stdlib's module-global "
                    "Mersenne twister — hidden shared state"
                ))
            continue

        # Bare names imported from numpy.random / random
        # (``from numpy.random import default_rng``).
        origin = context.from_imports.get(name)
        if origin is None:
            continue
        module, _, imported = origin.rpartition(".")
        if module == "numpy.random":
            if imported not in _NP_RANDOM_CONSTRUCTORS:
                yield context.violation(RULE, node, (
                    f"{name}() (numpy.random.{imported}) draws from the "
                    "hidden global RandomState"
                ))
            elif imported in _UNSEEDED_SUSPECTS and unseeded:
                yield context.violation(RULE, node, (
                    f"{name}() without a seed draws OS entropy — "
                    "two runs of the same configuration will differ"
                ))
        elif module == "random":
            if imported in ("Random", "SystemRandom"):
                if imported == "SystemRandom" or unseeded:
                    yield context.violation(RULE, node, (
                        f"{name}() without a seed is OS-entropy "
                        "nondeterminism"
                    ))
            else:
                yield context.violation(RULE, node, (
                    f"{name}() (random.{imported}) uses the stdlib's "
                    "module-global Mersenne twister"
                ))


RULE = RULES.register(Rule(
    name="no-global-rng",
    check=_check,
    description=(
        "no module-global RNG calls and no unseeded generator "
        "construction; seeds flow through repro.utils.rng"
    ),
    hint=(
        "thread an explicit generator from repro.utils.rng.rng_for/"
        "derive_seed (or seed the constructor)"
    ),
    profiles=("lib", "bench"),
))
