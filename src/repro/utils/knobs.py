"""Registry knobs read from a factory's signature.

The attack and defense registries share one rule: an entry's knobs are
its factory's keyword parameters that have defaults, minus the names the
registry supplies itself.  Reading them from the signature leaves a
single declaration, so knobs and constructors cannot drift apart.
"""

from __future__ import annotations

import inspect
from typing import Callable


def signature_knobs(
    factory: Callable,
    supplied: tuple[str, ...],
    error: type[Exception],
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(knobs, declared)`` for ``factory``, in signature order.

    ``knobs`` are the keyword parameters with defaults that are not in
    ``supplied``; ``declared`` are the ``supplied`` names ``factory``
    accepts.  A ``**kwargs`` factory has no knob set to validate
    against, so it raises ``error``.
    """
    parameters = inspect.signature(factory).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        raise error(
            f"factory {factory!r} takes **kwargs; declare every knob as a "
            "keyword parameter with a default"
        )
    keyword = [
        p for p in parameters
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    ]
    knobs = tuple(
        p.name for p in keyword
        if p.default is not p.empty and p.name not in supplied
    )
    declared = tuple(p.name for p in keyword if p.name in supplied)
    return knobs, declared
