"""Pluggable attack registry: name -> factory whose signature declares the knobs.

The sweep engine grids over attacks the same way it grids over
transformation suites and participation scenarios, so the attack axis must
be *data*, not a hard-coded if/elif chain.  Each attack registers an
:class:`AttackSpec` — its factory and which global model it targets —
and every consumer (``SweepRunner``, the CLI's ``--attacks`` flag, the
per-figure harnesses, tests) resolves attacks through :func:`make_attack`.

Adding an attack to the zoo:

1. Implement :class:`~repro.attacks.base.ActiveReconstructionAttack`
   (``craft`` + ``reconstruct``; optionally ``calibrate_from_public_data``,
   and the large-scale hooks ``craft_for_client`` /
   ``reconstruct_per_client`` — see :mod:`repro.attacks.loki`).  Its
   knobs are the constructor's keyword parameters with defaults.
2. Register it::

       register_attack(AttackSpec(
           name="myattack",
           factory=MyAttack,
           model="imprint",
           description="one line for --help and docs",
       ))

3. It is now reachable from ``python -m repro.experiments.sweep
   --attacks myattack`` and every registry-driven test picks it up
   automatically.

Register at import time, in a module that parallel sweep workers also
import: under the ``spawn`` start method (the default off Linux) each
worker re-imports this registry fresh, so a registration executed only
in the parent process is invisible to workers and that attack's cells
fail with :class:`UnknownAttackError` despite a working serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.attacks.base import ActiveReconstructionAttack
from repro.attacks.cah import CAHAttack
from repro.attacks.linear import LinearModelInversion
from repro.attacks.loki import LOKIAttack
from repro.attacks.qbi import QBIAttack
from repro.attacks.rtf import RTFAttack
from repro.utils.knobs import signature_knobs


class AttackRegistryError(ValueError):
    """Base for registry misuse errors."""


class UnknownAttackError(AttackRegistryError):
    """The requested attack name is not registered."""


class DuplicateAttackError(AttackRegistryError):
    """An attack name is already registered (pass ``replace=True`` to allow)."""


#: What :func:`make_attack` passes itself, to factories that declare it.
_SUPPLIED = ("num_neurons", "seed")


@dataclass(frozen=True)
class AttackSpec:
    """Everything the zoo knows about one attack.

    ``factory`` is usually the attack class itself.  Its keyword
    parameters with defaults are the attack's knobs, read once from its
    signature when the spec is built; ``num_neurons`` and ``seed`` are
    not knobs but are passed by :func:`make_attack` when the factory
    declares them.  ``model`` names the global-model family the attack
    targets (``"imprint"`` for the malicious-layer attacks, ``"linear"``
    for single-layer gradient inversion) so grid runners can build the
    right architecture per cell.  ``crafts_model`` is False for passive
    attacks that never modify parameters (nothing for client-side
    detection to flag).
    """

    name: str
    factory: Callable[..., ActiveReconstructionAttack]
    model: str = "imprint"
    crafts_model: bool = True
    description: str = ""
    knobs: tuple[str, ...] = field(init=False)
    supplied: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        knobs, supplied = signature_knobs(
            self.factory, _SUPPLIED, AttackRegistryError
        )
        object.__setattr__(self, "knobs", knobs)
        object.__setattr__(self, "supplied", supplied)


_REGISTRY: dict[str, AttackSpec] = {}


def register_attack(spec: AttackSpec, replace: bool = False) -> AttackSpec:
    """Add ``spec`` to the zoo; duplicate names are an error unless replacing."""
    if not spec.name or not spec.name.isidentifier():
        raise AttackRegistryError(
            f"attack name {spec.name!r} must be a non-empty identifier"
        )
    if spec.name in _REGISTRY and not replace:
        raise DuplicateAttackError(
            f"attack {spec.name!r} is already registered; pass replace=True "
            "to overwrite it deliberately"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_attack(name: str) -> None:
    """Remove an attack from the zoo (plugin teardown / test hygiene)."""
    if name not in _REGISTRY:
        raise UnknownAttackError(f"cannot unregister unknown attack {name!r}")
    del _REGISTRY[name]


def attack_spec(name: str) -> AttackSpec:
    """Look up a registered attack, with a helpful unknown-name error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownAttackError(
            f"unknown attack {name!r}; registered attacks: "
            f"{', '.join(available_attacks())}"
        ) from None


def available_attacks() -> tuple[str, ...]:
    """All registered attack names, in registration order."""
    return tuple(_REGISTRY)


def make_attack(
    name: str,
    num_neurons: int,
    public_images: Optional[np.ndarray] = None,
    seed: int = 0,
    **knobs,
) -> ActiveReconstructionAttack:
    """Build an attack from the zoo, calibrated when it can be.

    ``knobs`` must be among the spec's knobs — an undeclared knob is a
    configuration typo, and silently dropping it would run a different
    experiment than the one asked for.  Attacks with a
    ``calibrate_from_public_data`` hook calibrate on non-empty
    ``public_images``.
    """
    spec = attack_spec(name)
    unknown = set(knobs) - set(spec.knobs)
    if unknown:
        raise AttackRegistryError(
            f"unknown knob(s) {sorted(unknown)} for attack {name!r}; "
            f"declared knobs: {sorted(spec.knobs)}"
        )
    supplied = {"num_neurons": num_neurons, "seed": seed}
    attack = spec.factory(
        **{key: supplied[key] for key in spec.supplied}, **knobs
    )
    if (
        public_images is not None
        and len(public_images)
        and hasattr(attack, "calibrate_from_public_data")
    ):
        attack.calibrate_from_public_data(public_images)
    return attack


register_attack(AttackSpec(
    name="rtf",
    factory=RTFAttack,
    description=(
        "Robbing the Fed: one measurement direction, quantile-staggered "
        "biases, successive-difference bin inversion (Fowl et al. 2022)"
    ),
))

register_attack(AttackSpec(
    name="cah",
    factory=CAHAttack,
    description=(
        "Curious Abandon Honesty: random trap weights at a fixed small "
        "activation probability (Boenisch et al. 2023)"
    ),
))

register_attack(AttackSpec(
    name="linear",
    factory=LinearModelInversion,
    model="linear",
    crafts_model=False,
    description=(
        "Single-layer logistic-model gradient inversion, class row by "
        "class row (paper Sec. IV-D)"
    ),
))

register_attack(AttackSpec(
    name="qbi",
    factory=QBIAttack,
    description=(
        "Quantile-based bias initialization: trap biases at the empirical "
        "1-1/B quantile, maximizing sole activations (Nowak et al. 2024)"
    ),
))

register_attack(AttackSpec(
    name="loki",
    factory=LOKIAttack,
    description=(
        "LOKI-style scaled imprint: per-client-disjoint trap blocks "
        "recovered from the FedAvg aggregate (Zhao et al. 2023)"
    ),
))
