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
2. Register it in the zoo's table::

       ATTACKS.register(AttackSpec(
           name="myattack",
           factory=MyAttack,
           model="imprint",
           description="one line for --help and docs",
       ))

3. It is now reachable from ``python -m repro.experiments.sweep
   --attacks myattack`` and every registry-driven test picks it up
   automatically.

:class:`~repro.utils.registry.Registry` owns the naming policy (valid
identifiers, no silent duplicates, the unknown-name error) and explains
why registrations belong at import time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.attacks.base import ActiveReconstructionAttack
from repro.attacks.cah import CAHAttack
from repro.attacks.imprint import ImprintedModel
from repro.attacks.linear import LinearClassifier, LinearModelInversion
from repro.attacks.loki import LOKIAttack
from repro.attacks.qbi import QBIAttack
from repro.attacks.rtf import RTFAttack
from repro.nn.module import Module
from repro.utils.knobs import signature_knobs
from repro.utils.registry import Registry


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


ATTACKS: Registry[AttackSpec] = Registry(
    "attack",
    r"[A-Za-z_][A-Za-z0-9_]*",
    "a non-empty identifier",
    error=AttackRegistryError,
    unknown=UnknownAttackError,
    duplicate=DuplicateAttackError,
)


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
    spec = ATTACKS[name]
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


def make_global_model(
    attack_name: str, dataset, num_neurons: int, seed: int
) -> Module:
    """The global model ``attack_name`` targets, initialized from ``seed``.

    Keyed by the spec's ``model`` family: imprint attacks get the
    malicious-layer :class:`~repro.attacks.imprint.ImprintedModel` with
    ``num_neurons`` trap neurons; the linear inversion runs against the
    paper's single-layer classifier.  ``dataset`` supplies the input
    shape and class count.
    """
    rng = np.random.default_rng(seed)
    if ATTACKS[attack_name].model == "linear":
        return LinearClassifier(
            dataset.image_shape, dataset.num_classes, rng=rng
        )
    return ImprintedModel(
        dataset.image_shape, num_neurons, dataset.num_classes, rng=rng
    )


ATTACKS.register(AttackSpec(
    name="rtf",
    factory=RTFAttack,
    description=(
        "Robbing the Fed: one measurement direction, quantile-staggered "
        "biases, successive-difference bin inversion (Fowl et al. 2022)"
    ),
))

ATTACKS.register(AttackSpec(
    name="cah",
    factory=CAHAttack,
    description=(
        "Curious Abandon Honesty: random trap weights at a fixed small "
        "activation probability (Boenisch et al. 2023)"
    ),
))

ATTACKS.register(AttackSpec(
    name="linear",
    factory=LinearModelInversion,
    model="linear",
    crafts_model=False,
    description=(
        "Single-layer logistic-model gradient inversion, class row by "
        "class row (paper Sec. IV-D)"
    ),
))

ATTACKS.register(AttackSpec(
    name="qbi",
    factory=QBIAttack,
    description=(
        "Quantile-based bias initialization: trap biases at the empirical "
        "1-1/B quantile, maximizing sole activations (Nowak et al. 2024)"
    ),
))

ATTACKS.register(AttackSpec(
    name="loki",
    factory=LOKIAttack,
    description=(
        "LOKI-style scaled imprint: per-client-disjoint trap blocks "
        "recovered from the FedAvg aggregate (Zhao et al. 2023)"
    ),
))
