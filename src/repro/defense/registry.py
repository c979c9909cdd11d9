"""Pluggable defense registry: spec strings -> composable client defenses.

The sweep engine grids over defenses the same way it grids over attacks
(:mod:`repro.attacks.registry`), so the defense axis must be *data*, not a
hard-coded ``"WO" | OasisDefense(name)`` branch.  Each defense registers a
:class:`DefenseSpec` — its factory and which pipeline stage it acts at —
and every consumer (``SweepRunner``, the CLI's ``--defenses`` flag, the
per-figure harnesses, tests) resolves defenses through
:func:`make_defense`.

Spec-string grammar
-------------------

One defense arm is a ``">"``-separated chain of stages; each stage is a
registered name with optional ``knob=value`` arguments::

    WO                              # no defense
    MR+SH                           # OASIS with the MR+SH suite
    dpsgd(noise_multiplier=0.5)     # DP-SGD with a non-default knob
    MR>dpsgd                        # OASIS composed with DP-SGD
    SH>prune(prune_fraction=0.8)>dpfed

Multi-stage specs build a
:class:`~repro.defense.pipeline.DefensePipeline`; a single stage returns
the bare defense.  Values parse as Python literals (``0.5``, ``True``)
with bare words falling back to strings (``suite=MR``).

Adding a defense:

1. Implement :class:`~repro.defense.base.ClientDefense` (override only the
   hooks you use; override ``reseed`` only if you hold private state
   beyond the base class's ``_rng``).  Its knobs are the constructor's
   keyword parameters with defaults.
2. Register it in the defense table::

       DEFENSES.register(DefenseSpec(
           name="mydefense",
           factory=MyDefense,
           stage="gradient",
           description="one line for --help and docs",
       ))

3. It is now reachable from ``python -m repro.experiments.sweep
   --defenses mydefense`` (and composable: ``MR>mydefense``), and every
   registry-driven test picks it up automatically.

:class:`~repro.utils.registry.Registry` owns the naming policy and
explains why registrations belong at import time.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable

from repro.augment.suites import available_suites, suite_by_name
from repro.defense.base import ClientDefense, NoDefense
from repro.defense.baselines import (
    DPGradientDefense,
    DPSGDDefense,
    GradientPruningDefense,
    TransformReplaceDefense,
)
from repro.defense.oasis import OasisDefense
from repro.defense.pipeline import STAGE_SEPARATOR, DefensePipeline
from repro.defense.tabular import TabularOasisDefense
from repro.utils.knobs import signature_knobs
from repro.utils.registry import Registry
from repro.utils.rng import derive_seed


class DefenseRegistryError(ValueError):
    """Base for registry misuse errors."""


class UnknownDefenseError(DefenseRegistryError):
    """The requested defense name is not registered."""


class DuplicateDefenseError(DefenseRegistryError):
    """A defense name is already registered (pass ``replace=True`` to allow)."""


class DefenseSpecError(DefenseRegistryError):
    """A defense spec string does not parse under the stage grammar."""


@dataclass(frozen=True)
class DefenseSpec:
    """Everything the registry knows about one defense.

    ``factory`` is called as ``factory(**knobs)`` and must return a
    ready-to-use :class:`~repro.defense.base.ClientDefense`.  Its keyword
    parameters with defaults are the knobs, read once from its signature
    when the spec is built.  A ``seed`` parameter is not a knob: seeding
    is applied afterwards through :meth:`~ClientDefense.reseed`, never
    inside the factory.  ``stage`` names the pipeline point the defense
    acts at (``"batch"``, ``"gradient"``, or ``"none"`` for the WO arm)
    and ``stochastic`` marks defenses that draw randomness — the ones
    whose cells depend on fingerprint-derived seeding for order
    invariance.
    """

    name: str
    factory: Callable[..., ClientDefense]
    stage: str = "batch"
    stochastic: bool = False
    description: str = ""
    knobs: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        knobs, _ = signature_knobs(
            self.factory, ("seed",), DefenseRegistryError
        )
        object.__setattr__(self, "knobs", knobs)


# Registered names may carry "+" (suite unions like MR+SH) but none of the
# grammar's structural characters (">", parens, commas, "=", whitespace).
DEFENSES: Registry[DefenseSpec] = Registry(
    "defense",
    r"[A-Za-z0-9_+-]+",
    "non-empty and use only letters, digits, '_', '+', '-' (the spec "
    "grammar reserves '>', parentheses, commas, and '=')",
    error=DefenseRegistryError,
    unknown=UnknownDefenseError,
    duplicate=DuplicateDefenseError,
)


def _parse_value(text: str):
    """A knob value: a Python literal, or a bare word as a string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


_STAGE_PATTERN = re.compile(
    r"^(?P<name>[A-Za-z0-9_+-]+)(?:\((?P<kwargs>.*)\))?$"
)


def _parse_stage(token: str, spec: str) -> tuple[str, dict]:
    match = _STAGE_PATTERN.match(token)
    if match is None:
        raise DefenseSpecError(
            f"cannot parse defense stage {token!r} in spec {spec!r}; "
            "expected name or name(knob=value, ...)"
        )
    name = match.group("name")
    kwargs: dict = {}
    body = match.group("kwargs")
    if body:
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, value = part.partition("=")
            if not separator or not key.strip():
                raise DefenseSpecError(
                    f"cannot parse knob {part!r} of stage {token!r} in spec "
                    f"{spec!r}; expected knob=value"
                )
            key = key.strip()
            if key in kwargs:
                raise DefenseSpecError(
                    f"knob {key!r} is repeated in stage {token!r} of spec "
                    f"{spec!r}"
                )
            kwargs[key] = _parse_value(value.strip())
    return name, kwargs


def parse_defense_spec(spec: str) -> list[tuple[str, dict]]:
    """Parse a spec string into ``[(stage_name, knob_dict), ...]``.

    Purely syntactic — names are not resolved against the registry here,
    so callers can report unknown-name and bad-grammar problems
    separately.
    """
    tokens = [token.strip() for token in spec.split(STAGE_SEPARATOR)]
    if not spec.strip() or any(not token for token in tokens):
        raise DefenseSpecError(
            f"empty stage in defense spec {spec!r}; expected "
            "name or name>name>... chains"
        )
    return [_parse_stage(token, spec) for token in tokens]


def split_spec_list(text: str) -> list[str]:
    """Split a comma-separated list of defense specs, respecting parens.

    The CLI's ``--defenses`` values look like
    ``"WO,MR,dpsgd(clip_norm=2.0,noise_multiplier=0.5),MR>dpsgd"`` — commas
    inside a stage's knob parentheses separate knobs, not arms.  Empty
    items are dropped, whitespace trimmed; an unbalanced parenthesis is a
    grammar error.
    """
    specs: list[str] = []
    current: list[str] = []
    depth = 0
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise DefenseSpecError(
                    f"unbalanced ')' in defense spec list {text!r}"
                )
        if char == "," and depth == 0:
            specs.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise DefenseSpecError(f"unbalanced '(' in defense spec list {text!r}")
    specs.append("".join(current).strip())
    return [spec for spec in specs if spec]


def canonical_spec(spec: str) -> str:
    """Fully-normalized spec string — :func:`make_defense`'s seeding key.

    Rendered back from the parsed form with knobs sorted by name and no
    incidental whitespace, so every spelling of the same configuration
    (``"dpsgd(a=1, b=2)"``, ``"dpsgd(b=2,a=1)"``, ``" dpsgd(a=1,b=2) "``)
    hands ``make_defense(spec, seed=...)`` the same private streams.

    Scope note: sweep grids key their cells (store cache, cell seeds) by
    the *literal* arm string — two spellings of one configuration are two
    distinct arms there, each internally deterministic.  Keep the
    spelling stable between a run and its ``--resume``; this helper only
    guarantees that direct ``make_defense`` callers (lineups, per-trial
    defenses) are spelling-invariant.
    """
    stages = []
    for name, kwargs in parse_defense_spec(spec):
        if kwargs:
            rendered = ",".join(
                f"{key}={kwargs[key]!r}" for key in sorted(kwargs)
            )
            stages.append(f"{name}({rendered})")
        else:
            stages.append(name)
    return STAGE_SEPARATOR.join(stages)


def validate_defense_spec(spec: str) -> None:
    """Fail fast on a bad spec, raising whatever :func:`make_defense` would.

    Grammar errors, unknown names, undeclared knobs, invalid knob values
    (a factory rejecting ``clip_norm=-1``), and unsatisfiable pipelines
    (two per-sample-clipping stages) all surface here.  Grid runners call
    this per arm at construction so a bad spec aborts immediately, not
    one cell deep into a sweep.  Implemented as a throwaway build:
    factories are pure constructors, so building and discarding is both
    cheap and exactly as strict as the real thing.
    """
    make_defense(spec)


def make_defense(
    spec: "str | ClientDefense",
    seed: "int | None" = None,
    **knobs,
) -> ClientDefense:
    """Build a defense (or stack) from a spec string.

    Multi-stage specs return a
    :class:`~repro.defense.pipeline.DefensePipeline`; a single stage
    returns the bare defense.  ``knobs`` merge into (and override) the
    spec string's own arguments and are only meaningful for single-stage
    specs — for chains, put knobs in the string where they are
    unambiguous.  Undeclared knobs are a configuration typo and raise.

    With ``seed``, the built defense is reseeded with a seed derived from
    ``(seed, "defense", canonical spec)`` so every stochastic stage draws
    an order/worker-invariant private stream; grid runners pass their
    cell's fingerprint-derived seed here.  An already-built
    :class:`~repro.defense.base.ClientDefense` passes through (reseeded
    when ``seed`` is given).
    """
    if isinstance(spec, ClientDefense):
        if knobs:
            raise DefenseRegistryError(
                "knobs cannot be applied to an already-built defense "
                f"instance {spec.name!r}"
            )
        if seed is not None:
            spec.reseed(derive_seed(seed, "defense", spec.name))
        return spec
    stages = parse_defense_spec(spec)
    if knobs and len(stages) != 1:
        raise DefenseRegistryError(
            f"keyword knobs are ambiguous for the multi-stage spec {spec!r}; "
            "write them into the spec string per stage, e.g. "
            "'MR>dpsgd(noise_multiplier=0.5)'"
        )
    built: list[ClientDefense] = []
    for name, kwargs in stages:
        registered = DEFENSES[name]
        merged = {**kwargs, **knobs} if len(stages) == 1 else kwargs
        unknown = set(merged) - set(registered.knobs)
        if unknown:
            raise DefenseRegistryError(
                f"unknown knob(s) {sorted(unknown)} for defense {name!r}; "
                f"declared knobs: {sorted(registered.knobs)}"
            )
        try:
            built.append(registered.factory(**merged))
        except DefenseRegistryError:
            raise
        except (ValueError, KeyError, TypeError) as error:
            # Normalize factory rejections (a negative clip_norm, an
            # unknown suite's KeyError-family UnknownSuiteError, a
            # mistyped knob value) into the registry's ValueError family,
            # so every bad spec is catchable the same way — the CLI and
            # grid runners fail fast with one usage error, never a raw
            # traceback.
            raise DefenseSpecError(
                f"cannot build stage {name!r} of defense spec {spec!r}: "
                f"{error}"
            ) from error
    defense = built[0] if len(built) == 1 else DefensePipeline(built)
    if seed is not None:
        defense.reseed(derive_seed(seed, "defense", canonical_spec(spec)))
    return defense


# --------------------------------------------------------------------------
# Built-in registrations.
# --------------------------------------------------------------------------


def _make_oasis(suite: str):
    def factory(include_original: bool = True):
        return OasisDefense(suite, include_original=include_original)

    return factory


def _make_tabular(num_features: int = 8):
    return TabularOasisDefense(num_features=num_features)


DEFENSES.register(DefenseSpec(
    name="WO",
    factory=NoDefense,
    stage="none",
    description="no defense — the paper's without-OASIS baseline arm",
))

for _suite_name in available_suites():
    DEFENSES.register(DefenseSpec(
        name=_suite_name,
        factory=_make_oasis(_suite_name),
        stage="batch",
        description=(
            f"OASIS batch expansion with the {_suite_name} suite "
            f"({len(suite_by_name(_suite_name))} transforms; paper Eq. 7)"
        ),
    ))

DEFENSES.register(DefenseSpec(
    name="dpsgd",
    factory=DPSGDDefense,
    stage="gradient",
    stochastic=True,
    description=(
        "DP-SGD: per-example clipping + Gaussian noise sigma = z*C/B "
        "(Abadi et al.; the paper's utility-cost baseline)"
    ),
))

DEFENSES.register(DefenseSpec(
    name="dpfed",
    factory=DPGradientDefense,
    stage="gradient",
    stochastic=True,
    description=(
        "update-level DP (DP-FedSGD): clip the whole update, add "
        "N(0, (z*C)^2) before upload"
    ),
))

DEFENSES.register(DefenseSpec(
    name="prune",
    factory=GradientPruningDefense,
    stage="gradient",
    description=(
        "gradient magnitude pruning (Zhu et al. / Soteria-style); the "
        "paper notes pruned gradients still leak content"
    ),
))

DEFENSES.register(DefenseSpec(
    name="ats",
    factory=TransformReplaceDefense,
    stage="batch",
    stochastic=True,
    description=(
        "ATSPrivacy-style transform-replace (Gao et al. 2021): each image "
        "replaced by one transformed version, batch size unchanged "
        "(RTF defeats it — paper Fig. 14)"
    ),
))

DEFENSES.register(DefenseSpec(
    name="tabular",
    factory=_make_tabular,
    stage="batch",
    stochastic=True,
    description=(
        "tabular OASIS: group permutation + mean-preserving jitter "
        "companions for feature rows (paper future-work direction)"
    ),
))
