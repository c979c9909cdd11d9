"""Grid sweep engine: attack x defense x participation-scenario evaluation.

Large-scale active attacks (LOKI, ARES) reconstruct across hundreds of
clients per round, so evaluating OASIS credibly means running every
(attack, transformation suite, federation scenario) combination through the
full dishonest-server protocol — not one hand-rolled loop per figure.  This
module provides that engine:

- :class:`ParticipationScenario` describes one federation shape (fleet
  size, per-round sampling, dropout/stragglers, IID vs Dirichlet non-IID)
  and lowers to the PR-1 :class:`~repro.fl.FederationConfig`.
- :class:`SweepRunner` enumerates the cell grid, runs each cell through
  :class:`~repro.fl.DishonestServer` with ``target_client_id=None`` (every
  arriving update is inverted — the multi-victim regime), and scores all
  reconstructions with the vectorized pairwise-PSNR matcher.

Results persist in a :class:`~repro.experiments.store.SweepStore`, and
:meth:`SweepRunner.run` goes through
:func:`~repro.experiments.executors.run_tasks`, the cached-execution path
the per-figure harnesses (``attack_sweep``, ``defense_eval``) share:
stored cells are served, the rest run serially or on work-stealing
worker processes, and a killed parallel run's shards are recovered
before anything is computed.

Determinism is the load-bearing property: every cell's randomness derives
from :func:`repro.utils.rng.derive_seed` keyed by the cell's configuration
fingerprint (:meth:`SweepRunner.store_key`) — never by execution order — so
serial runs, parallel runs with any worker count, and resumed runs all
produce the identical ``store_key -> result`` mapping, and their persisted
stores are byte-identical.

A failed cell never kills the sweep: the failure is captured as a
structured ``{"error": {type, message, traceback}}`` result, reported in
:attr:`SweepOutcome.failed`, and deliberately *not* persisted, so the next
run retries it.

The expected headline shape (paper Fig. 5): for each scenario, the
(attack, no-defense) cell's mean PSNR strictly exceeds the (attack, MR)
cell's — reproduced by :func:`headline_ordering_holds`.

Both grid axes resolve through pluggable registries.  The attack axis
(:mod:`repro.attacks.registry`): any registered name works, the cell's
global model follows the attack's declared family (imprint vs linear),
and aggregate-reconstructing attacks (LOKI) ride the dishonest server's
per-client crafting hooks transparently.  The defense axis
(:mod:`repro.defense.registry`): arms are spec strings — ``"WO"``, OASIS
suite names, gradient-space baselines (``"dpsgd"``, ``"prune"``, ...),
knobbed variants (``"dpsgd(noise_multiplier=0.5)"``), and composed
stacks (``"MR>dpsgd"``) that chain through a
:class:`~repro.defense.DefensePipeline`.  Stochastic defense stages (DP
noise, transform-replace) draw from generators derived from the cell's
configuration fingerprint, so defended cells keep the byte-identity
guarantee.

Run a sweep from the command line::

    PYTHONPATH=src python -m repro.experiments.sweep \
        --grid smoke --workers 4 --store sweep.json
    # the whole attack zoo:
    PYTHONPATH=src python -m repro.experiments.sweep \
        --grid smoke --attacks rtf,cah,linear,qbi,loki --workers 2
    # a defense stack lineup (quote the '>' from the shell):
    PYTHONPATH=src python -m repro.experiments.sweep \
        --grid smoke --attacks rtf,cah,qbi \
        --defenses 'WO,MR,MR+SH,dpsgd,prune,MR>dpsgd' --workers 2
    # interrupted? finish the remaining cells:
    PYTHONPATH=src python -m repro.experiments.sweep \
        --grid smoke --workers 4 --store sweep.json --resume
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.data.synthetic import (
    SyntheticImageDataset,
    make_synthetic_dataset,
    synthetic_cifar100,
)
from repro.attacks.registry import (
    ATTACKS,
    UnknownAttackError,
    make_attack,
    make_global_model,
)
from repro.defense.registry import (
    DEFENSES,
    make_defense,
    split_spec_list,
    validate_defense_spec,
)
from repro.experiments.executors import (
    CellEvent,
    ProgressCallback,
    is_failure,
    make_executor,
    run_tasks,
    worker_shared,
)
from repro.experiments.reporting import format_table
from repro.experiments.store import SweepStore, dataset_fingerprint
from repro.fl.simulator import FederatedSimulation, FederationConfig
from repro.metrics.psnr import match_reconstructions
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class ParticipationScenario:
    """One federation shape a sweep cell runs under.

    The PR-1 rate-based knobs are joined by the event-engine axis:
    ``arrivals`` names an arrival process (``""`` keeps the legacy
    rate-driven compat process), ``round_duration_s`` switches the round
    to a time cutoff (with ``min_arrivals`` as the grace floor), and
    ``fleet_size`` registers the federation as a lazy fleet instead of
    eagerly partitioning ``num_clients`` shards.  All four default to the
    values :func:`scenario_to_dict` elides, so legacy scenarios keep
    their exact store fingerprints (and therefore their cell seeds and
    golden values).
    """

    name: str
    num_clients: int = 2
    clients_per_round: Optional[int] = None
    dropout_rate: float = 0.0
    straggler_rate: float = 0.0
    accept_stale: bool = False
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    aggregator: str = "fedavg"
    weight_by_examples: bool = False
    arrivals: str = ""
    round_duration_s: float = 0.0
    min_arrivals: int = 0
    fleet_size: int = 0

    def to_config(self, batch_size: int, seed: int) -> FederationConfig:
        """Lower this scenario to a :class:`~repro.fl.FederationConfig`."""
        return FederationConfig(
            num_clients=self.num_clients,
            clients_per_round=self.clients_per_round,
            batch_size=batch_size,
            seed=seed,
            partition=self.partition,
            dirichlet_alpha=self.dirichlet_alpha,
            dropout_rate=self.dropout_rate,
            straggler_rate=self.straggler_rate,
            accept_stale=self.accept_stale,
            aggregator=self.aggregator,
            weight_by_examples=self.weight_by_examples,
            arrivals=self.arrivals or None,
            round_duration_s=self.round_duration_s,
            min_arrivals=self.min_arrivals,
            fleet_size=self.fleet_size,
        )


# The sweep's default scenario lineup: full participation, per-round
# sampling, client dropout, and Dirichlet label skew — the participation
# regimes PR 1's federation engine simulates.
DEFAULT_SCENARIOS: tuple[ParticipationScenario, ...] = (
    ParticipationScenario("full", num_clients=2),
    ParticipationScenario("sampled", num_clients=4, clients_per_round=2),
    ParticipationScenario("dropout", num_clients=4, dropout_rate=0.25),
    ParticipationScenario(
        "noniid", num_clients=4, partition="dirichlet", dirichlet_alpha=0.3
    ),
)

# The secure-aggregation scenario axis: the aggregation rule (plain
# masked-sum vs the two real SecAgg protocol rounds) crossed with the
# commit-then-drop regime those protocols exist to survive.  Under the
# protocol arms the dishonest server never sees individual updates, so
# per-update inversion attacks collapse to zero reconstructions while
# aggregate-reconstructing attacks (LOKI) keep their hook — the sweep
# quantifies exactly that separation.  A dropout draw that leaves fewer
# survivors than the t = n//2 + 1 threshold aborts the round gracefully
# (recorded in ``RoundRecord.secagg``) rather than failing the cell.
SECAGG_SCENARIOS: tuple[ParticipationScenario, ...] = (
    ParticipationScenario("plain", num_clients=6, aggregator="masked_sum"),
    ParticipationScenario(
        "plain-drop", num_clients=6, dropout_rate=0.25, aggregator="masked_sum"
    ),
    ParticipationScenario("secagg", num_clients=6, aggregator="secagg"),
    ParticipationScenario(
        "secagg-drop", num_clients=6, dropout_rate=0.25, aggregator="secagg"
    ),
    ParticipationScenario(
        "oneshot", num_clients=6, aggregator="secagg_oneshot"
    ),
    ParticipationScenario(
        "oneshot-drop",
        num_clients=6,
        dropout_rate=0.25,
        aggregator="secagg_oneshot",
    ),
)

# The event-engine scenario axis: rounds close on the virtual clock, so
# stragglers are whoever's completion tick lands past the deadline — no
# rate knobs anywhere.  ``uniform-time`` is the minimal timed federation;
# the tiered arms run heterogeneous hardware traces (budget/IoT devices
# straggle structurally), with ``tiered-stale`` additionally folding late
# arrivals into the next round and ``fleet-lazy`` sampling its cohort
# from a lazily-materialized registry several times larger than any
# round's cohort.
FLEET_SCENARIOS: tuple[ParticipationScenario, ...] = (
    ParticipationScenario(
        "uniform-time",
        num_clients=8,
        clients_per_round=4,
        arrivals="uniform",
        round_duration_s=0.6,
        min_arrivals=1,
    ),
    ParticipationScenario(
        "tiered-time",
        num_clients=8,
        clients_per_round=4,
        arrivals="tiered",
        round_duration_s=0.5,
        min_arrivals=1,
    ),
    ParticipationScenario(
        "tiered-stale",
        num_clients=8,
        clients_per_round=4,
        accept_stale=True,
        arrivals="tiered",
        round_duration_s=0.5,
        min_arrivals=1,
    ),
    ParticipationScenario(
        "fleet-lazy",
        clients_per_round=6,
        arrivals="tiered",
        round_duration_s=1.0,
        min_arrivals=1,
        fleet_size=64,
    ),
)

# Named scenario axes the CLI can swap in wholesale (--scenario-axis).
SCENARIO_AXES: dict[str, tuple[ParticipationScenario, ...]] = {
    "default": DEFAULT_SCENARIOS,
    "secagg": SECAGG_SCENARIOS,
    "fleet": FLEET_SCENARIOS,
}

# The defense arms of the paper's figures: no defense plus every named
# transformation suite (Fig. 5 singles and the Fig. 6 MR+SH integration).
# Any registered defense spec (see repro.defense.registry) can extend the
# axis — gradient-space baselines ("dpsgd", "prune") and composed stacks
# ("MR>dpsgd") included.
DEFAULT_DEFENSES: tuple[str, ...] = (
    "WO", "MR", "mR", "SH", "HFlip", "VFlip", "MR+SH",
)

# The defense-zoo lineup of the smoke/CI grids: one OASIS suite, the
# integration suite, both gradient-space baselines, and the composed
# OASIS+DP stack the paper's Sec. V composition argument is about.
ZOO_DEFENSES: tuple[str, ...] = (
    "WO", "MR", "MR+SH", "dpsgd", "prune", "MR>dpsgd",
)


@dataclass(frozen=True)
class SweepCell:
    """One (attack, defense, scenario) coordinate of the grid."""

    attack: str
    defense: str
    scenario: str

    @property
    def key(self) -> str:
        """Stable store key for this cell."""
        return f"{self.attack}|{self.defense}|{self.scenario}"



@dataclass
class SweepOutcome:
    """Everything one :meth:`SweepRunner.run` call produced.

    ``results`` maps cell keys to per-cell metric dicts; ``computed``,
    ``cached``, and ``failed`` split the grid into cells evaluated this
    run, served from the store, and recorded as structured errors.
    ``timings`` holds per-cell wall-clock seconds for cells executed this
    run (cached cells cost nothing and have no entry).
    """

    results: dict[str, dict] = field(default_factory=dict)
    computed: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def mean_psnr(self, attack: str, defense: str, scenario: str) -> float:
        """The headline metric of one cell.

        Raises :class:`KeyError` for a cell the outcome does not contain
        and :class:`ValueError` for a cell that failed — both name the
        cell, so a typo'd lookup never reads like a real number.
        """
        key = SweepCell(attack, defense, scenario).key
        if key not in self.results:
            raise KeyError(
                f"no result for cell {key!r}; present: {sorted(self.results)}"
            )
        result = self.results[key]
        if is_failure(result):
            raise ValueError(
                f"cell {key!r} failed ({result['error']['type']}: "
                f"{result['error']['message']}); it has no mean_psnr"
            )
        return float(result["mean_psnr"])

    def to_table(self) -> str:
        """Render the grid: one row per (attack, scenario), suites as columns.

        Failed cells render as ``ERR`` so a partially-broken sweep is
        visible at a glance instead of hiding behind a dash.
        """
        defenses: list[str] = []
        for result in self.results.values():
            if result["defense"] not in defenses:
                defenses.append(result["defense"])
        pairs = []
        for result in self.results.values():
            pair = (result["attack"], result["scenario"])
            if pair not in pairs:
                pairs.append(pair)
        rows = []
        for attack, scenario in pairs:
            row = [f"{attack}/{scenario}"]
            for defense in defenses:
                cell = self.results.get(SweepCell(attack, defense, scenario).key)
                if cell is None:
                    row.append("-")
                elif is_failure(cell):
                    row.append("ERR")
                else:
                    row.append(f"{cell['mean_psnr']:.1f}")
            rows.append(row)
        return format_table(["attack/scenario"] + list(defenses), rows)


def _sweep_cell_task(cell: SweepCell) -> dict:
    """Picklable pool entry: run one cell of the shared runner spec.

    The spec (including the dataset) arrives through :func:`worker_shared`
    — shipped once per worker by the executor, not once per task.  The
    runner rebuilt from it is kept in the same per-run dict, so a worker
    serving many cells pays the rebuild (and the dataset fingerprint
    hash) once.
    """
    shared = worker_shared()
    if "runner" not in shared:
        shared["runner"] = SweepRunner(**shared["spec"])
    return shared["runner"].run_cell(cell)


class SweepRunner:
    """Enumerate and evaluate an attack x defense x scenario grid.

    Each cell builds a fresh federation for its scenario, lets the
    dishonest server invert *every* arriving update for ``rounds`` rounds,
    and scores all reconstructions against the emitting client's private
    batch with the vectorized matcher.  Cell results are cached in a
    :class:`~repro.experiments.store.SweepStore` keyed by the cell
    coordinates plus a fingerprint of the full configuration (see
    :meth:`store_key`), making long sweeps resumable without ever serving
    results from a different setup.

    Parameters
    ----------
    dataset:
        The private dataset; partitioned per scenario.
    attacks / defenses / scenarios:
        The grid axes.  Attacks are registered attack names; defenses are
        registry spec strings — ``"WO"``, suite names, baselines, knobbed
        variants, or composed stacks like ``"MR>dpsgd"`` (see
        :mod:`repro.defense.registry`); scenarios are
        :class:`ParticipationScenario` entries with unique names.
    rounds:
        Federation rounds per cell; at least one.
    store:
        A :class:`~repro.experiments.store.SweepStore`, a path for one, or
        None for memory-only.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        attacks: Sequence[str] = ("rtf", "cah"),
        defenses: Sequence[str] = DEFAULT_DEFENSES,
        scenarios: Sequence[ParticipationScenario] = DEFAULT_SCENARIOS,
        batch_size: int = 4,
        num_neurons: int = 64,
        rounds: int = 1,
        public_size: int = 128,
        seed: int = 0,
        store: "SweepStore | str | Path | None" = None,
    ) -> None:
        if not attacks or not defenses or not scenarios:
            raise ValueError("every grid axis needs at least one entry")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        names = [scenario.name for scenario in scenarios]
        for axis_label, axis in (
            ("attacks", list(attacks)),
            ("defenses", list(defenses)),
            ("scenario names", names),
        ):
            if len(axis) != len(set(axis)):
                raise ValueError(f"duplicate {axis_label} in {axis}")
        for name in attacks:
            ATTACKS[name]  # fail fast on unknown attacks, not per cell
        for spec in defenses:
            validate_defense_spec(spec)  # likewise for the defense axis
        self.dataset = dataset
        self.attacks = tuple(attacks)
        self.defenses = tuple(defenses)
        self.scenarios = {scenario.name: scenario for scenario in scenarios}
        self.batch_size = batch_size
        self.num_neurons = num_neurons
        self.rounds = rounds
        self.public_size = public_size
        self.seed = seed
        self._dataset_fingerprint = dataset_fingerprint(dataset)
        if isinstance(store, SweepStore):
            self.store = store
        else:
            self.store = SweepStore(store)

    def spec(self) -> dict:
        """Constructor arguments (minus the store) for worker-side rebuilds.

        Everything here pickles: the dataset is plain arrays, scenarios are
        frozen dataclasses.  Workers get a memory-only store — persistence
        is the executor's job, through shards.
        """
        return {
            "dataset": self.dataset,
            "attacks": self.attacks,
            "defenses": self.defenses,
            "scenarios": tuple(self.scenarios.values()),
            "batch_size": self.batch_size,
            "num_neurons": self.num_neurons,
            "rounds": self.rounds,
            "public_size": self.public_size,
            "seed": self.seed,
        }

    def cells(self) -> list[SweepCell]:
        """The grid in deterministic attack-major order."""
        return [
            SweepCell(attack, defense, scenario)
            for attack in self.attacks
            for defense in self.defenses
            for scenario in self.scenarios
        ]

    def store_key(self, cell: SweepCell) -> str:
        """Store key for ``cell``, scoped to the full cell configuration.

        Beyond the grid coordinates, the key fingerprints everything that
        shapes the cell's result — the dataset's *content* (not just its
        name), batch size, neuron count, rounds, public-prior size, seed,
        and the scenario's *parameters* (a name alone would let a
        renamed-but-different scenario, or a regenerated dataset under the
        same name, silently serve stale numbers from a reused store file).
        The ``seeding`` marker versions the RNG-derivation scheme itself:
        cells computed under an older scheme (e.g. pre-fingerprint-keyed
        stores) miss and recompute rather than mixing two seed regimes in
        one grid.
        """
        scenario = self.scenarios[cell.scenario]
        fingerprint = hashlib.sha256(
            json.dumps(
                {
                    "dataset": self._dataset_fingerprint,
                    "batch_size": self.batch_size,
                    "num_neurons": self.num_neurons,
                    "rounds": self.rounds,
                    "public_size": self.public_size,
                    "seed": self.seed,
                    "seeding": "cell-fingerprint-v1",
                    "scenario": scenario_to_dict(scenario),
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()[:12]
        return f"{cell.key}|{fingerprint}"

    def cell_seed(self, cell: SweepCell) -> int:
        """Deterministic seed for one cell, keyed by its fingerprint.

        Derived from the base seed and :meth:`store_key` — never from
        enumeration position or worker assignment — so a cell draws the
        same random streams no matter which executor runs it, in what
        order, or on how many workers.  This is what makes serial and
        parallel stores byte-identical and resume safe across executors.
        """
        return derive_seed(self.seed, self.store_key(cell))

    def run_cell(self, cell: SweepCell) -> dict:
        """Evaluate one cell through the full dishonest-server protocol."""
        scenario = self.scenarios[cell.scenario]
        seed = self.cell_seed(cell)
        attack = make_attack(
            cell.attack,
            self.num_neurons,
            self.dataset.images[: self.public_size],
            seed=seed,
        )
        # The cell-fingerprint seed also keys the defense's private
        # streams (DP noise, transform choices), so stochastic arms stay
        # order/worker-invariant like everything else in the cell.
        defense = make_defense(cell.defense, seed=seed)
        simulation = FederatedSimulation(
            self.dataset,
            lambda: make_global_model(
                cell.attack, self.dataset, self.num_neurons, seed + 1
            ),
            scenario.to_config(self.batch_size, seed),
            defense=defense,
            attack=attack,
            target_client_id=None,
        )
        server = simulation.server
        # Reconstruction scoring needs the victim's actual batch; fetch
        # through the fleet so only dispatched clients ever materialize
        # (the fleet contract pins client_id == registry id).
        fleet = server.fleet
        psnrs: list[float] = []
        num_reconstructions = 0
        for _ in range(self.rounds):
            record = server.run_round()
            for client_id, result in server.round_reconstructions(
                record.round_index
            ):
                num_reconstructions += len(result)
                if len(result) == 0:
                    continue
                originals = fleet.get(client_id).last_batch[0]
                psnrs.extend(
                    score
                    for _, score in match_reconstructions(
                        originals, result.images
                    )
                )
        return {
            "attack": cell.attack,
            "defense": cell.defense,
            "scenario": cell.scenario,
            "mean_psnr": float(np.mean(psnrs)) if psnrs else 0.0,
            "max_psnr": float(np.max(psnrs)) if psnrs else 0.0,
            "num_reconstructions": num_reconstructions,
            "num_scored": len(psnrs),
            "rounds": self.rounds,
        }

    def run(
        self,
        executor=None,
        progress: Optional[ProgressCallback] = None,
    ) -> SweepOutcome:
        """Evaluate the whole grid, serving finished cells from the store.

        The cells go through :func:`~repro.experiments.executors.run_tasks`
        (serial in-process when ``executor`` is None), and the outcome
        lists them in grid order.  Successes are persisted; failures are
        reported but never persisted, so they retry on the next run.
        """
        grid = self.cells()
        keys = [self.store_key(cell) for cell in grid]
        executions = run_tasks(
            [(key, _sweep_cell_task, cell) for key, cell in zip(keys, grid)],
            self.store,
            executor,
            progress,
            shared={"spec": self.spec()},
        )
        outcome = SweepOutcome()
        for cell, key in zip(grid, keys):
            execution = executions[key]
            result = execution.result
            if execution.cached:
                outcome.cached.append(cell.key)
            elif is_failure(result):
                result = {
                    "attack": cell.attack,
                    "defense": cell.defense,
                    "scenario": cell.scenario,
                    **result,
                }
                outcome.failed.append(cell.key)
            else:
                outcome.computed.append(cell.key)
            if not execution.cached:
                outcome.timings[cell.key] = execution.elapsed_s
            outcome.results[cell.key] = result
        return outcome


def headline_ordering_holds(
    outcome: SweepOutcome,
    attack: str = "rtf",
    undefended: str = "WO",
    defended: str = "MR",
) -> bool:
    """Paper Fig. 5 shape: no-defense PSNR beats the defended cell everywhere.

    Checks every scenario present for ``attack``; vacuously False when the
    outcome contains no such pair.  Failed cells carry no PSNR and are
    skipped, like absent cells.
    """
    scenarios = {
        result["scenario"]
        for result in outcome.results.values()
        if not is_failure(result) and result["attack"] == attack
    }
    checked = False
    for scenario in sorted(scenarios):
        baseline = outcome.results.get(SweepCell(attack, undefended, scenario).key)
        defended_cell = outcome.results.get(
            SweepCell(attack, defended, scenario).key
        )
        if baseline is None or defended_cell is None:
            continue
        if is_failure(baseline) or is_failure(defended_cell):
            continue
        checked = True
        if baseline["mean_psnr"] <= defended_cell["mean_psnr"]:
            return False
    return checked


# The scenario fields that existed before the event engine.  These are
# always serialized; every later field is elided while it holds its
# default.  The cell seed derives from the store-key fingerprint, which
# hashes this payload — emitting a new field's default for an old
# scenario would silently re-seed (and thus invalidate) every golden
# value in every existing store.
_LEGACY_SCENARIO_FIELDS = frozenset({
    "name", "num_clients", "clients_per_round", "dropout_rate",
    "straggler_rate", "accept_stale", "partition", "dirichlet_alpha",
    "aggregator", "weight_by_examples",
})
_SCENARIO_DEFAULTS = {
    field.name: field.default for field in fields(ParticipationScenario)
}


def scenario_from_dict(payload: dict) -> ParticipationScenario:
    """Rebuild a :class:`ParticipationScenario` from its serialized payload.

    Fields absent from ``payload`` (elided defaults, or payloads written
    before the field existed) take their dataclass defaults.
    """
    return ParticipationScenario(**payload)


def scenario_to_dict(scenario: ParticipationScenario) -> dict:
    """JSON-serializable form of a scenario (inverse of
    :func:`scenario_from_dict`).

    Pre-engine fields are always present; event-engine fields appear only
    when they differ from their defaults, so legacy scenarios fingerprint
    (and therefore seed) exactly as they did before the engine existed.
    """
    return {
        key: value
        for key, value in asdict(scenario).items()
        if key in _LEGACY_SCENARIO_FIELDS or value != _SCENARIO_DEFAULTS[key]
    }


# --------------------------------------------------------------------------
# CLI: python -m repro.experiments.sweep --grid smoke --workers 4 --resume
# --------------------------------------------------------------------------


# The preset grids: how each builds its dataset, then its default axes
# and sizes.  smoke is the 2-cell sanity grid (seconds), default the
# 8-cell working grid, acceptance the 24-cell grid on the CIFAR100
# stand-in (minutes).
_PRESETS: dict[str, tuple[Callable[[], SyntheticImageDataset], dict]] = {
    "smoke": (
        partial(make_synthetic_dataset, 4, 12, image_size=8, seed=3,
                name="smoke-grid"),
        dict(attacks=("rtf",), defenses=("WO", "MR"),
             scenarios=(ParticipationScenario("full", num_clients=2),),
             batch_size=3, num_neurons=48, public_size=48),
    ),
    "default": (
        partial(make_synthetic_dataset, 6, 16, image_size=16, seed=5,
                name="default-grid"),
        dict(attacks=("rtf",), defenses=("WO", "MR", "SH", "MR+SH"),
             scenarios=DEFAULT_SCENARIOS[:2],
             batch_size=4, num_neurons=64, public_size=64),
    ),
    "acceptance": (
        partial(synthetic_cifar100, samples_per_class=2, seed=2002),
        dict(attacks=("rtf", "cah"), defenses=("WO", "MR", "SH", "MR+SH"),
             scenarios=DEFAULT_SCENARIOS[:3],
             batch_size=4, num_neurons=64, public_size=100),
    ),
}


def _preset_runner(
    name: str,
    seed: int,
    rounds: int,
    store,
    attacks: Optional[Sequence[str]] = None,
    defenses: Optional[Sequence[str]] = None,
    scenarios: Optional[Sequence[ParticipationScenario]] = None,
) -> SweepRunner:
    """Preset ``name``'s runner; each given axis replaces the preset's."""
    make_dataset, defaults = _PRESETS[name]
    return SweepRunner(
        make_dataset(),
        **{
            **defaults,
            "attacks": attacks or defaults["attacks"],
            "defenses": defenses or defaults["defenses"],
            "scenarios": scenarios or defaults["scenarios"],
        },
        rounds=rounds,
        seed=seed,
        store=store,
    )


GRID_PRESETS: dict[str, Callable[..., SweepRunner]] = {
    name: partial(_preset_runner, name) for name in _PRESETS
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry: run a preset grid with ``--workers``/``--resume``/``--grid``.

    Refuses to reuse an existing store without ``--resume`` (stale results
    must be opted into), prints per-cell progress and the final grid
    table, and exits non-zero when any cell failed.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description=(
            "Run an attack x defense x scenario sweep grid, optionally "
            "fanned out over worker processes, with a resumable store."
        ),
    )
    parser.add_argument(
        "--grid",
        choices=sorted(GRID_PRESETS),
        default="smoke",
        help="which preset grid to run (default: smoke)",
    )
    parser.add_argument(
        "--workers",
        default="1",
        help=(
            "worker processes: an integer, or 'auto' for every usable "
            "core; requests beyond the usable cores are reduced with a "
            "warning, and 1 effective worker runs serially in-process "
            "(default: 1)"
        ),
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="result store path (default: sweep_<grid>.json)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse an existing store file, computing only missing cells; "
            "without this flag an existing store is an error, so stale "
            "results are never mixed in silently"
        ),
    )
    parser.add_argument(
        "--attacks",
        default=None,
        help=(
            "comma-separated attack names overriding the preset's attack "
            f"axis; registered: {', '.join(ATTACKS.names())}"
        ),
    )
    parser.add_argument(
        "--defenses",
        default=None,
        help=(
            "comma-separated defense specs overriding the preset's defense "
            "axis; arms are registry spec strings, including knobbed "
            "variants like dpsgd(noise_multiplier=0.5) and composed stacks "
            "like MR>dpsgd (quote '>' from the shell); registered: "
            f"{', '.join(DEFENSES.names())}"
        ),
    )
    parser.add_argument(
        "--scenario-axis",
        choices=sorted(SCENARIO_AXES),
        default=None,
        help=(
            "replace the preset's participation-scenario axis with a named "
            "axis: 'secagg' crosses the aggregation rule (plain masked_sum "
            "vs the SecAgg protocol rounds) with the commit-then-drop "
            "dropout regime"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--rounds", type=int, default=1, help="federation rounds per cell"
    )
    args = parser.parse_args(argv)

    if args.workers == "auto":
        requested_workers: "int | None" = None
    else:
        try:
            requested_workers = int(args.workers)
        except ValueError:
            parser.error("--workers must be an integer or 'auto'")
    try:
        executor = make_executor(requested_workers)
    except ValueError as error:
        parser.error(f"--workers: {error}")

    attacks: Optional[tuple[str, ...]] = None
    if args.attacks is not None:
        attacks = tuple(
            name.strip() for name in args.attacks.split(",") if name.strip()
        )
        if not attacks:
            parser.error("--attacks must name at least one attack")
        if len(set(attacks)) != len(attacks):
            parser.error(f"--attacks lists a name twice: {', '.join(attacks)}")
        for name in attacks:
            try:
                ATTACKS[name]
            except UnknownAttackError as error:
                parser.error(str(error))

    defenses: Optional[tuple[str, ...]] = None
    if args.defenses is not None:
        try:
            defenses = tuple(split_spec_list(args.defenses))
        except ValueError as error:
            parser.error(str(error))
        if not defenses:
            parser.error("--defenses must name at least one defense")
        if len(set(defenses)) != len(defenses):
            parser.error(
                f"--defenses lists a spec twice: {', '.join(defenses)}"
            )
        for spec in defenses:
            try:
                validate_defense_spec(spec)
            except ValueError as error:
                parser.error(str(error))

    store_path = args.store or Path(f"sweep_{args.grid}.json")
    shard_dir = SweepStore.shard_directory_for(store_path)
    if (store_path.exists() or shard_dir.is_dir()) and not args.resume:
        existing = store_path if store_path.exists() else shard_dir
        parser.error(
            f"{existing} already exists (a finished store or shards from a "
            "killed parallel run); pass --resume to finish that sweep with "
            "it, or point --store elsewhere"
        )
    try:
        runner = GRID_PRESETS[args.grid](
            seed=args.seed,
            rounds=args.rounds,
            store=store_path,
            attacks=attacks,
            defenses=defenses,
            scenarios=(
                SCENARIO_AXES[args.scenario_axis]
                if args.scenario_axis is not None
                else None
            ),
        )
    except ValueError as error:
        parser.error(str(error))

    def report(event: CellEvent) -> None:
        if event.status == "cached":
            print(f"[store {event.completed}/{event.total}] {event.key} cached")
        elif event.status == "failed":
            print(
                f"[run {event.completed}/{event.total}] {event.key} FAILED "
                f"({event.error['type']}: {event.error['message']})"
            )
        else:
            print(
                f"[run {event.completed}/{event.total}] {event.key} "
                f"done in {event.elapsed_s:.2f}s"
            )

    outcome = runner.run(executor, progress=report)
    print()
    print(outcome.to_table())
    print(
        f"\n{len(outcome.computed)} computed, {len(outcome.cached)} cached, "
        f"{len(outcome.failed)} failed -> {store_path}"
    )
    if headline_ordering_holds(outcome):
        print("headline ordering holds: WO mean PSNR > MR in every scenario")
    for key in outcome.failed:
        error = outcome.results[key]["error"]
        print(f"FAILED {key}: {error['type']}: {error['message']}")
    return 1 if outcome.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
