"""The benchmark's four workloads, each driven through public APIs only.

A workload's constructor is its set-up: it builds the inputs from the
workload seed and warms the code paths a repetition uses.  ``rep(index)``
runs one repetition from fresh program objects and returns a :class:`Rep`.
Every repetition of one workload object does the same work on the same
inputs, so its ``fingerprint`` (store bytes or final-model digest) and its
exact counters must repeat; the runner checks that across repetitions.
Why each workload exists is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.data import make_synthetic_dataset
from repro.experiments.sweep import (
    DEFAULT_SCENARIOS,
    GRID_PRESETS,
    ParticipationScenario,
    SweepStore,
    headline_ordering_holds,
)
from repro.fl import FederatedSimulation, FederationConfig
from repro.nn import MLP

ATTACKS = ("rtf", "cah", "qbi", "loki", "linear")
DEFENSES = ("WO", "MR", "SH", "MR+SH")


@dataclass
class Rep:
    """What one repetition did and whether its outputs were right."""

    wall_s: float
    latencies_s: list  # one entry per unit of work (cell, round or pass)
    units: int  # work done, in the workload's throughput unit
    failed_units: int
    fingerprint: str  # must be identical across repetitions
    checks: dict = field(default_factory=dict)  # check name -> passed
    counts: dict = field(default_factory=dict)  # exact counts from outputs


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _model_digest(model) -> str:
    digest = hashlib.sha256()
    for name, parameter in model.named_parameters():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


class SweepZoo:
    """The paper's grid: every attack x OASIS suite x scenario, on disk."""

    name = "sweep-zoo"
    unit = "cells"
    latency_of = "cell"
    rounds = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        # Warm every attack's code path once (lazy imports, kernel caches).
        GRID_PRESETS["acceptance"](
            seed,
            1,
            None,
            attacks=ATTACKS,
            defenses=("MR+SH",),
            scenarios=DEFAULT_SCENARIOS[:1],
        ).run()

    def rep(self, index: int) -> Rep:
        path = self.workdir / f"zoo-{index}.log"
        stamps: list = []
        start = perf_counter()
        runner = GRID_PRESETS["acceptance"](
            self.seed,
            self.rounds,
            path,
            attacks=ATTACKS,
            defenses=DEFENSES,
            scenarios=DEFAULT_SCENARIOS[:3],
        )
        outcome = runner.run(progress=lambda event: stamps.append(perf_counter()))
        runner.store.close()
        wall = perf_counter() - start
        fingerprint = _file_digest(path)
        store_bytes = path.stat().st_size
        path.unlink()
        results = [
            result
            for key, result in outcome.results.items()
            if key not in outcome.failed
        ]
        return Rep(
            wall_s=wall,
            latencies_s=list(np.diff([start, *stamps])),
            units=len(outcome.results),
            failed_units=len(outcome.failed),
            fingerprint=fingerprint,
            checks={"headline_ordering": headline_ordering_holds(outcome)},
            counts={
                "attacks.reconstructions": sum(
                    r["num_reconstructions"] for r in results
                ),
                "metrics.scored": sum(r["num_scored"] for r in results),
                "sweep.cells_computed": len(outcome.computed),
                "sweep.store_bytes": store_bytes,
            },
        )

    def close(self) -> None:
        pass


class _Federation:
    """Shared driver for the honest fleet federations: fresh each repetition."""

    unit = "rounds"
    latency_of = "round"
    rounds = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dataset = make_synthetic_dataset(
            10, 40, image_size=8, seed=seed, name=self.name
        )
        self.config = self.make_config(seed)
        # Warm the client, arrival and aggregation paths on a small cohort.
        warm = replace(self.config, clients_per_round=20, min_arrivals=11)
        FederatedSimulation(self.dataset, self.model_factory, warm).run(1)

    def model_factory(self):
        return MLP(
            [self.dataset.flat_dim, 16, self.dataset.num_classes],
            rng=np.random.default_rng(self.seed),
        )

    def rep(self, index: int) -> Rep:
        start = perf_counter()
        simulation = FederatedSimulation(
            self.dataset, self.model_factory, self.config
        )
        self.before_rounds(simulation)
        latencies = []
        failed = 0
        participants = 0
        for _ in range(self.rounds):
            round_start = perf_counter()
            record = simulation.server.run_round()
            latencies.append(perf_counter() - round_start)
            participants += len(record.participant_ids)
            if not self.round_ok(simulation, record):
                failed += 1
        wall = perf_counter() - start
        checks = self.after_rounds(simulation)
        return Rep(
            wall_s=wall,
            latencies_s=latencies,
            units=self.rounds,
            failed_units=failed,
            fingerprint=_model_digest(simulation.server.model),
            checks=checks,
            counts={
                "fl.fleet.materialized": simulation.fleet.materialized_count,
                "fl.engine.fresh": participants,
            },
        )

    def before_rounds(self, simulation) -> None:
        pass

    def round_ok(self, simulation, record) -> bool:
        return len(record.participant_ids) >= self.config.min_arrivals

    def after_rounds(self, simulation) -> dict:
        return {}

    def close(self) -> None:
        pass


class FleetMLP(_Federation):
    """A 100k-user lazy fleet, 1,000 real MLP clients a round, FedAvg."""

    name = "fleet-mlp"
    active = 1000

    def make_config(self, seed: int) -> FederationConfig:
        return FederationConfig(
            fleet_size=100_000,
            clients_per_round=self.active,
            batch_size=4,
            arrivals="tiered",
            round_duration_s=2.0,
            min_arrivals=self.active // 10,
            seed=seed,
        )

    def after_rounds(self, simulation) -> dict:
        return {
            "materialized_within_dispatch": simulation.fleet.materialized_count
            <= self.rounds * self.active
        }


class SecAggDropout(_Federation):
    """100 committed clients of a 10k fleet under Bonawitz SecAgg with drops.

    Every round's recovered aggregate is compared bit for bit with the
    survivors' plaintext quantized mean, recomputed from the same round
    buffer with ``aggregator.exact_sum``.  The buffer is captured by an
    instance-level wrapper around ``aggregate_committed``; the comparison
    itself runs after the round's timer has stopped.
    """

    name = "secagg-dropout"
    committed = 100

    def make_config(self, seed: int) -> FederationConfig:
        return FederationConfig(
            fleet_size=10_000,
            clients_per_round=self.committed,
            batch_size=4,
            arrivals="tiered",
            round_duration_s=0.8,
            # Hold the round open until the Shamir threshold can unmask.
            min_arrivals=self.committed // 2 + 1,
            aggregator="secagg",
            seed=seed,
        )

    def before_rounds(self, simulation) -> None:
        aggregator = simulation.server.aggregator
        protocol_round = aggregator.aggregate_committed

        def capturing(
            buffer, survivor_ids, committed_ids, round_index, weights=None
        ):
            self._last_round = (
                buffer.matrix.copy(),
                buffer.spec,
                len(survivor_ids),
                len(committed_ids),
            )
            return protocol_round(
                buffer, survivor_ids, committed_ids, round_index, weights
            )

        aggregator.aggregate_committed = capturing

    def round_ok(self, simulation, record) -> bool:
        if record.secagg is None or record.secagg.get("aborted"):
            return False
        matrix, spec, survivors, committed = self._last_round
        expected = simulation.server.aggregator.exact_sum(matrix, committed)
        expected /= survivors
        recovered = np.concatenate(
            [
                np.asarray(simulation.server.last_aggregate[name]).reshape(-1)
                for name, _, _ in spec
            ]
        )
        return (
            len(record.participant_ids) == survivors
            and recovered.shape == expected.shape
            and bool(np.all(recovered.view(np.uint64) == expected.view(np.uint64)))
        )


class SweepResume:
    """Reopen a ~20k-cell store and resume the grid with a few cells pending."""

    name = "sweep-resume"
    unit = "cells"
    latency_of = "pass"
    variants = 1000
    pending = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.scenarios = tuple(
            ParticipationScenario(
                f"v{i:04d}",
                num_clients=int(rng.integers(2, 4)),
                dropout_rate=float(rng.choice([0.0, 0.25])),
            )
            for i in range(self.variants)
        )
        runner = self._runner(None)
        cells = runner.cells()
        pending = set(rng.choice(len(cells), size=self.pending, replace=False))
        self.written = {}  # cell key -> the record set-up stored for it
        records = {}
        for index, cell in enumerate(cells):
            if index in pending:
                continue
            reconstructions = int(rng.integers(1, 9))
            self.written[cell.key] = records[runner.store_key(cell)] = {
                "attack": cell.attack,
                "defense": cell.defense,
                "scenario": cell.scenario,
                "mean_psnr": float(rng.uniform(8.0, 60.0)),
                "max_psnr": float(rng.uniform(60.0, 140.0)),
                "num_reconstructions": reconstructions,
                "num_scored": reconstructions,
                "rounds": 1,
            }
        self.base = workdir / "resume-base.log"
        store = SweepStore(self.base)
        store.update(records)
        store.compact()
        store.close()
        # Warm the pending cells' attack paths outside the timed passes.
        GRID_PRESETS["smoke"](seed, 1, None, attacks=ATTACKS, defenses=("WO",)).run()

    def _runner(self, store):
        return GRID_PRESETS["smoke"](
            self.seed,
            1,
            store,
            attacks=ATTACKS,
            defenses=DEFENSES,
            scenarios=self.scenarios,
        )

    def rep(self, index: int) -> Rep:
        path = self.workdir / f"resume-{index}.log"
        shutil.copyfile(self.base, path)
        start = perf_counter()
        runner = self._runner(SweepStore(path))
        outcome = runner.run()
        wall = perf_counter() - start
        runner.store.close()
        fingerprint = _file_digest(path)
        store_bytes = path.stat().st_size
        path.unlink()
        served_ok = all(
            outcome.results[key] == self.written[key] for key in outcome.cached
        )
        return Rep(
            wall_s=wall,
            latencies_s=[wall],
            units=len(outcome.results),
            failed_units=len(outcome.failed),
            fingerprint=fingerprint,
            checks={
                "served_equals_written": served_ok,
                "pending_computed": len(outcome.computed) == self.pending,
            },
            counts={
                "sweep.cells_cached": len(outcome.cached),
                "sweep.cells_computed": len(outcome.computed),
                "sweep.store_bytes": store_bytes,
            },
        )

    def close(self) -> None:
        self.base.unlink(missing_ok=True)


WORKLOADS = {
    workload.name: workload
    for workload in (SweepZoo, FleetMLP, SecAggDropout, SweepResume)
}
