"""Core experiment runner: one attack/defense evaluation trial.

Every figure in the paper's evaluation reduces to repetitions of the same
protocol: draw a client batch, build and craft the global model the attack
targets, let an honest client compute its (possibly defended) update,
invert it, and score the reconstructions by best-match PSNR.  This module
implements that protocol once, for every registered attack and defense, so
the per-figure harnesses stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attacks.registry import ATTACKS, make_attack, make_global_model
from repro.data.loaders import class_balanced_batch
from repro.data.synthetic import SyntheticImageDataset
from repro.defense.base import ClientDefense, NoDefense
from repro.defense.registry import make_defense
from repro.experiments.executors import worker_shared
from repro.fl.gradients import compute_defended_update
from repro.metrics.psnr import match_reconstructions, per_image_best_psnr
from repro.nn.losses import CrossEntropyLoss


@dataclass
class AttackTrialResult:
    """One attack trial: the client batch, what the attack recovered, scores."""

    attack: str
    defense: str
    batch_size: int
    num_neurons: int
    originals: np.ndarray
    reconstructions: np.ndarray
    # Per reconstruction: PSNR against its best-matching original.
    psnrs: list[float]
    # Per original: PSNR of its closest reconstruction.
    per_image_best: np.ndarray

    @property
    def num_reconstructions(self) -> int:
        return len(self.reconstructions)

    @property
    def average_psnr(self) -> float:
        if not self.psnrs:
            return 0.0
        return float(np.mean(self.psnrs))


def evaluate_attack_cell(payload: dict):
    """Picklable process-pool entry: evaluate one attack-configuration cell.

    The sweep executors (:mod:`repro.experiments.executors`) dispatch
    tasks as ``(store_key, fn, payload)`` triples to worker processes, so
    the work function must live at module level.  The cell runs
    ``num_trials`` trials of :func:`run_attack_trial`, trial ``t`` seeded
    ``seed + 31 * t`` with a fresh defense built from the ``defense``
    spec (default ``"WO"``) under that seed: stochastic arms (DP noise,
    transform-replace) must not thread one stream across trials, or a
    trial's score would depend on how many trials ran before it.  The
    trials reduce per figure shape:

    - ``mode="average"`` (Fig. 3/4 grids): the mean average-PSNR over the
      trials that reconstructed anything (0.0 if none did) — a float.
    - ``mode="distribution"`` (Fig. 5/6/13 lineups): the concatenated PSNR
      list across trials for one defense arm — ``list[float]``.

    The dataset may ride in the payload (``payload["dataset"]``) or, for
    pool runs, be shipped once per worker through the executor's shared
    object (``shared={"dataset": ...}``) instead of once per task.
    """
    mode = payload.get("mode", "average")
    if mode not in ("average", "distribution"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    dataset = payload.get("dataset")
    if dataset is None:
        dataset = worker_shared()["dataset"]
    trials = []
    for trial in range(payload["num_trials"]):
        trial_seed = payload["seed"] + 31 * trial
        trials.append(
            run_attack_trial(
                dataset,
                payload["attack"],
                payload["batch_size"],
                payload["num_neurons"],
                defense=make_defense(payload.get("defense", "WO"), seed=trial_seed),
                seed=trial_seed,
            )
        )
    if mode == "distribution":
        return [float(score) for trial in trials for score in trial.psnrs]
    averages = [trial.average_psnr for trial in trials if trial.num_reconstructions]
    return float(np.mean(averages)) if averages else 0.0


def run_attack_trial(
    dataset: SyntheticImageDataset,
    attack_name: str,
    batch_size: int,
    num_neurons: int,
    defense: Optional[ClientDefense] = None,
    seed: int = 0,
    public_size: int = 200,
) -> AttackTrialResult:
    """One full dishonest-server round against one client batch.

    The global model is the one the attack targets (see
    :func:`~repro.attacks.registry.make_global_model`), and so is the
    batch: imprint attacks see a uniform draw, the linear inversion a
    unique-label batch capped at the class count (paper Sec. IV-D).  The
    batch is drawn with a generator keyed ``(seed, batch_size,
    num_neurons)``, so trials are reproducible and independent.  The
    attacker calibrates on the first ``public_size`` dataset images (the
    standard public-prior assumption of RTF/CAH); the client applies
    every stage of ``defense`` (see
    :func:`~repro.fl.gradients.compute_defended_update`).
    """
    defense = defense if defense is not None else NoDefense()
    rng = np.random.default_rng((seed, batch_size, num_neurons))
    if ATTACKS[attack_name].model == "linear":
        images, labels = class_balanced_batch(
            dataset, min(batch_size, dataset.num_classes), rng, unique_labels=True
        )
    else:
        images, labels = dataset.sample_batch(min(batch_size, len(dataset)), rng)

    model = make_global_model(attack_name, dataset, num_neurons, seed + 1)
    attack = make_attack(
        attack_name, num_neurons, dataset.images[:public_size], seed=seed
    )
    attack.craft(model)

    gradients, _, _ = compute_defended_update(
        model, CrossEntropyLoss(), images, labels, defense, rng
    )
    reconstructions = attack.reconstruct(gradients).images
    return AttackTrialResult(
        attack=attack_name,
        defense=defense.name,
        batch_size=batch_size,
        num_neurons=num_neurons,
        originals=images,
        reconstructions=reconstructions,
        psnrs=[score for _, score in match_reconstructions(images, reconstructions)],
        per_image_best=per_image_best_psnr(images, reconstructions),
    )
