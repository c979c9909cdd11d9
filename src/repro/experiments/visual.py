"""Figures 7-12: visual reconstruction galleries.

These experiments confirm the paper's qualitative claim: with OASIS in
place, the attack reconstructs a *linear combination* of an image and its
transformed counterparts — an overlapped, unrecognizable composite — while
without OASIS the reconstruction is the verbatim image.

The gallery pairs each original with the reconstruction that matches it
best; ``render_pairs`` emits terminal-friendly ASCII so the overlap is
inspectable without an image viewer, and arrays can be saved as .npy.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.data.synthetic import SyntheticImageDataset
from repro.defense.registry import make_defense
from repro.experiments.reporting import render_ascii_image, side_by_side
from repro.experiments.runner import run_attack_trial
from repro.metrics.psnr import pairwise_psnr
from repro.utils.checkpoint import atomic_write_bytes


@dataclass
class Gallery:
    """Matched (original, reconstruction, psnr) triples for one setting."""

    attack: str
    defense: str
    originals: np.ndarray
    reconstructions: np.ndarray
    psnrs: list[float]

    def save(self, directory: str | Path) -> None:
        """Persist both arrays crash-safely (atomic temp-file + replace).

        A plain ``np.save`` straight to the target path leaves a torn,
        unloadable ``.npy`` when the process dies mid-write; galleries are
        artifacts other tooling loads later, so they get the same atomic
        contract as every other persisted file in the repo.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        tag = f"{self.attack}_{self.defense}".replace("+", "_")
        for name, array in (
            ("originals", self.originals),
            ("reconstructions", self.reconstructions),
        ):
            buffer = io.BytesIO()
            np.save(buffer, array)  # repro-lint: disable=no-raw-write -- serializes into an in-memory buffer; the file write below is atomic
            atomic_write_bytes(directory / f"{tag}_{name}.npy", buffer.getvalue())


def reconstruction_gallery(
    dataset: SyntheticImageDataset,
    attack_name: str,
    defense: Optional[str],
    batch_size: int,
    num_neurons: int,
    seed: int = 0,
    max_pairs: int = 4,
) -> Gallery:
    """Run one attack trial and pair originals with their best reconstructions.

    ``defense`` None reproduces the without-OASIS panel; a defense spec
    ("MR", "mR", "SH", "HFlip", "VFlip", "MR+SH" for the paper's panels, or
    any registered spec such as "dpsgd" or "MR>prune") reproduces the
    defended panel.  The round is one
    :func:`~repro.experiments.runner.run_attack_trial` with the defense
    seeded by ``seed``, so each pair's PSNR is that trial's best
    per-original PSNR.
    """
    trial = run_attack_trial(
        dataset,
        attack_name,
        batch_size,
        num_neurons,
        defense=make_defense(defense or "WO", seed=seed),
        seed=seed,
    )
    scores = pairwise_psnr(trial.originals, trial.reconstructions)
    pairs = np.arange(min(max_pairs, len(trial.originals)) if len(scores) else 0)
    best = np.argmax(scores[:, pairs], axis=0) if len(pairs) else pairs
    return Gallery(
        attack=attack_name,
        defense=trial.defense,
        originals=trial.originals[pairs],
        reconstructions=trial.reconstructions[best],
        psnrs=[float(score) for score in scores[best, pairs]],
    )


def render_pairs(gallery: Gallery, width: int = 28, max_pairs: int = 2) -> str:
    """ASCII rendering: original (left) vs reconstruction (right)."""
    blocks = []
    for i in range(min(max_pairs, len(gallery.originals))):
        left = render_ascii_image(gallery.originals[i], width=width)
        right = render_ascii_image(gallery.reconstructions[i], width=width)
        header = (
            f"[{gallery.attack} | defense={gallery.defense}] "
            f"original vs reconstruction  (PSNR {gallery.psnrs[i]:.1f} dB)"
        )
        blocks.append(header + "\n" + side_by_side(left, right))
    return "\n\n".join(blocks)
