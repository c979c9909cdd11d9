"""Curious Abandon Honesty (CAH) — Boenisch et al., EuroS&P 2023.

The server fills the malicious layer with *trap weights*: independent random
directions whose biases are tuned so that each attacked neuron fires for
only a small fraction of inputs.  When a neuron is activated by exactly one
sample in the batch, the summed gradients of that neuron equal the sample's
own gradients and Eq. 6 inverts them verbatim:

    x_t = (dL/db_i)^(-1) * dL/dW_i

Because the trap directions are random, no single image transformation
aligns with them: a rotated copy of ``x`` has an essentially independent
projection, so (unlike RTF's mean-pixel bins) OASIS with one transform only
reduces *the probability* of sole activations.  Expanding the batch with
several transforms (the paper's MR+SH integration, Fig. 6) drives that
probability down — which is exactly the behaviour this implementation
reproduces.

The trap mechanics (random directions, quantile-placed biases, Eq. 6
inversion of fired neurons, degenerate-calibration guards) live in
:mod:`repro.attacks.traps` and are shared with the QBI and LOKI attacks;
CAH's distinguishing choice is a *fixed small* activation probability.
"""

from __future__ import annotations

from repro.attacks.traps import TrapImprintAttack


class CAHAttack(TrapImprintAttack):
    """Trap-weight imprint attack with tunable activation probability.

    Parameters
    ----------
    num_neurons:
        Number of attacked neurons ``n``.
    activation_probability:
        Target P(neuron fires | random input).  The CAH recipe fixes this
        at a small constant (default 0.02) so that at small batch sizes a
        firing trap usually caught a single sample (near-perfect
        reconstruction) while larger batches raise trap occupancy and
        degrade the attack — the Fig. 4 trend.
    pixel_mean / pixel_std:
        The server's prior on per-pixel statistics, used to place the bias
        at the right projection quantile.  Calibrate from public data with
        :meth:`calibrate_from_public_data`.
    seed:
        Seed for drawing the trap directions (the server chooses these).
    signal_tolerance:
        Bias-gradient magnitude below which a trap counts as dead.
    deduplicate:
        Collapse near-identical reconstructions (traps that caught the
        same sample) into one.
    """

    name = "cah"

    def __init__(
        self,
        num_neurons: int,
        activation_probability: float = 0.02,
        pixel_mean: float = 0.5,
        pixel_std: float = 0.25,
        seed: int = 0,
        signal_tolerance: float = 1e-10,
        deduplicate: bool = True,
    ) -> None:
        super().__init__(
            num_neurons,
            activation_probability,
            pixel_mean=pixel_mean,
            pixel_std=pixel_std,
            seed=seed,
            signal_tolerance=signal_tolerance,
            deduplicate=deduplicate,
        )
