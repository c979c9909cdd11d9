"""LOKI-style scaled multi-client imprint — Zhao et al., 2023.

LOKI scales the dishonest-server threat model up from one victim to the
whole fleet: the server carves the malicious layer into **per-client
disjoint neuron blocks** and sends each client a model whose imprint layer
is live only in *its* block (the other rows are zeroed with strongly
negative biases, so they never fire and contribute exactly zero gradient).
Every client's data then lands in its own parameter region, and because
FedAvg is a linear reduction over disjoint supports, the *aggregate*
update still contains each client's block verbatim (up to the aggregation
weight, which Eq. 6's ratio cancels).  The server therefore reconstructs
across aggregation — the regime where secure aggregation was supposed to
protect individual updates.

Within a block the construction is the shared trap-weight recipe
(:mod:`repro.attacks.traps`): random directions, biases at the empirical
activation quantile, Eq. 6 inversion of fired neurons.  The ``scale``
knob multiplies the crafted block (weights *and* biases, preserving the
activation pattern) so the malicious gradients dominate aggregation noise
— LOKI's "scaled imprint" trade of stealth for robustness.

Block contents are keyed by *block index* through
:func:`repro.utils.rng.rng_for`, never by assignment order, so two
servers assigning the same fleet produce identical crafted models
regardless of client enumeration order — the same fingerprint-keyed
determinism discipline the sweep engine relies on.

Integration points (see :class:`repro.fl.server.DishonestServer`):

- :attr:`per_client_crafting` → the server calls
  :meth:`craft_for_client` per participant instead of broadcasting one
  shared crafted model.
- :attr:`reconstructs_from_aggregate` → the server skips per-update
  inversion and calls :meth:`reconstruct_per_client` on the FedAvg
  aggregate after the round closes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.attacks.base import ReconstructionResult
from repro.attacks.imprint import ImprintedModel, extract_imprint_gradients
from repro.attacks.traps import (
    NO_SIGNAL_REASON,
    TrapImprintAttack,
    calibration_degeneracy,
    trap_biases,
    trap_weight_rows,
)
from repro.utils.rng import rng_for

# Bias given to neurons outside a client's block: with zero weight rows the
# pre-activation equals the bias, so anything negative keeps the ReLU dark
# and the gradient exactly zero; strongly negative also survives benign
# fine-tuning drift.
DISABLED_BIAS = -1e6


class LOKIAttack(TrapImprintAttack):
    """Per-client-disjoint trap blocks recovered from the FedAvg aggregate.

    Parameters
    ----------
    num_neurons:
        Total attacked neurons ``n`` across the fleet; each assigned
        client receives a contiguous block of ``~n / num_clients``.
    activation_probability:
        Per-trap firing probability within a block (the CAH-style knob).
    scale:
        Multiplier on each crafted block (weights and biases together, so
        the activation pattern is unchanged) making the malicious
        gradients dominate the aggregate.
    pixel_mean / pixel_std:
        Gaussian fallback prior when no public data is available.
    seed:
        Base seed; block ``k``'s trap directions derive from
        ``(seed, "block-k")`` regardless of which client owns the block.
    signal_tolerance:
        Bias-gradient magnitude below which a trap counts as dead.
    deduplicate:
        Collapse near-identical reconstructions into one.
    """

    name = "loki"
    per_client_crafting = True
    reconstructs_from_aggregate = True

    def __init__(
        self,
        num_neurons: int,
        activation_probability: float = 0.05,
        scale: float = 1.0,
        pixel_mean: float = 0.5,
        pixel_std: float = 0.25,
        seed: int = 0,
        signal_tolerance: float = 1e-10,
        deduplicate: bool = True,
    ) -> None:
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        super().__init__(
            num_neurons,
            activation_probability,
            pixel_mean=pixel_mean,
            pixel_std=pixel_std,
            seed=seed,
            signal_tolerance=signal_tolerance,
            deduplicate=deduplicate,
        )
        self.scale = scale
        self._blocks: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Fleet assignment
    # ------------------------------------------------------------------
    def assign_clients(self, client_ids: Sequence[int]) -> None:
        """Carve the neuron budget into one contiguous block per client.

        Clients are ordered by id (not by the order the caller happened to
        enumerate them), so the block map — and through it every crafted
        model — is invariant to fleet enumeration order.
        """
        ids = sorted(set(int(cid) for cid in client_ids))
        if not ids:
            raise ValueError("assign_clients needs at least one client id")
        if self.num_neurons < len(ids):
            raise ValueError(
                f"{self.num_neurons} attacked neurons cannot cover "
                f"{len(ids)} clients with one block each"
            )
        bounds = np.linspace(0, self.num_neurons, len(ids) + 1).astype(int)
        self._blocks = {
            cid: (int(bounds[i]), int(bounds[i + 1]))
            for i, cid in enumerate(ids)
        }

    def client_block(self, client_id: int) -> tuple[int, int]:
        """The ``[start, stop)`` neuron block assigned to ``client_id``."""
        if not self._blocks:
            raise RuntimeError("assign_clients() must run before block lookup")
        try:
            return self._blocks[int(client_id)]
        except KeyError as error:
            raise KeyError(
                f"client {client_id} has no assigned block; assigned ids: "
                f"{sorted(self._blocks)}"
            ) from error

    def assigned_clients(self) -> list[int]:
        return sorted(self._blocks)

    def _block_parameters(
        self, block_index: int, start: int, stop: int, flat_dim: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Trap rows/biases for one block, keyed by block index."""
        rng = rng_for(self.seed, f"loki-block-{block_index}")
        weight = trap_weight_rows(stop - start, flat_dim, rng)
        bias = trap_biases(
            weight,
            self.activation_probability,
            public_flat=self._public_flat,
            pixel_mean=self.pixel_mean,
            pixel_std=self.pixel_std,
        )
        return self.scale * weight, self.scale * bias

    def _craft_blocks(
        self, model: ImprintedModel, client_ids: Sequence[int]
    ) -> None:
        ordered = self.assigned_clients()
        weight = np.zeros((self.num_neurons, model.flat_dim))
        bias = np.full(self.num_neurons, DISABLED_BIAS)
        self._calibration_reason = calibration_degeneracy(self._public_flat)
        if self._calibration_reason is not None:
            # Disarmed layer: see TrapImprintAttack.craft for rationale.
            model.set_imprint_parameters(weight, bias)
            return
        for cid in client_ids:
            start, stop = self.client_block(cid)
            block_weight, block_bias = self._block_parameters(
                ordered.index(cid), start, stop, model.flat_dim
            )
            weight[start:stop] = block_weight
            bias[start:stop] = block_bias
        model.set_imprint_parameters(weight, bias)

    # ------------------------------------------------------------------
    # Attack lifecycle
    # ------------------------------------------------------------------
    def craft(self, model: ImprintedModel) -> None:
        """Craft the union model: every assigned block live at once.

        Single-victim fallback: with no fleet assigned, the whole layer
        becomes one block for client 0, which reduces LOKI to a scaled
        CAH-style trap layer (the degenerate one-client fleet).
        """
        self._check_model(model)
        self._image_shape = model.input_shape
        if not self._blocks:
            self.assign_clients([0])
        self._craft_blocks(model, self.assigned_clients())

    def craft_for_client(self, model: ImprintedModel, client_id: int) -> None:
        """Craft the model sent to one client: only its block is live."""
        self._check_model(model)
        self._image_shape = model.input_shape
        if not self._blocks:
            self.assign_clients([client_id])
        self._craft_blocks(model, [client_id])

    # reconstruct() is inherited: Eq. 6 over every fired trap across all
    # blocks (works on a single update and on the aggregate alike), with
    # the shared calibration/near-total-activation guards.

    def reconstruct_per_client(
        self, gradients: dict[str, np.ndarray]
    ) -> dict[int, ReconstructionResult]:
        """Split an aggregate's inversions back to the owning clients.

        Each assigned client's block slice is inverted independently
        through the shared guards; clients whose block carries no signal
        (dropped out, not sampled, or an empty round) are omitted, while
        a disarmed layer (degenerate calibration) maps every client to a
        reasoned empty result so the failure mode stays visible.
        """
        if self._image_shape is None:
            raise RuntimeError("craft() must run before reconstruct_per_client()")
        failure = self._calibration_failure()
        if failure is not None:
            return {cid: failure for cid in self.assigned_clients()}
        weight_grad, bias_grad = extract_imprint_gradients(gradients)
        per_client: dict[int, ReconstructionResult] = {}
        for cid in self.assigned_clients():
            start, stop = self._blocks[cid]
            result = self._invert_guarded(
                weight_grad[start:stop],
                bias_grad[start:stop],
                index_offset=start,
            )
            if len(result) or result.reason != NO_SIGNAL_REASON:
                per_client[cid] = result
        return per_client
