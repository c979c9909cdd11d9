"""Bonawitz-style secure aggregation with Shamir dropout recovery.

One :class:`SecAggRound` simulates a full protocol execution over the
round's *committed* client set (everyone the server selected — dropout
after this point is exactly the failure mode the protocol recovers
from).  The choreography follows Bonawitz et al. (CCS 2017):

1. **Advertise keys** — every committed client broadcasts a Diffie–
   Hellman public key (:class:`~repro.fl.messages.KeyAdvertisement`).
2. **Share keys** — every client Shamir-shares two secrets among all
   committed clients at threshold ``t``: its DH *secret key* (enough to
   re-derive its pairwise masks if it drops) and a fresh *self-mask
   seed* (:class:`~repro.fl.messages.SecretShareBundle`).
3. **Masked upload** — a surviving client uploads
   ``y_i = q_i + PRG(b_i) + Σ_{j≠i} sign(i,j) · PRG(s_ij, round)  (mod 2**64)``
   where ``q_i`` is the fixed-point quantized update, ``b_i`` the self
   mask, ``s_ij = pk_j ** sk_i`` the 61-bit pairwise DH secret (agreed
   for every ordered pair in one vectorized pass at commit time), and
   ``sign(i,j) = +1`` iff ``i < j`` — so pairwise masks cancel between
   any two survivors.
4. **Unmask** — the server names the survivor/dropped split
   (:class:`~repro.fl.messages.UnmaskRequest`); each survivor answers
   with its self-mask shares for *survivors* and secret-key shares for
   *dropped* clients (:class:`~repro.fl.messages.UnmaskResponse`), never
   both for the same sender.  With ``t`` responses the server
   reconstructs every survivor's ``b_i`` (cancel self masks) and every
   dropped client's secret key (cancel the orphaned pairwise masks), and
   the ring sum of the uploads collapses to the exact quantized sum.

Clients here are simulated in-process: each one's secrets derive from a
:func:`~repro.utils.rng.rng_for` stream keyed by (seed, round, client),
so rounds are deterministic and replayable, and nothing about a round
depends on how many rounds an instance served before — the replay bug
the old in-aggregator masking had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ...utils.rng import derive_seed, rng_for
from ..messages import (
    KeyAdvertisement,
    MaskedUpload,
    SecretShareBundle,
    UnmaskRequest,
    UnmaskResponse,
)
from .base import SecAggError, checked_survivors, default_threshold
from .field import f_pow
from .masking import dh_keypair, expand_ring_mask, pairwise_seed
from .shamir import reconstruct_secrets, share_secrets


@dataclass
class _ClientState:
    """One simulated client's per-round secrets (never visible server-side)."""

    client_id: int
    position: int  # 0-indexed slot in the committed order; share_x = position + 1
    secret_key: int
    public_key: int
    self_mask_seed: int


class SecAggRound:
    """One protocol execution over a fixed committed client set.

    Construction runs the advertise and share phases (the commitment
    point); :meth:`masked_upload` produces survivor uploads and
    :meth:`recover_sum` runs the unmasking phase.
    """

    def __init__(
        self,
        client_ids: Sequence[int],
        round_index: int,
        threshold: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        ordered = sorted(int(cid) for cid in client_ids)
        if len(set(ordered)) != len(ordered):
            raise ValueError("committed client ids must be distinct")
        if not ordered:
            raise ValueError("a protocol round needs at least one client")
        self.client_ids = ordered
        self.round_index = int(round_index)
        self.threshold = (
            default_threshold(len(ordered)) if threshold is None else int(threshold)
        )
        if not 1 <= self.threshold <= len(ordered):
            raise ValueError(
                f"threshold {self.threshold} invalid for {len(ordered)} clients"
            )
        self._seed = seed
        self._states: dict[int, _ClientState] = {}
        self.advertisements: list[KeyAdvertisement] = []
        self._advertise_keys()
        # Mailboxes: share matrices indexed [recipient_position, sender_position].
        self._seed_shares = np.zeros((0, 0), dtype=np.uint64)
        self._self_mask_shares = np.zeros((0, 0), dtype=np.uint64)
        self._share_keys()
        self._shared_secrets = self._agree_keys()

    # ------------------------------------------------------------------
    # Phase 1+2: commitment
    # ------------------------------------------------------------------
    def _advertise_keys(self) -> None:
        for position, client_id in enumerate(self.client_ids):
            rng = rng_for(
                self._seed, "secagg-client", str(self.round_index), str(client_id)
            )
            secret_key, public_key = dh_keypair(rng)
            # derive_seed yields a uint32, so the seed doubles as a Shamir
            # secret (it must fit the 61-bit field to survive sharing).
            self_mask_seed = derive_seed(
                int(rng.integers(0, 2**63, dtype=np.uint64)),
                "secagg-self-mask",
                str(self.round_index),
            )
            self._states[client_id] = _ClientState(
                client_id, position, secret_key, public_key, self_mask_seed
            )
            self.advertisements.append(
                KeyAdvertisement(client_id, self.round_index, public_key)
            )

    def _share_keys(self) -> None:
        count = len(self.client_ids)
        secret_keys = np.array(
            [self._states[cid].secret_key for cid in self.client_ids],
            dtype=np.uint64,
        )
        self_masks = np.array(
            [self._states[cid].self_mask_seed for cid in self.client_ids],
            dtype=np.uint64,
        )
        rng = rng_for(self._seed, "secagg-shamir", str(self.round_index))
        self._seed_shares = share_secrets(secret_keys, count, self.threshold, rng)
        self._self_mask_shares = share_secrets(self_masks, count, self.threshold, rng)

    def _agree_keys(self) -> np.ndarray:
        """Every client's DH secret with every peer, in one ``f_pow`` pass.

        Row ``i`` holds client ``i``'s view: ``shared[i, j] = pk_j ** sk_i``.
        Entry ``(i, j)`` is never copied into ``(j, i)``, so pairwise masks
        cancel between survivors only because DH agreement is symmetric.
        The diagonal is computed but never read.
        """
        states = [self._states[cid] for cid in self.client_ids]
        secret_keys = np.array([s.secret_key for s in states], dtype=np.uint64)
        public_keys = np.array([s.public_key for s in states], dtype=np.uint64)
        return f_pow(public_keys[None, :], secret_keys[:, None])

    def share_bundles(self) -> list[SecretShareBundle]:
        """Materialize the n**2 share messages (for inspection/tests)."""
        bundles = []
        for sender in self.client_ids:
            sender_pos = self._states[sender].position
            for recipient in self.client_ids:
                recipient_pos = self._states[recipient].position
                bundles.append(
                    SecretShareBundle(
                        sender_id=sender,
                        recipient_id=recipient,
                        round_index=self.round_index,
                        share_x=recipient_pos + 1,
                        seed_share=int(self._seed_shares[recipient_pos, sender_pos]),
                        self_mask_share=int(
                            self._self_mask_shares[recipient_pos, sender_pos]
                        ),
                    )
                )
        return bundles

    # ------------------------------------------------------------------
    # Phase 3: masked upload
    # ------------------------------------------------------------------
    def masked_upload(
        self,
        client_id: int,
        quantized: np.ndarray,
        num_examples: int = 1,
        loss: float = 0.0,
    ) -> MaskedUpload:
        """Mask a quantized (uint64-ring) update the way client ``i`` would."""
        state = self._states.get(int(client_id))
        if state is None:
            raise SecAggError(f"client {client_id} is not in the committed set")
        payload = np.asarray(quantized, dtype=np.uint64).copy()
        dim = payload.shape[-1]
        payload += expand_ring_mask(state.self_mask_seed, dim)
        secrets = self._shared_secrets[state.position].tolist()
        for peer_id, secret in zip(self.client_ids, secrets):
            if peer_id == state.client_id:
                continue
            mask = expand_ring_mask(pairwise_seed(secret, self.round_index), dim)
            if state.client_id < peer_id:
                payload += mask
            else:
                payload -= mask
        return MaskedUpload(
            client_id=state.client_id,
            round_index=self.round_index,
            num_examples=num_examples,
            payload=payload,
            loss=loss,
        )

    # ------------------------------------------------------------------
    # Phase 4: unmasking
    # ------------------------------------------------------------------
    def unmask_messages(
        self, survivor_ids: Sequence[int]
    ) -> tuple[UnmaskRequest, list[UnmaskResponse]]:
        """The unmask round-trip: the server's request and the survivors'
        share responses (self-mask shares for survivors, seed shares for
        dropped — never both for one sender)."""
        survivors = sorted(int(cid) for cid in survivor_ids)
        survivor_set = set(survivors)
        dropped = [cid for cid in self.client_ids if cid not in survivor_set]
        request = UnmaskRequest(self.round_index, survivors, dropped)
        responses = []
        for cid in survivors:
            pos = self._states[cid].position
            responses.append(
                UnmaskResponse(
                    client_id=cid,
                    round_index=self.round_index,
                    share_x=pos + 1,
                    self_mask_shares={
                        sid: int(
                            self._self_mask_shares[pos, self._states[sid].position]
                        )
                        for sid in survivors
                    },
                    seed_shares={
                        did: int(self._seed_shares[pos, self._states[did].position])
                        for did in dropped
                    },
                )
            )
        return request, responses

    def recover_sum(self, uploads: Sequence[MaskedUpload]) -> np.ndarray:
        """Unmask the survivors' ring sum; exact even with mid-round dropout.

        Raises :class:`BelowThresholdError` when fewer than ``threshold``
        uploads arrived — below that the shares cannot reconstruct the
        dropped clients' seeds (by design).  Returns the ``(dim,)``
        ``uint64`` ring sum of the survivors' *plain* quantized updates.
        """
        survivor_ids = checked_survivors(
            uploads, self._states, self.round_index, self.threshold
        )
        payloads = [np.asarray(upload.payload, dtype=np.uint64) for upload in uploads]
        shapes = sorted({payload.shape for payload in payloads})
        if len(shapes) != 1:
            raise SecAggError(f"masked uploads disagree on shape: {shapes}")

        request, responses = self.unmask_messages(survivor_ids)
        helpers = responses[: self.threshold]
        helper_xs = np.array([r.share_x for r in helpers], dtype=np.uint64)

        total = np.zeros_like(payloads[0])
        for payload in payloads:
            total += payload
        dim = total.shape[-1]

        # Cancel every survivor's self mask: reconstruct all b_i in one
        # batched interpolation over the helpers' shares.
        self_mask_shares = np.array(
            [[r.self_mask_shares[sid] for sid in survivor_ids] for r in helpers],
            dtype=np.uint64,
        )
        recovered_self = reconstruct_secrets(helper_xs, self_mask_shares)
        for seed in recovered_self:
            total -= expand_ring_mask(int(seed), dim)

        # Cancel the dropped clients' orphaned pairwise masks: reconstruct
        # each dropped secret key, re-derive its DH secret with every
        # survivor (all pairs in one f_pow pass), and remove the
        # survivor-side contributions.
        if request.dropped_ids:
            seed_shares = np.array(
                [[r.seed_shares[did] for did in request.dropped_ids] for r in helpers],
                dtype=np.uint64,
            )
            recovered_keys = reconstruct_secrets(helper_xs, seed_shares)
            survivor_public = np.array(
                [self._states[sid].public_key for sid in survivor_ids],
                dtype=np.uint64,
            )
            # secrets[d, s] = pk_s ** sk_d, the dropped endpoint's view.
            secrets = f_pow(survivor_public[None, :], recovered_keys[:, None])
            for dropped_id, row in zip(request.dropped_ids, secrets.tolist()):
                for survivor_id, secret in zip(survivor_ids, row):
                    mask = expand_ring_mask(
                        pairwise_seed(secret, self.round_index), dim
                    )
                    # Survivor i uploaded sign(i, dropped) * mask; remove it.
                    if survivor_id < dropped_id:
                        total -= mask
                    else:
                        total += mask
        self.last_recovery = {
            "survivors": len(survivor_ids),
            "dropped": len(request.dropped_ids),
            "recovered_dropped_ids": list(request.dropped_ids),
            "unmask_responses": len(responses),
            "helper_shares": int(self.threshold),
        }
        return total


class SecAggProtocol:
    """Factory for Bonawitz-style protocol rounds.

    ``threshold=None`` uses the strict-majority default
    (:func:`~repro.fl.secagg.base.default_threshold`); a fixed integer
    threshold applies to every round regardless of committed-set size.
    """

    name = "secagg"

    def __init__(self, threshold: Optional[int] = None, seed: int = 0) -> None:
        self.threshold = threshold
        self.seed = seed

    def begin(self, client_ids: Sequence[int], round_index: int) -> SecAggRound:
        """Commit a round: advertise keys and distribute Shamir shares."""
        return SecAggRound(
            client_ids, round_index, threshold=self.threshold, seed=self.seed
        )
