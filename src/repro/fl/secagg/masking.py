"""Mask expansion and key agreement primitives for the SecAgg protocols.

Two mask domains coexist:

- the Bonawitz-style protocol masks quantized updates in the full
  ``uint64`` ring (``mod 2**64``), matching the fixed-point encoding of
  :class:`~repro.fl.aggregators.MaskedSumAggregator` exactly, so the
  recovered sum is bit-for-bit the plain quantized sum;
- the LightSecAgg-style protocol masks field-embedded updates in
  GF(2**61 - 1), because its mask segments must survive Lagrange
  encoding/decoding, which only works over a field.

Key agreement is a textbook Diffie–Hellman simulation over the same
Mersenne prime (generator 7) — a stand-in for X25519 with the property
that matters here: both endpoints of a pair derive the same secret
without the server learning it.  The secrets themselves are computed in
bulk with :func:`~repro.fl.secagg.field.f_pow`; :func:`pairwise_seed`
keys the PRG on a secret and the round.
"""

from __future__ import annotations

import numpy as np

from .field import PRIME_INT, rand_field

_GENERATOR = 7
# Domain-separation word for pairwise masks (ASCII "pair"): keeps the
# pairwise PRG streams apart from the one-word self-mask seeds.
_PAIRWISE_TAG = 0x70616972


def expand_ring_mask(seed, dim: int) -> np.ndarray:
    """PRG-expand a seed into a uniform ``uint64`` ring mask of length ``dim``.

    The raw PCG64 output is exactly what ``Generator.integers`` returns
    for the full ``uint64`` range, without the ``Generator`` overhead.
    """
    return np.random.PCG64(np.random.SeedSequence(seed)).random_raw(dim)


def expand_field_mask(seed, dim: int) -> np.ndarray:
    """PRG-expand a seed into uniform GF(2**61 - 1) elements of length ``dim``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rand_field(rng, dim)


def dh_keypair(rng: np.random.Generator) -> tuple[int, int]:
    """Draw a (secret, public) Diffie–Hellman pair mod the Mersenne prime.

    Secrets are drawn in ``[1, p - 1)`` so the public key is never the
    identity.  One key per client, so a scalar Python ``pow`` suffices.
    """
    secret = int(rng.integers(1, PRIME_INT - 1, dtype=np.uint64))
    return secret, pow(_GENERATOR, secret, PRIME_INT)


def pairwise_seed(shared_secret: int, round_index: int) -> tuple[int, int, int]:
    """The PRG seed of one pairwise mask: the full 61-bit DH secret
    ``g**(sk_i * sk_j)`` keyed with the round index, so each round gets an
    independent mask stream from the same key pair."""
    return (int(shared_secret), int(round_index), _PAIRWISE_TAG)
