"""Shared error types and upload checks for the secure-aggregation
protocol stack.

Kept free of intra-package imports so :mod:`repro.fl.server` can catch
protocol failures without pulling in the protocol implementations at
import time (the aggregator registry resolves those lazily).
"""

from __future__ import annotations

from typing import Container, Sequence


class SecAggError(RuntimeError):
    """Base class for secure-aggregation protocol failures."""


class BelowThresholdError(SecAggError):
    """Raised when fewer than ``threshold`` clients survive to unmasking.

    Below the Shamir threshold the server cannot reconstruct the dropped
    clients' mask seeds, so the round is unrecoverable *by design* — the
    same shares that enable dropout recovery must never let a server with
    too few cooperating clients unmask an individual update.
    """

    def __init__(self, survivors: int, threshold: int) -> None:
        super().__init__(
            f"only {survivors} clients survive to unmasking but the "
            f"protocol threshold is {threshold}; the round cannot be "
            "recovered (and must not be, or the threshold would be "
            "meaningless)"
        )
        self.survivors = survivors
        self.threshold = threshold


def checked_survivors(
    uploads: Sequence, committed: Container[int], round_index: int, threshold: int
) -> list[int]:
    """The sorted sender ids of a round's masked uploads, once validated.

    Both protocols refuse to unmask unless every upload comes from a
    distinct committed client *of this round* — an upload masked for
    another round would otherwise fold foreign masks into the sum and
    return garbage — and at least ``threshold`` clients survived.
    """
    survivor_ids = sorted(int(upload.client_id) for upload in uploads)
    if len(set(survivor_ids)) != len(survivor_ids):
        raise SecAggError("duplicate masked uploads for one client")
    unknown = [cid for cid in survivor_ids if cid not in committed]
    if unknown:
        raise SecAggError(f"uploads from uncommitted clients: {unknown}")
    stale = sorted(
        int(upload.client_id) for upload in uploads if upload.round_index != round_index
    )
    if stale:
        raise SecAggError(
            f"uploads from clients {stale} belong to another round than {round_index}"
        )
    if len(survivor_ids) < threshold:
        raise BelowThresholdError(len(survivor_ids), threshold)
    return survivor_ids


def default_threshold(num_clients: int) -> int:
    """The default Shamir threshold: a strict majority of the committed set.

    ``floor(n / 2) + 1`` tolerates up to half the fleet dropping after
    mask commitment while keeping any colluding minority unable to
    reconstruct seeds on its own.
    """
    return num_clients // 2 + 1
