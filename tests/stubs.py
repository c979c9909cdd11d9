"""Test doubles shared by the FL protocol suites."""

from __future__ import annotations

import numpy as np

from repro.fl import GradientUpdate

STUB_DIM = 4


class StubClient:
    """Deterministic fake client: every gradient entry equals its id.

    Takes a real client's ``local_update(broadcast, model)`` call and
    ignores the workspace, so every aggregate is an exact function of the
    participating ids.
    """

    def __init__(self, client_id: int, dim: int = STUB_DIM) -> None:
        self.client_id = client_id
        self.dim = dim

    def local_update(self, broadcast, model) -> GradientUpdate:
        return GradientUpdate(
            client_id=self.client_id,
            round_index=broadcast.round_index,
            num_examples=1,
            gradients={"w": np.full(self.dim, float(self.client_id))},
            loss=float(self.client_id),
        )
