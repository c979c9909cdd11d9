"""Loss functions.

``CrossEntropyLoss`` is the loss used throughout the paper's experiments,
including the "logistic regression loss" of the Sec. IV-D single-layer
model (multi-class logistic regression is softmax cross entropy).
"""

from __future__ import annotations

import numpy as np

import repro.tensor.backend as backend
import repro.tensor.fused as fused
from repro.nn.module import Module
from repro.tensor import Tensor


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as one-hot rows."""
    labels = np.asarray(labels, dtype=np.int64)
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


class CrossEntropyLoss(Module):
    """Softmax cross entropy over logits with integer targets.

    ``reduction`` may be "mean" (default, matching the FL gradient averaging
    of paper Eq. 1) or "sum".
    """

    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        if reduction not in ("mean", "sum"):
            raise ValueError(f"unsupported reduction: {reduction}")
        self.reduction = reduction

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        if backend.FUSED:
            return fused.cross_entropy(logits, targets, reduction=self.reduction)
        num_classes = logits.shape[-1]
        encoded = one_hot(np.asarray(targets), num_classes)
        log_probs = logits.log_softmax(axis=-1)
        per_sample = -(log_probs * Tensor(encoded)).sum(axis=-1)
        if self.reduction == "mean":
            return per_sample.mean()
        return per_sample.sum()


class MSELoss(Module):
    def __init__(self, reduction: str = "mean") -> None:
        super().__init__()
        self.reduction = reduction

    def forward(self, prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
        if not isinstance(target, Tensor):
            target = Tensor(target)
        diff = prediction - target
        squared = diff * diff
        if self.reduction == "mean":
            return squared.mean()
        return squared.sum()

