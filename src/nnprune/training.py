"""Full-batch gradient-descent training and accuracy evaluation.

Each epoch performs one deterministic update along the gradient of the
full objective, scaled by the number of training examples k:

    w <- w - (lr / k) * d(theta)/dw

The 1/k scaling keeps the step size meaningful at learning rates like 0.1
regardless of the split size; it changes nothing about what is being
minimized (same objective, same stationary points, same balance between
loss and penalty).  Masks are re-applied after every update so pruned
weights stay at 0.0.

:func:`epoch_step` is that update plus the objective after it, the one
divergence check.  Each epoch runs one forward pass over the training
split: the gradient is taken from the evaluation the previous step
returned, and the objective after the update is the pass the next step
differentiates, so a loop evaluates the objective once before its first
step.  :func:`train` (a fixed number of epochs) and :func:`retrain` (until
a validation-accuracy floor is met) both advance through it, and
``nnprune train --trace`` calls it directly to log per-epoch rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Split
from .errors import ConfigurationError, DatasetError, DivergenceError
from .network import Network, classify_batch
from .objective import (
    Evaluation,
    PenaltyParams,
    data_gradients,
    objective,
    penalty_gradients,
)


@dataclass(frozen=True)
class TrainParams:
    """Learning rate and epoch budget for one training run."""

    learning_rate: float = 0.1
    epochs: int = 0
    shuffle_seed: int = 0  # reserved; full-batch updates never consume it

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ConfigurationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")


def epoch_step(
    net: Network, split: Split, lr: float, penalty: PenaltyParams, epoch: int, at: Evaluation
) -> Evaluation:
    """One in-place full-batch descent update; returns the objective after it.

    ``at`` is the objective of ``net`` on ``split`` before the update (the
    previous step's return value, or an :func:`objective` call before the
    first step); its forward pass gives the gradient.  Masks are re-applied
    after the update.  The returned evaluation holds theta and the forward
    pass of the updated network, ready for the next step.  Raises
    DivergenceError naming ``epoch`` if the objective becomes non-finite.
    """
    step = lr / len(split)
    data = data_gradients(net, split.examples, split.targets, at)
    pen = penalty_gradients(net, penalty)
    # overflow on diverged weights is caught right after by the theta guard
    with np.errstate(over="ignore", invalid="ignore"):
        net.w -= step * (data.d_w + pen.d_w)
        net.v -= step * (data.d_v + pen.d_v)
    net.apply_masks()
    after = objective(net, split.examples, split.targets, penalty)
    if not np.isfinite(after.theta):
        raise DivergenceError(f"objective became non-finite at epoch {epoch}")
    return after


def accuracy(net: Network, split: Split) -> float:
    """Fraction of examples whose predicted class equals the target class."""
    if len(split) == 0:
        raise DatasetError("cannot evaluate accuracy on an empty split")
    preds = classify_batch(net, split.examples)
    return float(np.mean(preds == split.class_indices))


def train(
    net: Network,
    split: Split,
    tparams: TrainParams,
    penalty: PenaltyParams,
) -> Network:
    """Run exactly ``tparams.epochs`` updates; returns the trained copy.

    Deterministic given its inputs.  Raises DivergenceError naming the
    epoch if the objective becomes non-finite.
    """
    if len(split) == 0:
        raise DatasetError("cannot train on an empty split")
    net = net.copy()
    at = objective(net, split.examples, split.targets, penalty)
    for epoch in range(1, tparams.epochs + 1):
        at = epoch_step(net, split, tparams.learning_rate, penalty, epoch, at)
    return net


def retrain(
    net: Network,
    train_split: Split,
    val_split: Split,
    tparams: TrainParams,
    penalty: PenaltyParams,
    floor: float,
    max_epochs: int,
) -> tuple[Network, bool]:
    """Train until validation accuracy reaches ``floor``, up to max_epochs.

    Returns the (possibly unchanged) network copy and whether the floor was
    met.  A network already at or above the floor is returned immediately.
    """
    if not 0.0 <= floor <= 1.0:
        raise ConfigurationError(f"floor must be in [0, 1], got {floor}")
    net = net.copy()
    if accuracy(net, val_split) >= floor:
        return net, True
    at = objective(net, train_split.examples, train_split.targets, penalty)
    for epoch in range(1, max_epochs + 1):
        at = epoch_step(net, train_split, tparams.learning_rate, penalty, epoch, at)
        if accuracy(net, val_split) >= floor:
            return net, True
    return net, False
