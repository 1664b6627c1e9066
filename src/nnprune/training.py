"""Full-batch gradient-descent training and accuracy evaluation.

Each epoch performs one deterministic update along the gradient of the
full objective, scaled by the number of training examples k:

    w <- w - (lr / k) * d(theta)/dw

The 1/k scaling keeps the step size meaningful at learning rates like 0.1
regardless of the split size; it changes nothing about what is being
minimized (same objective, same stationary points, same balance between
loss and penalty).

:func:`epoch_step` is one update: the data and penalty gradients, raw, the
descent step, one ``apply_masks`` (the only place a step pins masked
weights back to 0.0) and the forward pass of the updated network, which it
returns for the next step to differentiate.  So each epoch runs one forward
pass, and a loop runs one more before its first step.  Theta itself is not
computed: divergence is detected by
:func:`~nnprune.objective.theta_certainly_finite`, a cheap proof from the
new weights and outputs that theta is finite, and only when that proof
fails is theta computed with :func:`~nnprune.objective.objective`; a
non-finite theta raises DivergenceError at the same epoch as evaluating it
every epoch would.  :func:`train` (a fixed number of epochs) and
:func:`retrain` (until a validation-accuracy floor is met) both advance
through it, and ``nnprune train`` calls it directly, evaluating theta for
its ``--trace`` rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Split
from .errors import ConfigurationError, DatasetError, DivergenceError
from .network import Network, classify_batch
from .objective import (
    ForwardPass,
    PenaltyParams,
    data_gradients,
    forward_pass,
    objective,
    penalty_gradients,
    theta_certainly_finite,
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
    net: Network, split: Split, lr: float, penalty: PenaltyParams, epoch: int, at: ForwardPass
) -> ForwardPass:
    """One in-place full-batch descent update; returns the pass after it.

    ``at`` is the forward pass of ``net`` on ``split`` before the update
    (the previous step's return value, or a
    :func:`~nnprune.objective.forward_pass` before the first step); it gives
    the gradient.  Masks are applied once, after the update.  Raises
    DivergenceError naming ``epoch`` if the objective becomes non-finite.
    """
    step = lr / len(split)
    data = data_gradients(net, split.examples, split.targets, at)
    pen = penalty_gradients(net, penalty)
    # overflow on diverged weights is caught right after by the divergence check
    with np.errstate(over="ignore", invalid="ignore"):
        net.w -= step * (data.d_w + pen.d_w)
        net.v -= step * (data.d_v + pen.d_v)
    net.apply_masks()
    after = forward_pass(net, split.examples)
    if not theta_certainly_finite(net, after, penalty) and not np.isfinite(
        objective(net, split.examples, split.targets, penalty).theta
    ):
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
    at = forward_pass(net, split.examples)
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
    if len(train_split) == 0:
        raise DatasetError("cannot train on an empty split")
    at = forward_pass(net, train_split.examples)
    for epoch in range(1, max_epochs + 1):
        at = epoch_step(net, train_split, tparams.learning_rate, penalty, epoch, at)
        if accuracy(net, val_split) >= floor:
            return net, True
    return net, False
