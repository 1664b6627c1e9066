"""Full-batch gradient-descent training and accuracy evaluation.

Each epoch performs one deterministic update along the gradient of the
full objective, scaled by the number of training examples k:

    w <- w - (lr / k) * d(theta)/dw

The 1/k scaling keeps the step size meaningful at learning rates like 0.1
regardless of the split size; it changes nothing about what is being
minimized (same objective, same stationary points, same balance between
loss and penalty).

:func:`descend` is the one training loop.  It steps the packed vector
``net.weights`` and reads the masks once, into the positions of the
masked weights in that vector.  Each epoch does each elementwise step once
for all weights: it takes the data gradient (into storage kept across
epochs) and the penalty gradient, both raw, makes the descent step, pins
the masked weights back to 0.0 (the only place a step enforces masks;
skipped when nothing is masked) and runs the forward pass of the updated
network, which the next epoch differentiates.  So each epoch runs one
forward pass, and the loop runs one more before its first epoch.  Theta itself is not computed: divergence
is detected by :func:`~nnprune.objective.theta_certainly_finite`, a cheap
proof from the new weights and outputs that theta is finite, and only when
that proof fails is theta computed with
:func:`~nnprune.objective.objective`; a non-finite theta raises
DivergenceError at the same epoch as evaluating it every epoch would.
:func:`train` takes a fixed number of its epochs, :func:`retrain` takes
epochs until a validation-accuracy floor is met, and ``nnprune train``
iterates it directly, evaluating theta for its ``--trace`` rows only.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .data import Split
from .errors import DivergenceError, check_float, check_int
from .network import Network, classify_batch
from .objective import (
    PenaltyParams,
    check_batch,
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
    epochs: int = 500

    def __post_init__(self) -> None:
        check_float("learning_rate", self.learning_rate, 0, math.inf)
        check_int("epochs", self.epochs, 0)


def descend(net: Network, split: Split, lr: float, penalty: PenaltyParams) -> Iterator[int]:
    """Full-batch descent on ``net`` in place; yields each finished epoch.

    Runs nothing until the first ``next``, which reads the masks of
    ``net``; the caller must not change them while it takes epochs.  Each
    epoch differentiates the forward pass the previous epoch left behind
    (the first runs one), applies the update and the masks once, and runs
    one forward pass of the updated network.  Raises DivergenceError naming
    the epoch if the objective becomes non-finite.
    """
    check_float("lr", lr, 0, math.inf)
    step = lr / len(split)
    weights = net.weights
    masked = np.flatnonzero(~net.mask)
    grad = np.empty_like(weights)
    at = forward_pass(net, split.examples)
    for epoch in count(1):
        data_gradients(net, split, at, out=grad)
        pen = penalty_gradients(weights, penalty)
        # overflow on diverged weights is caught right after by the divergence check
        with np.errstate(over="ignore", invalid="ignore"):
            weights -= step * (grad + pen)
        if masked.size:
            weights[masked] = 0.0
        at = forward_pass(net, split.examples)
        if not theta_certainly_finite(weights, at, penalty) and not np.isfinite(
            objective(net, split, penalty)
        ):
            raise DivergenceError(f"objective became non-finite at epoch {epoch}")
        yield epoch


def accuracy(net: Network, split: Split) -> float:
    """Fraction of examples whose predicted class equals the target class.

    Defined for every split, which holds at least one example.  Raises
    ShapeError if ``split`` does not fit ``net`` (see
    :func:`~nnprune.objective.check_batch`).
    """
    check_batch(net, split)
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
    net = net.copy()
    for _ in islice(descend(net, split, tparams.learning_rate, penalty), tparams.epochs):
        pass
    return net


def retrain(
    net: Network,
    train_split: Split,
    val_split: Split,
    lr: float,
    penalty: PenaltyParams,
    floor: float,
    max_epochs: int,
) -> tuple[Network, bool]:
    """Train until validation accuracy reaches ``floor``, up to max_epochs.

    Returns the (possibly unchanged) network copy and whether the floor was
    met.  A network already at or above the floor is returned immediately.
    """
    check_float("lr", lr, 0, math.inf)
    check_float("floor", floor, 0, 1, "[]")
    check_int("max_epochs", max_epochs, 0)
    net = net.copy()
    if accuracy(net, val_split) >= floor:
        return net, True
    for _ in islice(descend(net, train_split, lr, penalty), max_epochs):
        if accuracy(net, val_split) >= floor:
            return net, True
    return net, False
