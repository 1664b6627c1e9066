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
masked weights in that vector.  It owns a workspace, allocated once per
descent: the forward pass's buffers and the two gradient vectors.  Each
epoch does each elementwise step once for all weights: it takes the data
gradient and the penalty gradient into the workspace, both raw, makes the
descent step in place (one floating-point error block covers the penalty
and the step), pins the masked weights back to 0.0 (the only place a step
enforces masks; skipped when nothing is masked) and runs the forward pass
of the updated network into the workspace, which the next epoch
differentiates.  That pass is :func:`~nnprune.network.forward_batch`'s,
operation for operation, so its outputs are bit-identical; each epoch runs
one, and the loop runs one more before its first epoch.  Theta itself is
not computed: divergence is detected by
:func:`~nnprune.objective.theta_certainly_finite`, a cheap proof from the
new weights and outputs that theta is finite, and only when that proof
fails is theta computed with
:func:`~nnprune.objective.objective`; a non-finite theta raises
DivergenceError at the same epoch as evaluating it every epoch would.
:func:`train` takes a fixed number of its epochs, :func:`retrain` takes
epochs until a validation-accuracy floor is met and returns the deciding
score, and ``nnprune train`` iterates it directly, evaluating theta for its
``--trace`` rows only.
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
    ``net`` and allocates the workspace; the caller must not change the
    masks while it takes epochs.  Each epoch differentiates the forward
    pass the previous epoch left in the workspace (the first runs one),
    applies the update and the masks once, and runs one forward pass of the
    updated network into the workspace.  Raises DivergenceError naming the
    epoch if the objective becomes non-finite.
    """
    check_float("lr", lr, 0, math.inf)
    step = lr / len(split)
    weights = net.weights
    masked = np.flatnonzero(~net.mask)
    grad, pen = np.empty_like(weights), np.empty_like(weights)
    # forward_batch's pass, run into buffers kept across epochs; the weight
    # views stay valid because every update is in place
    x, w_t, v_t = split.examples, net.w.T, net.v.T
    k, o = len(split), net.n_outputs
    hidden = np.empty((k, net.n_hidden))
    z, e, preds = np.empty((k, o)), np.empty((k, o)), np.empty((k, o))
    nonneg = np.empty((k, o), dtype=bool)
    at = hidden, preds

    def forward() -> None:
        np.tanh(np.matmul(x, w_t, out=hidden), out=hidden)
        np.matmul(hidden, v_t, out=z)
        np.exp(np.negative(np.abs(z, out=e), out=e), out=e)  # e = exp(-|z|)
        # the logistic's numerator, np.where(z >= 0, 1.0, e): 0 <= e <= 1,
        # and a NaN e (from a NaN z) stays NaN
        np.maximum(e, np.greater_equal(z, 0.0, out=nonneg), out=preds)
        np.divide(preds, np.add(e, 1.0, out=e), out=preds)

    forward()
    for epoch in count(1):
        data_gradients(net, split, at, out=grad)
        # overflow on diverged weights is caught right after by the divergence check
        with np.errstate(over="ignore", invalid="ignore"):
            penalty_gradients(weights, penalty, out=pen)
            np.add(grad, pen, out=grad)
            np.multiply(grad, step, out=grad)
            np.subtract(weights, grad, out=weights)  # weights -= step * (grad + pen)
        if masked.size:
            weights[masked] = 0.0
        forward()
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
) -> tuple[Network, bool, float]:
    """Train until validation accuracy reaches ``floor``, up to max_epochs.

    Returns the network copy, whether the floor was met and the copy's
    validation accuracy, which decided it; one at the floor takes no epoch.
    """
    check_float("lr", lr, 0, math.inf)
    check_float("floor", floor, 0, 1, "[]")
    check_int("max_epochs", max_epochs, 0)
    net = net.copy()
    steps = islice(descend(net, train_split, lr, penalty), max_epochs)
    score = accuracy(net, val_split)
    while score < floor and next(steps, None) is not None:
        score = accuracy(net, val_split)
    return net, score >= floor, score
