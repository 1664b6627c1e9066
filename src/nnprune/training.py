"""Full-batch gradient-descent training and accuracy evaluation.

Each epoch performs one deterministic update along the gradient of the
full objective, scaled by the number of training examples k:

    w <- w - (lr / k) * d(theta)/dw

The 1/k scaling keeps the step size meaningful at learning rates like 0.1
regardless of the split size; it changes nothing about what is being
minimized (same objective, same stationary points, same balance between
loss and penalty).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import count, islice

import numpy as np

from .data import Split
from .errors import DivergenceError, ShapeError, check_float, check_int
from .network import Network, _forward_kernel, classify_batch
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


class _Stack:
    """Networks of one shape and their training splits of one size, as rows.

    ``weights [S, h*n + o*h]`` and ``mask`` stack the networks' packed
    vectors, ``w [S, h, n]`` and ``v [S, o, h]`` are views of ``weights``,
    and ``examples [S, k, n]`` stacks the splits' examples: what an epoch
    reads of a network and of a split, with a leading stack axis.  The
    pass reads the examples feature-major and the gradient of ``w`` reads
    them example-major, so the stack also holds ``examples_t [S, n, k]``
    and ``targets_t [S, o, k]``: C-contiguous feature-major copies of the
    splits' examples and targets, made here once per :func:`descend` or
    :func:`train` call, so that no epoch transposes.  ``views``, the layer
    sizes and ``n_classes`` are those of the first row.  At these sizes an
    epoch's time is mostly per-call overhead, not arithmetic, so an epoch
    of five rows costs about as much as two or three epochs of one network.

    Every epoch steps a stack.  A stack of one is a view of its network
    and of its split's examples, so stepping it steps that network in
    place, as :func:`descend` does; a stack of more rows holds copies.
    :func:`train` stacks copies of its networks, so it never changes the
    caller's.
    """

    def __init__(self, networks: Sequence[Network], splits: Sequence[Split]) -> None:
        self.networks, self.splits = tuple(networks), tuple(splits)
        if len(self.networks) != len(self.splits):
            raise ShapeError(f"{len(self.networks)} networks but {len(self.splits)} splits")
        shapes = {(net.n_inputs, net.n_hidden, net.n_outputs) for net in self.networks}
        if len(shapes) != 1:
            raise ShapeError(f"a stack needs networks of one shape, got {sorted(shapes)}")
        sizes = {(*split.examples.shape, split.n_classes) for split in self.splits}
        if len(sizes) != 1:
            raise ShapeError(f"a stack needs splits of one shape, got {sorted(sizes)}")
        head = self.networks[0]
        self.n_inputs, self.n_hidden, self.n_outputs = head.n_inputs, head.n_hidden, head.n_outputs
        self.views, self.n_classes = head.views, self.splits[0].n_classes
        self.weights = _stacked([net.weights for net in self.networks])
        self.mask = _stacked([net.mask for net in self.networks])
        self.w, self.v = self.views(self.weights)
        self.examples = _stacked([split.examples for split in self.splits])
        targets = _stacked([split.targets for split in self.splits])
        self.examples_t = np.ascontiguousarray(self.examples.swapaxes(-1, -2))
        self.targets_t = np.ascontiguousarray(targets.swapaxes(-1, -2))

    def __len__(self) -> int:
        return self.examples.shape[-2]

    def rows(self) -> list[Network]:
        """A copy of each network with its row's current weights."""
        return [replace(net, w=w, v=v) for net, w, v in zip(self.networks, self.w, self.v)]


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` along a new leading axis: a copy, or a view of the one array."""
    return np.stack(arrays) if len(arrays) > 1 else arrays[0][np.newaxis]


def descend(net: Network, split: Split, lr: float, penalty: PenaltyParams) -> Iterator[int]:
    """Full-batch descent on ``net`` in place; yields each finished epoch.

    Checks ``lr`` and that ``split`` fits ``net`` (ShapeError if not) when
    it is called, so a caller that takes no epoch rejects them too.  The
    returned iterator runs nothing until its first ``next``, which reads
    the masks of ``net`` and allocates the workspace; the caller must not
    change the masks while it takes epochs.  Raises DivergenceError naming
    the first epoch at which the objective becomes non-finite.
    """
    return _descend(_Stack([net], [split]), lr, penalty)


def _descend(stack: _Stack, lr: float, penalty: PenaltyParams) -> Iterator[int]:
    """The one gate of :func:`descend` and :func:`train`: checks ``lr`` and
    that the stack's splits fit its networks, then returns its epochs."""
    check_float("lr", lr, 0, math.inf)
    check_batch(stack, stack)
    return _epochs(stack, lr / len(stack), penalty)


def _epochs(stack: _Stack, step: float, penalty: PenaltyParams) -> Iterator[int]:
    """The epochs of :func:`_descend`, on a stack it has checked.

    Every array of the workspace has the stack's leading axis: the two
    gradient vectors, the data gradient's bound once to their ``w``/``v``
    views, the buffers of :func:`~nnprune.network.forward_batch`'s kernel
    and the data gradient's scratch arrays; the pass and its gradient run
    feature-major, on the stack's ``examples_t`` and ``targets_t``, so
    nothing is transposed in an epoch.  Each row steps bit for bit as its
    network would alone on its split.  Each epoch differentiates the
    forward pass the previous epoch left there (the first runs one), does
    each elementwise step of the update once for all weights, pins the
    masked weights back to 0.0 and runs one forward pass of the updated
    networks, all in one floating-point error block.  Theta is computed
    only when :func:`~nnprune.objective.theta_certainly_finite` cannot
    prove it finite for the whole stack, so DivergenceError comes at the
    epoch that evaluating theta every epoch would give for the first row
    to diverge.
    """
    weights = stack.weights
    masked, flat = np.flatnonzero(~stack.mask), weights.reshape(-1)
    grad, pen = np.empty_like(weights), np.empty_like(weights)
    grad_views = stack.views(grad)
    forward, at = _forward_kernel(stack, stack.examples_t)
    hidden, preds = at
    work = (np.empty_like(preds), np.empty_like(hidden), np.empty_like(hidden))
    forward()
    for epoch in count(1):
        # overflow on diverged weights is caught at the end by the divergence check
        with np.errstate(over="ignore", invalid="ignore"):
            data_gradients(stack, stack.examples, stack.targets_t, at, grad_views, work)
            penalty_gradients(weights, penalty, out=pen)
            np.add(grad, pen, out=grad)
            np.multiply(grad, step, out=grad)
            np.subtract(weights, grad, out=weights)  # weights -= step * (grad + pen)
            if masked.size:  # the only place a step enforces masks
                flat[masked] = 0.0
            forward()
            finite = theta_certainly_finite(weights, at, penalty) or all(
                np.isfinite(objective(row, row_split, penalty))
                for row, row_split in zip(stack.rows(), stack.splits)
            )
        if not finite:
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
    return float(np.count_nonzero(preds == split.class_indices) / len(preds))


def train(
    net: Network | Sequence[Network],
    split: Split | Sequence[Split],
    tparams: TrainParams,
    penalty: PenaltyParams,
) -> Network | list[Network]:
    """Run exactly ``tparams.epochs`` updates; returns the trained copy.

    ``net`` and ``split`` are one network and its split, or parallel
    sequences of networks of one shape and splits of one size, whose
    trained copies are returned as a list, each bit for bit the copy that
    training it alone returns.

    Deterministic given its inputs.  Raises ShapeError, even for zero
    epochs, if a split does not fit its network or a stack's networks or
    splits differ in count or shape, and DivergenceError naming the first
    epoch at which the objective of a network becomes non-finite.
    """
    single = isinstance(net, Network)
    nets, splits = ([net], [split]) if single else (net, split)
    stack = _Stack([row.copy() for row in nets], splits)
    for _ in islice(_descend(stack, tparams.learning_rate, penalty), tparams.epochs):
        pass
    return stack.rows()[0] if single else stack.rows()


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
    :func:`descend` checks ``lr`` and ``train_split`` before the first
    score, so one at the floor rejects them too.
    """
    check_float("floor", floor, 0, 1, "[]")
    check_int("max_epochs", max_epochs, 0)
    net = net.copy()
    steps = islice(descend(net, train_split, lr, penalty), max_epochs)
    score = accuracy(net, val_split)
    while score < floor and next(steps, None) is not None:
        score = accuracy(net, val_split)
    return net, score >= floor, score
