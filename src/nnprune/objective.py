"""Training objective: cross-entropy loss plus a two-part weight penalty.

The objective minimized during training is

    theta = F + P

where F is the summed cross-entropy of the logistic outputs over the batch
and P combines a saturating term  eps1 * beta*w^2 / (1 + beta*w^2)  with a
quadratic term  eps2 * w^2  over every connection.  The saturating term
pulls small weights toward zero while leaving large weights nearly alone,
which is what makes magnitude-based weight elimination effective after
training.  Its gradients, and a central finite-difference check of them,
are here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Split
from .errors import ShapeError, check_float
from .network import Network, forward_batch

# Outputs are clamped to [LOG_CLAMP, 1 - LOG_CLAMP] before taking logs so the
# loss stays finite at saturated outputs.
LOG_CLAMP = 1e-12
# Most that one output can add to the cross-entropy: -log of the clamp, with
# room for rounding in 1 - (1 - LOG_CLAMP).
CROSS_ENTROPY_TERM_MAX = -math.log(LOG_CLAMP / 2)
# Every bound of the finiteness certificate stays below a quarter of the
# largest double, so rounding in theta's own sums cannot reach overflow.
CERTIFICATE_LIMIT = float(np.finfo(np.float64).max) / 4


@dataclass(frozen=True)
class PenaltyParams:
    """Strengths of the two penalty terms and the saturation scale."""

    eps1: float = 0.1
    eps2: float = 1e-5
    beta: float = 10.0

    def __post_init__(self) -> None:
        check_float("eps1", self.eps1, 0, math.inf, "[)")
        check_float("eps2", self.eps2, 0, math.inf, "[)")
        check_float("beta", self.beta, 0, math.inf)


def check_batch(net: Network, batch: Split) -> None:
    """Raise ShapeError unless ``batch`` has one attribute per input of
    ``net`` and one class per output.

    A batch is checked where it enters: :func:`objective`,
    :func:`gradients`, :func:`~nnprune.training.accuracy` and the one
    gate of :func:`~nnprune.training.descend` and
    :func:`~nnprune.training.train` call this.
    """
    if (batch.examples.shape[-1], batch.n_classes) != (net.n_inputs, net.n_outputs):
        raise ShapeError(
            f"batch of {batch.examples.shape[-1]} attributes and {batch.n_classes} classes "
            f"does not fit a network of {net.n_inputs} inputs and {net.n_outputs} outputs"
        )


def cross_entropy(preds: np.ndarray, targets: np.ndarray) -> float:
    """Summed cross-entropy of predictions in (0,1) against one-hot targets.

    F = -sum_i sum_p [ t*log(S) + (1-t)*log(1-S) ], with S clamped to
    [1e-12, 1-1e-12] before the logs.
    """
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise ShapeError(f"preds shape {preds.shape} != targets shape {targets.shape}")
    s = np.clip(preds, LOG_CLAMP, 1.0 - LOG_CLAMP)
    return float(-(targets * np.log(s) + (1.0 - targets) * np.log(1.0 - s)).sum())


def penalty(net: Network, params: PenaltyParams) -> float:
    """Two-part weight penalty, one term per entry of ``net.weights``.

    Masked weights are exactly zero, so both terms vanish for them and the
    sums can run over the whole vector.
    """
    # non-finite intermediate values are possible for diverged weights and
    # are caught by the trainer's divergence guard; keep the math quiet here
    with np.errstate(over="ignore", invalid="ignore"):
        squares = net.weights ** 2
        scaled = params.beta * squares
        saturating = (scaled / (1.0 + scaled)).sum()
        return float(params.eps1 * saturating + params.eps2 * squares.sum())


def objective(net: Network, batch: Split, params: PenaltyParams) -> float:
    """theta = cross-entropy over the batch + weight penalty.

    A training epoch needs theta only to detect divergence, so it computes
    it only when :func:`theta_certainly_finite` cannot prove it finite.
    """
    check_batch(net, batch)
    _, preds = forward_batch(net, batch.examples)
    return cross_entropy(preds, batch.targets) + penalty(net, params)


def theta_certainly_finite(
    weights: np.ndarray, at: tuple[np.ndarray, np.ndarray], params: PenaltyParams
) -> bool:
    """A cheap sufficient condition for a finite theta at ``at``.

    ``weights`` holds every weight of the network, in any shape, and
    ``at`` must be the ``(hidden, preds)`` pass of that network on a
    :class:`~nnprune.data.Split`, whose targets are one-hot rows of 0.0
    and 1.0 by construction.  True means ``objective`` is finite there;
    False proves nothing.  The argument, with S the sum of
    all squared weights and N the number of weights:

    * no NaN in the outputs: every clamped log term is at most
      CROSS_ENTROPY_TERM_MAX, so the cross-entropy is at most that times
      the number of outputs (the outputs lie in [0, 1] or are NaN, so
      their sum is NaN exactly when one of them is);
    * beta*S and S finite: every w^2, beta*w^2 and the quadratic sum are
      finite, every saturating term lies in [0, 1], and the penalty is at
      most eps1*N + eps2*S;
    * the sum of these bounds stays below CERTIFICATE_LIMIT, a quarter of
      the largest double.

    A NaN or infinite weight makes S non-finite and the check False.

    The trainer always hands it the weights and the pass of a stack of
    networks, of one or more, ``[S, ...]`` arrays; one network's 2-D
    pass and its ``weights`` are checked the same way.  For a
    stack, True means theta is finite for every row.  Each row's S, N and
    output count are at most the stack's totals, and its bound is a sum of
    non-negative terms in them, so the stack's bound dominates every
    row's; a NaN output of any row makes the stack's output sum NaN.
    """
    _, preds = at
    # a Python float: arithmetic on an overflowed S gives inf without a numpy warning
    squares = float(np.vdot(weights, weights))
    bound = (
        CROSS_ENTROPY_TERM_MAX * preds.size
        + params.eps1 * weights.size
        + params.eps2 * squares
    )
    return bool(
        squares * max(params.beta, 1.0) <= CERTIFICATE_LIMIT
        and bound <= CERTIFICATE_LIMIT
        and not math.isnan(preds.sum())
    )


def data_gradients(
    net: Network,
    examples: np.ndarray,
    targets_t: np.ndarray,
    at: tuple[np.ndarray, np.ndarray],
    out: tuple[np.ndarray, np.ndarray],
    work: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the summed cross-entropy alone, masked entries raw.

    Every array is feature-major, the example axis last, as
    :func:`~nnprune.network._forward_kernel` writes its pass: ``at`` must
    be the ``(hidden [h, k], preds [o, k])`` pass of ``net`` over the
    batch ``examples [k, n]`` for its current weights, and ``targets_t
    [o, k]`` the batch's targets transposed.  The batch must fit ``net``;
    ``at`` is differentiated, no pass is run and nothing is checked here.
    ``work`` is scratch storage the caller owns, ``(d_out [o, k],
    slope [h, k], d_hidden [h, k])``.  The gradient is written into
    ``out``, the ``net.views`` of a vector in the layout of
    ``net.weights``, which is returned.  :func:`gradients` hands it one
    network and 2-D arrays.  The trainer always hands it a stack of
    networks, of one or more, and its rows' arrays, ``[S, ...]``: every
    array then has a leading stack axis, and each row is, bit for bit,
    the gradient of that network on its own split.
    """
    hidden, preds = at
    d_w, d_v = out
    d_out, slope, d_hidden = work
    np.subtract(preds, targets_t, out=d_out)             # dF/d(pre-logistic)
    np.matmul(d_out, hidden.swapaxes(-1, -2), out=d_v)   # [o, h]
    np.square(hidden, out=slope)                         # tanh' = 1 - hidden^2
    np.subtract(1.0, slope, out=slope)
    np.matmul(net.v.swapaxes(-1, -2), d_out, out=d_hidden)
    np.multiply(d_hidden, slope, out=d_hidden)
    np.matmul(d_hidden, examples, out=d_w)               # [h, n]
    return out


def penalty_gradients(
    weights: np.ndarray, params: PenaltyParams, out: np.ndarray
) -> np.ndarray:
    """Gradient of the penalty alone at ``weights``, masked entries raw.

    The penalty is a sum of one term per weight, so its gradient is
    elementwise: ``weights`` may be ``net.w``, ``net.v`` or
    ``net.weights``, and the gradient is written into ``out``, an array of
    its shape, which is returned.  Masked weights are exactly 0.0, so
    their raw entries are 0.0 as well.

    Diverged weights overflow these steps; the callers own the
    floating-point error state, and the trainer's divergence check reports
    the overflow instead of a warning.
    """
    # eps1 * 2 * beta * w / (1 + beta * w^2)^2 + 2 * eps2 * w, one step at a time
    denom = np.square(weights)
    np.multiply(denom, params.beta, out=denom)
    np.add(denom, 1.0, out=denom)
    np.square(denom, out=denom)
    np.multiply(weights, params.eps1 * 2.0 * params.beta, out=out)
    np.divide(out, denom, out=out)
    np.multiply(weights, 2.0 * params.eps2, out=denom)
    np.add(out, denom, out=out)
    return out


def gradients(net: Network, batch: Split, params: PenaltyParams) -> np.ndarray:
    """Analytic gradient of the full objective in the layout of
    ``net.weights``, masked entries zeroed.

    Unlike the per-epoch kernels, it checks its batch and allocates the
    storage it returns.
    """
    check_batch(net, batch)
    grad, pen = np.empty_like(net.weights), np.empty_like(net.weights)
    hidden, preds = forward_batch(net, batch.examples)
    at = (hidden.T, preds.T)  # the kernel's own feature-major buffers
    work = (np.empty_like(at[1]), np.empty_like(at[0]), np.empty_like(at[0]))
    data_gradients(net, batch.examples, batch.targets.T, at, net.views(grad), work)
    # overflow on diverged weights shows as a non-finite entry, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        penalty_gradients(net.weights, params, pen)
    grad += pen
    grad[~net.mask] = 0.0
    return grad


def finite_diff_check(
    net: Network,
    batch: Split,
    params: PenaltyParams,
    step: float = 1e-6,
) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    Each unmasked weight is perturbed by +/-step and the central difference
    (theta(w+step) - theta(w-step)) / (2*step) is compared against the
    analytic entry; the relative error uses the denominator
    max(|analytic|, |numeric|, 1e-8).  Returns the maximum over all
    unmasked weights, or NaN if any comparison is NaN (an overflowing step
    or weights whose objective is not finite), so that no tolerance test
    passes on it.  Steps around 1e-6 balance truncation against rounding;
    a large step (say 0.5) inflates truncation error and can push the
    reported error past any sensible tolerance.
    """
    check_float("step", step, 0, math.inf)
    analytic = gradients(net, batch, params)
    work = net.copy()
    weights = work.weights
    worst = 0.0
    for i in np.flatnonzero(work.mask):
        saved = weights[i]
        weights[i] = saved + step
        plus = objective(work, batch, params)
        weights[i] = saved - step
        minus = objective(work, batch, params)
        weights[i] = saved
        numeric = (plus - minus) / (2.0 * step)
        a = analytic[i]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        if math.isnan(rel) or rel > worst:  # a NaN result sticks
            worst = rel
    return worst
