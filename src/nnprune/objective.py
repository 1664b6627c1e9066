"""Training objective: cross-entropy loss plus a two-part weight penalty.

The objective minimized during training is

    theta = F + P

where F is the summed cross-entropy of the logistic outputs over the batch
and P combines a saturating term  eps1 * beta*w^2 / (1 + beta*w^2)  with a
quadratic term  eps2 * w^2  over every connection.  The saturating term
pulls small weights toward zero while leaving large weights nearly alone,
which is what makes magnitude-based weight elimination effective after
training.

A batch is a :class:`~nnprune.data.Split`, which holds at least one
example and derives its one-hot targets from its class indices.
:func:`objective`, :func:`data_gradients`, :func:`gradients` and
:func:`finite_diff_check` take one and raise ShapeError when its attribute
or class count does not fit the network (:func:`check_batch`, which
:func:`~nnprune.training.accuracy` shares).

The data gradient differentiates the ``(hidden, preds)`` pair of a forward
pass already run: :func:`~nnprune.network.forward_batch`'s, or the
trainer's own pass into buffers it keeps across epochs (see
:func:`~nnprune.training.descend`).  :func:`objective` returns theta
alone.  A training epoch needs theta only to detect divergence, so it asks
:func:`theta_certainly_finite`, which proves theta finite from the pass
and the weights without computing it, and falls back to :func:`objective`
only when that proof fails.

A gradient is one vector in the packed layout of ``net.weights``, which
:func:`data_gradients` and :func:`penalty_gradients` can write into across
epochs; :func:`penalty_gradients` and :func:`theta_certainly_finite` take
any array of weights, elementwise, and :func:`penalty_gradients` leaves
the floating-point error state to its callers.  Both gradients leave
masked entries raw (the trainer pins masked weights after its update);
:func:`gradients`, the full gradient, zeroes them.  A central
finite-difference checker serves as an independent oracle for the
analytic gradients.
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
    ``net`` and one class per output."""
    if (batch.examples.shape[1], batch.n_classes) != (net.n_inputs, net.n_outputs):
        raise ShapeError(
            f"batch of {batch.examples.shape[1]} attributes and {batch.n_classes} classes "
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
    """Two-part weight penalty over the unmasked connections.

    Masked weights are exactly zero, so both terms vanish for them and the
    sums can run over the dense arrays.
    """
    # non-finite intermediate values are possible for diverged weights and
    # are caught by the trainer's divergence guard; keep the math quiet here
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = net.w ** 2
        v2 = net.v ** 2
        bw2 = params.beta * w2
        bv2 = params.beta * v2
        saturating = (bw2 / (1.0 + bw2)).sum() + (bv2 / (1.0 + bv2)).sum()
        quadratic = w2.sum() + v2.sum()
        return float(params.eps1 * saturating + params.eps2 * quadratic)


def objective(net: Network, batch: Split, params: PenaltyParams) -> float:
    """theta = cross-entropy over the batch + weight penalty."""
    check_batch(net, batch)
    _, preds = forward_batch(net, batch.examples)
    return cross_entropy(preds, batch.targets) + penalty(net, params)


def theta_certainly_finite(
    weights: np.ndarray, at: tuple[np.ndarray, np.ndarray], params: PenaltyParams
) -> bool:
    """A cheap sufficient condition for a finite theta at ``at``.

    ``weights`` holds every weight of the network, in any shape (the
    trainer passes ``net.weights``).  ``at`` must be the ``(hidden, preds)``
    pass of that network on a :class:`~nnprune.data.Split`, whose targets
    are one-hot rows of 0.0 and 1.0 by construction.  True means ``objective``
    is finite there; False proves nothing.  The argument, with S the sum of
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
    batch: Split,
    at: tuple[np.ndarray, np.ndarray],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the summed cross-entropy alone, masked entries raw.

    ``at`` must be the ``(hidden, preds)`` pass of ``net`` over
    ``batch.examples`` for its current weights; it is differentiated, no
    pass is run here.  The gradient, in the layout of ``net.weights``, is
    written into ``out`` when given, else into new storage, and returned.
    """
    check_batch(net, batch)
    hidden, preds = at
    if preds.shape != batch.targets.shape:
        raise ShapeError(
            f"evaluation outputs {preds.shape} do not match targets {batch.targets.shape}"
        )
    grad = np.empty_like(net.weights) if out is None else out
    d_w, d_v = net.views(grad)
    d_out = preds - batch.targets        # dF/d(pre-logistic), [k, o]
    np.matmul(d_out.T, hidden, out=d_v)  # [o, h]
    slope = hidden ** 2                  # tanh' = 1 - hidden^2, [k, h]
    np.subtract(1.0, slope, out=slope)
    d_hidden = d_out @ net.v
    d_hidden *= slope
    np.matmul(d_hidden.T, batch.examples, out=d_w)  # [h, n]
    return grad


def penalty_gradients(
    weights: np.ndarray, params: PenaltyParams, out: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of the penalty alone at ``weights``, masked entries raw.

    The penalty is a sum of one term per weight, so its gradient is
    elementwise: ``weights`` may be ``net.w``, ``net.v`` or
    ``net.weights``, and the result has its shape.  Masked weights are
    exactly 0.0, so their raw entries are 0.0 as well.  The gradient is
    written into ``out`` when given, else into new storage, and returned.

    Diverged weights overflow these steps; the callers own the
    floating-point error state, and the trainer's divergence check reports
    the overflow instead of a warning.
    """
    if out is None:
        out = np.empty(np.shape(weights))
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
    ``net.weights``, masked entries zeroed."""
    grad = data_gradients(net, batch, forward_batch(net, batch.examples))
    # overflow on diverged weights shows as a non-finite entry, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        pen = penalty_gradients(net.weights, params)
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
