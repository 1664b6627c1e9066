"""Training objective: cross-entropy loss plus a two-part weight penalty.

The objective minimized during training is

    theta = F + P

where F is the summed cross-entropy of the logistic outputs over the batch
and P combines a saturating term  eps1 * beta*w^2 / (1 + beta*w^2)  with a
quadratic term  eps2 * w^2  over every connection.  The saturating term
pulls small weights toward zero while leaving large weights nearly alone,
which is what makes magnitude-based weight elimination effective after
training.

The data gradient is taken from a :class:`ForwardPass` instead of a pass of
its own: :func:`forward_pass` runs one, and :func:`objective` returns the
pass it ran together with theta as an :class:`Evaluation`.  A training
epoch needs theta only to detect divergence, so it asks
:func:`theta_certainly_finite`, which proves theta finite from the pass and
the weights without computing it, and falls back to :func:`objective` only
when that proof fails.  :func:`data_gradients` and
:func:`penalty_gradients` return raw gradients (the trainer pins masked
weights once after its update); :func:`gradients`, the full gradient,
zeroes masked entries.  A central finite-difference checker serves as an
independent oracle for the analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
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
        for name in ("eps1", "eps2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")
        if not 0 < self.beta < math.inf:
            raise ConfigurationError(f"beta must be finite and > 0, got {self.beta}")


@dataclass(frozen=True)
class ForwardPass:
    """One forward pass of one network over one batch."""

    hidden: np.ndarray  # [k, h] tanh activations
    preds: np.ndarray   # [k, o] logistic outputs


@dataclass(frozen=True)
class Evaluation(ForwardPass):
    """Theta of one network on one batch, with the forward pass behind it."""

    theta: float


@dataclass
class Gradients:
    """Gradient wrt every weight, w and v shaped.

    :func:`data_gradients` and :func:`penalty_gradients` leave masked
    entries raw (whatever the formula gives there); :func:`gradients`
    zeroes them.
    """

    d_w: np.ndarray  # [h, n]
    d_v: np.ndarray  # [o, h]


def _check_batch(net: Network, inputs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != net.n_inputs:
        raise ShapeError(f"inputs shape {inputs.shape}, expected (k, {net.n_inputs})")
    if targets.shape != (inputs.shape[0], net.n_outputs):
        raise ShapeError(
            f"targets shape {targets.shape}, expected ({inputs.shape[0]}, {net.n_outputs})"
        )
    return inputs, targets


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


def forward_pass(net: Network, inputs: np.ndarray) -> ForwardPass:
    """One forward pass of ``net`` over ``inputs``, ready to differentiate."""
    hidden, preds = forward_batch(net, inputs)
    return ForwardPass(hidden=hidden, preds=preds)


def objective(
    net: Network,
    inputs: np.ndarray,
    targets: np.ndarray,
    params: PenaltyParams,
) -> Evaluation:
    """theta = cross-entropy over the batch + weight penalty.

    Runs one forward pass and returns it together with theta.
    """
    inputs, targets = _check_batch(net, inputs, targets)
    if inputs.shape[0] == 0:
        raise ShapeError("batch must be nonempty")
    hidden, preds = forward_batch(net, inputs)
    theta = cross_entropy(preds, targets) + penalty(net, params)
    return Evaluation(hidden=hidden, preds=preds, theta=theta)


def theta_certainly_finite(net: Network, at: ForwardPass, params: PenaltyParams) -> bool:
    """A cheap sufficient condition for a finite theta at ``at``.

    ``at`` must be the forward pass of ``net`` on a batch whose targets are
    one-hot rows of 0.0 and 1.0 (every :class:`~nnprune.data.Split` is).
    True means ``objective(net, ...).theta`` is finite; False proves
    nothing.  The argument, with S the sum of all squared weights and N the
    number of weights:

    * no NaN in the outputs: every clamped log term is at most
      CROSS_ENTROPY_TERM_MAX, so the cross-entropy is at most that times
      the number of outputs;
    * beta*S and S finite: every w^2, beta*w^2 and the quadratic sum are
      finite, every saturating term lies in [0, 1], and the penalty is at
      most eps1*N + eps2*S;
    * the sum of these bounds stays below CERTIFICATE_LIMIT, a quarter of
      the largest double.

    A NaN or infinite weight makes S non-finite and the check False.
    """
    # Python floats: an overflow gives inf without a numpy warning
    squares = float(np.vdot(net.w, net.w)) + float(np.vdot(net.v, net.v))
    bound = (
        CROSS_ENTROPY_TERM_MAX * at.preds.size
        + params.eps1 * (net.w.size + net.v.size)
        + params.eps2 * squares
    )
    return bool(
        squares * max(params.beta, 1.0) <= CERTIFICATE_LIMIT
        and bound <= CERTIFICATE_LIMIT
        and not np.isnan(at.preds).any()
    )


def data_gradients(
    net: Network, inputs: np.ndarray, targets: np.ndarray, at: ForwardPass
) -> Gradients:
    """Gradient of the summed cross-entropy alone, masked entries raw.

    ``at`` must be the forward pass of ``net`` over ``inputs`` for its
    current weights; it is differentiated, no pass is run here.
    """
    inputs, targets = _check_batch(net, inputs, targets)
    if at.preds.shape != targets.shape:
        raise ShapeError(
            f"evaluation outputs {at.preds.shape} do not match targets {targets.shape}"
        )
    d_out = at.preds - targets                   # dF/d(pre-logistic), [k, o]
    d_v = d_out.T @ at.hidden                    # [o, h]
    d_hidden = (d_out @ net.v) * (1.0 - at.hidden ** 2)
    d_w = d_hidden.T @ inputs                    # [h, n]
    return Gradients(d_w=d_w, d_v=d_v)


def _penalty_grad(weights: np.ndarray, params: PenaltyParams) -> np.ndarray:
    w2 = weights ** 2
    return (
        params.eps1 * 2.0 * params.beta * weights / (1.0 + params.beta * w2) ** 2
        + 2.0 * params.eps2 * weights
    )


def penalty_gradients(net: Network, params: PenaltyParams) -> Gradients:
    """Gradient of the penalty alone, masked entries raw.

    Masked weights are exactly 0.0, so their raw entries are 0.0 as well.
    """
    # overflow on diverged weights is caught by the trainer's divergence check
    with np.errstate(over="ignore", invalid="ignore"):
        return Gradients(d_w=_penalty_grad(net.w, params), d_v=_penalty_grad(net.v, params))


def gradients(
    net: Network,
    inputs: np.ndarray,
    targets: np.ndarray,
    params: PenaltyParams,
) -> Gradients:
    """Analytic gradient of the full objective, masked entries zeroed."""
    data = data_gradients(net, inputs, targets, objective(net, inputs, targets, params))
    pen = penalty_gradients(net, params)
    d_w = data.d_w + pen.d_w
    d_v = data.d_v + pen.d_v
    d_w[~net.w_mask] = 0.0
    d_v[~net.v_mask] = 0.0
    return Gradients(d_w=d_w, d_v=d_v)


def finite_diff_check(
    net: Network,
    inputs: np.ndarray,
    targets: np.ndarray,
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
    if not step > 0:
        raise ConfigurationError(f"step must be > 0, got {step}")
    analytic = gradients(net, inputs, targets, params)
    work = net.copy()
    worst = 0.0
    for matrix, mask, grad in (
        (work.w, work.w_mask, analytic.d_w),
        (work.v, work.v_mask, analytic.d_v),
    ):
        for idx in np.argwhere(mask):
            i, j = idx
            saved = matrix[i, j]
            matrix[i, j] = saved + step
            plus = objective(work, inputs, targets, params).theta
            matrix[i, j] = saved - step
            minus = objective(work, inputs, targets, params).theta
            matrix[i, j] = saved
            numeric = (plus - minus) / (2.0 * step)
            a = grad[i, j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if math.isnan(rel) or rel > worst:  # a NaN result sticks
                worst = rel
    return worst
