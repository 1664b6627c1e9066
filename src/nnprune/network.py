"""Masked single-hidden-layer feedforward classifier.

The network maps an input vector x through a tanh hidden layer and a
logistic output layer, with no bias terms on either layer.  Every weight
carries a boolean mask flag; a masked weight is pinned to exactly 0.0 and
stays zero through training and pruning.  Node-level activity flags record
inputs and hidden units whose connections have all been removed.

The weights of a network live in one vector and its mask flags in another,
in the same packed layout, so one elementwise operation covers every weight.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParseError, ShapeError, check_float, check_int

# init draws from uniform(-r, r), whose width 2r must stay finite
MAX_INIT_RANGE = float(np.finfo(np.float64).max) / 2


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and initialization settings for a fresh network."""

    n_inputs: int
    n_hidden: int
    n_outputs: int
    init_range: float = 1.0
    init_seed: int = 1

    def __post_init__(self) -> None:
        for name in ("n_inputs", "n_hidden", "n_outputs"):
            check_int(name, getattr(self, name), 1)
        check_float("init_range", self.init_range, 0, MAX_INIT_RANGE, "(]")
        check_int("init_seed", self.init_seed, 0)


@dataclass(frozen=True, eq=False)
class Network:
    """Weights, masks, and node activity flags of a 1-hidden-layer net.

    ``w[m, l]`` connects input l to hidden unit m; ``v[p, m]`` connects
    hidden unit m to output p.  Construction copies the arrays it is given
    into ``weights`` and ``mask``, one vector each in the packed layout of
    :meth:`views`; ``w``, ``v``, ``w_mask`` and ``v_mask`` are views of
    them and, like every field, cannot be rebound.  Invariants:

    * mask false => weight exactly 0.0,
    * ``input_active[l]`` false => column l of ``w_mask`` all false,
    * ``hidden_active[m]`` false => row m of ``w_mask`` and column m of
      ``v_mask`` all false.
    """

    w: np.ndarray              # float64 [h, n]
    v: np.ndarray              # float64 [o, h]
    w_mask: np.ndarray         # bool [h, n]
    v_mask: np.ndarray         # bool [o, h]
    input_active: np.ndarray   # bool [n]
    hidden_active: np.ndarray  # bool [h]
    weights: np.ndarray = field(init=False, repr=False)  # float64 [h*n + o*h]
    mask: np.ndarray = field(init=False, repr=False)     # bool [h*n + o*h]

    def __post_init__(self) -> None:
        h, n = self.w.shape
        o, h2 = self.v.shape
        if h2 != h:
            raise ShapeError(f"v has {h2} hidden columns but w has {h} hidden rows")
        if self.w_mask.shape != (h, n) or self.v_mask.shape != (o, h):
            raise ShapeError("mask shapes do not match weight shapes")
        if self.input_active.shape != (n,) or self.hidden_active.shape != (h,):
            raise ShapeError("activity flag shapes do not match the architecture")
        weights = np.concatenate((self.w, self.v), axis=None, dtype=np.float64)
        mask = np.concatenate((self.w_mask, self.v_mask), axis=None, dtype=bool)
        w, v = self.views(weights)
        w_mask, v_mask = self.views(mask)
        vars(self).update(  # the one place the frozen fields are set
            weights=weights, mask=mask, w=w, v=v, w_mask=w_mask, v_mask=v_mask,
            input_active=np.array(self.input_active, dtype=bool),
            hidden_active=np.array(self.hidden_active, dtype=bool),
        )

    @property
    def n_inputs(self) -> int:
        return self.w.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.w.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.v.shape[0]

    @property
    def n_active_inputs(self) -> int:
        return int(self.input_active.sum())

    @property
    def n_active_hidden(self) -> int:
        return int(self.hidden_active.sum())

    def architecture(self) -> str:
        """Active inputs, active hidden units and outputs, e.g. ``"3-1-2"``."""
        return f"{self.n_active_inputs}-{self.n_active_hidden}-{self.n_outputs}"

    def n_unmasked(self) -> int:
        """Number of connections still present (w and v together)."""
        return int(self.mask.sum())

    def copy(self) -> "Network":
        return replace(self)

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``w``- and ``v``-shaped views of an array in the packed layout
        along its last axis: the entries of ``w`` row-major, then those of
        ``v``.  Leading axes are kept: views of ``[S, h*n + o*h]`` are
        ``[S, h, n]`` and ``[S, o, h]``."""
        lead, split = flat.shape[:-1], self.w.size
        w, v = flat[..., :split], flat[..., split:]
        return w.reshape(lead + self.w.shape), v.reshape(lead + self.v.shape)

    def apply_masks(self) -> None:
        """Pin masked-out weights back to exactly 0.0."""
        self.weights[~self.mask] = 0.0

    def validate(self) -> None:
        """Check the mask/activity invariants; raise ParseError on violation."""
        if np.any(self.weights[~self.mask] != 0.0):
            raise ParseError("masked-out weight has a nonzero value")
        dead_in = ~self.input_active
        if np.any(self.w_mask[:, dead_in]):
            raise ParseError("inactive input still has unmasked outgoing weights")
        dead_hid = ~self.hidden_active
        if np.any(self.w_mask[dead_hid, :]) or np.any(self.v_mask[:, dead_hid]):
            raise ParseError("inactive hidden unit still has unmasked weights")


def init_network(config: NetworkConfig) -> Network:
    """Create a fully connected network with uniform random weights.

    Every weight is drawn from [-init_range, +init_range] with a generator
    seeded by ``config.init_seed``; the draw order (w then v) is fixed, so equal
    configs give bit-identical networks.
    """
    rng = np.random.default_rng(config.init_seed)
    r = config.init_range
    w = rng.uniform(-r, r, size=(config.n_hidden, config.n_inputs))
    v = rng.uniform(-r, r, size=(config.n_outputs, config.n_hidden))
    return Network(
        w=w,
        v=v,
        w_mask=np.ones(w.shape, dtype=bool),
        v_mask=np.ones(v.shape, dtype=bool),
        input_active=np.ones(config.n_inputs, dtype=bool),
        hidden_active=np.ones(config.n_hidden, dtype=bool),
    )


def forward_batch(net: Network, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass over a batch: returns (hidden [k, h], output [k, o]).

    hidden[i, m] = tanh(sum_l inputs[i, l] * w[m, l]);
    output[i, p] = logistic(sum_m hidden[i, m] * v[p, m]).

    The logistic 1 / (1 + exp(-z)) is taken in its numerically stable form:
    with e = exp(-|z|), which never overflows, z >= 0 gives 1 / (1 + e) and
    z < 0 gives e / (1 + e) = exp(z) / (1 + exp(z)).  The numerator (1 or
    e) is selected by one maximum, with no boolean indexing.  Training
    runs the same kernel, :func:`_forward_kernel`, into buffers of its own.
    The kernel works feature-major, so ``inputs`` is copied transposed
    once here, as the trainer's stack copies its examples once per
    training call, and the two arrays returned are transposed views of
    the kernel's buffers.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != net.n_inputs:
        raise ShapeError(
            f"batch has shape {inputs.shape}, expected (k, {net.n_inputs})"
        )
    run, (hidden, output) = _forward_kernel(net, np.ascontiguousarray(inputs.T))
    run()
    return hidden.T, output.T


def _forward_kernel(net: Network, inputs_t: np.ndarray) -> tuple[Callable[[], None], tuple]:
    """Bind the forward pass of ``net`` on the feature-major inputs
    ``inputs_t [n, k]`` to buffers allocated once: returns a function that
    writes the pass of the current weights (updated in place) into
    ``(hidden [h, k], output [o, k])``, and that pair.

    The example axis is last, so both products, ``w @ inputs_t`` and
    ``v @ hidden``, take the weights as they are stored.
    :func:`forward_batch` hands it one network and 2-D arrays.  The
    trainer always hands it a stack of networks, of one or more, and its
    rows' inputs, ``[S, n, k]``: every array then has a leading stack
    axis, and each row of the pass is, bit for bit, that network's pass
    on its own inputs.
    """
    w, v = net.w, net.v  # every update is in place
    lead, k = inputs_t.shape[:-2], inputs_t.shape[-1]
    hidden = np.empty(lead + (net.n_hidden, k))
    output = np.empty(lead + (net.n_outputs, k))
    e, nonneg = np.empty(output.shape), np.empty(output.shape, dtype=bool)

    def run() -> None:
        np.tanh(np.matmul(w, inputs_t, out=hidden), out=hidden)
        z = np.matmul(v, hidden, out=output)
        np.greater_equal(z, 0.0, out=nonneg)
        np.exp(np.negative(np.abs(z, out=e), out=e), out=e)  # e = exp(-|z|)
        # 1 where z >= 0, else e, as 0 <= e <= 1; a NaN e stays NaN
        np.maximum(e, nonneg, out=output)
        np.divide(output, np.add(e, 1.0, out=e), out=output)

    return run, (hidden, output)


def classify_batch(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Predicted class per row of ``inputs``: index of the largest output,
    lowest index on ties."""
    _, output = forward_batch(net, inputs)
    return np.argmax(output, axis=1)


def serialize(net: Network) -> str:
    """Encode the network as a JSON document (weights row-major).

    Uses the default repr-based float encoding, so deserialize(serialize(n))
    restores every weight bit-exactly.
    """
    doc = {
        "n": net.n_inputs,
        "h": net.n_hidden,
        "o": net.n_outputs,
        "w": [float(x) for x in net.w.ravel()],
        "v": [float(x) for x in net.v.ravel()],
        "w_mask": [bool(b) for b in net.w_mask.ravel()],
        "v_mask": [bool(b) for b in net.v_mask.ravel()],
        "input_active": [bool(b) for b in net.input_active],
        "hidden_active": [bool(b) for b in net.hidden_active],
    }
    return json.dumps(doc, sort_keys=True)


# the fields serialize writes
_FIELDS = {"n", "h", "o", "w", "v", "w_mask", "v_mask", "input_active", "hidden_active"}


def _field(doc: dict, key: str, length: int) -> list:
    if key not in doc:
        raise ParseError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(f"field {key!r} must be a list of length {length}")
    return value


def _weights(doc: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    values = _field(doc, key, shape[0] * shape[1])
    if not all(type(x) in (int, float) for x in values):  # bools are ints too
        raise ParseError(f"field {key!r} must be a flat list of numbers")
    try:
        weights = np.array(values, dtype=np.float64).reshape(shape)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(f"field {key!r} holds a non-finite weight") from None
    if not np.isfinite(weights).all():
        raise ParseError(f"field {key!r} holds a non-finite weight")
    return weights


def _flags(doc: dict, key: str, length: int) -> np.ndarray:
    values = _field(doc, key, length)
    if not all(isinstance(b, bool) for b in values):
        raise ParseError(f"field {key!r} must be a list of booleans")
    return np.array(values, dtype=bool)


def deserialize(text: str) -> Network:
    """Parse a JSON document produced by :func:`serialize`.

    Rejects malformed documents, fields :func:`serialize` never writes,
    dimension mismatches, non-integer sizes, non-finite weights, non-boolean
    flags, and invariant violations (nonzero masked weights, inconsistent
    activity flags).
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = doc.keys() - _FIELDS
    if unknown:
        raise ParseError(f"unknown network fields: {sorted(unknown)}")
    n, h, o = (doc.get(key) for key in ("n", "h", "o"))
    if not all(type(size) is int for size in (n, h, o)):  # bools are ints too
        raise ParseError("fields n, h, o must be integers")
    if n < 1 or h < 1 or o < 1:
        raise ParseError(f"layer sizes must all be >= 1, got {n}-{h}-{o}")
    net = Network(
        w=_weights(doc, "w", (h, n)),
        v=_weights(doc, "v", (o, h)),
        w_mask=_flags(doc, "w_mask", h * n).reshape(h, n),
        v_mask=_flags(doc, "v_mask", o * h).reshape(o, h),
        input_active=_flags(doc, "input_active", n),
        hidden_active=_flags(doc, "hidden_active", h),
    )
    net.validate()
    return net
