import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnprune import (
    ConfigurationError,
    DatasetError,
    NetworkConfig,
    PenaltyParams,
    ShapeError,
    Split,
    accuracy,
    cross_entropy,
    finite_diff_check,
    forward_batch,
    gradients,
    init_network,
    objective,
    penalty,
)
from nnprune.objective import (
    data_gradients,
    penalty_gradients,
    theta_certainly_finite,
)

# hand evaluations, frozen
TWO_LN_TWO = 1.3862943611198906          # -(log .5 + log .5)
MINUS_TWO_LN_09 = 0.21072103131565256    # -(log .9 + log(1-.1))
SINGLE_WEIGHT_PENALTY = 0.09091909090909091  # 0.1*(10/11) + 1e-5


def make_batch(n, o, k, seed=0) -> Split:
    rng = np.random.default_rng(seed)
    return Split(rng.random((k, n)), rng.integers(0, o, size=k), o)


class TestCrossEntropy:
    def test_uniform_prediction(self):
        f = cross_entropy(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert f == pytest.approx(TWO_LN_TWO, abs=1e-12)

    def test_confident_prediction(self):
        f = cross_entropy(np.array([[0.9, 0.1]]), np.array([[1.0, 0.0]]))
        assert f == pytest.approx(MINUS_TWO_LN_09, abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        f = cross_entropy(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert 0.0 <= f < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_permutation_invariance(self):
        targets = make_batch(1, 3, 20, seed=3).targets
        preds = np.random.default_rng(4).random((20, 3))
        f1 = cross_entropy(preds, targets)
        perm = np.random.default_rng(5).permutation(20)
        f2 = cross_entropy(preds[perm], targets[perm])
        assert f1 == pytest.approx(f2, rel=1e-15)


class TestPenalty:
    def test_zero_network(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=1))
        net.w[:] = 0.0
        net.v[:] = 0.0
        assert penalty(net, PenaltyParams()) == 0.0

    def test_single_weight_value(self):
        net = init_network(NetworkConfig(1, 1, 1, init_seed=1))
        net.w[0, 0] = 1.0
        net.v[0, 0] = 0.0
        p = penalty(net, PenaltyParams(eps1=0.1, eps2=1e-5, beta=10.0))
        assert p == pytest.approx(SINGLE_WEIGHT_PENALTY, abs=1e-9)

    def test_even_in_weights(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=8))
        params = PenaltyParams()
        p1 = penalty(net, params)
        net.w[...] = -net.w
        net.v[...] = -net.v
        assert penalty(net, params) == pytest.approx(p1, rel=1e-15)

    def test_positive_iff_nonzero(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=8))
        assert penalty(net, PenaltyParams()) > 0.0
        net.w[:] = 0.0
        net.v[:] = 0.0
        assert penalty(net, PenaltyParams()) == 0.0
        net.v[1, 1] = 1e-6
        assert penalty(net, PenaltyParams()) > 0.0

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            PenaltyParams(eps1=-0.1)
        with pytest.raises(ConfigurationError):
            PenaltyParams(beta=0.0)


class TestObjective:
    def test_penalty_off_equals_cross_entropy(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=5))
        batch = make_batch(3, 2, 10, seed=5)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        _, preds = forward_batch(net, batch.examples)
        assert objective(net, batch, off) == pytest.approx(
            cross_entropy(preds, batch.targets), rel=1e-15
        )

    def test_zero_network_two_class(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=5))
        net.w[:] = 0.0
        net.v[:] = 0.0
        batch = make_batch(3, 2, 1, seed=6)
        assert objective(net, batch, PenaltyParams()) == pytest.approx(TWO_LN_TWO, abs=1e-12)

    def test_objective_at_least_cross_entropy(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=5))
        batch = make_batch(3, 2, 10, seed=7)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        assert objective(net, batch, PenaltyParams()) >= objective(net, batch, off)

    def test_empty_batch_rejected(self):
        # an empty batch cannot be built, so objective never sees one
        with pytest.raises(DatasetError, match="at least one example"):
            Split(np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2)

    def test_gradient_rejects_evaluation_of_another_batch(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=5))
        batch = make_batch(3, 2, 10, seed=8)
        at = forward_batch(net, batch.examples[:4])
        with pytest.raises(ShapeError):
            data_gradients(net, batch, at)


BATCH_FUNCTIONS = {
    "objective": lambda net, batch: objective(net, batch, PenaltyParams()),
    "data_gradients": lambda net, batch: data_gradients(
        net, batch, forward_batch(net, np.zeros((len(batch), net.n_inputs)))
    ),
    "gradients": lambda net, batch: gradients(net, batch, PenaltyParams()),
    "finite_diff_check": lambda net, batch: finite_diff_check(net, batch, PenaltyParams()),
    "accuracy": accuracy,
}


class TestBatchFit:
    @pytest.mark.parametrize("function", sorted(BATCH_FUNCTIONS))
    @pytest.mark.parametrize("n,o", [(4, 2), (3, 3)])
    def test_batch_that_does_not_fit_the_network_rejected(self, function, n, o):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=5))
        with pytest.raises(ShapeError):
            BATCH_FUNCTIONS[function](net, make_batch(n, o, 5))


class TestGradients:
    def test_zero_network_zero_gradient(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=2))
        net.w[:] = 0.0
        net.v[:] = 0.0
        batch = make_batch(4, 2, 6, seed=2)
        assert np.all(gradients(net, batch, PenaltyParams()) == 0.0)

    def test_masked_entries_zero(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=2))
        net.w_mask[1, 2] = False
        net.v_mask[0, 1] = False
        net.apply_masks()
        batch = make_batch(4, 2, 6, seed=2)
        d_w, d_v = net.views(gradients(net, batch, PenaltyParams()))
        assert d_w[1, 2] == 0.0
        assert d_v[0, 1] == 0.0

    def test_data_gradient_is_raw_at_masked_entries(self):
        # masks are the trainer's to apply; the formula's value is kept
        net = init_network(NetworkConfig(4, 3, 2, init_seed=2))
        net.w[1, 2] = 0.0
        batch = make_batch(4, 2, 6, seed=2)
        unmasked = data_gradients(net, batch, forward_batch(net, batch.examples))
        net.w_mask[1, 2] = False
        raw = data_gradients(net, batch, forward_batch(net, batch.examples))
        assert net.views(raw)[0][1, 2] != 0.0
        assert np.array_equal(raw, unmasked)

    def test_penalty_only_gradient_sign(self):
        net = init_network(NetworkConfig(1, 1, 1, init_seed=1))
        net.w[0, 0] = 0.7
        net.v[0, 0] = 0.0
        # zero input: data gradient vanishes for w
        g = gradients(net, Split(np.array([[0.0]]), np.array([0]), 1), PenaltyParams())
        assert net.views(g)[0][0, 0] > 0.0

    def test_full_gradient_is_the_per_matrix_gradients_packed(self):
        net = init_network(NetworkConfig(5, 3, 3, init_seed=15))
        net.w_mask[1, 2] = net.v_mask[0, 1] = False
        net.apply_masks()
        batch = make_batch(5, 3, 9, seed=15)
        params = PenaltyParams()
        # the reference: each matrix's gradient on its own, then concatenated
        hidden, preds = forward_batch(net, batch.examples)
        d_out = preds - batch.targets
        d_hidden = (d_out @ net.v) * (1.0 - hidden ** 2)
        d_w = d_hidden.T @ batch.examples + penalty_gradients(net.w, params)
        d_v = d_out.T @ hidden + penalty_gradients(net.v, params)
        d_w[~net.w_mask] = 0.0
        d_v[~net.v_mask] = 0.0
        expected = np.concatenate((d_w.ravel(), d_v.ravel()))
        assert np.array_equal(gradients(net, batch, params), expected)

    def test_matches_finite_differences(self):
        net = init_network(NetworkConfig(9, 3, 2, init_range=1.0, init_seed=42))
        batch = make_batch(9, 2, 10, seed=42)
        err = finite_diff_check(net, batch, PenaltyParams(), step=1e-6)
        assert err < 1e-5

    def test_gradcheck_across_architectures(self):
        # the acceptance suite runs 20 triples; keep a quick 6-triple version
        # here so gradient regressions fail fast
        rng = np.random.default_rng(11)
        for n, h, o in ((9, 3, 2), (8, 3, 2), (9, 4, 6)):
            for _ in range(2):
                seed = int(rng.integers(1 << 31))
                net = init_network(NetworkConfig(n, h, o, init_seed=seed))
                batch = make_batch(n, o, 7, seed=seed)
                params = PenaltyParams(
                    eps1=float(rng.uniform(0, 0.3)),
                    eps2=float(rng.uniform(0, 1e-3)),
                    beta=float(rng.uniform(1, 20)),
                )
                assert finite_diff_check(net, batch, params, step=1e-6) < 1e-5

    def test_zero_network_finite_diff_error_zero(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=9))
        net.w[:] = 0.0
        net.v[:] = 0.0
        batch = make_batch(3, 2, 4, seed=9)
        err = finite_diff_check(net, batch, PenaltyParams(), step=1e-6)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_non_finite_comparison_fails_the_check(self):
        # theta is not finite around weights of 1e200, so neither is any
        # central difference; the check must not report agreement
        net = init_network(NetworkConfig(3, 2, 2, init_seed=9))
        net.w[:] = 1e200
        batch = make_batch(3, 2, 4, seed=9)
        with np.errstate(all="ignore"):
            err = finite_diff_check(net, batch, PenaltyParams(), step=1e-6)
        assert math.isnan(err)
        assert not err < 1e-5

    def test_bad_step_rejected(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=9))
        batch = make_batch(3, 2, 4, seed=9)
        with pytest.raises(ConfigurationError):
            finite_diff_check(net, batch, PenaltyParams(), step=0.0)

    @pytest.mark.parametrize("step", [-1e-6, math.inf, math.nan, "1e-6"])
    def test_step_outside_range_named(self, step):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=9))
        batch = make_batch(3, 2, 4, seed=9)
        with pytest.raises(ConfigurationError, match="step must be"):
            finite_diff_check(net, batch, PenaltyParams(), step=step)

    def test_batch_permutation_invariance(self):
        net = init_network(NetworkConfig(5, 3, 3, init_seed=13))
        batch = make_batch(5, 3, 12, seed=13)
        g1 = gradients(net, batch, PenaltyParams())
        perm = np.random.default_rng(14).permutation(12)
        g2 = gradients(
            net, Split(batch.examples[perm], batch.class_indices[perm], 3), PenaltyParams()
        )
        assert np.allclose(g1, g2, rtol=1e-12, atol=1e-12)


def signed_decades(lo, hi):
    """Floats spread over decades 10**lo .. 10**hi, either sign (1e308 * 9.99
    rounds to inf, so the top decade reaches infinity too)."""
    return st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
        st.sampled_from((1.0, -1.0)),
        st.floats(1.0, 9.99),
        st.integers(lo, hi),
    )


WEIGHT = st.one_of(
    signed_decades(-300, 308), st.sampled_from((0.0, math.inf, -math.inf, math.nan)), st.floats()
)
INPUT = st.one_of(st.floats(0.0, 1.0), signed_decades(-300, 308).filter(math.isfinite))
STRENGTH = signed_decades(-300, 308).map(abs).filter(math.isfinite)

# one example per clause: theta is not finite, and only that clause of the
# certificate stands between it and a wrong True
W_ONES = [1.0] * 12
NAN_SUM = [10.0, -10.0, 10.0, -10.0] + [1.0] * 8  # 1e309 - 1e309 on large inputs
LARGE_INPUTS = [1e308] * 12
UNIT_INPUTS = [0.5] * 12


class TestThetaCertificate:
    @settings(max_examples=600, deadline=None)
    @given(
        weights=st.lists(WEIGHT, min_size=12, max_size=12),
        inputs=st.lists(INPUT, min_size=12, max_size=12),
        classes=st.lists(st.integers(0, 1), min_size=1, max_size=3),
        eps1=st.one_of(st.just(0.0), STRENGTH),
        eps2=st.one_of(st.just(0.0), STRENGTH),
        beta=STRENGTH,
    )
    @example(NAN_SUM, LARGE_INPUTS, [0], 0.1, 1e-5, 10.0)  # nan outputs, finite weights
    @example([1e5] * 12, UNIT_INPUTS, [0, 1, 0], 0.1, 1e-5, 1e300)  # beta*w^2 overflows
    @example([1e154] * 12, UNIT_INPUTS, [0, 1, 0], 0.1, 0.0, 1e-300)  # sum w^2 overflows
    @example([4e153] * 8 + [6e153] * 4, UNIT_INPUTS, [0, 1, 0], 0.1, 0.0, 1e-300)  # w + v does
    @example(W_ONES, UNIT_INPUTS, [0, 1, 0], 1e308, 1e-5, 10.0)  # eps1 term overflows
    @example([1e5] * 12, UNIT_INPUTS, [0, 1, 0], 0.1, 1e300, 10.0)  # eps2 term overflows
    @example(W_ONES, UNIT_INPUTS, [0, 1, 0], 1.2e308 / 12, 0.9e308 / 12, 1e300)  # their sum does
    @example([math.inf] + W_ONES[1:], UNIT_INPUTS, [0, 1, 0], 0.1, 1e-5, 10.0)
    @example([math.nan] + W_ONES[1:], UNIT_INPUTS, [0, 1, 0], 0.1, 1e-5, 10.0)
    def test_certificate_implies_finite_theta(self, weights, inputs, classes, eps1, eps2, beta):
        net = init_network(NetworkConfig(4, 2, 2))
        net.w[:] = np.reshape(weights[:8], (2, 4))
        net.v[:] = np.reshape(weights[8:], (2, 2))
        k = len(classes)
        split = Split(np.reshape(inputs[: 4 * k], (k, 4)), np.array(classes), 2)
        params = PenaltyParams(eps1=eps1, eps2=eps2, beta=beta)
        with np.errstate(all="ignore"):  # overflow in the passes is the point
            at = forward_batch(net, split.examples)
            # the check the certificate replaces on the training path
            finite = np.isfinite(objective(net, split, params))
        certified = theta_certainly_finite(net.weights, at, params)  # warnings are errors here
        assert finite or not certified

    def test_holds_on_an_ordinary_network(self):
        net = init_network(NetworkConfig(9, 3, 2, init_seed=42))
        at = forward_batch(net, make_batch(9, 2, 10, seed=42).examples)
        assert theta_certainly_finite(net.weights, at, PenaltyParams())

    def test_a_nan_output_anywhere_fails_it(self):
        net = init_network(NetworkConfig(9, 3, 2, init_seed=42))
        hidden, preds = forward_batch(net, make_batch(9, 2, 10, seed=42).examples)
        for position in np.ndindex(preds.shape):
            with_nan = preds.copy()
            with_nan[position] = math.nan
            assert not theta_certainly_finite(net.weights, (hidden, with_nan), PenaltyParams())


class TestPenaltyGradients:
    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(WEIGHT, min_size=1, max_size=12),
        eps1=st.one_of(st.just(0.0), STRENGTH),
        eps2=st.one_of(st.just(0.0), STRENGTH),
        beta=STRENGTH,
    )
    def test_written_into_out_equals_the_formula(self, weights, eps1, eps2, beta):
        weights = np.array(weights)
        params = PenaltyParams(eps1=eps1, eps2=eps2, beta=beta)
        out = np.full_like(weights, 7.0)
        with np.errstate(all="ignore"):  # overflow at extreme weights is the point
            written = penalty_gradients(weights, params, out=out)
            allocated = penalty_gradients(weights, params)
            # the reference: the gradient as one expression
            formula = (
                eps1 * 2.0 * beta * weights / (1.0 + beta * weights ** 2) ** 2
                + 2.0 * eps2 * weights
            )
        assert written is out
        assert np.array_equal(written, allocated, equal_nan=True)
        assert np.array_equal(written, formula, equal_nan=True)
