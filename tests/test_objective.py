import math

import numpy as np
import pytest

from nnprune import (
    ConfigurationError,
    NetworkConfig,
    PenaltyParams,
    ShapeError,
    cross_entropy,
    finite_diff_check,
    gradients,
    init_network,
    objective,
    penalty,
)
from nnprune.objective import data_gradients

# hand evaluations, frozen
TWO_LN_TWO = 1.3862943611198906          # -(log .5 + log .5)
MINUS_TWO_LN_09 = 0.21072103131565256    # -(log .9 + log(1-.1))
SINGLE_WEIGHT_PENALTY = 0.09091909090909091  # 0.1*(10/11) + 1e-5


def make_batch(n, o, k, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((k, n))
    classes = rng.integers(0, o, size=k)
    t = np.zeros((k, o))
    t[np.arange(k), classes] = 1.0
    return x, t


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
        preds, targets = make_batch(1, 3, 20, seed=3)
        preds = np.random.default_rng(4).random((20, 3))
        f1 = cross_entropy(preds, targets)
        perm = np.random.default_rng(5).permutation(20)
        f2 = cross_entropy(preds[perm], targets[perm])
        assert f1 == pytest.approx(f2, rel=1e-15)


class TestPenalty:
    def test_zero_network(self):
        net = init_network(NetworkConfig(3, 2, 2, seed=1))
        net.w[:] = 0.0
        net.v[:] = 0.0
        assert penalty(net, PenaltyParams()) == 0.0

    def test_single_weight_value(self):
        net = init_network(NetworkConfig(1, 1, 1, seed=1))
        net.w[0, 0] = 1.0
        net.v[0, 0] = 0.0
        p = penalty(net, PenaltyParams(eps1=0.1, eps2=1e-5, beta=10.0))
        assert p == pytest.approx(SINGLE_WEIGHT_PENALTY, abs=1e-9)

    def test_even_in_weights(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=8))
        params = PenaltyParams()
        p1 = penalty(net, params)
        net.w = -net.w
        net.v = -net.v
        assert penalty(net, params) == pytest.approx(p1, rel=1e-15)

    def test_positive_iff_nonzero(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=8))
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
        net = init_network(NetworkConfig(3, 2, 2, seed=5))
        x, t = make_batch(3, 2, 10, seed=5)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        from nnprune import forward_batch

        hidden, preds = forward_batch(net, x)
        at = objective(net, x, t, off)
        assert at.theta == pytest.approx(cross_entropy(preds, t), rel=1e-15)
        # the evaluation carries the forward pass it was computed from
        assert np.array_equal(at.hidden, hidden) and np.array_equal(at.preds, preds)

    def test_zero_network_two_class(self):
        net = init_network(NetworkConfig(3, 2, 2, seed=5))
        net.w[:] = 0.0
        net.v[:] = 0.0
        x, t = make_batch(3, 2, 1, seed=6)
        assert objective(net, x, t, PenaltyParams()).theta == pytest.approx(TWO_LN_TWO, abs=1e-12)

    def test_objective_at_least_cross_entropy(self):
        net = init_network(NetworkConfig(3, 2, 2, seed=5))
        x, t = make_batch(3, 2, 10, seed=7)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        assert objective(net, x, t, PenaltyParams()).theta >= objective(net, x, t, off).theta

    def test_empty_batch_rejected(self):
        net = init_network(NetworkConfig(3, 2, 2, seed=5))
        with pytest.raises(ShapeError):
            objective(net, np.zeros((0, 3)), np.zeros((0, 2)), PenaltyParams())

    def test_gradient_rejects_evaluation_of_another_batch(self):
        net = init_network(NetworkConfig(3, 2, 2, seed=5))
        x, t = make_batch(3, 2, 10, seed=8)
        at = objective(net, x[:4], t[:4], PenaltyParams())
        with pytest.raises(ShapeError):
            data_gradients(net, x, t, at)


class TestGradients:
    def test_zero_network_zero_gradient(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=2))
        net.w[:] = 0.0
        net.v[:] = 0.0
        x, t = make_batch(4, 2, 6, seed=2)
        g = gradients(net, x, t, PenaltyParams())
        assert np.all(g.d_w == 0.0)
        assert np.all(g.d_v == 0.0)

    def test_masked_entries_zero(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=2))
        net.w_mask[1, 2] = False
        net.v_mask[0, 1] = False
        net.apply_masks()
        x, t = make_batch(4, 2, 6, seed=2)
        g = gradients(net, x, t, PenaltyParams())
        assert g.d_w[1, 2] == 0.0
        assert g.d_v[0, 1] == 0.0

    def test_penalty_only_gradient_sign(self):
        net = init_network(NetworkConfig(1, 1, 1, seed=1))
        net.w[0, 0] = 0.7
        net.v[0, 0] = 0.0
        x = np.array([[0.0]])   # zero input: data gradient vanishes for w
        t = np.array([[1.0]])
        g = gradients(net, x, t, PenaltyParams())
        assert g.d_w[0, 0] > 0.0

    def test_matches_finite_differences(self):
        net = init_network(NetworkConfig(9, 3, 2, init_range=1.0, seed=42))
        x, t = make_batch(9, 2, 10, seed=42)
        err = finite_diff_check(net, x, t, PenaltyParams(), step=1e-6)
        assert err < 1e-5

    def test_gradcheck_across_architectures(self):
        # the acceptance suite runs 20 triples; keep a quick 6-triple version
        # here so gradient regressions fail fast
        rng = np.random.default_rng(11)
        for n, h, o in ((9, 3, 2), (8, 3, 2), (9, 4, 6)):
            for _ in range(2):
                seed = int(rng.integers(1 << 31))
                net = init_network(NetworkConfig(n, h, o, seed=seed))
                x, t = make_batch(n, o, 7, seed=seed)
                params = PenaltyParams(
                    eps1=float(rng.uniform(0, 0.3)),
                    eps2=float(rng.uniform(0, 1e-3)),
                    beta=float(rng.uniform(1, 20)),
                )
                assert finite_diff_check(net, x, t, params, step=1e-6) < 1e-5

    def test_zero_network_finite_diff_error_zero(self):
        net = init_network(NetworkConfig(3, 2, 2, seed=9))
        net.w[:] = 0.0
        net.v[:] = 0.0
        x, t = make_batch(3, 2, 4, seed=9)
        err = finite_diff_check(net, x, t, PenaltyParams(), step=1e-6)
        assert err == pytest.approx(0.0, abs=1e-9)

    def test_bad_step_rejected(self):
        net = init_network(NetworkConfig(3, 2, 2, seed=9))
        x, t = make_batch(3, 2, 4, seed=9)
        with pytest.raises(ConfigurationError):
            finite_diff_check(net, x, t, PenaltyParams(), step=0.0)

    def test_batch_permutation_invariance(self):
        net = init_network(NetworkConfig(5, 3, 3, seed=13))
        x, t = make_batch(5, 3, 12, seed=13)
        g1 = gradients(net, x, t, PenaltyParams())
        perm = np.random.default_rng(14).permutation(12)
        g2 = gradients(net, x[perm], t[perm], PenaltyParams())
        assert np.allclose(g1.d_w, g2.d_w, rtol=1e-12, atol=1e-12)
        assert np.allclose(g1.d_v, g2.d_v, rtol=1e-12, atol=1e-12)
