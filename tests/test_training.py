import importlib
import math

import numpy as np
import pytest

from nnprune import (
    ConfigurationError,
    DatasetError,
    DivergenceError,
    NetworkConfig,
    PenaltyParams,
    Split,
    TrainParams,
    accuracy,
    epoch_step,
    forward_batch,
    forward_pass,
    gradients,
    init_network,
    objective,
    retrain,
    train,
)


def toy_split(n=4, o=2, k=30, seed=0) -> Split:
    rng = np.random.default_rng(seed)
    x = rng.random((k, n))
    classes = (x[:, 0] > x[:, 1]).astype(int)  # learnable through the origin
    t = np.zeros((k, o))
    t[np.arange(k), classes] = 1.0
    return Split(examples=x, targets=t, class_indices=classes)


class TestTrainParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainParams(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainParams(learning_rate=0.1, epochs=-1)

    @pytest.mark.parametrize(
        "params,field,value",
        [
            (TrainParams, "learning_rate", math.inf),
            (PenaltyParams, "eps1", math.nan),
            (PenaltyParams, "eps2", math.inf),
            (PenaltyParams, "beta", math.inf),
        ],
    )
    def test_non_finite_rejected(self, params, field, value):
        with pytest.raises(ConfigurationError, match=field):
            params(**{field: value})


class TestTrain:
    def test_zero_epochs_identity(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=1))
        split = toy_split()
        out = train(net, split, TrainParams(0.1, 0), PenaltyParams())
        assert np.array_equal(out.w, net.w)
        assert np.array_equal(out.v, net.v)

    def test_input_not_mutated(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=1))
        w_before = net.w.copy()
        train(net, toy_split(), TrainParams(0.1, 5), PenaltyParams())
        assert np.array_equal(net.w, w_before)

    def test_small_step_descends(self):
        # with the penalty off, one small step cannot increase the objective
        net = init_network(NetworkConfig(4, 3, 2, seed=2))
        split = toy_split(seed=2)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        before = objective(net, split.examples, split.targets, off).theta
        stepped = train(net, split, TrainParams(1e-4, 1), off)
        after = objective(stepped, split.examples, split.targets, off).theta
        assert after <= before + 1e-9

    def test_objective_sequence_non_increasing_small_lr(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=3))
        split = toy_split(seed=3)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        at = objective(net, split.examples, split.targets, off)
        values = [at.theta]
        for epoch in range(1, 41):
            at = epoch_step(net, split, 1e-3, off, epoch, at)
            values.append(objective(net, split.examples, split.targets, off).theta)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)

    def test_deterministic(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=4))
        split = toy_split(seed=4)
        a = train(net, split, TrainParams(0.1, 50), PenaltyParams())
        b = train(net, split, TrainParams(0.1, 50), PenaltyParams())
        assert np.array_equal(a.w, b.w) and np.array_equal(a.v, b.v)

    def test_mask_preserved_through_training(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=5))
        net.w_mask[0, 0] = False
        net.v_mask[1, 2] = False
        net.apply_masks()
        out = train(net, toy_split(seed=5), TrainParams(0.1, 60), PenaltyParams())
        assert out.w[0, 0] == 0.0
        assert out.v[1, 2] == 0.0
        out.validate()

    def test_never_evaluates_accuracy(self, monkeypatch):
        def forbidden(net, split):
            raise AssertionError("train evaluated accuracy")

        monkeypatch.setattr("nnprune.training.accuracy", forbidden)
        net = init_network(NetworkConfig(4, 3, 2, seed=6))
        train(net, toy_split(seed=6), TrainParams(0.1, 5), PenaltyParams())

    def test_epoch_step_matches_train(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=6))
        split = toy_split(seed=6)
        stepped = net.copy()
        at = forward_pass(stepped, split.examples)
        for epoch in range(1, 6):
            at = epoch_step(stepped, split, 0.1, PenaltyParams(), epoch, at)
        trained = train(net, split, TrainParams(0.1, 5), PenaltyParams())
        assert np.array_equal(stepped.w, trained.w) and np.array_equal(stepped.v, trained.v)
        fresh = objective(trained, split.examples, split.targets, PenaltyParams())
        assert objective(stepped, split.examples, split.targets, PenaltyParams()).theta == fresh.theta
        assert np.array_equal(at.hidden, fresh.hidden) and np.array_equal(at.preds, fresh.preds)

    @pytest.mark.parametrize("epochs", [0, 1, 7])
    def test_one_forward_pass_per_epoch(self, epochs, monkeypatch):
        calls = []

        def counting(net, inputs):
            calls.append(1)
            return forward_batch(net, inputs)

        # ``nnprune.objective`` names the function; the module is looked up
        for module in ("nnprune.objective", "nnprune.network"):
            monkeypatch.setattr(importlib.import_module(module), "forward_batch", counting)
        net = init_network(NetworkConfig(4, 3, 2, seed=6))
        train(net, toy_split(seed=6), TrainParams(0.1, epochs), PenaltyParams())
        assert len(calls) == epochs + 1

    def test_never_evaluates_theta(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("train evaluated theta")

        monkeypatch.setattr("nnprune.training.objective", forbidden)
        net = init_network(NetworkConfig(4, 3, 2, seed=6))
        net.w_mask[0, 1] = False
        net.apply_masks()
        train(net, toy_split(seed=6), TrainParams(0.1, 200), PenaltyParams())

    def test_divergence_error_names_epoch(self):
        net = init_network(NetworkConfig(2, 2, 2, seed=7))
        net.w[0, 0] = 1e200  # non-finite objective after the first update
        split = toy_split(n=2, seed=7)
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(net, split, TrainParams(1e300, 3), PenaltyParams(eps2=1.0))

    def test_empty_split_rejected(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=8))
        empty = Split(
            examples=np.zeros((0, 4)),
            targets=np.zeros((0, 2)),
            class_indices=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(DatasetError):
            train(net, empty, TrainParams(0.1, 1), PenaltyParams())


def reference_train(net, split, lr, penalty, epochs):
    """Training with theta evaluated after every update.

    The step before the finiteness certificate: masked full gradients, the
    update, masks, then the objective, diverged when theta is non-finite.
    Returns the network and the divergence epoch (None if it finished).
    """
    net = net.copy()
    for epoch in range(1, epochs + 1):
        g = gradients(net, split.examples, split.targets, penalty)
        net.w -= lr / len(split) * g.d_w
        net.v -= lr / len(split) * g.d_v
        net.apply_masks()
        if not np.isfinite(objective(net, split.examples, split.targets, penalty).theta):
            return net, epoch
    return net, None


class TestDivergenceEpoch:
    def test_learning_rate_sweep_matches_theta_every_epoch(self, monkeypatch):
        theta_calls = []
        real_objective = objective

        def counting(*args):
            theta_calls.append(1)
            return real_objective(*args)

        monkeypatch.setattr("nnprune.training.objective", counting)
        split = toy_split(seed=21)
        outcomes = set()
        for penalty in (
            PenaltyParams(),
            PenaltyParams(eps2=1.0),
            PenaltyParams(eps1=0.0, eps2=0.0),
            PenaltyParams(beta=1e200),
            PenaltyParams(eps1=3e306),
        ):
            for lr in (1e2, 1e3, 1e5, 1e10, 1e20, 1e50, 1e100, 1e150, 1e200, 1e250, 1e300):
                net = init_network(NetworkConfig(4, 3, 2, seed=21))
                net.w_mask[0, 1] = False
                net.apply_masks()
                theta_calls.clear()
                # overflow warnings of the diverging passes are not under test
                with np.errstate(all="ignore"):
                    expected, epoch = reference_train(net, split, lr, penalty, 40)
                    if epoch is None:
                        got = train(net, split, TrainParams(lr, 40), penalty)
                        assert np.array_equal(got.w, expected.w)
                        assert np.array_equal(got.v, expected.v)
                        outcomes.add("finished, theta evaluated" if theta_calls else "finished")
                    else:
                        with pytest.raises(DivergenceError, match=f"at epoch {epoch}$"):
                            train(net, split, TrainParams(lr, 40), penalty)
                        outcomes.add("diverged at epoch 1" if epoch == 1 else "diverged later")
        # the sweep reaches every branch of the check
        assert outcomes == {
            "finished", "finished, theta evaluated", "diverged at epoch 1", "diverged later"
        }


class TestAccuracy:
    def test_perfect_predictor(self):
        split = toy_split(seed=9)
        net = init_network(NetworkConfig(4, 1, 2, seed=9))
        net.w[:] = 0.0
        net.w[0, 0], net.w[0, 1] = 5.0, -5.0  # sign of x0 - x1
        net.v[:] = np.array([[-4.0], [4.0]])
        assert accuracy(net, split) == 1.0

    def test_zero_network_predicts_class_zero(self):
        split = toy_split(seed=10)
        net = init_network(NetworkConfig(4, 2, 2, seed=10))
        net.w[:] = 0.0
        net.v[:] = 0.0
        expected = float(np.mean(split.class_indices == 0))
        assert accuracy(net, split) == pytest.approx(expected)

    def test_empty_split_rejected(self):
        net = init_network(NetworkConfig(4, 2, 2, seed=11))
        empty = Split(
            examples=np.zeros((0, 4)),
            targets=np.zeros((0, 2)),
            class_indices=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(DatasetError):
            accuracy(net, empty)


class TestRetrain:
    def test_floor_zero_returns_immediately(self):
        net = init_network(NetworkConfig(4, 2, 2, seed=12))
        split = toy_split(seed=12)
        out, met = retrain(
            net, split, split, TrainParams(0.1, 0), PenaltyParams(), floor=0.0, max_epochs=100
        )
        assert met is True
        assert np.array_equal(out.w, net.w)

    def test_unreachable_floor_runs_out(self):
        rng = np.random.default_rng(13)
        x = rng.random((20, 3))
        classes = rng.integers(0, 2, size=20)  # pure noise labels
        t = np.zeros((20, 2))
        t[np.arange(20), classes] = 1.0
        split = Split(examples=x, targets=t, class_indices=classes)
        net = init_network(NetworkConfig(3, 2, 2, seed=13))
        out, met = retrain(
            net, split, split, TrainParams(0.1, 0), PenaltyParams(), floor=1.0, max_epochs=25
        )
        assert met is False

    def test_recovers_after_removal(self):
        split = toy_split(k=60, seed=14)
        net = train(
            init_network(NetworkConfig(4, 3, 2, seed=14)),
            split,
            TrainParams(0.1, 300),
            PenaltyParams(),
        )
        base = accuracy(net, split)
        pruned = net.copy()
        m, l = 0, 3  # remove one low-stakes weight
        pruned.w_mask[m, l] = False
        pruned.apply_masks()
        out, met = retrain(
            pruned, split, split, TrainParams(0.1, 0), PenaltyParams(),
            floor=max(0.0, base - 0.02), max_epochs=100,
        )
        assert met is True
        assert out.w[m, l] == 0.0

    def test_empty_training_split_rejected(self):
        net = init_network(NetworkConfig(4, 2, 2, seed=15))
        empty = Split(
            examples=np.zeros((0, 4)),
            targets=np.zeros((0, 2)),
            class_indices=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(DatasetError):
            retrain(
                net, empty, toy_split(seed=15), TrainParams(0.1, 0), PenaltyParams(),
                floor=1.0, max_epochs=5,
            )

    def test_floor_validation(self):
        net = init_network(NetworkConfig(4, 2, 2, seed=15))
        split = toy_split(seed=15)
        with pytest.raises(ConfigurationError):
            retrain(
                net, split, split, TrainParams(0.1, 0), PenaltyParams(), floor=1.5, max_epochs=100
            )
