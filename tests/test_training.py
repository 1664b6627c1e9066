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


class TestTrain:
    def test_zero_epochs_identity(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=1))
        split = toy_split()
        out, records = train(net, split, TrainParams(0.1, 0), PenaltyParams())
        assert records == []
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
        before = objective(net, split.examples, split.targets, off)
        stepped, _ = train(net, split, TrainParams(1e-4, 1), off)
        after = objective(stepped, split.examples, split.targets, off)
        assert after <= before + 1e-9

    def test_objective_sequence_non_increasing_small_lr(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=3))
        split = toy_split(seed=3)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        _, records = train(net, split, TrainParams(1e-3, 40), off)
        values = [objective(net, split.examples, split.targets, off)] + [
            r.objective_value for r in records
        ]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)

    def test_deterministic(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=4))
        split = toy_split(seed=4)
        a, ra = train(net, split, TrainParams(0.1, 50), PenaltyParams())
        b, rb = train(net, split, TrainParams(0.1, 50), PenaltyParams())
        assert np.array_equal(a.w, b.w) and np.array_equal(a.v, b.v)
        assert ra == rb

    def test_mask_preserved_through_training(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=5))
        net.w_mask[0, 0] = False
        net.v_mask[1, 2] = False
        net.apply_masks()
        out, _ = train(net, toy_split(seed=5), TrainParams(0.1, 60), PenaltyParams())
        assert out.w[0, 0] == 0.0
        assert out.v[1, 2] == 0.0
        out.validate()

    def test_records_epoch_numbering(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=6))
        _, records = train(net, toy_split(seed=6), TrainParams(0.1, 5), PenaltyParams())
        assert [r.epoch for r in records] == [1, 2, 3, 4, 5]
        assert all(np.isfinite(r.objective_value) for r in records)
        assert all(0.0 <= r.train_accuracy <= 1.0 for r in records)

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
        net, _ = train(
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

    def test_floor_validation(self):
        net = init_network(NetworkConfig(4, 2, 2, seed=15))
        split = toy_split(seed=15)
        with pytest.raises(ConfigurationError):
            retrain(
                net, split, split, TrainParams(0.1, 0), PenaltyParams(), floor=1.5, max_epochs=100
            )
