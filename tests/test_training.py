import importlib
import math
from collections import Counter
from itertools import islice

import numpy as np
import pytest

from nnprune import (
    ConfigurationError,
    DatasetError,
    DivergenceError,
    NetworkConfig,
    PenaltyParams,
    PruneParams,
    Split,
    TrainParams,
    accuracy,
    descend,
    forward_batch,
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
    return Split(x, classes, o)


class TestTrainParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainParams(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainParams(learning_rate=0.1, epochs=-1)
        for epochs in (2.5, 3.0, True, "3"):
            with pytest.raises(ConfigurationError, match="epochs must be an integer"):
                TrainParams(0.1, epochs)

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

    @pytest.mark.parametrize("value", [True, "0.1", None])
    @pytest.mark.parametrize(
        "make,field",
        [
            (TrainParams, "learning_rate"),
            (PenaltyParams, "eps1"),
            (PenaltyParams, "eps2"),
            (PenaltyParams, "beta"),
            (PruneParams, "eta2"),
            (PruneParams, "accuracy_drop_tolerance"),
            (lambda **kw: NetworkConfig(1, 1, 1, **kw), "init_range"),
        ],
    )
    def test_non_number_in_float_field_rejected(self, make, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be a real number"):
            make(**{field: value})


class TestTrain:
    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf])
    def test_descend_rejects_bad_lr_before_any_update(self, lr):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=1))
        before = net.copy()
        with pytest.raises(ConfigurationError, match="lr must be in"):
            next(descend(net, toy_split(), lr, PenaltyParams()))
        assert np.array_equal(net.w, before.w) and np.array_equal(net.v, before.v)

    def test_zero_epochs_identity(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=1))
        split = toy_split()
        out = train(net, split, TrainParams(0.1, 0), PenaltyParams())
        assert np.array_equal(out.w, net.w)
        assert np.array_equal(out.v, net.v)

    def test_input_not_mutated(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=1))
        w_before = net.w.copy()
        train(net, toy_split(), TrainParams(0.1, 5), PenaltyParams())
        assert np.array_equal(net.w, w_before)

    def test_small_step_descends(self):
        # with the penalty off, one small step cannot increase the objective
        net = init_network(NetworkConfig(4, 3, 2, init_seed=2))
        split = toy_split(seed=2)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        before = objective(net, split, off)
        stepped = train(net, split, TrainParams(1e-4, 1), off)
        after = objective(stepped, split, off)
        assert after <= before + 1e-9

    def test_objective_sequence_non_increasing_small_lr(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=3))
        split = toy_split(seed=3)
        off = PenaltyParams(eps1=0.0, eps2=0.0)
        values = [objective(net, split, off)]
        for _ in islice(descend(net, split, 1e-3, off), 40):
            values.append(objective(net, split, off))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-9)

    def test_deterministic(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=4))
        split = toy_split(seed=4)
        a = train(net, split, TrainParams(0.1, 50), PenaltyParams())
        b = train(net, split, TrainParams(0.1, 50), PenaltyParams())
        assert np.array_equal(a.w, b.w) and np.array_equal(a.v, b.v)

    def test_mask_preserved_through_training(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=5))
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
        net = init_network(NetworkConfig(4, 3, 2, init_seed=6))
        train(net, toy_split(seed=6), TrainParams(0.1, 5), PenaltyParams())

    def test_descend_matches_train(self, monkeypatch):
        seen = workspace_passes(monkeypatch)
        net = init_network(NetworkConfig(4, 3, 2, init_seed=6))
        split = toy_split(seed=6)
        stepped = net.copy()
        epochs = []
        for epoch in islice(descend(stepped, split, 0.1, PenaltyParams()), 5):
            epochs.append(epoch)
            # the pass the next epoch differentiates is the updated network's
            assert pass_equals(stepped, split, seen[-1])
        monkeypatch.undo()
        assert epochs == [1, 2, 3, 4, 5]
        # one workspace serves every epoch
        assert all(at[0] is seen[0][0] and at[1] is seen[0][1] for at in seen)
        trained = train(net, split, TrainParams(0.1, 5), PenaltyParams())
        assert np.array_equal(stepped.w, trained.w) and np.array_equal(stepped.v, trained.v)
        # and both equal a loop that runs a fresh pass for every gradient
        expected, _ = reference_train(net, split, 0.1, PenaltyParams(), 5)
        assert np.array_equal(stepped.w, expected.w) and np.array_equal(stepped.v, expected.v)

    @pytest.mark.parametrize("epochs", [0, 1, 7])
    def test_one_forward_pass_per_epoch(self, epochs, monkeypatch):
        training = importlib.import_module("nnprune.training")
        real = training.data_gradients
        fresh = []

        def checking(net, split, at, out=None):
            fresh.append(pass_equals(net, split, at))
            return real(net, split, at, out=out)

        def forbidden(net, inputs):
            raise AssertionError("descend ran forward_batch")

        monkeypatch.setattr(training, "data_gradients", checking)
        # ``nnprune.objective`` names the function; the module is looked up
        for module in ("nnprune.objective", "nnprune.network"):
            monkeypatch.setattr(importlib.import_module(module), "forward_batch", forbidden)
        net = init_network(NetworkConfig(4, 3, 2, init_seed=6))
        train(net, toy_split(seed=6), TrainParams(0.1, epochs), PenaltyParams())
        # every gradient differentiates the pass of the weights it steps, and
        # no pass goes through forward_batch
        assert fresh == [True] * epochs

    def test_never_evaluates_theta(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("train evaluated theta")

        monkeypatch.setattr("nnprune.training.objective", forbidden)
        net = init_network(NetworkConfig(4, 3, 2, init_seed=6))
        net.w_mask[0, 1] = False
        net.apply_masks()
        train(net, toy_split(seed=6), TrainParams(0.1, 200), PenaltyParams())

    def test_divergence_error_names_epoch(self):
        net = init_network(NetworkConfig(2, 2, 2, init_seed=7))
        net.w[0, 0] = 1e200  # non-finite objective after the first update
        split = toy_split(n=2, seed=7)
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(net, split, TrainParams(1e300, 3), PenaltyParams(eps2=1.0))

    def test_empty_split_rejected(self):
        # an empty split cannot be built, so train and descend never see
        # one; the smallest split, one example, trains
        with pytest.raises(DatasetError, match="at least one example"):
            Split(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)
        one = toy_split(k=1, seed=8)
        net = init_network(NetworkConfig(4, 3, 2, init_seed=8))
        net = train(net, one, TrainParams(0.1, 3), PenaltyParams())
        assert accuracy(net, one) in (0.0, 1.0)


def pass_equals(net, split, at) -> bool:
    """Whether ``at`` is bit for bit ``forward_batch`` of ``net`` on ``split``."""
    hidden, preds = forward_batch(net, split.examples)
    return np.array_equal(at[0], hidden) and np.array_equal(at[1], preds)


def workspace_passes(monkeypatch) -> list:
    """The ``(hidden, preds)`` pairs ``descend`` hands its divergence check,
    one per epoch, as they are: its workspace buffers."""
    training = importlib.import_module("nnprune.training")
    real = training.theta_certainly_finite
    seen = []

    def recording(weights, at, params):
        seen.append(at)
        return real(weights, at, params)

    monkeypatch.setattr(training, "theta_certainly_finite", recording)
    return seen


def reference_train(net, split, lr, penalty, epochs):
    """Training with theta evaluated after every update.

    The step before the finiteness certificate: masked full gradients, the
    update, masks, then the objective, diverged when theta is non-finite.
    Returns the network and the divergence epoch (None if it finished).
    """
    net = net.copy()
    for epoch in range(1, epochs + 1):
        d_w, d_v = net.views(gradients(net, split, penalty))
        net.w[...] -= lr / len(split) * d_w
        net.v[...] -= lr / len(split) * d_v
        net.apply_masks()
        if not np.isfinite(objective(net, split, penalty)):
            return net, epoch
    return net, None


def reference_retrain(net, train_split, val_split, lr, penalty, floor, max_epochs):
    """``retrain`` as one :func:`reference_train` epoch at a time, scoring
    after each, until the floor is met or the epochs run out."""
    score, epochs = accuracy(net, val_split), 0
    while score < floor and epochs < max_epochs:
        net, _ = reference_train(net, train_split, lr, penalty, 1)
        score, epochs = accuracy(net, val_split), epochs + 1
    return net, score >= floor, score


# networks shaped like the three benchmarks on their split-seed-1 training
# splits (k = 350, 384, 107): (bundle, n, h, o, seed, pruned)
BENCHMARK_SHAPES = [
    ("cancer", 9, 3, 2, 31, True),
    ("diabetes", 8, 3, 2, 32, True),
    ("glass", 9, 4, 6, 33, True),
    ("diabetes", 8, 3, 2, 34, False),
]


class TestPackedEpochs:
    @pytest.mark.parametrize("bundle,n,h,o,seed,pruned", BENCHMARK_SHAPES)
    def test_bit_identical_to_reference(
        self, bundle, n, h, o, seed, pruned, request, monkeypatch
    ):
        split = request.getfixturevalue(f"{bundle}_bundle").train
        net = init_network(NetworkConfig(n, h, o, init_seed=seed))
        if pruned:
            net.w_mask[0, 2] = net.w_mask[1, n - 1] = False
            net.v_mask[o - 1, 0] = False
            dead = h - 1  # one dead hidden unit: no weight in or out
            net.hidden_active[dead] = False
            net.w_mask[dead, :] = False
            net.v_mask[:, dead] = False
            net.apply_masks()
        penalty = PenaltyParams()
        stepped = net.copy()
        seen = workspace_passes(monkeypatch)
        for _ in islice(descend(stepped, split, 0.1, penalty), 3000):
            assert np.all(stepped.w[~stepped.w_mask] == 0.0)
            assert np.all(stepped.v[~stepped.v_mask] == 0.0)
            assert pass_equals(stepped, split, seen[-1])
        monkeypatch.undo()
        expected, diverged = reference_train(net, split, 0.1, penalty, 3000)
        assert diverged is None
        assert np.array_equal(stepped.w, expected.w) and np.array_equal(stepped.v, expected.v)
        stepped.validate()

    def test_references_taken_before_descend_see_the_trained_weights(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=6))
        split = toy_split(seed=6)
        w, v, weights = net.w, net.v, net.weights
        before = net.copy()
        for _ in islice(descend(net, split, 0.1, PenaltyParams()), 5):
            pass
        assert net.w is w and net.v is v and net.weights is weights
        assert not np.array_equal(w, before.w)
        assert np.array_equal(w, train(before, split, TrainParams(0.1, 5), PenaltyParams()).w)


class TestEpochContract:
    """The benchmark counts one GD update per ``nnprune.training.data_gradients``
    call; a refactor must not change how many calls an epoch makes."""

    @pytest.mark.parametrize("epochs", [1, 6])
    @pytest.mark.parametrize("runner", ["train", "retrain"])
    def test_one_call_of_each_per_epoch(self, runner, epochs, monkeypatch):
        calls = Counter()

        def count_calls(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        class CountingErrstate(np.errstate):
            def __enter__(self):
                calls["errstate"] += 1
                return super().__enter__()

        training = importlib.import_module("nnprune.training")
        count_calls(training, "data_gradients")
        count_calls(training, "penalty_gradients")
        # ``nnprune.objective`` names the function; the module is looked up
        count_calls(importlib.import_module("nnprune.objective"), "forward_batch")
        monkeypatch.setattr(np, "errstate", CountingErrstate)
        net = init_network(NetworkConfig(4, 3, 2, init_seed=6))
        net.w_mask[0, 1] = False
        net.apply_masks()
        if runner == "train":
            train(net, toy_split(seed=6), TrainParams(0.1, epochs), PenaltyParams())
        else:
            _, met, score = retrain(
                net, toy_split(seed=6), toy_split(seed=7), 0.1, PenaltyParams(),
                floor=1.0, max_epochs=epochs,
            )
            assert met is False and score < 1.0
        # the benchmark counts the gradient calls; the pass runs in descend's
        # workspace, and one floating-point error block covers each update
        assert calls == {
            "data_gradients": epochs, "penalty_gradients": epochs, "errstate": epochs
        }


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
                net = init_network(NetworkConfig(4, 3, 2, init_seed=21))
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
        net = init_network(NetworkConfig(4, 1, 2, init_seed=9))
        net.w[:] = 0.0
        net.w[0, 0], net.w[0, 1] = 5.0, -5.0  # sign of x0 - x1
        net.v[:] = np.array([[-4.0], [4.0]])
        assert accuracy(net, split) == 1.0

    def test_zero_network_predicts_class_zero(self):
        split = toy_split(seed=10)
        net = init_network(NetworkConfig(4, 2, 2, init_seed=10))
        net.w[:] = 0.0
        net.v[:] = 0.0
        expected = float(np.mean(split.class_indices == 0))
        assert accuracy(net, split) == pytest.approx(expected)

    def test_empty_split_rejected(self):
        # an empty split cannot be built, so accuracy is always defined
        with pytest.raises(DatasetError, match="at least one example"):
            Split(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)


def assert_decided_by(out, val_split, met, score, floor):
    """``retrain``'s score is the returned network's validation accuracy,
    and it decided ``met``."""
    assert score == accuracy(out, val_split)
    assert met == (score >= floor)


class TestRetrain:
    def test_floor_zero_returns_immediately(self):
        net = init_network(NetworkConfig(4, 2, 2, init_seed=12))
        split = toy_split(seed=12)
        out, met, score = retrain(
            net, split, split, 0.1, PenaltyParams(), floor=0.0, max_epochs=100
        )
        assert met is True
        assert np.array_equal(out.w, net.w)
        assert_decided_by(out, split, met, score, 0.0)

    def test_unreachable_floor_runs_out(self):
        rng = np.random.default_rng(13)
        x = rng.random((20, 3))
        classes = rng.integers(0, 2, size=20)  # pure noise labels
        split = Split(x, classes, 2)
        net = init_network(NetworkConfig(3, 2, 2, init_seed=13))
        out, met, score = retrain(
            net, split, split, 0.1, PenaltyParams(), floor=1.0, max_epochs=25
        )
        assert met is False
        assert_decided_by(out, split, met, score, 1.0)

    def test_recovers_after_removal(self):
        split = toy_split(k=60, seed=14)
        net = train(
            init_network(NetworkConfig(4, 3, 2, init_seed=14)),
            split,
            TrainParams(0.1, 300),
            PenaltyParams(),
        )
        base = accuracy(net, split)
        pruned = net.copy()
        m, l = 0, 3  # remove one low-stakes weight
        pruned.w_mask[m, l] = False
        pruned.apply_masks()
        floor = max(0.0, base - 0.02)
        out, met, score = retrain(
            pruned, split, split, 0.1, PenaltyParams(), floor=floor, max_epochs=100,
        )
        assert met is True
        assert out.w[m, l] == 0.0
        assert_decided_by(out, split, met, score, floor)

    @pytest.mark.parametrize("floor", [0.9, 1.0])  # met after some epochs, and never met
    def test_bit_identical_to_reference(self, floor, cancer_bundle):
        net = init_network(NetworkConfig(9, 3, 2, init_seed=31))
        net.w_mask[0, 2] = net.v_mask[1, 0] = False
        net.apply_masks()
        args = (cancer_bundle.train, cancer_bundle.validation, 0.1, PenaltyParams(), floor, 300)
        out, met, score = retrain(net, *args)
        expected, expected_met, expected_score = reference_retrain(net, *args)
        assert np.array_equal(out.weights, expected.weights)
        assert (met, score) == (expected_met, expected_score)
        assert met == (floor < 1.0) and not np.array_equal(out.weights, net.weights)

    def test_empty_training_split_rejected(self):
        # an empty split cannot be built, so retrain never trains on one
        with pytest.raises(DatasetError, match="at least one example"):
            Split(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)

    @pytest.mark.parametrize("floor", [0.0, 1.0])  # met at once, and never met
    @pytest.mark.parametrize("lr", [-1.0, math.nan])
    def test_bad_lr_rejected(self, lr, floor):
        net = init_network(NetworkConfig(4, 2, 2, init_seed=15))
        split = toy_split(seed=15)
        with pytest.raises(ConfigurationError, match="lr must be in"):
            retrain(net, split, split, lr, PenaltyParams(), floor=floor, max_epochs=5)

    @pytest.mark.parametrize("max_epochs", [-3, 2.5, True])
    def test_bad_max_epochs_rejected(self, max_epochs):
        net = init_network(NetworkConfig(4, 2, 2, init_seed=15))
        split = toy_split(seed=15)
        with pytest.raises(ConfigurationError, match="max_epochs must be"):
            retrain(net, split, split, 0.1, PenaltyParams(), floor=1.0, max_epochs=max_epochs)

    def test_floor_validation(self):
        net = init_network(NetworkConfig(4, 2, 2, init_seed=15))
        split = toy_split(seed=15)
        with pytest.raises(ConfigurationError):
            retrain(
                net, split, split, 0.1, PenaltyParams(), floor=1.5, max_epochs=100
            )
