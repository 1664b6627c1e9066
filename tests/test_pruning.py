import numpy as np
import pytest

from nnprune import (
    CANCER1,
    ConfigurationError,
    DatasetBundle,
    NetworkConfig,
    NoRemovableWeightError,
    PenaltyParams,
    PruneParams,
    PruneTrace,
    Split,
    TrainParams,
    accuracy,
    condition_candidates,
    eliminate_weights,
    forward_batch,
    grow_and_prune,
    init_network,
    prune_dead_hidden,
    prune_dead_inputs,
    serialize,
    smallest_product,
    train,
)
from nnprune.pruning import KIND_WEIGHT_V, KIND_WEIGHT_W, RemovalEvent

TP = TrainParams(learning_rate=0.1, epochs=300)
PEN = PenaltyParams()


def make_split(x, classes, o=2) -> Split:
    t = np.zeros((len(x), o))
    t[np.arange(len(x)), classes] = 1.0
    return Split(examples=np.asarray(x, float), targets=t, class_indices=np.asarray(classes))


def halfplane_bundle(seed=0, margin=0.1) -> DatasetBundle:
    """Toy set: class 1 iff x0 exceeds x1 by a margin; separable through
    the origin, so a single no-bias hidden unit can fit it exactly."""
    rng = np.random.default_rng(seed)
    points = rng.random((400, 2))
    keep = np.abs(points[:, 0] - points[:, 1]) > margin
    points = points[keep][:160]
    classes = (points[:, 0] > points[:, 1]).astype(int)
    splits = [
        make_split(points[:80], classes[:80]),
        make_split(points[80:120], classes[80:120]),
        make_split(points[120:160], classes[120:160]),
    ]
    zero = np.zeros(2)
    return DatasetBundle(
        train=splits[0],
        validation=splits[1],
        test=splits[2],
        normalization=(zero, zero + 1.0),
        imputation=zero,
    )


def test_halfplane_fit_oracle():
    # brute-force verification that a 1-hidden-unit net of this form can
    # fit the toy set: grid-search w, fixed opposite-sign v
    bundle = halfplane_bundle()
    split = bundle.train
    best = 0.0
    for w0 in np.linspace(-1, 1, 21):
        for w1 in np.linspace(-1, 1, 21):
            a = np.tanh(split.examples @ np.array([w0, w1]))
            preds = (a > 0).astype(int)  # v = (-1, +1): argmax picks 1 iff a > 0
            best = max(best, float(np.mean(preds == split.class_indices)))
    assert best == 1.0


class TestPruneParams:
    def test_defaults_valid(self):
        p = PruneParams()
        assert p.threshold == pytest.approx(0.4)

    def test_eta_sum_constraint(self):
        with pytest.raises(ConfigurationError):
            PruneParams(eta1=0.3, eta2=0.2)

    def test_eta_positive(self):
        with pytest.raises(ConfigurationError):
            PruneParams(eta1=0.0, eta2=0.1)


class TestConditionCandidates:
    def net_1out(self):
        net = init_network(NetworkConfig(2, 1, 1, seed=0))
        return net

    def test_product_threshold(self):
        # threshold 4*eta2 = 0.4; v=1.0, w=0.3 qualifies, w=0.5 does not
        net = self.net_1out()
        net.v[0, 0] = 1.0
        net.w[0, 0], net.w[0, 1] = 0.3, 0.5
        w_c, _ = condition_candidates(net, PruneParams(eta1=0.35, eta2=0.10))
        assert (0, 0) in w_c
        assert (0, 1) not in w_c

    def test_magnitude_threshold(self):
        net = self.net_1out()
        net.w[:] = 1.0
        net.v[0, 0] = 0.39
        _, v_c = condition_candidates(net, PruneParams(eta1=0.35, eta2=0.10))
        assert (0, 0) in v_c
        net.v[0, 0] = 0.41
        _, v_c = condition_candidates(net, PruneParams(eta1=0.35, eta2=0.10))
        assert v_c == []

    def test_dead_fanout_makes_all_w_candidates(self):
        net = init_network(NetworkConfig(3, 2, 2, seed=1))
        net.w[:] = 5.0  # far above any threshold on their own
        net.v[:, 0] = 0.0  # hidden 0 has zero fan-out
        net.v[:, 1] = 5.0
        w_c, _ = condition_candidates(net, PruneParams())
        assert {(0, 0), (0, 1), (0, 2)} <= set(w_c)
        assert all(m == 0 for m, _ in w_c)

    def test_max_over_outputs_is_used(self):
        # one large fan-out weight protects the w entry
        net = init_network(NetworkConfig(1, 1, 2, seed=2))
        net.w[0, 0] = 0.3
        net.v[0, 0], net.v[1, 0] = 0.1, 3.0  # max |v*w| = 0.9 > 0.4
        w_c, _ = condition_candidates(net, PruneParams())
        assert w_c == []

    def test_masked_entries_excluded(self):
        net = self.net_1out()
        net.w[:] = 0.0
        net.v[:] = 0.0
        net.w_mask[0, 0] = False
        w_c, v_c = condition_candidates(net, PruneParams())
        assert (0, 0) not in w_c
        assert (0, 1) in w_c  # still unmasked and below threshold


class TestSmallestProduct:
    def test_single_unmasked(self):
        net = init_network(NetworkConfig(2, 2, 1, seed=3))
        net.w_mask[:] = False
        net.w_mask[1, 0] = True
        net.apply_masks()
        assert smallest_product(net) == (1, 0)

    def test_argmin(self):
        net = init_network(NetworkConfig(3, 1, 1, seed=4))
        net.v[0, 0] = 1.0
        net.w[0] = np.array([0.5, 0.2, 0.9])
        assert smallest_product(net) == (0, 1)

    def test_tie_break_lexicographic(self):
        net = init_network(NetworkConfig(4, 2, 1, seed=5))
        net.v[:] = 1.0
        net.w[:] = 1.0
        net.w[0, 3] = 0.05
        net.w[1, 1] = 0.05
        assert smallest_product(net) == (0, 3)

    def test_exhausted_raises(self):
        net = init_network(NetworkConfig(2, 2, 1, seed=6))
        net.w_mask[:] = False
        net.apply_masks()
        with pytest.raises(NoRemovableWeightError):
            smallest_product(net)


class TestEliminateWeights:
    def test_rollback_exactness_when_nothing_removable(self):
        # two-input halfplane net: either input alone cannot represent the
        # margin rule, so the first fallback removal must be rolled back
        bundle = halfplane_bundle(seed=1)
        net = train(init_network(NetworkConfig(2, 1, 2, seed=1)), bundle.train, TP, PEN)
        assert accuracy(net, bundle.validation) > 0.9
        out, trace = eliminate_weights(net, bundle, TP, PEN, PruneParams(retrain_max_epochs=50))
        assert serialize(out) == serialize(net)  # bit-identical rollback
        assert len(trace.events) >= 1
        assert all(e.rolled_back for e in trace.events)
        assert trace.n_removed_weights() == 0

    def test_monotone_sparsity_and_trace_completeness(self, cancer_bundle):
        net = train(
            init_network(NetworkConfig(9, 3, 2, seed=5)),
            cancer_bundle.train,
            TrainParams(0.1, 500),
            PEN,
        )
        before = net.n_unmasked()
        out, trace = eliminate_weights(net, cancer_bundle, TrainParams(0.1, 0), PEN, PruneParams())
        out.validate()
        after = out.n_unmasked()
        assert after <= before
        assert before - after == trace.n_removed_weights()
        # every removal event that was kept must satisfy its recorded bound
        for e in trace.events:
            if e.rolled_back or e.threshold is None:
                continue
            assert e.metric <= e.threshold

    def test_floor_holds_at_exit(self, cancer_bundle):
        net = train(
            init_network(NetworkConfig(9, 3, 2, seed=6)),
            cancer_bundle.train,
            TrainParams(0.1, 500),
            PEN,
        )
        baseline = accuracy(net, cancer_bundle.validation)
        params = PruneParams(accuracy_drop_tolerance=0.02)
        out, _ = eliminate_weights(net, cancer_bundle, TrainParams(0.1, 0), PEN, params)
        assert accuracy(out, cancer_bundle.validation) >= baseline - 0.02

    def test_explicit_floor_is_respected(self, cancer_bundle):
        net = train(
            init_network(NetworkConfig(9, 3, 2, seed=7)),
            cancer_bundle.train,
            TrainParams(0.1, 500),
            PEN,
        )
        out, _ = eliminate_weights(
            net, cancer_bundle, TrainParams(0.1, 0), PEN, PruneParams(), floor=0.5
        )
        assert accuracy(out, cancer_bundle.validation) >= 0.5


class TestNodePruning:
    def test_fully_connected_untouched(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=8))
        out, removed = prune_dead_inputs(net)
        assert removed == []
        out, removed = prune_dead_hidden(net)
        assert removed == []

    def test_dead_input_column(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=9))
        net.w_mask[:, 2] = False
        net.apply_masks()
        out, removed = prune_dead_inputs(net)
        assert removed == [2]
        assert not out.input_active[2]
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.random((1, 4))
            assert np.array_equal(forward_batch(net, x)[1], forward_batch(out, x)[1])

    def test_dead_hidden_column(self):
        net = init_network(NetworkConfig(4, 3, 2, seed=10))
        net.v_mask[:, 1] = False
        net.apply_masks()
        out, removed = prune_dead_hidden(net)
        assert removed == [1]
        assert not out.hidden_active[1]
        assert not out.w_mask[1].any()
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = rng.random((1, 4))
            assert np.array_equal(forward_batch(net, x)[1], forward_batch(out, x)[1])
        out.validate()


class TestTraceSerialization:
    def test_jsonl_round_trip(self):
        trace = PruneTrace()
        net = init_network(NetworkConfig(2, 2, 2, seed=11))
        trace.snapshots[0] = serialize(net)
        trace.events.append(
            RemovalEvent(
                kind=KIND_WEIGHT_W, indices=(1, 0), trigger="product-threshold",
                batch=0, metric=0.12, threshold=0.4, rolled_back=False,
                accuracy_after_retrain=0.97,
            )
        )
        trace.events.append(
            RemovalEvent(
                kind=KIND_WEIGHT_V, indices=(0, 1), trigger="smallest-product",
                batch=1, metric=0.9, threshold=None, rolled_back=True,
                accuracy_after_retrain=0.91,
            )
        )
        back = PruneTrace.from_jsonl(trace.to_jsonl())
        assert back.events == trace.events
        assert back.snapshots == trace.snapshots


class TestGrowAndPrune:
    def test_toy_converges_with_one_hidden_unit(self):
        bundle = halfplane_bundle(seed=2)
        net, trace, report = grow_and_prune(
            bundle,
            NetworkConfig(2, 2, 2, seed=3),
            TP,
            PEN,
            PruneParams(retrain_max_epochs=50),
        )
        assert report.converged
        assert report.grown_hidden_units == 1
        assert net.n_active_hidden == 1
        assert report.pruned_test_accuracy >= report.full_test_accuracy - 0.02 - 1e-12
        net.validate()

    def test_deterministic(self):
        bundle = halfplane_bundle(seed=3)
        args = (bundle, NetworkConfig(2, 2, 2, seed=4), TP, PEN, PruneParams(retrain_max_epochs=50))
        net1, _, rep1 = grow_and_prune(*args)
        net2, _, rep2 = grow_and_prune(*args)
        assert serialize(net1) == serialize(net2)
        assert rep1 == rep2

    def test_trace_accounts_for_final_masks(self, cancer_bundle):
        net, trace, report = grow_and_prune(
            cancer_bundle,
            NetworkConfig(9, 3, 2, seed=5),
            TrainParams(0.1, 500),
            PEN,
            PruneParams(),
        )
        h = net.n_hidden
        initial_unmasked = h * 9 + 2 * h
        explicit = trace.n_removed_weights()
        implied = trace.n_implied_removed()
        assert initial_unmasked - net.n_unmasked() == explicit + implied
        assert report.explicit_connections_removed == explicit
        assert report.implied_connections_removed == implied
