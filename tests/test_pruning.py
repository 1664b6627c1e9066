import json
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnprune import (
    ConfigurationError,
    DatasetBundle,
    Network,
    NetworkConfig,
    ParseError,
    PenaltyParams,
    PruneParams,
    PruneTrace,
    ShapeError,
    Split,
    TrainParams,
    accuracy,
    eliminate_weights,
    forward_batch,
    grow_and_prune,
    init_network,
    prune_dead_nodes,
    reference_config,
    removal_batch,
    serialize,
    train,
)
from nnprune.pruning import (
    KIND_HIDDEN_NODE,
    KIND_INPUT_NODE,
    KIND_WEIGHT_V,
    KIND_WEIGHT_W,
    TRIGGER_DEAD_HIDDEN,
    TRIGGER_DEAD_INPUT,
    TRIGGER_MAGNITUDE,
    TRIGGER_PRODUCT,
    TRIGGER_SMALLEST,
    RemovalEvent,
    derived_seed,
)

TP = TrainParams(learning_rate=0.1, epochs=300)
PEN = PenaltyParams()


def make_split(x, classes, o=2) -> Split:
    return Split(np.asarray(x, float), np.asarray(classes), o)


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

    def test_eta2_below_half(self):
        with pytest.raises(ConfigurationError, match="eta2"):
            PruneParams(eta2=0.5)
        assert PruneParams(eta2=0.49).threshold == pytest.approx(1.96)

    def test_eta_positive(self):
        with pytest.raises(ConfigurationError, match="eta2"):
            PruneParams(eta2=0.0)

    def test_floor_is_accuracy_less_tolerance_clamped_at_zero(self):
        params = PruneParams(accuracy_drop_tolerance=0.25)
        assert params.floor(0.75) == 0.5
        assert params.floor(0.25) == 0.0
        assert params.floor(0.125) == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("retrain_max_epochs", 2.5),
            ("retrain_max_epochs", True),
            ("max_restarts", 1.5),
            ("max_restarts", 2.0),
            ("max_hidden", 3.0),
            ("max_hidden", False),
            ("retrain_max_epochs", -1),
            ("max_restarts", 0),
            ("max_hidden", 0),
        ],
    )
    def test_integer_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            PruneParams(**{field: value})


def threshold_removals(net, params):
    """(w indices, v indices) of the threshold events of ``removal_batch``."""
    batch = removal_batch(net, params, 0)
    return (
        [e.indices for e in batch if e.trigger == TRIGGER_PRODUCT],
        [e.indices for e in batch if e.trigger == TRIGGER_MAGNITUDE],
    )


def reference_influence(net):
    return np.abs(net.v).max(axis=0)[:, None] * np.abs(net.w)


def reference_condition_candidates(net, params):
    """The separate threshold-candidate formula, kept as the reference."""
    thr = params.threshold
    influence = reference_influence(net)
    w_removals = [(int(m), int(l)) for m, l in np.argwhere(net.w_mask & (influence <= thr))]
    v_removals = [(int(p), int(m)) for p, m in np.argwhere(net.v_mask & (np.abs(net.v) <= thr))]
    return w_removals, v_removals


def reference_smallest_product(net):
    """The separate fallback formula, kept as the reference; None when no
    w entry is unmasked."""
    if not net.w_mask.any():
        return None
    influence = np.where(net.w_mask, reference_influence(net), np.inf)
    m, l = np.unravel_index(int(np.argmin(influence)), influence.shape)
    return int(m), int(l)


def reference_batch(net, params, batch):
    """The elimination batch built from the reference formulas, event by event."""
    influence = reference_influence(net)
    w_cands, v_cands = reference_condition_candidates(net, params)
    events = [
        RemovalEvent(kind=KIND_WEIGHT_W, indices=ml, trigger=TRIGGER_PRODUCT, batch=batch,
                     metric=float(influence[ml]), threshold=params.threshold)
        for ml in w_cands
    ] + [
        RemovalEvent(kind=KIND_WEIGHT_V, indices=pm, trigger=TRIGGER_MAGNITUDE, batch=batch,
                     metric=float(abs(net.v[pm])), threshold=params.threshold)
        for pm in v_cands
    ]
    if events:
        return events
    ml = reference_smallest_product(net)
    if ml is None:
        return []
    return [RemovalEvent(kind=KIND_WEIGHT_W, indices=ml, trigger=TRIGGER_SMALLEST, batch=batch,
                         metric=float(influence[ml]), threshold=None)]


# few distinct values on and around the default threshold 0.4, so that
# threshold boundaries are common, and few distinct values above every
# threshold drawn, so that the smallest-product rule meets equal products
TIE_PRONE = (0.0, -0.0, 0.05, -0.1, 0.1, 0.2, -0.4, 0.4, 0.5, -1.0, 2.0)
ABOVE_THRESHOLD = (0.7, -0.7, 1.0, 2.0)


@st.composite
def masked_networks(draw):
    n, h, o = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    net = init_network(NetworkConfig(n, h, o))
    value = draw(st.sampled_from([
        st.sampled_from(TIE_PRONE),
        st.sampled_from(ABOVE_THRESHOLD),
        st.one_of(st.sampled_from(TIE_PRONE), st.floats(-3.0, 3.0)),
    ]))
    for weights, mask in ((net.w, net.w_mask), (net.v, net.v_mask)):
        size = weights.size
        weights[:] = np.reshape(draw(st.lists(value, min_size=size, max_size=size)), weights.shape)
        mask[:] = np.reshape(draw(st.lists(st.booleans(), min_size=size, max_size=size)), mask.shape)
    net.apply_masks()
    return net


def all_w_masked():
    """Every w masked; one v entry (0.34) lies below 0.4 but above 0.04."""
    net = init_network(NetworkConfig(3, 2, 2, init_seed=12))
    net.w_mask[:] = False
    net.apply_masks()
    return net


class TestRemovalBatch:
    @settings(max_examples=300, deadline=None)
    @given(net=masked_networks(), eta2=st.sampled_from([0.01, 0.1, 0.12]), batch=st.integers(0, 9))
    @example(net=all_w_masked(), eta2=0.1, batch=0)   # v events only
    @example(net=all_w_masked(), eta2=0.01, batch=3)  # nothing left: []
    def test_matches_reference_formulas(self, net, eta2, batch):
        params = PruneParams(eta2=eta2)
        before = serialize(net)
        got = removal_batch(net, params, batch)
        assert got == reference_batch(net, params, batch)
        assert serialize(net) == before  # the rule only reads the network


class TestConditionCandidates:
    """The threshold rules of ``removal_batch``."""

    def net_1out(self):
        net = init_network(NetworkConfig(2, 1, 1, init_seed=0))
        return net

    def test_product_threshold(self):
        # threshold 4*eta2 = 0.4; v=1.0, w=0.3 qualifies, w=0.5 does not
        net = self.net_1out()
        net.v[0, 0] = 1.0
        net.w[0, 0], net.w[0, 1] = 0.3, 0.5
        w_c, _ = threshold_removals(net, PruneParams(eta2=0.10))
        assert (0, 0) in w_c
        assert (0, 1) not in w_c

    def test_magnitude_threshold(self):
        net = self.net_1out()
        net.w[:] = 1.0
        net.v[0, 0] = 0.39
        _, v_c = threshold_removals(net, PruneParams(eta2=0.10))
        assert (0, 0) in v_c
        net.v[0, 0] = 0.41
        _, v_c = threshold_removals(net, PruneParams(eta2=0.10))
        assert v_c == []

    def test_dead_fanout_makes_all_w_candidates(self):
        net = init_network(NetworkConfig(3, 2, 2, init_seed=1))
        net.w[:] = 5.0  # far above any threshold on their own
        net.v[:, 0] = 0.0  # hidden 0 has zero fan-out
        net.v[:, 1] = 5.0
        w_c, _ = threshold_removals(net, PruneParams())
        assert {(0, 0), (0, 1), (0, 2)} <= set(w_c)
        assert all(m == 0 for m, _ in w_c)

    def test_max_over_outputs_is_used(self):
        # one large fan-out weight protects the w entry
        net = init_network(NetworkConfig(1, 1, 2, init_seed=2))
        net.w[0, 0] = 0.3
        net.v[0, 0], net.v[1, 0] = 0.1, 3.0  # max |v*w| = 0.9 > 0.4
        w_c, _ = threshold_removals(net, PruneParams())
        assert w_c == []

    def test_masked_entries_excluded(self):
        net = self.net_1out()
        net.w[:] = 0.0
        net.v[:] = 0.0
        net.w_mask[0, 0] = False
        w_c, v_c = threshold_removals(net, PruneParams())
        assert (0, 0) not in w_c
        assert (0, 1) in w_c  # still unmasked and below threshold


# threshold 4*eta2 = 0.04 lies below every unmasked weight and product in
# these cases, so only the smallest-product rule applies
FALLBACK = PruneParams(eta2=0.01)


def fallback_removal(net):
    batch = removal_batch(net, FALLBACK, 0)
    if not batch:
        return None
    (event,) = batch
    assert event.kind == KIND_WEIGHT_W and event.trigger == TRIGGER_SMALLEST
    assert event.threshold is None
    return event.indices


class TestSmallestProduct:
    """The smallest-product rule of ``removal_batch``."""

    def test_single_unmasked(self):
        net = init_network(NetworkConfig(2, 2, 1, init_seed=3))
        net.v[:] = 1.0
        net.w_mask[:] = False
        net.w_mask[1, 0] = True
        net.apply_masks()
        assert fallback_removal(net) == (1, 0)

    def test_argmin(self):
        net = init_network(NetworkConfig(3, 1, 1, init_seed=4))
        net.v[0, 0] = 1.0
        net.w[0] = np.array([0.5, 0.2, 0.9])
        assert fallback_removal(net) == (0, 1)

    def test_tie_break_lexicographic(self):
        net = init_network(NetworkConfig(4, 2, 1, init_seed=5))
        net.v[:] = 1.0
        net.w[:] = 1.0
        net.w[0, 3] = 0.05
        net.w[1, 1] = 0.05
        assert fallback_removal(net) == (0, 3)

    def test_exhausted_returns_empty(self):
        # all w masked and no v below the threshold: nothing left to remove
        net = init_network(NetworkConfig(2, 2, 1, init_seed=6))
        net.v[:] = 1.0
        net.w_mask[:] = False
        net.apply_masks()
        assert fallback_removal(net) is None


def assert_scored(net, out, trace, score, validation):
    """``eliminate_weights``'s score is the returned network's validation
    accuracy: the last kept batch's, or the input's when none was kept."""
    assert score == accuracy(out, validation)
    kept = [
        e.accuracy_after_retrain
        for e in trace.events
        if e.kind in (KIND_WEIGHT_W, KIND_WEIGHT_V) and not e.rolled_back
    ]
    assert score == (kept[-1] if kept else accuracy(net, validation))


class TestEliminateWeights:
    def test_rollback_exactness_when_nothing_removable(self):
        # two-input halfplane net: either input alone cannot represent the
        # margin rule, so the first fallback removal must be rolled back
        bundle = halfplane_bundle(seed=1)
        net = train(init_network(NetworkConfig(2, 1, 2, init_seed=1)), bundle.train, TP, PEN)
        assert accuracy(net, bundle.validation) > 0.9
        params = PruneParams(retrain_max_epochs=50)
        floor = params.floor(accuracy(net, bundle.validation))
        out, trace, score = eliminate_weights(net, bundle, TP.learning_rate, PEN, params, floor)
        assert serialize(out) == serialize(net)  # bit-identical rollback
        assert_scored(net, out, trace, score, bundle.validation)
        assert len(trace.events) >= 1
        assert all(e.rolled_back for e in trace.events)
        assert trace.n_removed_weights() == 0

    def test_snapshots_do_not_follow_later_edits(self):
        # as above, every batch is rolled back: the network returned equals
        # the last snapshot, but is not it
        bundle = halfplane_bundle(seed=1)
        net = train(init_network(NetworkConfig(2, 1, 2, init_seed=1)), bundle.train, TP, PEN)
        params = PruneParams(retrain_max_epochs=50)
        floor = params.floor(accuracy(net, bundle.validation))
        out, trace, _ = eliminate_weights(net, bundle, TP.learning_rate, PEN, params, floor)
        last = trace.snapshots[max(trace.snapshots)]
        assert serialize(last) == serialize(out)
        written = trace.to_jsonl()
        for edited in (out, net):
            edited.weights[:] = 0.5
            edited.w_mask[0, 0] = False
            edited.apply_masks()
        assert trace.to_jsonl() == written

    def test_input_below_the_floor_comes_back_unchanged(self):
        # as in the growth loop, where a small network can miss the floor of
        # the reference: batch 0 is rolled back and the input is returned
        bundle = halfplane_bundle(seed=1)
        tparams = TrainParams(learning_rate=0.1, epochs=5)
        net = train(init_network(NetworkConfig(2, 1, 2, init_seed=1)), bundle.train, tparams, PEN)
        params = PruneParams(retrain_max_epochs=50)
        floor = params.floor(1.0)
        assert accuracy(net, bundle.validation) < floor
        out, trace, score = eliminate_weights(net, bundle, TP.learning_rate, PEN, params, floor)
        assert serialize(out) == serialize(net)
        assert score < floor
        assert_scored(net, out, trace, score, bundle.validation)
        assert [(e.batch, e.rolled_back) for e in trace.events] == [(0, True)]

    @pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan])
    def test_bad_lr_rejected(self, lr):
        bundle = halfplane_bundle(seed=1)
        net = init_network(NetworkConfig(2, 1, 2, init_seed=1))
        with pytest.raises(ConfigurationError, match="lr must be in"):
            eliminate_weights(net, bundle, lr, PEN, PruneParams(), 0.5)

    @pytest.mark.parametrize("removable", [True, False])
    @pytest.mark.parametrize("floor", [math.nan, 1.5, -1.0])
    def test_bad_floor_rejected(self, floor, removable):
        bundle = halfplane_bundle(seed=1)
        net = init_network(NetworkConfig(2, 1, 2, init_seed=1))
        if not removable:  # every w masked and every v too large to remove
            net.w_mask[:] = False
            net.apply_masks()
            net.v[:] = 5.0
        assert bool(removal_batch(net, PruneParams(), 0)) == removable
        with pytest.raises(ConfigurationError, match="floor must be in"):
            eliminate_weights(net, bundle, 0.1, PEN, PruneParams(), floor=floor)

    def test_monotone_sparsity_and_trace_completeness(self, cancer_bundle):
        net = train(
            init_network(NetworkConfig(9, 3, 2, init_seed=5)),
            cancer_bundle.train,
            TrainParams(0.1, 500),
            PEN,
        )
        before = net.n_unmasked()
        floor = PruneParams().floor(accuracy(net, cancer_bundle.validation))
        out, trace, score = eliminate_weights(net, cancer_bundle, 0.1, PEN, PruneParams(), floor)
        out.validate()
        assert_scored(net, out, trace, score, cancer_bundle.validation)
        after = out.n_unmasked()
        assert after <= before
        assert before - after == trace.n_removed_weights() + trace.n_implied_removed()
        # every removal event that was kept must satisfy its recorded bound
        for e in trace.events:
            if e.rolled_back or e.threshold is None:
                continue
            assert e.metric <= e.threshold

    def test_returns_no_dead_node(self, cancer_bundle):
        net = train(
            init_network(NetworkConfig(9, 3, 2, init_seed=5)),
            cancer_bundle.train,
            TrainParams(0.1, 500),
            PEN,
        )
        floor = PruneParams().floor(accuracy(net, cancer_bundle.validation))
        out, trace, _ = eliminate_weights(net, cancer_bundle, 0.1, PEN, PruneParams(), floor)
        assert trace.n_removed_weights() > 0
        assert all(out.w_mask[:, l].any() for l in range(out.n_inputs) if out.input_active[l])
        assert all(out.v_mask[:, m].any() for m in range(out.n_hidden) if out.hidden_active[m])

    def test_builds_two_networks_per_batch(self, cancer_bundle, monkeypatch):
        net = train(
            init_network(NetworkConfig(9, 3, 2, init_seed=5)),
            cancer_bundle.train,
            TrainParams(0.1, 500),
            PEN,
        )
        floor = PruneParams().floor(accuracy(net, cancer_bundle.validation))
        built = []
        post_init = Network.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Network, "__post_init__", counted)
        _, trace, _ = eliminate_weights(net, cancer_bundle, 0.1, PEN, PruneParams(), floor)
        batches = len(trace.snapshots)
        assert batches >= 2
        # the working copy; per batch a candidate and retrain's copy of it; the
        # copy dead-node pruning returns.  Snapshots hold the working copy itself.
        assert len(built) <= 2 * batches + 2

    def test_floor_holds_at_exit(self, cancer_bundle):
        net = train(
            init_network(NetworkConfig(9, 3, 2, init_seed=6)),
            cancer_bundle.train,
            TrainParams(0.1, 500),
            PEN,
        )
        baseline = accuracy(net, cancer_bundle.validation)
        params = PruneParams(accuracy_drop_tolerance=0.02)
        out, trace, score = eliminate_weights(
            net, cancer_bundle, 0.1, PEN, params, params.floor(baseline)
        )
        assert score >= baseline - 0.02
        assert_scored(net, out, trace, score, cancer_bundle.validation)

    def test_explicit_floor_is_respected(self, cancer_bundle):
        net = train(
            init_network(NetworkConfig(9, 3, 2, init_seed=7)),
            cancer_bundle.train,
            TrainParams(0.1, 500),
            PEN,
        )
        out, trace, score = eliminate_weights(
            net, cancer_bundle, 0.1, PEN, PruneParams(), floor=0.5
        )
        assert score >= 0.5
        assert_scored(net, out, trace, score, cancer_bundle.validation)


def assert_same_function(net, out, seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        x = rng.random((1, net.n_inputs))
        assert np.array_equal(forward_batch(net, x)[1], forward_batch(out, x)[1])


class TestNodePruning:
    def test_fully_connected_untouched(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=8))
        trace = PruneTrace()
        out = prune_dead_nodes(net, trace)
        assert trace.events == []
        assert serialize(out) == serialize(net)

    def test_dead_input_column(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=9))
        net.w_mask[:, 2] = False
        net.apply_masks()
        trace = PruneTrace()
        out = prune_dead_nodes(net, trace)
        assert trace.events == [RemovalEvent(KIND_INPUT_NODE, (2,), TRIGGER_DEAD_INPUT, 0)]
        assert not out.input_active[2]
        assert net.input_active[2]  # the input network is left as it was
        assert_same_function(net, out, seed=9)

    def test_dead_hidden_column(self):
        net = init_network(NetworkConfig(4, 3, 2, init_seed=10))
        net.v_mask[:, 1] = False
        net.apply_masks()
        trace = PruneTrace()
        out = prune_dead_nodes(net, trace)
        assert trace.events == [
            RemovalEvent(KIND_HIDDEN_NODE, (1,), TRIGGER_DEAD_HIDDEN, 0, implied_connections=4)
        ]
        assert not out.hidden_active[1]
        assert not out.w_mask[1].any()
        assert_same_function(net, out, seed=10)
        out.validate()

    def test_inputs_fed_only_dead_hidden_units_go_after_them(self):
        net = init_network(NetworkConfig(3, 3, 2, init_seed=13))
        net.w_mask[1, 2] = False       # input 2 feeds hidden 0 and 2 only
        net.w_mask[0, 1] = False       # hidden 0 keeps inputs 0 and 2
        net.w_mask[2, 0:2] = False     # hidden 2 keeps input 2
        net.v_mask[:, [0, 2]] = False  # hidden 0 and 2 have no fan-out
        net.apply_masks()
        trace = PruneTrace(events=[RemovalEvent(KIND_WEIGHT_W, (0, 1), TRIGGER_PRODUCT, 4)])
        out = prune_dead_nodes(net, trace)
        assert [(e.kind, e.indices, e.batch, e.implied_connections) for e in trace.events[1:]] == [
            (KIND_HIDDEN_NODE, (0,), 5, 2),
            (KIND_HIDDEN_NODE, (2,), 5, 1),
            (KIND_INPUT_NODE, (2,), 5, 0),
        ]
        assert_same_function(net, out, seed=13)
        out.validate()


class TestTraceSerialization:
    def test_jsonl_round_trip(self):
        trace = PruneTrace()
        net = init_network(NetworkConfig(2, 2, 2, init_seed=11))
        trace.snapshots[0] = net
        trace.events.append(
            RemovalEvent(
                kind=KIND_WEIGHT_W, indices=(1, 0), trigger="product-threshold",
                batch=0, metric=0.12, threshold=0.4, rolled_back=False,
                accuracy_after_retrain=0.97,
            )
        )
        trace.events.append(
            RemovalEvent(
                kind=KIND_WEIGHT_V, indices=(0, 1), trigger=TRIGGER_MAGNITUDE,
                batch=1, metric=0.9, threshold=None, rolled_back=True,
                accuracy_after_retrain=0.91,
            )
        )
        text = trace.to_jsonl()
        back = PruneTrace.from_jsonl(text)
        assert back.events == trace.events
        assert {b: serialize(n) for b, n in back.snapshots.items()} == {0: serialize(net)}
        assert back.to_jsonl() == text

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            '{"batch": 1}',
            '{"type": "removal", "kind": "weight-w", "trigger": "smallest-product", "batch": 0}',
            '{"type": "snapshot", "batch": "x", "network": {}}',
            "[1, 2]",
        ],
    )
    def test_malformed_line_names_line(self, bad):
        good = RemovalEvent(KIND_WEIGHT_W, (0, 1), TRIGGER_SMALLEST, 0).to_json()
        with pytest.raises(ParseError, match=r"^trace line 3: "):
            PruneTrace.from_jsonl(f"{good}\n\n{bad}\n{good}\n")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kind", 5),
            ("kind", "weight-x"),
            ("trigger", None),
            ("trigger", KIND_WEIGHT_W),
            ("batch", "x"),
            ("batch", 1.0),
            ("batch", True),
            ("implied_connections", None),
            ("indices", "01"),
            ("indices", [0, 1.5]),
            ("indices", [0, False]),
            ("rolled_back", 0),
            ("metric", "0.1"),
            ("threshold", [0.4]),
            ("accuracy_after_retrain", True),
            ("batch", -3),
            # values the package never writes
            ("metric", math.nan),
            ("metric", -1.0),
            ("metric", math.inf),
            ("threshold", math.inf),
            ("threshold", -0.4),
            ("accuracy_after_retrain", math.nan),
            ("accuracy_after_retrain", 1.5),
            ("accuracy_after_retrain", -2),
            ("implied_connections", -3),
        ],
    )
    def test_event_field_of_wrong_type_rejected(self, field, value):
        doc = json.loads(RemovalEvent(KIND_WEIGHT_W, (0, 1), TRIGGER_SMALLEST, 0).to_json())
        bad = json.dumps({**doc, field: value})
        with pytest.raises(ParseError, match=rf"^trace line 2: ValueError: bad {field} "):
            PruneTrace.from_jsonl(f"\n{bad}\n")

    @pytest.mark.parametrize(
        "kind,indices,trigger,field",
        [
            (KIND_WEIGHT_W, [1], TRIGGER_PRODUCT, "indices"),
            (KIND_WEIGHT_W, [0, -1], TRIGGER_PRODUCT, "indices"),
            (KIND_WEIGHT_W, [0, 1], TRIGGER_MAGNITUDE, "trigger"),
            (KIND_WEIGHT_V, [0, 1, 2], TRIGGER_MAGNITUDE, "indices"),
            (KIND_WEIGHT_V, [0, 1], TRIGGER_SMALLEST, "trigger"),
            (KIND_INPUT_NODE, [0, 1, 2], TRIGGER_DEAD_INPUT, "indices"),
            (KIND_INPUT_NODE, [-1], TRIGGER_DEAD_INPUT, "indices"),
            (KIND_INPUT_NODE, [2], TRIGGER_SMALLEST, "trigger"),
            (KIND_INPUT_NODE, [2], TRIGGER_DEAD_HIDDEN, "trigger"),
            (KIND_HIDDEN_NODE, [], TRIGGER_DEAD_HIDDEN, "indices"),
            (KIND_HIDDEN_NODE, [1], TRIGGER_DEAD_INPUT, "trigger"),
        ],
    )
    def test_event_its_kind_is_never_written_with_rejected(self, kind, indices, trigger, field):
        bad = {"type": "removal", "kind": kind, "indices": indices, "trigger": trigger, "batch": 0}
        with pytest.raises(ParseError, match=rf"^trace line 1: ValueError: bad {field} "):
            PruneTrace.from_jsonl(json.dumps(bad))

    def test_each_kind_loads_with_each_of_its_triggers(self):
        events = [
            RemovalEvent(KIND_WEIGHT_W, (0, 1), TRIGGER_PRODUCT, 0),
            RemovalEvent(KIND_WEIGHT_W, (1, 0), TRIGGER_SMALLEST, 0),
            RemovalEvent(KIND_WEIGHT_V, (1, 0), TRIGGER_MAGNITUDE, 0),
            RemovalEvent(KIND_HIDDEN_NODE, (1,), TRIGGER_DEAD_HIDDEN, 1, implied_connections=2),
            RemovalEvent(KIND_INPUT_NODE, (0,), TRIGGER_DEAD_INPUT, 1),
        ]
        assert PruneTrace.from_jsonl(PruneTrace(events=events).to_jsonl()).events == events

    def test_numbers_and_nulls_accepted_where_written(self):
        event = RemovalEvent(
            KIND_INPUT_NODE, (2,), TRIGGER_DEAD_INPUT, 3, metric=1,
            accuracy_after_retrain=0.5, implied_connections=4,
        )
        assert PruneTrace.from_jsonl(event.to_json()).events == [event]

    @pytest.mark.parametrize(
        "kind,indices",
        [
            (KIND_WEIGHT_W, (7, 9)),   # outside the 2-1-2 snapshot's w [1, 2]
            (KIND_WEIGHT_W, (0, 2)),
            (KIND_WEIGHT_W, (1, 0)),
            (KIND_WEIGHT_V, (2, 0)),   # outside its v [2, 1]
            (KIND_WEIGHT_V, (0, 1)),
            (KIND_WEIGHT_W, (0, 1)),   # masked in the snapshot
        ],
    )
    def test_weight_event_outside_its_snapshot_rejected(self, kind, indices):
        net = init_network(NetworkConfig(2, 1, 2, init_seed=11))
        net.w_mask[0, 1] = False
        net.apply_masks()
        trigger = TRIGGER_SMALLEST if kind == KIND_WEIGHT_W else TRIGGER_MAGNITUDE
        good = RemovalEvent(KIND_WEIGHT_W, (0, 0), TRIGGER_SMALLEST, 0)
        bad = RemovalEvent(kind, indices, trigger, 0)
        trace = PruneTrace(events=[good, bad], snapshots={0: net})
        message = re.escape(f"trace line 3: {kind} {list(indices)} is not an unmasked weight")
        with pytest.raises(ParseError, match=f"^{message}"):
            PruneTrace.from_jsonl(trace.to_jsonl())

    @pytest.mark.parametrize(
        "bad",
        [
            '{"type": "event", "batch": 0}',
            '{"type": "snapshot", "batch": 0, "network": {"junk": 1}}',
            '{"type": "snapshot", "batch": 0.0, "network": NETWORK}',
            '{"type": "snapshot", "batch": 0}',
            '{"type": "snapshot", "batch": 0, "network": NETWORK, "extra": 1}',
            '{"type": "snapshot", "batch": -3, "network": NETWORK}',
            '{"type": "snapshot", "batch": 0, "network": NETWORK}\n'
            '{"type": "snapshot", "batch": 0, "network": NETWORK}',
        ],
    )
    def test_bad_snapshot_or_type_rejected(self, bad):
        network = serialize(init_network(NetworkConfig(2, 2, 2, init_seed=11)))
        text = bad.replace("NETWORK", network)
        last = len(text.splitlines())  # the bad line is the last one
        with pytest.raises(ParseError, match=rf"^trace line {last}: "):
            PruneTrace.from_jsonl(text)


def grown(bundle, base, tparams, penalty, params):
    """:func:`grow_and_prune` given the first attempt's trained reference."""
    reference = train(init_network(reference_config(base, 0)), bundle.train, tparams, penalty)
    return grow_and_prune(bundle, reference, base, tparams, penalty, params)


class TestGrowAndPrune:
    def test_toy_converges_with_one_hidden_unit(self):
        bundle = halfplane_bundle(seed=2)
        net, trace, report, _ = grown(
            bundle,
            NetworkConfig(2, 2, 2, init_seed=3),
            TP,
            PEN,
            PruneParams(retrain_max_epochs=50),
        )
        assert report.converged
        assert report.grown_hidden_units == 1
        assert net.n_active_hidden == 1
        assert report.pruned_test_accuracy >= report.full_test_accuracy - 0.02 - 1e-12
        net.validate()

    def test_final_candidate_is_scored_once_on_validation(self, monkeypatch):
        # the case above: one attempt, accepted at one hidden unit
        bundle, params = halfplane_bundle(seed=2), PruneParams(retrain_max_epochs=50)
        calls = []

        def counted(net, split):
            if split is bundle.validation and sys._getframe(1).f_code is grow_and_prune.__code__:
                calls.append(net)
            return accuracy(net, split)

        monkeypatch.setattr("nnprune.pruning.accuracy", counted)
        _, _, report, _ = grown(bundle, NetworkConfig(2, 2, 2, init_seed=3), TP, PEN, params)
        assert (report.restarts_used, report.grown_hidden_units) == (1, 1)
        # the reference only: eliminate_weights returns the candidate's score,
        # which pruning dead nodes keeps
        assert len(calls) == 1

    def test_deterministic(self):
        bundle = halfplane_bundle(seed=3)
        args = (
            bundle, NetworkConfig(2, 2, 2, init_seed=4), TP, PEN, PruneParams(retrain_max_epochs=50)
        )
        net1, _, rep1, ref1 = grown(*args)
        net2, _, rep2, ref2 = grown(*args)
        assert serialize(net1) == serialize(net2)
        assert serialize(ref1) == serialize(ref2)
        assert rep1 == rep2

    def test_trace_accounts_for_final_masks(self, cancer_bundle):
        net, trace, report, _ = grown(
            cancer_bundle,
            NetworkConfig(9, 3, 2, init_seed=5),
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

    @pytest.mark.parametrize("arch", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
    def test_reference_of_another_architecture_rejected(self, arch):
        reference = init_network(NetworkConfig(*arch, init_seed=1))
        with pytest.raises(ShapeError, match=r"^reference network is \d-\d-\d, expected 2-2-2$"):
            grow_and_prune(
                halfplane_bundle(), reference, NetworkConfig(2, 2, 2, init_seed=1), TP, PEN,
                PruneParams(),
            )

    def test_kept_reference_is_the_best_attempts_not_the_last(self):
        # no attempt converges and the second of three scores best
        bundle, base = halfplane_bundle(seed=2), NetworkConfig(2, 2, 2, init_seed=5)
        tparams = TrainParams(0.1, 30)
        params = PruneParams(retrain_max_epochs=10, accuracy_drop_tolerance=0.0, max_hidden=1)
        _, _, report, kept = grown(bundle, base, tparams, PEN, params)
        assert not report.converged
        assert report.restarts_used == 2 < params.max_restarts
        # the re-train the experiment harness used to make after grow_and_prune
        rebuilt = train(
            init_network(
                replace(base, init_seed=derived_seed(base.init_seed, report.restarts_used - 1, 0))
            ),
            bundle.train, tparams, PEN,
        )
        assert serialize(kept) == serialize(rebuilt)
        assert report.full_test_accuracy == accuracy(kept, bundle.test)
        assert report.full_validation_accuracy == accuracy(kept, bundle.validation)
