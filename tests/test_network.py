import json
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnprune import (
    ConfigurationError,
    Network,
    NetworkConfig,
    ParseError,
    ShapeError,
    classify_batch,
    deserialize,
    forward_batch,
    init_network,
    serialize,
)

from conftest import masked_logistic

# independently derived by scalar evaluation: tanh(1) and 1/(1+exp(-tanh(1)))
TANH_1 = 0.7615941559557649
LOGISTIC_TANH_1 = 0.6816997421945262


def small_net(n=2, h=2, o=2, seed=3) -> Network:
    return init_network(NetworkConfig(n, h, o, init_range=1.0, init_seed=seed))


def forward_one(net: Network, x) -> tuple[np.ndarray, np.ndarray]:
    """(hidden, output) of a single input vector, as a one-row batch."""
    hidden, output = forward_batch(net, np.asarray(x, dtype=np.float64)[np.newaxis, :])
    return hidden[0], output[0]


def classify_one(net: Network, x) -> int:
    return int(classify_batch(net, np.asarray(x, dtype=np.float64)[np.newaxis, :])[0])


class TestConfig:
    def test_valid(self):
        cfg = NetworkConfig(9, 3, 2, init_range=1.0, init_seed=7)
        assert (cfg.n_inputs, cfg.n_hidden, cfg.n_outputs) == (9, 3, 2)

    @pytest.mark.parametrize(
        "n,h,o",
        [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 3, 2), (9, 2.5, 2), (9.0, 3, 2), (9, 3, True)],
    )
    def test_bad_sizes_rejected(self, n, h, o):
        with pytest.raises(ConfigurationError, match="n_inputs|n_hidden|n_outputs"):
            NetworkConfig(n, h, o)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="init_seed must be an integer"):
            NetworkConfig(1, 1, 1, init_seed=seed)

    def test_numpy_integers_accepted(self):
        cfg = NetworkConfig(np.int64(9), np.int32(3), np.uint8(2), init_seed=np.int64(7))
        assert init_network(cfg).architecture() == "9-3-2"

    def test_zero_init_range_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(1, 1, 1, init_range=0.0)

    @pytest.mark.parametrize("init_range", [1e308, float("inf"), float("nan")])
    def test_unbounded_init_range_rejected(self, init_range):
        with pytest.raises(ConfigurationError, match="init_range"):
            NetworkConfig(1, 1, 1, init_range=init_range)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="init_seed must be >= 0"):
            NetworkConfig(1, 1, 1, init_seed=-1)


class TestInit:
    def test_shapes_and_bound(self):
        net = init_network(NetworkConfig(9, 3, 2, init_range=1.0, init_seed=7))
        assert net.w.shape == (3, 9) and net.w.size == 27
        assert net.v.shape == (2, 3) and net.v.size == 6
        assert np.all(np.abs(net.w) <= 1.0) and np.all(np.abs(net.v) <= 1.0)
        assert net.w_mask.all() and net.v_mask.all()
        assert net.input_active.all() and net.hidden_active.all()

    def test_deterministic(self):
        cfg = NetworkConfig(9, 3, 2, init_range=1.0, init_seed=7)
        a, b = init_network(cfg), init_network(cfg)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.v, b.v)

    def test_seed_changes_weights(self):
        a = init_network(NetworkConfig(9, 3, 2, init_seed=7))
        b = init_network(NetworkConfig(9, 3, 2, init_seed=8))
        assert not np.array_equal(a.w, b.w)

    def test_init_range_scales(self):
        net = init_network(NetworkConfig(6, 4, 3, init_range=0.01, init_seed=5))
        assert np.all(np.abs(net.w) <= 0.01)


class TestForward:
    def test_zero_weights(self):
        net = small_net(3, 4, 2)
        net.w[:] = 0.0
        net.v[:] = 0.0
        hidden, output = forward_one(net, [0.3, 0.9, 0.1])
        assert np.all(hidden == 0.0)
        assert np.all(output == 0.5)

    def test_scalar_chain(self):
        # 1-1-1 with unit weights and unit input, checked against the
        # hand-derived values frozen above
        net = small_net(1, 1, 1)
        net.w[:] = 1.0
        net.v[:] = 1.0
        hidden, output = forward_one(net, [1.0])
        assert hidden[0] == pytest.approx(TANH_1, abs=1e-12)
        assert output[0] == pytest.approx(LOGISTIC_TANH_1, abs=1e-12)

    def test_odd_symmetry(self):
        # flipping x and w together leaves the outputs unchanged
        net = small_net(4, 3, 2, seed=9)
        x = np.array([0.2, -0.4, 0.8, 0.5])
        _, a = forward_one(net, x)
        flipped = net.copy()
        flipped.w[...] = -flipped.w
        _, b = forward_one(flipped, -x)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n,h,o,k", [(3, 1, 2, 5), (4, 3, 2, 1), (2, 1, 3, 1), (9, 4, 6, 7)])
    def test_returns_one_row_per_example(self, n, h, o, k):
        # callers index the pair as (hidden [k, h], output [k, o]), whatever
        # layout the kernel computes in
        net = small_net(n, h, o, seed=k)
        x = np.random.default_rng(k).uniform(-1, 1, size=(k, n))
        hidden, output = forward_batch(net, x)
        assert hidden.shape == (k, h) and output.shape == (k, o)
        expected_hidden = np.tanh(x @ net.w.T)
        np.testing.assert_allclose(hidden, expected_hidden, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(
            output, masked_logistic(expected_hidden @ net.v.T), rtol=1e-14, atol=1e-15
        )
        for i in range(k):
            one_hidden, one_output = forward_one(net, x[i])
            np.testing.assert_allclose(hidden[i], one_hidden, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(output[i], one_output, rtol=1e-14, atol=1e-15)

    def test_shape_error(self):
        net = small_net(3, 2, 2)
        # a stacked batch is training's business: the public pass takes [k, n] only
        for inputs in (np.zeros((1, 4)), np.zeros((2, 1, 3)), np.zeros(3)):
            with pytest.raises(ShapeError):
                forward_batch(net, inputs)

    def test_output_ranges_1000_random_trials(self):
        # every hidden activation in (-1, 1), every output in (0, 1)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n, h, o = rng.integers(1, 10, size=3)
            seed = int(rng.integers(1 << 31))
            net = init_network(NetworkConfig(int(n), int(h), int(o), init_range=2.0, init_seed=seed))
            hidden, output = forward_one(net, rng.uniform(-1, 1, size=int(n)))
            assert np.all(np.abs(hidden) < 1.0)
            assert np.all((output > 0.0) & (output < 1.0))

    def test_dead_input_equivalence(self):
        net = small_net(4, 3, 2, seed=10)
        net.w_mask[:, 2] = False
        net.input_active[2] = False
        net.apply_masks()
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.random(4)
            y = x.copy()
            y[2] = rng.random() * 10 - 5
            assert np.array_equal(forward_one(net, x)[1], forward_one(net, y)[1])


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308]


class TestLogistic:
    """The output stage of the pass, read through ``forward_batch`` on a
    1-1-o network whose hidden unit saturates to exactly 1.0, so that output
    p is the logistic of ``v[p, 0]`` itself."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(),  # any float64, including nan, +-inf and subnormals
                st.floats(min_value=-800.0, max_value=800.0),
                st.sampled_from(SPECIAL),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @example(SPECIAL)
    def test_bit_identical_to_masked_form(self, values):
        z = np.array(values, dtype=np.float64)
        expected = masked_logistic(z)
        net = small_net(1, 1, len(z))
        net.w[0, 0] = 20.0  # tanh(20) rounds to 1.0
        net.v[:, 0] = z
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from exp or the divisions
            hidden, output = forward_one(net, [1.0])
        assert hidden[0] == 1.0
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(output), nan)
        assert np.array_equal(output[~nan].view(np.int64), expected[~nan].view(np.int64))


class TestClassify:
    def test_argmax(self):
        net = small_net(1, 1, 2)
        net.w[:] = 1.0
        net.v[0, 0] = 2.0
        net.v[1, 0] = -1.0
        assert classify_one(net, [1.0]) == 0

    def test_tie_breaks_low_index(self):
        net = small_net(3, 2, 6)
        net.w[:] = 0.0
        net.v[:] = 0.0
        # all outputs are exactly 0.5
        assert classify_one(net, [0.1, 0.5, 0.9]) == 0

    @pytest.mark.parametrize("h,k", [(1, 1), (1, 4), (3, 1), (3, 4)])
    def test_tie_between_later_outputs_breaks_low_index(self, h, k):
        net = small_net(2, h, 4)
        net.w[:] = 1.0
        net.v[:] = -1.0
        net.v[1, :] = net.v[3, :] = 1.0  # outputs 1 and 3 equal, and largest
        inputs = np.random.default_rng(k).uniform(0.1, 1.0, size=(k, 2))
        assert classify_batch(net, inputs).tolist() == [1] * k


class TestSerialization:
    def test_round_trip_bit_exact(self):
        net = small_net(5, 4, 3, seed=77)
        net.w_mask[1, 2] = False
        net.v_mask[0, 3] = False
        net.apply_masks()
        back = deserialize(serialize(net))
        for attr in ("w", "v", "w_mask", "v_mask", "input_active", "hidden_active"):
            assert np.array_equal(getattr(net, attr), getattr(back, attr)), attr

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        h=st.integers(1, 5),
        o=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, n, h, o, seed):
        net = init_network(NetworkConfig(n, h, o, init_range=3.0, init_seed=seed))
        rng = np.random.default_rng(seed)
        net.w_mask[...] &= rng.random(net.w.shape) > 0.3
        net.v_mask[...] &= rng.random(net.v.shape) > 0.3
        net.apply_masks()
        back = deserialize(serialize(net))
        assert np.array_equal(net.w, back.w)
        assert np.array_equal(net.v, back.v)
        assert np.array_equal(net.w_mask, back.w_mask)
        assert np.array_equal(net.v_mask, back.v_mask)

    @pytest.mark.parametrize(
        "text",
        [
            "1" * 5000,                  # an integer over Python's 4,300-digit limit
            '{"n": ' + "9" * 5000 + "}",
            "[" * 200000,                # nested deeper than the decoder recurses
        ],
        ids=["long-integer", "long-integer-field", "deep-nesting"],
    )
    def test_json_the_decoder_cannot_read_rejected(self, text):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            deserialize(text)

    def test_masked_nonzero_rejected(self):
        net = small_net(2, 2, 2)
        doc = json.loads(serialize(net))
        doc["w_mask"][0] = False  # weight left nonzero
        with pytest.raises(ParseError):
            deserialize(json.dumps(doc))

    def test_wrong_length_rejected(self):
        net = small_net(2, 2, 2)
        doc = json.loads(serialize(net))
        doc["w"] = doc["w"][:-1]
        with pytest.raises(ParseError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "key,value", [("w", float("nan")), ("v", float("inf")), ("v", float("-inf"))]
    )
    def test_non_finite_weight_rejected(self, key, value):
        doc = json.loads(serialize(small_net(2, 2, 2)))
        doc[key][1] = value
        with pytest.raises(ParseError, match=f"'{key}' holds a non-finite weight"):
            deserialize(json.dumps(doc))

    def test_non_numeric_weight_rejected(self):
        base = json.loads(serialize(small_net(2, 2, 2)))
        for key, values in [
            ("w", ["abc", 0.5, 0.5, 0.5]),
            ("w", ["0.5", True, 0.5, 0.5]),
            ("v", [0.5, None, 0.5, 0.5]),
            ("w", [[0.5], [0.5], [0.5], [0.5]]),
            ("v", [0.5, 0.5, 0.5, {"x": 1}]),
        ]:
            with pytest.raises(ParseError, match=f"'{key}' must be a flat list of numbers"):
                deserialize(json.dumps({**base, key: values}))

    def test_field_serialize_never_writes_rejected(self):
        doc = json.loads(serialize(small_net(2, 2, 2)))
        with pytest.raises(ParseError, match=r"unknown network fields: \['bias', 'note'\]"):
            deserialize(json.dumps({**doc, "note": "x", "bias": [0.5, 0.5]}))

    def test_integer_weights_accepted(self):
        doc = json.loads(serialize(small_net(2, 2, 2)))
        doc["w"] = [1, -2, 0, 3]
        assert deserialize(json.dumps(doc)).w.tolist() == [[1.0, -2.0], [0.0, 3.0]]

    def test_integer_weight_beyond_float_range_rejected(self):
        doc = json.loads(serialize(small_net(2, 2, 2)))
        doc["v"][0] = 10**400
        with pytest.raises(ParseError, match="'v' holds a non-finite weight"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "key,value", [("w_mask", "no"), ("w_mask", 0.5), ("v_mask", 1), ("hidden_active", None)]
    )
    def test_non_boolean_flag_rejected(self, key, value):
        doc = json.loads(serialize(small_net(2, 2, 2)))
        doc[key][0] = value
        with pytest.raises(ParseError, match=f"'{key}' must be a list of booleans"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("key,value", [("n", 2.7), ("h", 2.0), ("o", "2"), ("n", True)])
    def test_non_integer_size_rejected(self, key, value):
        doc = json.loads(serialize(small_net(2, 2, 2)))
        doc[key] = value
        with pytest.raises(ParseError, match="must be integers"):
            deserialize(json.dumps(doc))

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            deserialize("not json at all {")

    @pytest.mark.parametrize("text", ["[]", "3", '"net"', "null"])
    def test_non_object_rejected(self, text):
        with pytest.raises(ParseError, match="top-level JSON value must be an object"):
            deserialize(text)

    @pytest.mark.parametrize("key", ["n", "h", "o"])
    def test_zero_layer_size_rejected(self, key):
        doc = json.loads(serialize(small_net(2, 2, 2)))
        doc[key] = 0
        with pytest.raises(ParseError, match="layer sizes must all be >= 1"):
            deserialize(json.dumps(doc))

    def test_inconsistent_activity_rejected(self):
        net = small_net(2, 2, 2)
        doc = json.loads(serialize(net))
        doc["input_active"] = [False, True]  # column 0 still unmasked
        with pytest.raises(ParseError):
            deserialize(json.dumps(doc))

    def test_missing_field_rejected(self):
        net = small_net(2, 2, 2)
        doc = json.loads(serialize(net))
        del doc["v_mask"]
        with pytest.raises(ParseError):
            deserialize(json.dumps(doc))


class TestPackedLayout:
    def test_weights_and_mask_share_storage_with_the_matrices(self):
        net = small_net(3, 4, 2, seed=5)
        assert np.array_equal(net.weights, np.concatenate((net.w.ravel(), net.v.ravel())))
        assert net.weights.dtype == np.float64 and net.mask.dtype == bool
        net.weights[:] = np.arange(net.weights.size)
        assert net.w[1, 0] == 3.0 and net.v[0, 0] == 12.0
        net.mask[[3, 12]] = False
        assert not net.w_mask[1, 0] and not net.v_mask[0, 0] and net.n_unmasked() == 18
        independent = net.copy()
        net.weights[:] = 0.0
        net.mask[:] = True
        net.input_active[:] = False
        net.hidden_active[:] = False
        assert independent.w[1, 0] == 3.0 and not independent.w_mask[1, 0]
        assert independent.input_active.all() and independent.hidden_active.all()

    def test_views_keep_leading_axes(self):
        net = small_net(3, 4, 2, seed=9)
        stacked = np.arange(3.0 * net.weights.size).reshape(3, -1)
        w, v = net.views(stacked)
        assert w.shape == (3, 4, 3) and v.shape == (3, 2, 4)
        for row, row_w, row_v in zip(stacked, w, v):
            one_w, one_v = net.views(row)
            assert np.array_equal(row_w, one_w) and np.array_equal(row_v, one_v)
        w[1, 0, 0] = -1.0
        v[2, 1, 3] = -2.0
        assert stacked[1, 0] == -1.0 and stacked[2, -1] == -2.0

    def test_masked_positions_index_the_packed_vector(self):
        net = small_net(3, 4, 2, seed=6)
        net.w_mask[1, 2] = False
        net.v_mask[1, 3] = False
        net.apply_masks()
        positions = np.flatnonzero(~net.mask)
        assert positions.tolist() == [1 * 3 + 2, 12 + 1 * 4 + 3]
        assert np.all(net.weights[positions] == 0.0)

    def test_construction_copies_the_arrays_it_is_given(self):
        rng = np.random.default_rng(8)
        arrays = dict(
            w=rng.random((4, 3)),
            v=rng.random((2, 4)),
            w_mask=np.ones((4, 3), dtype=bool),
            v_mask=np.ones((2, 4), dtype=bool),
            input_active=np.ones(3, dtype=bool),
            hidden_active=np.ones(4, dtype=bool),
        )
        kept = {name: a.copy() for name, a in arrays.items()}
        net = Network(**arrays)
        for a in arrays.values():
            a[...] = 0
        for name, a in kept.items():
            assert np.array_equal(getattr(net, name), a), name
        net.weights[:] = 1.0
        net.mask[:] = False
        net.hidden_active[:] = False
        assert not any(a.any() for a in arrays.values())

    @pytest.mark.parametrize(
        "name", ["w", "v", "w_mask", "v_mask", "weights", "mask", "input_active", "hidden_active"]
    )
    def test_fields_cannot_be_rebound(self, name):
        net = small_net(3, 4, 2, seed=7)
        with pytest.raises(FrozenInstanceError):
            setattr(net, name, getattr(net, name).copy())

    @pytest.mark.parametrize(
        "field,shape",
        [("v", (2, 3)), ("w_mask", (4, 2)), ("v_mask", (4, 2)), ("input_active", (4,)),
         ("hidden_active", (3,))],
    )
    def test_mismatched_shapes_rejected(self, field, shape):
        net = small_net(3, 4, 2, seed=7)
        arrays = {name: getattr(net, name) for name in
                  ("w", "v", "w_mask", "v_mask", "input_active", "hidden_active")}
        arrays[field] = np.zeros(shape, dtype=arrays[field].dtype)
        with pytest.raises(ShapeError):
            Network(**arrays)


class TestMaskInvariant:
    def test_apply_masks_zeroes(self):
        net = small_net(3, 3, 2, seed=4)
        net.w_mask[0, 1] = False
        net.v_mask[1, 2] = False
        net.apply_masks()
        assert net.w[0, 1] == 0.0
        assert net.v[1, 2] == 0.0
        net.validate()

    def test_validate_catches_violation(self):
        net = small_net(2, 2, 2)
        net.w_mask[0, 0] = False  # not re-applied
        assert net.w[0, 0] != 0.0
        with pytest.raises(ParseError):
            net.validate()

    @pytest.mark.parametrize("kept", ["w", "v"])
    def test_validate_catches_inactive_hidden_unit_that_keeps_a_weight(self, kept):
        net = small_net(2, 2, 2)
        net.hidden_active[1] = False
        net.w_mask[1, :] = kept == "w"  # one side of unit 1 stays connected
        net.v_mask[:, 1] = kept == "v"
        net.apply_masks()
        with pytest.raises(ParseError, match="inactive hidden unit still has unmasked weights"):
            net.validate()
