"""Model pipeline tests: each stage's closed-form cases, the full forward
pass, parameter/MAC accounting, checkpointing, and streaming equivalence."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ms4 import autodiff as ad
from ms4 import model, ssm, training
from ms4.errors import DataFormatError


def tiny_model(normalized=True, n_layers=1, seed=0, **kw):
    return model.init_model(3, 8, 8, 3, n_layers=n_layers, normalized=normalized,
                            dropout_rate=0.0, seed=seed, **kw)


def tensor_call(fn, *arrays):
    """Apply a Tensor-level stage to plain arrays and return the array result."""
    return fn(*(ad.Tensor(np.asarray(a, dtype=float)) for a in arrays)).data


def glu(y, w2, b2):
    return tensor_call(model.glu_t, y, w2, b2)


def layer_norm(g, gamma, beta):
    return tensor_call(model.layer_norm_t, g, gamma, beta)


def classify(g, w3, b3, w4, b4):
    return tensor_call(model.classify_t, g[None], w3, b3, w4, b4)[0]


class TestInputProjection:
    def test_identity(self):
        # projecting by hand into an identity-projection model changes nothing
        mdl = tiny_model(seed=1)
        x = np.random.default_rng(0).standard_normal((10, 3))
        identity = replace(mdl, w1=np.eye(8), b1=np.zeros(8))
        np.testing.assert_allclose(
            model.forward(x @ mdl.w1 + mdl.b1, identity), model.forward(x, mdl), atol=1e-12
        )

    def test_zero_weights_give_bias(self):
        # with W1 = 0 every step projects to b1, so the input cannot matter
        mdl = replace(tiny_model(seed=1), w1=np.zeros((3, 8)), b1=np.linspace(-1.0, 1.0, 8))
        x = np.random.default_rng(1).standard_normal((6, 3))
        np.testing.assert_array_equal(model.forward(x, mdl), model.forward(np.zeros((6, 3)), mdl))

    def test_pointwise_in_time(self):
        # C = 0 leaves only the feedthrough D*x, so every stage before pooling
        # acts on one step at a time and the logits ignore the step order
        mdl = tiny_model(seed=2)
        blk = mdl.blocks[0]
        no_conv = replace(blk.ssm, c_re=np.zeros_like(blk.ssm.c_re), c_im=np.zeros_like(blk.ssm.c_im))
        mdl = replace(mdl, blocks=[replace(blk, ssm=no_conv)])
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 3))
        perm = rng.permutation(9)
        np.testing.assert_allclose(model.forward(x[perm], mdl), model.forward(x, mdl), atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ValueError):
            model.forward(np.zeros((4, 2)), tiny_model())


class TestGluMix:
    def test_zero_gate_halves(self):
        # w2 = [I | 0] routes the input to the value half and zeroes the gate
        rng = np.random.default_rng(3)
        y = rng.standard_normal((7, 4))
        w2 = np.hstack([np.eye(4), np.zeros((4, 4))])
        out = glu(y, w2, np.zeros(8))
        np.testing.assert_allclose(out, y / 2.0, atol=1e-15)

    def test_saturated_gate_passes_value(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((7, 4))
        w2 = np.hstack([np.eye(4), np.zeros((4, 4))])
        b2 = np.concatenate([np.zeros(4), np.full(4, 40.0)])
        out = glu(y, w2, b2)
        np.testing.assert_allclose(out, y, rtol=0, atol=1e-15)

    def test_bias_only_path(self):
        c = 3.75
        b2 = np.concatenate([np.full(4, c), np.zeros(4)])
        out = glu(np.random.default_rng(5).standard_normal((6, 4)), np.zeros((4, 8)), b2)
        np.testing.assert_allclose(out, np.full((6, 4), c / 2.0), atol=1e-15)


class TestLayerNorm:
    def test_constant_rows_collapse_to_zero(self):
        g = np.full((5, 8), 0.1)
        out = layer_norm(g, np.ones(8), np.zeros(8))
        assert np.abs(out).max() <= 1e-3

    def test_standardizes_each_step(self):
        rng = np.random.default_rng(6)
        g = 10.0 * rng.standard_normal((20, 64))
        out = layer_norm(g, np.ones(64), np.zeros(64))
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-6)

    def test_shift_scale_invariance_pre_affine(self):
        rng = np.random.default_rng(7)
        g = 1000.0 * rng.standard_normal((12, 16))
        gamma, beta = np.ones(16), np.zeros(16)
        base = layer_norm(g, gamma, beta)
        mapped = layer_norm(5.0 * g + 3.0, gamma, beta)
        np.testing.assert_allclose(mapped, base, rtol=0, atol=1e-9)

    def test_affine_applied_after(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 6))
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)
        plain = layer_norm(g, np.ones(6), np.zeros(6))
        np.testing.assert_allclose(layer_norm(g, gamma, beta), plain * gamma + beta, atol=1e-12)


class TestClassify:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.head = (
            rng.standard_normal((6, 5)), rng.standard_normal(5),
            rng.standard_normal((5, 4)), rng.standard_normal(4),
        )

    def test_constant_sequence_pools_to_itself(self):
        v = np.random.default_rng(10).standard_normal(6)
        g = np.tile(v, (11, 1))
        expected = classify(v[None], *self.head)
        np.testing.assert_allclose(classify(g, *self.head), expected, atol=1e-12)

    def test_zero_weights_leave_bias(self):
        g = np.random.default_rng(11).standard_normal((9, 6))
        _, b3, _, b4 = self.head
        out = classify(g, np.zeros((6, 5)), b3, np.zeros((5, 4)), b4)
        np.testing.assert_allclose(out, b4, atol=1e-15)

    def test_time_permutation_invariance(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((15, 6))
        perm = rng.permutation(15)
        np.testing.assert_allclose(classify(g[perm], *self.head), classify(g, *self.head),
                                   atol=1e-12)

    def test_empty_sequence_rejected(self):
        mdl = tiny_model()
        with pytest.raises(ValueError):
            model.forward(np.zeros((0, 3)), mdl)
        with pytest.raises(ValueError):
            model.stream_logits(mdl, np.zeros((0, 3)))


class TestForward:
    def test_param_delta_at_h64(self):
        # published capacity table: normalized minus plain = 128 at H = 64
        ms4n = model.init_model(4, 64, 64, 10, normalized=True, seed=0)
        ms4 = model.init_model(4, 64, 64, 10, normalized=False, seed=0)
        assert model.count_params(ms4n) - model.count_params(ms4) == 128
        assert 2 * ms4n.n_hidden == 128

    def test_param_delta_is_2h_per_block(self):
        for layers in (1, 2, 3):
            ms4n = tiny_model(normalized=True, n_layers=layers)
            ms4 = tiny_model(normalized=False, n_layers=layers)
            assert model.count_params(ms4n) - model.count_params(ms4) == 2 * 8 * layers

    def test_normalization_is_the_only_difference(self):
        ms4n = tiny_model(normalized=True, seed=3)
        x = np.random.default_rng(13).standard_normal((12, 3))
        # manual pipeline sharing the same weights, norm toggled by hand
        blk = ms4n.blocks[0]
        head = (ms4n.w3, ms4n.b3, ms4n.w4, ms4n.b4)
        y = ssm.s4d_forward(x @ ms4n.w1 + ms4n.b1, blk.ssm, dropout_rate=0.0)
        g = glu(y, blk.w2, blk.b2)
        with_norm = classify(layer_norm(g, blk.gamma, blk.beta), *head)
        without_norm = classify(g, *head)
        np.testing.assert_allclose(model.forward(x, ms4n), with_norm, atol=1e-12)
        ms4 = model.ModelParams(
            w1=ms4n.w1, b1=ms4n.b1,
            blocks=[model.BlockParams(ssm=blk.ssm, w2=blk.w2, b2=blk.b2)],
            w3=ms4n.w3, b3=ms4n.b3, w4=ms4n.w4, b4=ms4n.b4,
            normalized=False, dropout_rate=0.0,
        )
        np.testing.assert_allclose(model.forward(x, ms4), without_norm, atol=1e-12)

    def test_eval_mode_bit_identical(self):
        mdl = tiny_model()
        x = np.random.default_rng(14).standard_normal((16, 3))
        np.testing.assert_array_equal(model.forward(x, mdl, seed=0),
                                      model.forward(x, mdl, seed=42))

    def test_batched_matches_single(self):
        mdl = tiny_model(seed=4)
        x = np.random.default_rng(15).standard_normal((5, 16, 3))
        batched = model.forward(x, mdl)
        for i in range(5):
            np.testing.assert_allclose(batched[i], model.forward(x[i], mdl), atol=1e-12)

    def test_two_layer_forward_runs(self):
        mdl = tiny_model(n_layers=2, seed=5)
        x = np.random.default_rng(16).standard_normal((16, 3))
        out = model.forward(x, mdl)
        assert out.shape == (3,) and np.isfinite(out).all()

    def test_head_stages_independent_of_input_width(self):
        # the projection absorbs F; everything downstream has fixed size
        def non_projection_params(n_features):
            m = model.init_model(n_features, 8, 8, 3, seed=0)
            return model.count_params(m) - m.w1.size - m.b1.size

        assert non_projection_params(1) == non_projection_params(23)

    def test_gradient_vs_finite_differences_tiny(self):
        mdl = tiny_model(seed=6)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 16, 3))
        labels = np.array([0, 2])

        def loss_fn(leaves):
            logits = model.forward_t(ad.Tensor(x), leaves, 1, True, 0.0, False, rng)
            return training.cross_entropy_t(logits, labels)

        err = ad.finite_diff_check(loss_fn, mdl.leaves(), epsilon=1e-4)
        assert err <= 1e-4


class TestCounts:
    def test_single_linear_layer_counts(self):
        mdl = model.init_model(5, 64, 4, 2, seed=0)
        assert mdl.w1.size + mdl.b1.size == 5 * 64 + 64 == 384
        breakdown = model.mac_breakdown(mdl, 100)
        assert breakdown["projection"] == 100 * 5 * 64

    def test_norm_stage_delta(self):
        ms4n = model.init_model(4, 64, 64, 10, normalized=True, seed=0)
        ms4 = model.init_model(4, 64, 64, 10, normalized=False, seed=0)
        b_n = model.mac_breakdown(ms4n, 128)
        b_p = model.mac_breakdown(ms4, 128)
        assert b_n["norm"] == model.NORM_MACS_PER_ENTRY * 128 * 64 and b_p["norm"] == 0
        for key in b_n:
            if key != "norm":
                assert b_n[key] == b_p[key]

    def test_doubling_length_doubles_linear_terms(self):
        mdl = model.init_model(4, 16, 8, 5, seed=0)
        for length in (64, 256):  # powers of two keep the FFT padding aligned
            b1 = model.mac_breakdown(mdl, length)
            b2 = model.mac_breakdown(mdl, 2 * length)
            linear1 = sum(v for k, v in b1.items() if k not in ("ssm_fft", "head"))
            linear2 = sum(v for k, v in b2.items() if k not in ("ssm_fft", "head"))
            assert linear2 == 2 * linear1

    def test_total_is_breakdown_sum(self):
        mdl = tiny_model()
        assert model.count_macs(mdl, 50) == sum(model.mac_breakdown(mdl, 50).values())

    def test_mmac_is_millionths(self):
        mdl = tiny_model()
        assert model.count_mmacs(mdl, 50) == model.count_macs(mdl, 50) / 1e6

    def test_complex_parameters_count_twice(self):
        p = ssm.init_s4d_params(2, 4, seed=0)
        per_mode_pairs = 2 * 2 * 3  # B, C and the eigenvalue pair, 2x2 modes each
        assert sum(v.size for v in p.leaves().values()) == per_mode_pairs * 2 + 2 + 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=8,
)


def json_paths(node, prefix=()):
    """Every key path of a JSON document, entering only the first element of a list."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(node, list) and node:
        yield from json_paths(node[0], prefix + (0,))


class TestCheckpoint:
    def test_roundtrip_bit_identical_forward(self, tmp_path):
        mdl = tiny_model(seed=7, n_layers=2)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(mdl, path)
        loaded = model.load_checkpoint(path)
        x = np.random.default_rng(18).standard_normal((20, 3))
        np.testing.assert_array_equal(model.forward(x, mdl), model.forward(x, loaded))
        for name, arr in mdl.leaves().items():
            np.testing.assert_array_equal(arr, loaded.leaves()[name])

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not a checkpoint")
        from ms4.errors import DataFormatError

        with pytest.raises(DataFormatError):
            model.load_checkpoint(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v0.ckpt"
        path.write_text('{"format_version": 999}')
        from ms4.errors import DataFormatError

        with pytest.raises(DataFormatError):
            model.load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(params=[1, 2]),
            lambda doc: doc["params"].update(w3=[1]),
            lambda doc: doc["hyper"].update(n_hidden="4"),
            lambda doc: doc["params"].update(extra={"shape": [1], "data": [0.0]}),
            lambda doc: doc["params"]["b4"]["data"].__setitem__(0, 10**400),
        ],
        ids=["params-list", "entry-list", "hyper-str", "extra-param", "huge-int"],
    )
    def test_rejects_malformed_structure(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(tiny_model(seed=9), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            model.load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(max_size=64))
    def test_fuzzed_bytes_raise_format_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError):
            model.load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), value=JSON_VALUES, delete=st.booleans())
    def test_fuzzed_structure_loads_or_raises_format_error(self, tmp_path_factory, data,
                                                           value, delete):
        """One node of a valid checkpoint replaced by a random JSON value, or deleted."""
        path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
        model.save_checkpoint(model.init_model(2, 2, 2, 2, dropout_rate=0.0), path)
        doc = json.loads(path.read_text())
        where = data.draw(st.sampled_from(list(json_paths(doc))))
        if not where:
            doc = value
        else:
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            if delete:
                del parent[where[-1]]
            else:
                parent[where[-1]] = value
        path.write_text(json.dumps(doc))
        try:
            loaded = model.load_checkpoint(path)
        except DataFormatError:
            return
        assert loaded.leaves().keys() == doc["params"].keys()

    def test_flags_preserved(self, tmp_path):
        mdl = tiny_model(normalized=False, seed=8)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(mdl, path)
        loaded = model.load_checkpoint(path)
        assert loaded.normalized is False
        assert loaded.n_layers == 1 and loaded.n_classes == 3


STREAM_LENGTHS = [1, model.STREAM_CHUNK - 1, model.STREAM_CHUNK, 2 * model.STREAM_CHUNK + 5]


class TestStreaming:
    """Stream vs batch at lengths inside, at and across STREAM_CHUNK boundaries."""

    def assert_stream_matches_forward(self, mdl, length):
        x = np.random.default_rng(length).standard_normal((length, 3))
        np.testing.assert_allclose(
            model.stream_logits(mdl, x), model.forward(x, mdl), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("length", STREAM_LENGTHS)
    def test_stream_matches_batch_forward(self, length):
        self.assert_stream_matches_forward(tiny_model(seed=9), length)

    @pytest.mark.parametrize("length", STREAM_LENGTHS)
    def test_stream_matches_batch_forward_multilayer_ms4(self, length):
        self.assert_stream_matches_forward(tiny_model(normalized=False, n_layers=2, seed=10), length)

    def test_stream_does_not_step_the_recurrence(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("stream_logits called recurrent_step")

        monkeypatch.setattr(ssm, "recurrent_step", refuse)
        self.assert_stream_matches_forward(tiny_model(seed=11), 3 * model.STREAM_CHUNK + 7)

    def test_working_memory_independent_of_length(self):
        mdl = tiny_model(seed=12)
        peaks = {}
        for length in (512, 8192):
            x = np.random.default_rng(length).standard_normal((length, 3))
            tracemalloc.start()
            try:
                model.stream_logits(mdl, x)
                peaks[length] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8192] <= 1.5 * peaks[512]
