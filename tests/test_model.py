"""Model pipeline tests: each stage's closed-form cases, the full forward
pass, parameter/MAC accounting, checkpointing, and streaming equivalence."""

import json
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ms4 import autodiff as ad
from ms4 import data, model, ssm, training
from ms4.errors import DataFormatError

DATA_DIR = Path(__file__).parent / "data"


def forward_peak(x, mdl):
    """tracemalloc peak of one `model.forward` call, in bytes."""
    tracemalloc.start()
    try:
        model.forward(x, mdl)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        identity = replace(mdl, params={**mdl.params, "w1": np.eye(8), "b1": np.zeros(8)})
        projected = x @ mdl.params["w1"] + mdl.params["b1"]
        np.testing.assert_allclose(
            model.forward(projected, identity), model.forward(x, mdl), atol=1e-12
        )

    def test_zero_weights_give_bias(self):
        # with W1 = 0 every step projects to b1, so the input cannot matter
        mdl = tiny_model(seed=1)
        mdl = replace(mdl, params={**mdl.params, "w1": np.zeros((3, 8)),
                                   "b1": np.linspace(-1.0, 1.0, 8)})
        x = np.random.default_rng(1).standard_normal((6, 3))
        np.testing.assert_array_equal(model.forward(x, mdl), model.forward(np.zeros((6, 3)), mdl))

    def test_pointwise_in_time(self):
        # C = 0 leaves only the feedthrough D*x, so every stage before pooling
        # acts on one step at a time and the logits ignore the step order
        mdl = tiny_model(seed=2)
        no_conv = {name: np.zeros((8, 4)) for name in ("block0.ssm.c_re", "block0.ssm.c_im")}
        mdl = replace(mdl, params={**mdl.params, **no_conv})
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
        # 2-block pipelines composed by hand from one MS4N model's weights, the
        # norm toggled by hand; MS4 is the same arrays without gamma and beta
        p = tiny_model(normalized=True, n_layers=2, seed=3).params
        x = np.random.default_rng(13).standard_normal((1, 12, 3))
        plain = {k: v for k, v in p.items() if not k.endswith((".gamma", ".beta"))}
        for params, norm in ((p, True), (plain, False)):
            t = {k: ad.Tensor(v) for k, v in params.items()}
            h = ad.Tensor(x) @ t["w1"] + t["b1"]
            for i in range(2):
                core = {name: t[f"block{i}.ssm.{name}"] for name in ssm.SSM_LEAF_NAMES}
                h = ssm.s4d_apply(h, ssm.scan_t(core))
                h = model.glu_t(h, t[f"block{i}.w2"], t[f"block{i}.b2"])
                if norm:
                    h = model.layer_norm_t(h, t[f"block{i}.gamma"], t[f"block{i}.beta"])
            expected = model.classify_t(h, t["w3"], t["b3"], t["w4"], t["b4"]).data
            taped = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
            np.testing.assert_array_equal(model.forward_t(ad.Tensor(x), taped).data, expected)
            mdl = model.ModelParams(params, 0.0)
            assert (mdl.normalized, mdl.n_layers) == (norm, 2)
            np.testing.assert_allclose(model.forward(x[0], mdl), expected[0], atol=1e-12)

    def test_eval_mode_bit_identical(self):
        # forward is eval mode: the dropout rate must not touch the logits
        mdl = tiny_model()
        x = np.random.default_rng(14).standard_normal((16, 3))
        np.testing.assert_array_equal(model.forward(x, replace(mdl, dropout_rate=0.5)),
                                      model.forward(x, replace(mdl, dropout_rate=0.0)))

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
            return model.count_params(m) - m.params["w1"].size - m.params["b1"].size

        assert non_projection_params(1) == non_projection_params(23)

    @pytest.mark.parametrize("length", [1, 37, 4097, 8193])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_blocked_eval_stage_equals_taped(self, dtype, length):
        """The taped stage has the eval forward's bits: `chunk_scan` over chunks of
        STREAM_CHUNK steps from a zero state, then GELU, chunk by chunk."""
        mdl = model.init_model(3, 20, 8, 3, dropout_rate=0.0, seed=41)
        h = np.random.default_rng(41).standard_normal((2, length, 20)).astype(dtype)
        core = {k: v.astype(dtype) for k, v in model.block_core(mdl.params, 0).items()}
        scan, state, chunks = ssm.scan_arrays(core), np.zeros((2, 20, 4), np.result_type(dtype, 1j)), []
        for lo in range(0, length, ssm.STREAM_CHUNK):
            state, y = ssm.chunk_scan(scan, state, h[:, lo : lo + ssm.STREAM_CHUNK])
            chunks.append(ad.gelu(y).data)
        taped = ssm.s4d_apply(ad.Tensor(h, requires_grad=True), ssm.scan_t(core))
        assert taped.requires_grad and taped.dtype == dtype
        np.testing.assert_array_equal(taped.data, np.concatenate(chunks, axis=1))

    def test_in_place_edit_misses_the_memo(self):
        """A memo keyed on array identity would return the kernel of the old values."""
        mdl = tiny_model(n_layers=2, seed=42)
        x = np.random.default_rng(42).standard_normal((2, 16, 3))
        edited = {k: v.copy() for k, v in mdl.params.items()}
        edited["block1.ssm.log_delta"] += 0.5
        edited["block0.ssm.c_im"] *= -1.0
        expected = model.forward(x, replace(mdl, params=edited))
        before = model.forward(x, mdl)
        mdl.params["block1.ssm.log_delta"] += 0.5
        mdl.params["block0.ssm.c_im"] *= -1.0
        assert not np.array_equal(before, expected)
        np.testing.assert_array_equal(model.forward(x, mdl), expected)
        np.testing.assert_allclose(model.stream_logits(mdl, x[0]), expected[0], rtol=0, atol=1e-9)

    def test_memo_stays_bounded(self):
        rng = np.random.default_rng(43)
        for seed in (43, 44, 45):
            mdl = tiny_model(n_layers=2, seed=seed)
            for length in range(1, 6):
                x = rng.standard_normal((length, 3))
                model.forward(x, mdl)
                model.stream_logits(mdl, x)
                assert model.memo.cache_info().currsize <= 2
        assert model.memo.cache_info().currsize == 2

    def test_long_forward_peak_memory(self):
        """One L=4096, H=N=64 forward, cold and then warm: the scan peaked at 7.7 MB
        cold, when the scan arrays are built, and 2.0 MB warm. The convolution form
        peaked at 12.3 and 7.9 MB, and before its stage and mix were sliced, at 21 MB
        cold and 10.6 MB warm."""
        mdl = model.init_model(4, 64, 64, 10, dropout_rate=0.0, seed=44)
        x = np.random.default_rng(44).standard_normal((4096, 4))
        model.memo.cache_clear()
        assert forward_peak(x, mdl) <= 16e6
        assert forward_peak(x, mdl) <= 9e6

    def test_batch_forward_peak_memory(self, monkeypatch):
        """A warm forward of 256 sequences on one CPU runs as 64 of
        `score_size(256, 256)` in turn, and peaked at 3.5 MB; the convolution form
        peaked at 7.9 MB in sixteen forwards, 31.5 MB in four and 169 MB in one."""
        mdl = model.init_model(4, 64, 64, 10, dropout_rate=0.0, seed=45)
        x = np.random.default_rng(45).standard_normal((256, 256, 4))
        model.forward(x[:1], mdl)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0})
        assert forward_peak(x, mdl) <= 10e6

    def test_batch_forward_peak_memory_on_two_cpus(self, monkeypatch):
        """On two CPUs two of those forwards run at once, within twice one CPU's bound."""
        mdl = model.init_model(4, 64, 64, 10, dropout_rate=0.0, seed=45)
        x = np.random.default_rng(45).standard_normal((256, 256, 4))
        model.forward(x[:1], mdl)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 1})
        assert forward_peak(x, mdl) <= 2 * 10e6

    def test_long_batch_forward_peak_memory_does_not_grow_with_n(self, monkeypatch):
        """At L=4096 a forward scores two sequences: on one CPU a warm forward of 32
        peaked at 1.1 MB, as one of 4 did. Forwards of 64 sequences of the convolution
        form peaked at 134 MB against 16.8 MB, 8.0 times."""
        mdl = model.init_model(4, 16, 64, 10, dropout_rate=0.0, seed=55)
        x = np.random.default_rng(55).standard_normal((32, 4096, 4))
        model.forward(x[:2], mdl)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0})
        assert forward_peak(x, mdl) <= 1.25 * forward_peak(x[:4], mdl)

    ROWS = 2 * ssm.STREAM_CHUNK

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "batch, length, rows",
        [
            (ROWS + 2, 1, [ROWS + 2]),
            (1, ROWS + 1, [ROWS // 2, ROWS // 2, 1]),
            (5, (ROWS + 1) // 5, [5 * ((ROWS + 1) // 5)]),
            (2, ROWS + 1, [ROWS, ROWS, 2]),
            (1, 2 * ROWS + 1, [ROWS // 2] * 4 + [1]),
            (3, ROWS // 2 + 1, [3 * ROWS // 2, 3]),
        ],
        ids=["L=1", "L=rows+1", "BL=rows+1", "two-seqs", "one-row-left", "across-seqs"],
    )
    def test_sliced_eval_mix_equals_taped(self, monkeypatch, batch, length, rows, dtype,
                                          n_layers):
        """The eval forward mixes each chunk of STREAM_CHUNK steps once per block, one step
        left over included, with the taped mix's bits on the same input. The logits are
        the taped forward's."""
        mdl = model.init_model(3, 20, 8, 3, n_layers=n_layers, dropout_rate=0.0, seed=46)
        x = np.random.default_rng(46).standard_normal((batch, length, 3)).astype(dtype)
        arrays = {k: v.astype(dtype) for k, v in mdl.params.items()}
        tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
        taped = model.forward_t(ad.Tensor(x), tensors)
        mixes, inner = [], model.channel_mix_t

        def recording(y, leaves, i):
            mixes.append((y.data, i, inner(y, leaves, i)))
            return mixes[-1][2]

        monkeypatch.setattr(model, "channel_mix_t", recording)
        scanned = model.forward_t(ad.Tensor(x), {k: ad.Tensor(v) for k, v in arrays.items()}).data
        assert [y.size // 20 for y, _, _ in mixes] == [r for r in rows for _ in range(n_layers)]
        for y, i, mixed in mixes:
            expected = inner(ad.Tensor(y, requires_grad=True), tensors, i)
            assert expected.requires_grad and not mixed.requires_grad
            np.testing.assert_array_equal(mixed.data, expected.data)
        assert scanned.dtype == dtype
        tol = 1e-5 if dtype == np.float32 else 1e-9
        np.testing.assert_allclose(scanned, taped.data, rtol=0, atol=tol)

    def test_short_mix_input_is_one_call_without_copy(self, monkeypatch):
        mdl = model.init_model(3, 20, 8, 3, dropout_rate=0.0, seed=47)
        leaves = {k: ad.Tensor(v) for k, v in mdl.params.items()}
        h = ad.Tensor(np.random.default_rng(47).standard_normal((1, self.ROWS + 1, 20)))
        seen, inner = [], model._mix_node
        monkeypatch.setattr(model, "_mix_node", lambda y, params: seen.append(y) or inner(y, params))
        model.channel_mix_t(h, leaves, 0)
        assert len(seen) == 1 and seen[0] is h

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_forward_scores_score_chunks_in_turn(self, monkeypatch, cpus):
        """Forwards of `score_size(L, SCORE_BATCH)` sequences, and one of the lone one
        left; on four CPUs they run at once."""
        mdl = tiny_model(seed=48)
        size = model.score_size(8, model.SCORE_BATCH)
        assert size == model.SCORE_BATCH // 2 == model.SCORE_ROWS // 8
        x = np.random.default_rng(48).standard_normal((2 * size + 1, 8, 3))
        native = model.forward(x, mdl)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        sizes, inner = [], model.forward_t
        monkeypatch.setattr(model, "forward_t", lambda xb, leaves, **kw: sizes.append(
            len(xb.data)) or inner(xb, leaves, **kw))
        logits = model.forward(x, mdl)
        assert sorted(sizes) == [1, size, size]
        parts = [model.forward(x[:size], mdl), model.forward(x[size:], mdl)]
        np.testing.assert_array_equal(logits, np.concatenate(parts))
        np.testing.assert_array_equal(logits, native)

    @pytest.mark.parametrize("length, batch_size, size", [
        (8, None, 128), (256, None, 4), (512, None, 2), (4096, None, 2), (50_000, None, 2),
        (16, 256, 64), (256, 256, 4), (256, 10, 4), (256, 3, 1), (256, 2, 1), (256, 1, 1),
        (4096, 256, 2), (4096, 1, 1),
    ])
    def test_score_size(self, length, batch_size, size):
        """SCORE_ROWS rows of one chunk, min(L, STREAM_CHUNK) steps a sequence, and at
        most half of a batch_size, but at least one. A batch_size of None stands for one
        too large to bind, so that SCORE_ROWS alone sets the size."""
        batch_size = sys.maxsize if batch_size is None else batch_size
        assert model.score_size(length, batch_size) == size

    def test_zero_length_sequences_are_rejected(self):
        mdl = tiny_model(seed=57)
        for score in (model.forward, model.batch_logits):
            for n in (2, 0):
                with pytest.raises(ValueError, match="^sequence length must be >= 1$"):
                    score(np.zeros((n, 0, 3)), mdl)

    def test_empty_batch(self):
        mdl = tiny_model(seed=49)
        logits = model.forward(np.zeros((0, 8, 3)), mdl)
        assert logits.shape == (0, mdl.n_classes) and logits.dtype == np.float64

    @pytest.mark.parametrize("taped", [False, True])
    def test_inputs_left_unchanged(self, taped):
        """Neither eval path nor the taped one writes over an array its caller passed."""
        mdl = model.init_model(3, 20, 8, 3, n_layers=2, dropout_rate=0.0, seed=50)
        rng = np.random.default_rng(50)
        x = rng.standard_normal((2, self.ROWS, 3))
        h = rng.standard_normal((2, self.ROWS, 20))
        originals = {k: v.copy() for k, v in mdl.params.items()}
        copies = x.copy(), h.copy()
        leaves = {k: ad.Tensor(v, requires_grad=taped) for k, v in mdl.params.items()}
        model.forward(x, mdl)
        ssm.s4d_apply(ad.Tensor(h), ssm.scan_t(model.block_core(leaves, 0)))
        model.channel_mix_t(ad.Tensor(h), leaves, 1)
        np.testing.assert_array_equal(x, copies[0])
        np.testing.assert_array_equal(h, copies[1])
        for name, value in originals.items():
            np.testing.assert_array_equal(mdl.params[name], value, err_msg=name)

    def test_gradient_vs_finite_differences_tiny(self, monkeypatch):
        """The perturbed losses run the taped convolution that the analytic gradient
        differentiates, not the eval scan, whose arrays each S4D leaf's perturbation
        would rebuild."""
        mdl = tiny_model(seed=6)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 16, 3))
        labels = np.array([0, 2])

        def loss_fn(leaves):
            logits = model.forward_t(ad.Tensor(x), leaves)
            return training.cross_entropy_t(logits, labels)

        builds, scan = [], ssm.scan_arrays
        monkeypatch.setattr(ssm, "scan_arrays", lambda p: builds.append(1) or scan(p))
        errors = ad.finite_diff_errors(loss_fn, mdl.leaves(), epsilon=1e-4)
        assert max(errors.values()) <= 1e-4
        assert builds == []


class TestFusedPrimitives:
    """The taped channel mix is one node; it must give the generic-op composition's
    loss and logits exactly and its gradients closely."""

    @staticmethod
    def unfused(x, t, keeps=None):
        """`forward_t` with the mix written in the generic ops `glu_t` and `layer_norm_t`."""
        h = x @ t["w1"] + t["b1"]
        for i in range(model.block_count(t)):
            h = ssm.s4d_apply(h, ssm.scan_t(model.block_core(t, i)))
            if keeps is not None:
                h = h * keeps[i]
            h = model.glu_t(h, t[f"block{i}.w2"], t[f"block{i}.b2"])
            if f"block{i}.gamma" in t:
                h = model.layer_norm_t(h, t[f"block{i}.gamma"], t[f"block{i}.beta"])
        return model.classify_t(h, t["w3"], t["b3"], t["w4"], t["b4"])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_fused_equals_unfused(self, n_layers, normalized, rate, dtype):
        mdl = model.init_model(3, 20, 8, 3, n_layers=n_layers, normalized=normalized,
                               dropout_rate=rate, seed=51)
        arrays = {k: v.astype(dtype) for k, v in mdl.params.items()}
        rng = np.random.default_rng(51)
        x = rng.standard_normal((4, 37, 3)).astype(dtype)
        labels = rng.integers(0, 3, 4)
        keeps = None
        if rate:
            keeps = [(rng.random((4, 37, 20)) >= rate) / (1.0 - rate) for _ in range(n_layers)]
        runs = []
        for forward in (model.forward_t, self.unfused):
            t = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
            loss = training.cross_entropy_t(forward(ad.Tensor(x), t, keeps), labels)
            undropped = {k: ad.Tensor(v, requires_grad=True) for k, v in arrays.items()}
            logits = forward(ad.Tensor(x), undropped).data
            runs.append((loss.data, logits, ad.gradients(loss, t)))
        (loss, logits, grads), (loss_ref, logits_ref, grads_ref) = runs
        np.testing.assert_array_equal(loss, loss_ref)
        np.testing.assert_array_equal(logits, logits_ref)
        for name in arrays:
            np.testing.assert_allclose(grads[name], grads_ref[name], rtol=1e-10, atol=0,
                                       err_msg=name)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_float32_leaves_get_float32_gradients(self, normalized):
        """The backward runs in the loss's dtype, so no adjoint is widened to float64."""
        mdl = model.init_model(3, 20, 8, 3, n_layers=2, normalized=normalized,
                               dropout_rate=0.0, seed=54)
        t = {k: ad.Tensor(v.astype(np.float32), requires_grad=True)
             for k, v in mdl.params.items()}
        x = np.random.default_rng(54).standard_normal((4, 37, 3)).astype(np.float32)
        loss = training.cross_entropy_t(model.forward_t(ad.Tensor(x), t), [0, 1, 2, 0])
        grads = ad.gradients(loss, t)
        assert loss.dtype == np.float32
        assert {k: g.dtype.name for k, g in grads.items()} == {k: "float32" for k in t}

    def test_each_taped_block_is_two_nodes(self):
        mdl = model.init_model(3, 20, 8, 3, n_layers=2, dropout_rate=0.0, seed=52)
        t = {k: ad.Tensor(v, requires_grad=True) for k, v in mdl.params.items()}
        h = ad.Tensor(np.random.default_rng(52).standard_normal((2, 9, 20)))
        stage = ssm.s4d_apply(h, ssm.scan_t(model.block_core(t, 0)))
        x, scan = stage._parents
        block = ssm.SCAN_BLOCK
        assert x is h and scan.shape == (20, block * block + (3 * block + 1) * 8)
        rate, b_bar, c, d = scan._parents  # the scan arrays, one node per step and block
        assert d is t["block0.ssm.d"]
        assert rate.shape == b_bar.shape == c.shape == (20, 4)
        assert all(p.requires_grad and p.dtype == complex for p in (rate, b_bar, c))
        mix = model.channel_mix_t(stage, t, 0)
        names = ("w2", "b2", "gamma", "beta")
        assert mix._parents == (stage, *(t[f"block0.{name}"] for name in names))

    def test_taped_mix_forward_memory(self):
        """The mix's forward on a B=8, L=512, H=N=64 MS4N input whose leaves require
        gradients peaks within 4.5 (B, L, H) float64 activations, and its node keeps 3.1:
        the output, the GLU's linear half and its gate. Run on a short tape, with the
        partials copied off it, it peaked at 6.06."""
        batch, length, hidden = 8, 512, 64
        mdl = model.init_model(1, hidden, hidden, 2, dropout_rate=0.0, seed=55)
        leaves = {k: ad.Tensor(v, requires_grad=True) for k, v in mdl.params.items()}
        h = ad.Tensor(np.random.default_rng(55).standard_normal((batch, length, hidden)))
        tracemalloc.start()
        try:
            mix = model.channel_mix_t(h, leaves, 0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activation = batch * length * hidden * 8
        assert mix.requires_grad
        assert peak <= 4.5 * activation
        assert kept <= 3.1 * activation

    @staticmethod
    def step_peak(batch, length, hidden=64):
        """tracemalloc's peak over one MS4N shard step, dropout 0.1: the mask draw,
        forward_t, the loss and gradients, in (B, L, H) float64 activations."""
        mdl = model.init_model(1, hidden, hidden, 2, dropout_rate=0.1, seed=53)
        rng = np.random.default_rng(53)
        x = rng.standard_normal((batch, length, 1))
        labels = np.arange(batch) % 2
        leaves = {k: ad.Tensor(v, requires_grad=True) for k, v in mdl.params.items()}
        tracemalloc.start()
        try:
            keeps = [(rng.random((batch, length, hidden)) >= 0.1) / 0.9]
            loss = training.cross_entropy_t(model.forward_t(ad.Tensor(x), leaves, keeps), labels)
            grads = ad.gradients(loss, leaves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.isfinite(g).all() for g in grads.values())
        return peak / (batch * length * hidden * 8)

    def test_shard_training_step_peak_memory(self):
        """The `train` workload's shard, B=32, L=128, H=N=64, within 15.5 activations. It
        reads 14.33, in the stage's VJP: the block's scan arrays (1.76 activations at
        this shape) are held for the whole step, the maps' adjoints are H*T*(T+N)
        arrays, and the VJP holds a chunk's output adjoints and leaving-state
        adjoints, 3 activations at L <= STREAM_CHUNK, but not its output's adjoint.
        It read 15.28 while the VJP rebuilt the maps; the FFT stage read 13.30."""
        assert self.step_peak(32, 128) <= 15.5

    def test_long_training_step_peak_memory(self):
        """One B=8, L=4096, H=N=64 MS4N step, dropout 0.1, as one shard: the mask draw,
        forward_t, the loss and gradients, within 14 (B, L, H) float64 activations
        (235 MB). The generic-op tape kept every intermediate and peaked at 514 MB; a
        projection that kept both x @ w1 and its sum with b1 peaked at 14.09, and the
        FFT stage at 13.10. The scan stage peaks at 11.40 activations (191 MB): its VJP
        holds one chunk of STREAM_CHUNK steps at a time, and the mix's VJP works in
        place (12.33 before)."""
        assert self.step_peak(8, 4096) <= 14

    def test_training_step_runs_no_fft(self, monkeypatch):
        """One form of the layer: a 2-block training run, its steps and validations,
        calls nothing in np.fft."""

        class NoFft:
            def __getattr__(self, name):
                raise AssertionError(f"np.fft.{name} called")

        ds = data.synth_freq_task(40, 40, seed=57)
        mdl = model.init_model(1, 8, 8, 2, n_layers=2, dropout_rate=0.1, seed=57)
        monkeypatch.setattr(np, "fft", NoFft())
        best, history = training.train(mdl, ds, training.TrainConfig(max_epochs=1, batch_size=16))
        assert history.n_epochs == 1
        assert all(np.isfinite(v).all() for v in best.params.values())


class TestBatchLogits:
    """Chunked, threaded scoring against one `forward` over the whole batch."""

    @staticmethod
    def record_forwards(monkeypatch):
        """Wrap model.forward_t to log (thread id, batch size) of each call."""
        calls, inner = [], model.forward_t

        def recording(x, leaves, *args, **kwargs):
            calls.append((threading.get_ident(), x.shape[0]))
            return inner(x, leaves, *args, **kwargs)

        monkeypatch.setattr(model, "forward_t", recording)
        return calls

    @pytest.mark.parametrize("batch_size", [1, 3, 64, 256])
    @pytest.mark.parametrize("n", [0, 1, 65, 130])
    def test_matches_forward(self, monkeypatch, n, batch_size):
        mdl = tiny_model(seed=30)
        x = np.random.default_rng(n).standard_normal((n, 8, 3))
        expected = model.forward(x, mdl)
        calls = self.record_forwards(monkeypatch)
        logits = model.batch_logits(x, mdl, batch_size)
        np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-12)
        sizes, step = [size for _, size in calls], model.score_size(8, batch_size)
        assert sum(sizes) == n
        assert all(size == step for size in sizes[:-1])
        assert all(size <= step for size in sizes[-1:])

    @pytest.mark.parametrize("rows", [4096, 1024, 2])
    def test_logits_independent_of_batch_size_and_score_rows(self, monkeypatch, rows):
        """At L=256, 37 sequences run in forwards of one sequence up to 16 of them,
        and every forward size scores the same bits."""
        mdl = tiny_model(n_layers=2, seed=38)
        x = np.random.default_rng(38).standard_normal((37, 256, 3))
        expected = model.batch_logits(x, mdl)
        monkeypatch.setattr(model, "SCORE_ROWS", rows)
        calls = self.record_forwards(monkeypatch)
        for batch_size in (2, 3, 10, 256):
            assert model.batch_logits(x, mdl, batch_size).tobytes() == expected.tobytes()
        assert min(size for _, size in calls) == 1

    @settings(max_examples=40, deadline=None)
    @given(length=st.sampled_from([1, 7, 256, 4096]), n=st.integers(2, 6),
           batch_size=st.sampled_from([1, 2, 3, 10, 256]),
           rows=st.sampled_from([model.SCORE_ROWS, 1024, 64, 2]),
           cpus=st.sampled_from([1, 4]), seed=st.integers(0, 2**16))
    def test_a_samples_logits_depend_only_on_the_sample(self, length, n, batch_size, rows,
                                                         cpus, seed):
        """A sample scored in a batch has the bits it has scored alone, and streamed,
        whatever the forward sizes, remainders and CPU count: the scan and the head take
        their products per sample. A 2-D head product rounds a row of a 16-unit, 3-class
        model by the rows beside it, and one scan product over a batch's blocks a
        sample's steps by the samples beside it."""
        mdl = model.init_model(3, 16, 8, 3, dropout_rate=0.0, seed=56)
        x = np.random.default_rng(seed).standard_normal((n, length, 3))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "SCORE_ROWS", rows)
            patch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            logits = model.batch_logits(x, mdl, batch_size)
            for i in range(n):
                alone = model.batch_logits(x[i : i + 1], mdl, batch_size)[0]
                assert logits[i].tobytes() == alone.tobytes(), i
                assert logits[i].tobytes() == model.stream_logits(mdl, x[i]).tobytes(), i

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 512, 513, 4096])
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_scan_equals_the_taped_convolution(self, n_layers, normalized, length):
        """The two forms of the layer, scored on the same batch: the block scan of the eval
        forward and of the training graph, at lengths inside, at and across SCAN_BLOCK and
        STREAM_CHUNK edges, against each block's plain FFT convolution plus feedthrough."""
        mdl = tiny_model(normalized=normalized, n_layers=n_layers, seed=59)
        x = np.random.default_rng(length).standard_normal((3, length, 3))
        p, h = mdl.params, x @ mdl.params["w1"] + mdl.params["b1"]
        for i in range(n_layers):
            core = model.block_core(p, i)
            y = ssm.fft_causal_conv(h, ssm.compute_kernel(core, length)) + h * core["d"]
            h = model.channel_mix_t(ad.gelu(ad.Tensor(y)), p, i).data
        pooled = ad.Tensor(h.mean(axis=1, keepdims=True))
        expected = model.classify_t(pooled, p["w3"], p["b3"], p["w4"], p["b4"]).data
        leaves = {k: ad.Tensor(v, requires_grad=True) for k, v in p.items()}
        taped = model.forward_t(ad.Tensor(x), leaves)
        assert taped.requires_grad
        for logits in (model.batch_logits(x, mdl), taped.data):
            np.testing.assert_allclose(logits, expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_logits_independent_of_cpu_count(self, monkeypatch, cpus):
        """Four threads on a short switch interval must lose no worker's rows either."""
        mdl = model.init_model(3, 8, 8, 3, seed=31)
        x = np.random.default_rng(31).standard_normal((130, 16, 3))
        native = model.batch_logits(x, mdl)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scored = model.batch_logits(x, mdl)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(scored, native)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_cold_memo_logits_independent_of_cpu_count(self, monkeypatch, cpus):
        """A cold call builds each block's scan arrays once, before its workers start,
        and scores as one CPU does."""
        mdl = model.init_model(3, 20, 8, 3, n_layers=2, seed=36)
        x = np.random.default_rng(36).standard_normal((256, 16, 3))  # four forwards
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0})
        single = model.batch_logits(x, mdl)
        model.memo.cache_clear()
        built, scan = [], ssm.scan_arrays
        monkeypatch.setattr(ssm, "scan_arrays", lambda p: built.append(p["d"]) or scan(p))
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cold = model.batch_logits(x, mdl)
            warm = model.batch_logits(x, mdl)
        finally:
            sys.setswitchinterval(interval)
        assert [d.tobytes() for d in built] == [mdl.params[f"block{i}.ssm.d"].tobytes()
                                                for i in range(2)]
        np.testing.assert_array_equal(cold, single)
        np.testing.assert_array_equal(warm, single)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        mdl = tiny_model(seed=32)
        x = np.zeros((3 * model.score_size(8, 256), 8, 3))  # three forwards
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 1})
        calls = self.record_forwards(monkeypatch)
        recording = model.forward_t

        def failing(xb, leaves, **kwargs):
            recording(xb, leaves, **kwargs)
            raise FloatingPointError(f"forward of {xb.shape[0]} failed")

        monkeypatch.setattr(model, "forward_t", failing)
        with pytest.raises(FloatingPointError, match=f"^forward of {len(x) // 3} failed$"):
            model.batch_logits(x, mdl)
        assert calls and threading.get_ident() not in {ident for ident, _ in calls}

    def test_single_forward_runs_inline_and_no_thread_outlives_a_call(self, monkeypatch):
        mdl = tiny_model(seed=33)
        step = model.score_size(8, 256)
        x = np.random.default_rng(33).standard_normal((2 * step + 2, 8, 3))
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 1})
        before = threading.active_count()
        calls = self.record_forwards(monkeypatch)
        model.batch_logits(x[:step], mdl)
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        model.batch_logits(x, mdl)
        assert threading.active_count() == before

    @pytest.mark.parametrize("shape", [(200, 3), (200,), (1, 2, 8, 3), (2, 8, 4)])
    def test_input_that_is_not_3d_is_rejected_before_any_forward(self, monkeypatch, shape):
        """An (L, F) sequence is not scored as `score_size`-step slices of fake sequences,
        and a batch of the wrong width fails before any worker starts."""
        mdl = tiny_model(seed=37)
        x = np.random.default_rng(37).standard_normal(shape)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 1})
        calls = self.record_forwards(monkeypatch)
        ds = data.Dataset(x=np.zeros((1, 8, 3)), y=np.zeros(1), n_classes=3)
        ds.x = x  # set after the constructor, which checks the shape itself
        message = re.escape(f"expected (n, L, 3) input, got {shape}")
        for score in (lambda: model.batch_logits(x, mdl), lambda: model.predict(x, mdl),
                      lambda: training.evaluate(mdl, ds)):
            with pytest.raises(ValueError, match=message):
                score()
        assert calls == []

    @pytest.mark.parametrize("n, length", [(1025, 8), (700, 16)])
    def test_forward_scores_as_batch_logits(self, n, length):
        """`forward` adds no scoring of its own: a batch, and a sequence as a batch of one."""
        mdl = tiny_model(seed=58)
        x = np.random.default_rng(58).standard_normal((n, length, 3))
        assert model.forward(x, mdl).tobytes() == model.batch_logits(x, mdl).tobytes()
        assert model.forward(x[0], mdl).tobytes() == model.batch_logits(x[:1], mdl)[0].tobytes()

    @pytest.mark.parametrize("shape", [(64, 3), (1, 64, 3), (128, 8, 3)])
    def test_one_forward_call_looks_up_the_memo_once_and_starts_no_thread(self, monkeypatch,
                                                                          shape):
        """A sequence, or a batch that is one forward (128 sequences at L=8), is scored
        inline with the memo lookup of its `forward_t`."""
        mdl = tiny_model(seed=60)
        x = np.random.default_rng(60).standard_normal(shape)
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(4)))
        lookups, memo = [], model.memo
        monkeypatch.setattr(model, "memo", lambda key: lookups.append(key) or memo(key))
        starts, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: starts.append(t) or start(t))
        calls = self.record_forwards(monkeypatch)
        for score in [model.forward] if len(shape) == 2 else [model.forward, model.batch_logits]:
            lookups.clear()
            score(x, mdl)
            assert lookups == [model.memo_key(mdl.params)]
        assert starts == [] and {ident for ident, _ in calls} == {threading.get_ident()}

    def test_empty_input(self):
        mdl = tiny_model(seed=34)
        assert model.batch_logits(np.zeros((0, 8, 3)), mdl).shape == (0, mdl.n_classes)

    @pytest.mark.parametrize("batch_size", [0, -1, -3])
    def test_non_positive_batch_size_rejected(self, batch_size):
        mdl = tiny_model(seed=35)
        x = np.zeros((4, 8, 3))
        with pytest.raises(ValueError, match="batch_size"):
            model.batch_logits(x, mdl, batch_size)


class BlasRecorder:
    """Stands in for the OpenBLAS thread count: `get` reads it, `put` sets and logs it."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    def get(self):
        return self.count

    def put(self, n):
        self.calls.append(n)
        self.count = n


class TestCpuMap:
    """`cpu_map` holds BLAS at one thread while, and only while, it runs workers."""

    @staticmethod
    def recorder(monkeypatch, cpus=2, count=3):
        blas = BlasRecorder(count)
        monkeypatch.setattr(model, "_blas_threads", lambda: (blas.get, blas.put))
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return blas

    @pytest.mark.parametrize("cpus, items, max_workers", [(1, 4, None), (2, 1, None), (2, 4, 1)])
    def test_single_worker_leaves_blas_alone(self, monkeypatch, cpus, items, max_workers):
        blas = self.recorder(monkeypatch, cpus=cpus)
        threads = model.cpu_map(lambda _: threading.get_ident(), range(items), max_workers)
        assert set(threads) == {threading.get_ident()}
        assert blas.calls == [] and blas.count == 3

    def test_workers_see_one_blas_thread_then_the_old_count_returns(self, monkeypatch):
        blas = self.recorder(monkeypatch, cpus=4)
        seen = model.cpu_map(lambda i: (i, blas.count), range(9))
        assert seen == [(i, 1) for i in range(9)]  # in item order
        assert blas.calls == [1, 3] and blas.count == 3

    def test_old_count_returns_when_a_worker_raises(self, monkeypatch):
        blas = self.recorder(monkeypatch)

        def work(i):
            if i == 1:
                raise RuntimeError("worker 1")
            return i

        with pytest.raises(RuntimeError, match="worker 1"):
            model.cpu_map(work, range(4))
        assert blas.calls == [1, 3] and blas.count == 3

    def test_overlapping_maps_restore_the_starting_count(self, monkeypatch):
        """Map A enters, then map B; A leaves while B still runs, then B leaves."""
        blas = self.recorder(monkeypatch)
        both_running = threading.Barrier(4, timeout=10)  # two workers from each map
        a_done = threading.Event()
        seen = {}

        def map_a():
            model.cpu_map(lambda _: both_running.wait(), range(2))
            seen["after a"] = blas.count
            a_done.set()

        def in_b(_):
            both_running.wait()
            assert a_done.wait(timeout=10)
            return blas.count

        def map_b():
            seen["in b"] = model.cpu_map(in_b, range(2))

        threads = [threading.Thread(target=map_a), threading.Thread(target=map_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"after a": 1, "in b": [1, 1]}
        assert blas.count == 3 and blas.calls == [1, 3]


class TestCounts:
    def test_single_linear_layer_counts(self):
        mdl = model.init_model(5, 64, 4, 2, seed=0)
        assert mdl.params["w1"].size + mdl.params["b1"].size == 5 * 64 + 64 == 384
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
        """The scan arrays and the head do not depend on L; at whole SCAN_BLOCKs every
        other count, the scan's included, is linear in L."""
        mdl = model.init_model(4, 16, 8, 5, n_layers=2, seed=0)
        for length in (64, 96, 256):
            b1 = model.mac_breakdown(mdl, length)
            b2 = model.mac_breakdown(mdl, 2 * length)
            for key in ("ssm_kernel", "head"):
                assert b2.pop(key) == b1.pop(key) > 0
            assert b2 == {k: 2 * v for k, v in b1.items()}
        block = ssm.SCAN_BLOCK  # a partial block is charged as a whole one
        assert (model.mac_breakdown(mdl, block + 1)["ssm_fft"]
                == model.mac_breakdown(mdl, 2 * block)["ssm_fft"])

    def test_total_is_breakdown_sum(self):
        mdl = tiny_model()
        assert model.count_macs(mdl, 50) == sum(model.mac_breakdown(mdl, 50).values())

    def test_complex_parameters_count_twice(self):
        p = ssm.init_s4d_params(2, 4, seed=0)
        per_mode_pairs = 2 * 2 * 3  # B, C and the eigenvalue pair, 2x2 modes each
        assert sum(v.size for v in p.values()) == per_mode_pairs * 2 + 2 + 2


class TestParamShapes:
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_init_model_in_order(self, n_layers, normalized):
        args = (3, 8, 6, 4)
        shapes = model.param_shapes(*args, n_layers, normalized, head_hidden=5)
        mdl = model.init_model(*args, n_layers=n_layers, normalized=normalized, head_hidden=5)
        assert list(shapes.items()) == [(k, v.shape) for k, v in mdl.leaves().items()]

    def test_sizes_read_off_the_arrays(self):
        mdl = model.init_model(3, 8, 6, 4, n_layers=2, normalized=False, head_hidden=5)
        assert (mdl.n_features, mdl.n_hidden, mdl.n_state, mdl.n_classes, mdl.head_hidden,
                mdl.n_layers, mdl.normalized) == (3, 8, 6, 4, 5, 2, False)

    @pytest.mark.parametrize("field, value, message", [
        ("n_features", 0, "n_features=0 must be an integer >= 1"),
        ("head_hidden", 0, "head_hidden=0 must be an integer >= 1"),
        ("n_state", 3, "n_state=3 must be an even integer >= 2"),
        ("n_state", 0, "n_state=0 must be an even integer >= 2"),
        ("n_classes", 1, "n_classes=1 must be an integer >= 2"),
        ("n_layers", 0, "n_layers=0 must be an integer >= 1"),
    ])
    def test_init_model_rejects_what_a_checkpoint_cannot_hold(self, field, value, message):
        """Every size `load_checkpoint` rejects is rejected when the model is made,
        so no model is made whose saved checkpoint cannot be loaded."""
        sizes = dict(n_features=2, n_hidden=8, n_state=8, n_classes=2, head_hidden=4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model.init_model(**{**sizes, field: value})

    def test_block_core_views_the_model_arrays(self):
        mdl = tiny_model(n_layers=2, seed=13)
        core = model.block_core(mdl.params, 1)
        assert list(core) == list(ssm.SSM_LEAF_NAMES)
        for name, arr in core.items():
            assert arr is mdl.params[f"block1.ssm.{name}"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.sampled_from([2**31, 10**12])
    | st.floats() | st.text(max_size=4),
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

    @pytest.mark.parametrize("size", [1500, 2**31, 10**12])
    @pytest.mark.parametrize("field", ["n_features", "n_hidden"])
    def test_header_size_checked_before_allocating(self, tmp_path, field, size):
        """Memory follows the file, not the sizes its hyper block claims."""
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(model.init_model(2, 2, 2, 2, dropout_rate=0.0), path)
        doc = json.loads(path.read_text())
        doc["hyper"][field] = size
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="m.ckpt.*'w1' has shape"):
                model.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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

    def test_exact_text(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(
            model.init_model(1, 1, 2, 2, head_hidden=1, dropout_rate=0.25, seed=3), path
        )
        pinned = (DATA_DIR / "tiny_checkpoint.json").read_text()
        assert path.read_text() == pinned
        model.save_checkpoint(model.load_checkpoint(path), path)
        assert path.read_text() == pinned

    def test_loads_without_init_model(self, tmp_path, monkeypatch):
        mdl = tiny_model(n_layers=2, seed=14)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(mdl, path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint called init_model")

        monkeypatch.setattr(model, "init_model", refuse)
        loaded = model.load_checkpoint(path)
        assert list(loaded.leaves()) == list(mdl.leaves())
        for name, arr in mdl.leaves().items():
            np.testing.assert_array_equal(loaded.params[name], arr)

    @pytest.mark.parametrize(
        "field, value",
        [("n_state", 9), ("dropout_rate", 1.0), ("dropout_rate", True),
         ("dropout_rate", None), ("dropout_rate", "0.1")],
    )
    def test_rejects_bad_hyper_value(self, tmp_path, field, value):
        """n_state 9 implies the stored 4 modes per channel, so only the odd check can catch it."""
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(tiny_model(seed=15), path)
        doc = json.loads(path.read_text())
        doc["hyper"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=f"m.ckpt.*{field}"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("value", ["0_5", "1.5", True, False],
                             ids=["underscore", "string", "true", "false"])
    def test_rejects_parameter_value_that_is_not_a_number(self, tmp_path, value):
        """np.array(..., dtype=float) reads "0_5" as 5.0 and true as 1.0."""
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(tiny_model(seed=16), path)
        doc = json.loads(path.read_text())
        doc["params"]["b1"]["data"][0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="m.ckpt: parameter 'b1' holds a value that "
                                                  "is not a number"):
            model.load_checkpoint(path)

    def test_flags_preserved(self, tmp_path):
        mdl = tiny_model(normalized=False, seed=8)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(mdl, path)
        loaded = model.load_checkpoint(path)
        assert loaded.normalized is False
        assert loaded.n_layers == 1 and loaded.n_classes == 3


STREAM_LENGTHS = [1, 63, 64, 133,
                  ssm.STREAM_CHUNK - 1, ssm.STREAM_CHUNK, 2 * ssm.STREAM_CHUNK + 5]


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
        self.assert_stream_matches_forward(tiny_model(seed=11), 3 * ssm.STREAM_CHUNK + 7)

    @staticmethod
    def record_scan_builds(monkeypatch):
        """A list that gets one entry per `ssm.scan_arrays` build from now on."""
        builds, build = [], ssm.scan_arrays
        monkeypatch.setattr(ssm, "scan_arrays", lambda p: builds.append(1) or build(p))
        return builds

    def test_scanner_built_once_per_core(self, monkeypatch):
        """Later sequences take each block's scan arrays from the memo:
        one discretization and one `ssm.scan_arrays` build per core."""
        mdl = tiny_model(normalized=False, n_layers=2, seed=13)
        maps, discretize = [], ssm.discretize_t
        builds = self.record_scan_builds(monkeypatch)
        monkeypatch.setattr(ssm, "discretize_t", lambda p: maps.append(1) or discretize(p))
        for x in np.random.default_rng(13).standard_normal((3, 2 * ssm.STREAM_CHUNK + 5, 3)):
            model.stream_logits(mdl, x)
        assert len(builds) == 2
        assert len(maps) == 2

    def test_one_scanner_serves_every_length(self, monkeypatch):
        """Short sequences of varied lengths share each core's scan arrays."""
        mdl = tiny_model(normalized=False, n_layers=2, seed=15)
        builds = self.record_scan_builds(monkeypatch)
        for length in (5, 17, 300):
            self.assert_stream_matches_forward(mdl, length)
        assert len(builds) == 2

    def test_stream_holds_blas_at_one_thread(self, monkeypatch):
        """Every chunk is scanned on one BLAS thread; the old count returns after
        the call, also when the call raises."""
        blas = BlasRecorder(3)
        monkeypatch.setattr(model, "_blas_threads", lambda: (blas.get, blas.put))
        seen, scan = [], ssm.chunk_scan
        monkeypatch.setattr(ssm, "chunk_scan", lambda *a: seen.append(blas.count) or scan(*a))
        mdl = tiny_model(n_layers=2, seed=17)
        x = np.random.default_rng(17).standard_normal((ssm.STREAM_CHUNK + 5, 3))
        model.stream_logits(mdl, x)
        assert seen == [1] * 4  # two chunks through two blocks
        assert blas.calls == [1, 3] and blas.count == 3

        def fail(*args):
            raise RuntimeError("scan")

        monkeypatch.setattr(ssm, "chunk_scan", fail)
        with pytest.raises(RuntimeError, match="scan"):
            model.stream_logits(mdl, x)
        assert blas.calls == [1, 3, 1, 3] and blas.count == 3

    def test_cold_and_warm_calls_give_identical_bits(self):
        mdl = tiny_model(normalized=False, n_layers=2, seed=16)
        x = np.random.default_rng(16).standard_normal((ssm.STREAM_CHUNK + 77, 3))
        cold = model.stream_logits(mdl, x)
        warm = model.stream_logits(mdl, x)
        model.memo.cache_clear()
        assert cold.tobytes() == warm.tobytes() == model.stream_logits(mdl, x).tobytes()

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


class TestMemoUse:
    """Each call looks `model.memo` up once, and a model's arrays stay warm whatever
    its block count and whatever lengths are scored."""

    @staticmethod
    def record_builds(monkeypatch):
        """A list that gets one entry per `ssm.scan_arrays` build from now on."""
        builds, scan = [], ssm.scan_arrays
        monkeypatch.setattr(ssm, "scan_arrays", lambda p: builds.append(p["d"]) or scan(p))
        return builds

    def test_a_second_call_of_nine_blocks_builds_nothing(self, monkeypatch):
        """Nine blocks overran the eight entries of a memo of single cores."""
        mdl = tiny_model(n_layers=9, seed=50)
        x = np.random.default_rng(50).standard_normal((64, 3))
        first = model.forward(x, mdl), model.stream_logits(mdl, x)
        builds = self.record_builds(monkeypatch)
        second = model.forward(x, mdl), model.stream_logits(mdl, x)
        assert builds == []
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_alternating_stream_and_forward_build_once(self, monkeypatch):
        mdl = tiny_model(n_layers=5, seed=51)
        x = np.random.default_rng(51).standard_normal((64, 3))
        builds = self.record_builds(monkeypatch)
        for _ in range(4):
            model.stream_logits(mdl, x)
            model.forward(x, mdl)
        assert len(builds) == 5

    def test_lengths_scored_in_turn_build_once_per_block(self, monkeypatch):
        """Kernel spectra were kept per length, so three lengths in turn rebuilt them on
        every call; scan arrays serve every length."""
        mdl = model.init_model(3, 8, 8, 3, n_layers=2, dropout_rate=0.0, seed=55)
        rng = np.random.default_rng(55)
        builds = self.record_builds(monkeypatch)
        for _ in range(2):
            for length in (1024, 2048, 4096):
                model.forward(rng.standard_normal((length, 3)), mdl)
        assert [d.tobytes() for d in builds] == [mdl.params[f"block{i}.ssm.d"].tobytes()
                                                 for i in range(2)]

    def test_forward_looks_up_once_per_scoring_chunk_and_a_graph_never(self):
        """Two forwards: the memo is filled before they start, then each looks it up."""
        mdl = tiny_model(n_layers=2, seed=53)
        x = np.random.default_rng(53).standard_normal(
            (model.score_size(16, model.SCORE_BATCH) + 2, 16, 3))
        model.forward(x, mdl)
        info = model.memo.cache_info()
        assert (info.hits, info.misses) == (2, 1)
        model.forward_t(ad.Tensor(x[:2]), {k: ad.Tensor(v, requires_grad=True)
                                           for k, v in mdl.params.items()})
        model.forward_t(ad.Tensor(x[:2], requires_grad=True),
                        {k: ad.Tensor(v) for k, v in mdl.params.items()})
        assert model.memo.cache_info() == info

    def test_cold_forward_builds_its_spectra_inside_forward_t(self, monkeypatch):
        """So a trace nests every build in a `forward_t` span: the scan maps of a training
        forward, and the scan arrays, and so their maps, of an eval forward."""
        mdl = tiny_model(n_layers=2, seed=54)
        depth, inside, forward_t = [0], [], model.forward_t
        maps, scan = ssm.scan_maps, ssm.scan_arrays

        def traced(*args, **kwargs):
            depth[0] += 1
            try:
                return forward_t(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(model, "forward_t", traced)
        monkeypatch.setattr(ssm, "scan_maps", lambda *a: inside.append(("maps", depth[0]))
                            or maps(*a))
        monkeypatch.setattr(ssm, "scan_arrays", lambda p: inside.append(("scan", depth[0]))
                            or scan(p))
        x = np.random.default_rng(54).standard_normal((2, 16, 3))
        model.forward_t(ad.Tensor(x), {k: ad.Tensor(v, requires_grad=True)
                                       for k, v in mdl.params.items()})
        assert inside == [("maps", 1)] * 2
        inside.clear()
        model.forward(x[0], mdl)
        assert inside == [("scan", 1), ("maps", 1)] * 2

    def test_stream_looks_up_once(self):
        mdl = tiny_model(n_layers=2, seed=52)
        x = np.random.default_rng(52).standard_normal((2 * ssm.STREAM_CHUNK + 5, 3))
        model.stream_logits(mdl, x)
        info = model.memo.cache_info()
        assert info.hits + info.misses == 1


# The infer-long order: a cold forward, a stream, then warm forwards, with the
# minor page faults of each warm forward read around it.
FAULTS_SCRIPT = """
import resource, statistics
import numpy as np
from ms4 import model
mdl = model.init_model(4, 64, 64, 10, dropout_rate=0.0, seed=0)
x = np.random.default_rng(0).standard_normal((4096, 4))
model.forward(x, mdl)
model.stream_logits(mdl, x)
faults = []
for _ in range(12):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.forward(x, mdl)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trim only")
def test_warm_long_forward_does_not_refault_the_heap():
    """glibc trims a free heap top after a call, and the next L=4096 forward faults
    its 8 MB back in (2,016 faults) unless long-lived arrays sit above it."""
    src = str(Path(model.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env, capture_output=True,
                            text=True, check=True)
    assert float(result.stdout) <= 64
