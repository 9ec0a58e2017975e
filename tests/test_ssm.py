"""SSM layer tests: initialization, discretization, kernel, convolution, and
the convolution/recurrence duality, each against an independent oracle."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ms4 import autodiff as ad
from ms4 import model, ssm

import helpers


class TestInit:
    def test_eigenvalue_formula(self):
        p = ssm.init_s4d_params(1, 4, seed=0)
        np.testing.assert_allclose(p["log_a_real"], np.log(0.5))
        np.testing.assert_allclose(p["a_imag"][0], [0.0, np.pi])

    def test_channels_share_eigenvalues_at_init(self):
        p = ssm.init_s4d_params(3, 2, seed=5)
        lam = -np.exp(p["log_a_real"]) + 1j * p["a_imag"]
        assert (lam == lam[0]).all()
        np.testing.assert_allclose(lam[0], [-0.5 + 0.0j])

    def test_b_d_unit_and_c_seeded_normal(self):
        p = ssm.init_s4d_params(4, 6, seed=1)
        np.testing.assert_array_equal(helpers.complex_of(p, "b"), np.ones((4, 3), dtype=complex))
        np.testing.assert_array_equal(p["d"], np.ones(4))
        assert p["c_re"].std() > 0.1

    def test_log_delta_within_bounds(self):
        p = ssm.init_s4d_params(64, 4, seed=3)
        assert (ssm.DT_MIN, ssm.DT_MAX) == (1e-3, 1e-1)
        assert (p["log_delta"] >= np.log(1e-3)).all() and (p["log_delta"] < np.log(1e-1)).all()

    def test_same_seed_bit_identical(self):
        a = ssm.init_s4d_params(5, 8, seed=11)
        b = ssm.init_s4d_params(5, 8, seed=11)
        assert list(a) == list(b) == list(ssm.SSM_LEAF_NAMES)
        for name in ssm.SSM_LEAF_NAMES:
            np.testing.assert_array_equal(a[name], b[name])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_channels": 0, "n_state": 4},
            {"n_channels": 2, "n_state": 5},
            {"n_channels": 2, "n_state": 0},
        ],
    )
    def test_parameter_errors(self, kwargs):
        with pytest.raises(ValueError):
            ssm.init_s4d_params(**kwargs)


def _explicit_params(lam, delta, b=1.0 + 0.0j, c=1.0 + 0.0j):
    """Single-channel single-mode S4D core with exact eigenvalue and step."""
    return {
        "log_a_real": np.log(-np.array([[lam.real]])),
        "a_imag": np.array([[lam.imag]]),
        "b_re": np.array([[b.real]]),
        "b_im": np.array([[b.imag]]),
        "c_re": np.array([[c.real]]),
        "c_im": np.array([[c.imag]]),
        "d": np.zeros(1),
        "log_delta": np.log(np.array([delta])),
    }


class TestZohDiscretize:
    def test_closed_form_real_eigenvalue(self):
        # lambda = -1, delta = ln 2, B = 1  ->  A_bar = 0.5, B_bar = 0.5
        p = _explicit_params(complex(-1.0, 0.0), np.log(2.0))
        a_bar, b_bar = ssm.zoh_discretize(p)
        np.testing.assert_allclose(a_bar, [[0.5]], atol=1e-15)
        np.testing.assert_allclose(b_bar, [[0.5]], atol=1e-15)

    def test_closed_form_complex_eigenvalue(self):
        # lambda = -0.5 + i pi, delta = 1  ->  A_bar = -e^{-0.5}
        p = _explicit_params(complex(-0.5, np.pi), 1.0)
        a_bar, _ = ssm.zoh_discretize(p)
        np.testing.assert_allclose(a_bar, [[-np.exp(-0.5)]], atol=1e-12)
        assert abs(a_bar[0, 0].real + 0.60653) < 1e-5

    def test_small_step_taylor_order(self):
        # B_bar = delta*B + delta^2*lambda*B/2 + O(delta^3): halving the error
        # ratio between delta = 1e-4 and 1e-5 must sit at ~100x (second order)
        rng = np.random.default_rng(2)
        p = helpers.random_ssm_params(rng, 3, 8)
        norms = {}
        for delta in (1e-4, 1e-5):
            q = {**p, "log_delta": np.full(3, np.log(delta))}
            _, b_bar = ssm.zoh_discretize(q)
            norms[delta] = np.linalg.norm(b_bar - delta * helpers.complex_of(q, "b"))
        ratio = norms[1e-4] / norms[1e-5]
        assert 99.0 < ratio < 101.0

    def test_all_moduli_below_one_for_any_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = helpers.random_ssm_params(rng, 4, 8)
            a_bar, _ = ssm.zoh_discretize(p)
            assert (np.abs(a_bar) < 1.0).all()


class TestKernel:
    def test_zero_output_matrix(self):
        p = ssm.init_s4d_params(3, 4, seed=0)
        p["c_re"][:] = 0.0
        p["c_im"][:] = 0.0
        for length in (1, 5, 33):
            np.testing.assert_array_equal(ssm.compute_kernel(p, length), np.zeros((length, 3)))

    def test_length_one_head(self):
        rng = np.random.default_rng(4)
        p = helpers.random_ssm_params(rng, 2, 6)
        _, b_bar = ssm.zoh_discretize(p)
        expected = 2.0 * (helpers.complex_of(p, "c") * b_bar).sum(axis=-1).real
        np.testing.assert_allclose(ssm.compute_kernel(p, 1)[0], expected, atol=1e-12)

    def test_matches_impulse_response_oracle(self):
        rng = np.random.default_rng(5)
        p = helpers.random_ssm_params(rng, 1, 2)
        np.testing.assert_allclose(
            ssm.compute_kernel(p, 8), helpers.impulse_kernel_oracle(p, 8), rtol=0, atol=1e-10
        )

    def test_matches_impulse_response_oracle_wide(self):
        rng = np.random.default_rng(6)
        p = helpers.random_ssm_params(rng, 5, 16)
        np.testing.assert_allclose(
            ssm.compute_kernel(p, 40), helpers.impulse_kernel_oracle(p, 40), rtol=0, atol=1e-10
        )

    def test_finite_and_envelope_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = helpers.random_ssm_params(rng, 3, 8)
            kernel = ssm.compute_kernel(p, 64)
            assert np.isfinite(kernel).all()
            a_bar, b_bar = ssm.zoh_discretize(p)
            k = np.arange(64)[:, None, None]
            envelope = (2.0 * np.abs(helpers.complex_of(p, "c") * b_bar)
                        * np.abs(a_bar) ** k).sum(axis=-1)
            assert (np.abs(kernel) <= envelope + 1e-12).all()

    def test_per_mode_geometric_decay(self):
        rng = np.random.default_rng(8)
        p = helpers.random_ssm_params(rng, 2, 6)
        a_bar, b_bar = ssm.zoh_discretize(p)
        k = np.arange(32)[:, None, None]
        per_mode = np.abs(helpers.complex_of(p, "c") * b_bar) * np.abs(a_bar) ** k
        assert (np.diff(per_mode, axis=0) <= 1e-15).all()

    def test_invalid_length(self):
        p = ssm.init_s4d_params(1, 2, seed=0)
        with pytest.raises(ValueError):
            ssm.compute_kernel(p, 0)

    def test_peak_memory_below_power_table(self):
        # the (L, H, N/2) complex table alone would be 4096 * 64 * 32 * 16 B = 134 MB
        tracemalloc.start()
        try:
            ssm.compute_kernel(ssm.init_s4d_params(64, 64), 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestFftConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16, 3))
        kernel = np.zeros((16, 3))
        kernel[0] = 1.0
        np.testing.assert_allclose(ssm.fft_causal_conv(x, kernel), x, atol=1e-12)

    def test_impulse_input_sifts_kernel(self):
        rng = np.random.default_rng(10)
        kernel = rng.standard_normal((12, 2))
        x = np.zeros((12, 2))
        x[0] = 1.0
        np.testing.assert_allclose(ssm.fft_causal_conv(x, kernel), kernel, atol=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((64, 4))
        kernel = rng.standard_normal((64, 4))
        np.testing.assert_allclose(
            ssm.fft_causal_conv(x, kernel), helpers.naive_causal_conv(x, kernel),
            rtol=0, atol=1e-10,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        length=st.integers(min_value=1, max_value=96),
        channels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_property_matches_double_loop(self, length, channels, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((length, channels))
        kernel = rng.standard_normal((length, channels))
        np.testing.assert_allclose(
            ssm.fft_causal_conv(x, kernel), helpers.naive_causal_conv(x, kernel),
            rtol=0, atol=1e-10,
        )

    def test_batched_input(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 20, 2))
        kernel = rng.standard_normal((20, 2))
        out = ssm.fft_causal_conv(x, kernel)
        for i in range(3):
            np.testing.assert_allclose(out[i], helpers.naive_causal_conv(x[i], kernel), atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssm.fft_causal_conv(np.zeros((8, 2)), np.zeros((8, 3)))


class TestRecurrence:
    def test_zero_state_zero_input(self):
        p = ssm.init_s4d_params(3, 4, seed=0)
        a_bar, b_bar = ssm.zoh_discretize(p)
        h = np.zeros_like(a_bar)
        new_h, y = ssm.recurrent_step(h, np.zeros(3), a_bar, b_bar,
                                      helpers.complex_of(p, "c"), p["d"])
        np.testing.assert_array_equal(new_h, np.zeros_like(h))
        np.testing.assert_array_equal(y, np.zeros(3))

    def test_first_step_equals_kernel_head_plus_feedthrough(self):
        rng = np.random.default_rng(13)
        p = helpers.random_ssm_params(rng, 4, 8)
        a_bar, b_bar = ssm.zoh_discretize(p)
        x0 = rng.standard_normal(4)
        _, y0 = ssm.recurrent_step(np.zeros_like(a_bar), x0, a_bar, b_bar,
                                   helpers.complex_of(p, "c"), p["d"])
        expected = (ssm.compute_kernel(p, 1)[0] + p["d"]) * x0
        np.testing.assert_allclose(y0, expected, atol=1e-12)

    def test_shape_mismatch(self):
        p = ssm.init_s4d_params(3, 4, seed=0)
        a_bar, b_bar = ssm.zoh_discretize(p)
        with pytest.raises(ValueError):
            ssm.recurrent_step(np.zeros((2, 2), complex), np.zeros(3), a_bar, b_bar,
                               helpers.complex_of(p, "c"), p["d"])

    def test_stream_equals_conv_plus_feedthrough(self):
        rng = np.random.default_rng(14)
        p = helpers.random_ssm_params(rng, 4, 8)
        x = rng.standard_normal((256, 4))
        streamed = ssm.stream_sequence(p, x)
        batch = ssm.fft_causal_conv(x, ssm.compute_kernel(p, 256)) + x * p["d"]
        np.testing.assert_allclose(streamed, batch, rtol=0, atol=1e-9)


CHUNK, BLOCK = ssm.STREAM_CHUNK, ssm.SCAN_BLOCK


def stepwise(params, h, x):
    """Reference for `chunk_scan`: one `recurrent_step` per row of x."""
    a_bar, b_bar = ssm.zoh_discretize(params)
    out = np.empty_like(x)
    for k in range(x.shape[0]):
        h, out[k] = ssm.recurrent_step(h, x[k], a_bar, b_bar,
                                       helpers.complex_of(params, "c"), params["d"])
    return h, out


def scan_chunks(params, h, x):
    """`chunk_scan` over a (B, L, H) x in chunks of STREAM_CHUNK steps; the last may be
    shorter."""
    outputs, scan = [], ssm.scan_arrays(params)
    for start in range(0, x.shape[1], CHUNK):
        h, y = ssm.chunk_scan(scan, h, x[:, start : start + CHUNK])
        outputs.append(y)
    return h, np.concatenate(outputs, axis=1)


class TestChunkScanner:
    """`chunk_scan`: chunked carried-state streaming against the per-step recurrence."""

    def assert_matches_stepwise(self, params, x, rng, batch=2):
        """Each of `batch` samples, x and a random state apiece, against its own steps."""
        shape = (batch, *params["c_re"].shape)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = np.stack([x] + [rng.standard_normal(x.shape) for _ in range(batch - 1)])
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            scanned_h, y = scan_chunks(params, h, x)
        for i in range(batch):
            expected_h, expected = stepwise(params, h[i], x[i])
            np.testing.assert_allclose(y[i], expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(scanned_h[i], expected_h, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length", [1, 15, 16, 53, CHUNK - 1, CHUNK, 3 * CHUNK + 5])
    def test_matches_recurrent_steps(self, length):
        rng = np.random.default_rng(length)
        params = helpers.random_ssm_params(rng, 4, 8)
        self.assert_matches_stepwise(params, rng.standard_normal((length, 4)), rng)

    @pytest.mark.parametrize("length", [1, 5, 22, 23, 74, 2 * CHUNK + 74])
    def test_matches_recurrent_steps_at_a_chunk_that_is_not_a_square(self, length):
        """Lengths that are no multiple of SCAN_BLOCK, so each ends in a short last
        block, which reads the last rows of the input-to-state map and decays by the
        kept power A_bar^r."""
        assert length % BLOCK
        rng = np.random.default_rng(200 + length)
        params = helpers.random_ssm_params(rng, 4, 8)
        self.assert_matches_stepwise(params, rng.standard_normal((length, 4)), rng)

    @pytest.mark.parametrize("length", [1, 15, 16, 53])
    def test_fast_decay_underflows_cleanly(self, length):
        rng = np.random.default_rng(100 + length)
        params = helpers.random_ssm_params(rng, 4, 8)
        params["log_delta"][:] = np.log(1e3)  # delta = 1000, so A_bar^16 underflows to 0
        assert np.abs(ssm.zoh_discretize(params)[0] ** 16).max() == 0.0
        self.assert_matches_stepwise(params, rng.standard_normal((length, 4)), rng)

    @pytest.mark.parametrize("length", [1, CHUNK - 1, CHUNK, 2 * CHUNK + 5])
    def test_fast_decay_underflows_cleanly_at_a_long_chunk(self, length):
        """exp(rate*k) underflows to 0 for most k, and to 0 already at k = 1
        for the modes whose A_bar is 0, with no NaN or floating-point error."""
        rng = np.random.default_rng(300 + length)
        params = helpers.random_ssm_params(rng, 4, 8)
        params["log_delta"][:] = np.log(1e3)
        assert (ssm.zoh_discretize(params)[0] == 0.0).any()
        self.assert_matches_stepwise(params, rng.standard_normal((length, 4)), rng)

    def test_float32_core_streams_in_float32(self):
        """The carried state stays complex64 and the output float32 across chunks."""
        rng = np.random.default_rng(23)
        params64 = helpers.random_ssm_params(rng, 4, 8)
        params = {name: v.astype(np.float32) for name, v in params64.items()}
        x = rng.standard_normal((1, 2 * CHUNK + 5, 4)).astype(np.float32)
        h, outputs, scan = np.zeros((1, 4, 4), np.complex64), [], ssm.scan_arrays(params)
        for start in range(0, x.shape[1], CHUNK):
            h, y = ssm.chunk_scan(scan, h, x[:, start : start + CHUNK])
            assert h.dtype == np.complex64 and y.dtype == np.float32
            outputs.append(y[0])
        _, expected = stepwise(params64, np.zeros((4, 4), complex), x[0].astype(float))
        np.testing.assert_allclose(np.concatenate(outputs), expected, rtol=0, atol=1e-4)

    @pytest.mark.parametrize("length", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5, CHUNK])
    def test_one_chunk_from_a_carried_state(self, length):
        """A single chunk ending inside, at and just past a block's edge."""
        rng = np.random.default_rng(400 + length)
        params = helpers.random_ssm_params(rng, 4, 8)
        self.assert_matches_stepwise(params, rng.standard_normal((length, 4)), rng)

    def test_building_a_scanner_keeps_no_power_table(self):
        """At H = N = 64 a table of A_bar^0..A_bar^512 alone would be 16.8 MB."""
        core = ssm.init_s4d_params(64, 64, seed=0)
        tracemalloc.start()
        try:
            ssm.chunk_scan(ssm.scan_arrays(core), np.zeros((1, 64, 32), complex),
                           np.zeros((1, 1, 64)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 32 * (CHUNK + 1) * 16

    def test_rejects_bad_chunks(self):
        scan = ssm.scan_arrays(ssm.init_s4d_params(3, 4, seed=0))
        h = np.zeros((1, 3, 2), complex)
        for x in (np.zeros((1, 0, 3)), np.zeros((1, CHUNK + 1, 3)), np.zeros((1, 4, 2)),
                  np.zeros((4, 3)), np.zeros((2, 4, 3))):
            with pytest.raises(ValueError):
                ssm.chunk_scan(scan, h, x)
        for state in (np.zeros((1, 3, 3), complex), np.zeros((3, 2), complex)):
            with pytest.raises(ValueError):
                ssm.chunk_scan(scan, state, np.zeros((1, 4, 3)))

    def test_a_samples_scan_does_not_depend_on_the_batch(self):
        """Each product is stacked over one sample's blocks, so a sample scanned beside
        others has the bits it has scanned alone."""
        rng = np.random.default_rng(24)
        scan = ssm.scan_arrays(helpers.random_ssm_params(rng, 4, 8))
        for length in (1, BLOCK + 3, CHUNK):
            x = rng.standard_normal((5, length, 4))
            h = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
            h_all, y_all = ssm.chunk_scan(scan, h, x)
            for i in range(5):
                h_one, y_one = ssm.chunk_scan(scan, h[i : i + 1], x[i : i + 1])
                assert y_one.tobytes() == y_all[i : i + 1].tobytes()
                assert h_one.tobytes() == np.ascontiguousarray(h_all[i : i + 1]).tobytes()


class TestDuality:
    """Streaming recurrence and FFT convolution agree on every tested shape."""

    def test_double_precision_sweep(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            channels = int(rng.integers(1, 9))
            n_state = 2 * int(rng.integers(1, 9))
            length = int(rng.integers(1, 513))
            p = helpers.random_ssm_params(rng, channels, n_state)
            x = rng.standard_normal((length, channels))
            conv = ssm.fft_causal_conv(x, ssm.compute_kernel(p, length)) + x * p["d"]
            np.testing.assert_allclose(ssm.stream_sequence(p, x), conv, rtol=0, atol=1e-9)

    def test_single_precision_relaxed(self):
        rng = np.random.default_rng(16)
        p = {k: v.astype(np.float32) for k, v in helpers.random_ssm_params(rng, 4, 8).items()}
        x = rng.standard_normal((300, 4)).astype(np.float32)
        kernel = ssm.compute_kernel(p, 300)
        assert kernel.dtype == np.float32
        conv = ssm.fft_causal_conv(x, kernel) + x * p["d"]
        streamed = ssm.stream_sequence(p, x)
        assert streamed.dtype == np.float32
        np.testing.assert_allclose(streamed, conv, rtol=0, atol=1e-4)


class TestMemo:
    """`model.memo`: every block's scan arrays, keyed on the content of a model's S4D
    leaves; it holds two models' entries."""

    @staticmethod
    def keys(n):
        """The memo keys of n models that differ in their S4D leaves."""
        return [model.memo_key(model.init_model(2, 2, 4, 2, seed=seed).params)
                for seed in range(n)]

    def test_key_is_content_shape_and_dtype(self, monkeypatch):
        builds = []
        monkeypatch.setattr(ssm, "scan_arrays", lambda p: builds.append(p) or ())
        mdl = model.init_model(3, 4, 8, 2, n_layers=2, seed=0)
        first = model.memo(model.memo_key(mdl.params))
        copied = {name: v.copy() for name, v in mdl.params.items()}
        copied["w1"] += 1.0  # not an S4D leaf
        assert model.memo(model.memo_key(copied)) is first
        assert model.memo.cache_info().hits == 1
        # each build sees its block's values, rebuilt from the key as read-only arrays
        assert len(builds) == 2
        for i, built in enumerate(builds):
            for name, v in model.block_core(mdl.params, i).items():
                np.testing.assert_array_equal(built[name], v)
                assert built[name].dtype == v.dtype and not built[name].flags.writeable
        # an in-place edit, and the same bytes as another dtype or shape, are other keys
        copied["block1.ssm.d"][0] += 1.0
        model.memo(model.memo_key(copied))
        viewed = {name: v.view(np.int64) for name, v in mdl.params.items()}
        model.memo(model.memo_key(viewed))
        flattened = {name: v.reshape(-1) for name, v in mdl.params.items()}
        model.memo(model.memo_key(flattened))
        assert model.memo.cache_info().misses == 4
        assert builds[3]["d"][0] == mdl.params["block1.ssm.d"][0] + 1.0
        assert builds[4]["a_imag"].dtype == np.int64 and builds[6]["a_imag"].shape == (16,)

    def test_bounded_and_drops_the_least_recently_used(self):
        one, two, three = self.keys(3)
        for key in (one, two, one, three):  # one is the most recent when three comes, so two goes
            model.memo(key)
        info = model.memo.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 3, 2)
        model.memo(one)
        assert model.memo.cache_info().hits == 2
        model.memo(two)
        assert model.memo.cache_info().misses == 4

    def test_threads_keep_the_bound_and_get_their_own_values(self):
        models = [model.init_model(2, 2, 4, 2, n_layers=2, seed=seed) for seed in range(4)]
        keys = [model.memo_key(mdl.params) for mdl in models]
        expected = [[ssm.scan_arrays(model.block_core(mdl.params, i)) for i in range(2)]
                    for mdl in models]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda i: model.memo(keys[i % 4]), range(200)))
        finally:
            sys.setswitchinterval(interval)
        for i, scans in enumerate(got):
            assert len(scans) == 2
            for arrays, want in zip(scans, expected[i % 4]):
                for a, b in zip(arrays, want, strict=True):
                    np.testing.assert_array_equal(a, b)
        assert model.memo.cache_info().currsize == 2

    def test_eval_stage_misses_after_an_in_place_edit(self):
        rng = np.random.default_rng(21)
        mdl = model.init_model(3, 20, 8, 3, dropout_rate=0.0, seed=21)
        x = rng.standard_normal((2, 33, 3))
        before = model.forward(x, mdl)
        mdl.params["block0.ssm.log_delta"] += 0.5
        after = model.forward(x, mdl)
        assert not np.array_equal(after, before)
        assert model.memo.cache_info().misses == 2
        # the edited scan, on the memo's arrays, against a reference that shares no code path
        (scan,) = model.memo(model.memo_key(mdl.params))
        assert model.memo.cache_info().hits == 1
        p, h = model.block_core(mdl.params, 0), rng.standard_normal((2, 33, 20))
        _, y = ssm.chunk_scan(scan, np.zeros((2, 20, 4), complex), h)
        kernel = ssm.compute_kernel(p, 33)
        np.testing.assert_allclose(y, ssm.fft_causal_conv(h, kernel) + h * p["d"],
                                   rtol=0, atol=1e-12)

    def test_scanner_misses_after_an_in_place_edit_and_keeps_its_own_arrays(self):
        rng = np.random.default_rng(22)
        mdl = model.init_model(3, 4, 8, 2, seed=22)
        original = {name: v.copy() for name, v in mdl.params.items()}
        (scan,) = model.memo(model.memo_key(mdl.params))
        kept = [a.copy() for a in scan]
        mdl.params["block0.ssm.c_re"] *= -2.0
        mdl.params["block0.ssm.d"] += 1.0
        (edited,) = model.memo(model.memo_key(mdl.params))
        assert model.memo(model.memo_key(original))[0] is scan
        for a, b in zip(scan, kept):  # the edit reached none of the kept arrays
            np.testing.assert_array_equal(a, b)
        info = model.memo.cache_info()
        assert (info.hits, info.misses) == (1, 2)
        x, h = rng.standard_normal((CHUNK, 4)), np.zeros((4, 4), complex)
        for arrays, params in ((scan, original), (edited, mdl.params)):
            _, y = ssm.chunk_scan(arrays, h[None], x[None])
            core = model.block_core(params, 0)
            np.testing.assert_allclose(y[0], stepwise(core, h, x)[1], rtol=0, atol=1e-12)


class TestS4dForward:
    """`ssm.s4d_apply` on constant Tensors: conv + feedthrough, GELU, dropout."""

    @staticmethod
    def apply(x, p, dropout_rate=0.1, seed=None):
        """Dropout runs only when a seed is given: its keep mask is drawn from
        that seed as training draws it; without one `keep` is None (eval)."""
        core = {name: ad.Tensor(v) for name, v in p.items()}
        keep = None
        if seed is not None:
            draw = np.random.default_rng(seed).random(x.shape)
            keep = (draw >= dropout_rate) / (1.0 - dropout_rate)
        return ssm.s4d_apply(ad.Tensor(x), ssm.scan_t(core), keep).data

    def test_zero_input_zero_output(self):
        p = ssm.init_s4d_params(3, 4, seed=0)
        out = self.apply(np.zeros((10, 3)), p)
        np.testing.assert_array_equal(out, np.zeros((10, 3)))

    def test_pure_feedthrough_is_gelu(self):
        p = ssm.init_s4d_params(2, 4, seed=1)
        p["c_re"][:] = 0.0
        p["c_im"][:] = 0.0
        p["d"][:] = 1.0
        rng = np.random.default_rng(17)
        x = rng.standard_normal((9, 2))
        np.testing.assert_allclose(
            self.apply(x, p), ad.gelu(ad.Tensor(x)).data, atol=1e-14
        )

    def test_eval_mode_bit_identical(self):
        # a zero rate draws nothing, so the generator's state cannot matter
        p = ssm.init_s4d_params(3, 6, seed=2)
        x = np.random.default_rng(18).standard_normal((20, 3))
        a = self.apply(x, p, dropout_rate=0.0, seed=0)
        b = self.apply(x, p, dropout_rate=0.0, seed=99)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, self.apply(x, p, dropout_rate=0.0))

    def test_no_rng_means_no_dropout(self):
        p = ssm.init_s4d_params(3, 6, seed=2)
        x = np.random.default_rng(18).standard_normal((20, 3))
        np.testing.assert_array_equal(self.apply(x, p, dropout_rate=0.5),
                                      self.apply(x, p, dropout_rate=0.0))

    def test_training_dropout_scales_and_masks(self):
        p = ssm.init_s4d_params(2, 4, seed=3)
        x = np.random.default_rng(19).standard_normal((50, 2))
        eval_out = self.apply(x, p, dropout_rate=0.5)
        train_out = self.apply(x, p, dropout_rate=0.5, seed=7)
        dropped = train_out == 0.0
        assert 0.2 < dropped.mean() < 0.8
        kept = ~dropped
        np.testing.assert_allclose(train_out[kept], 2.0 * eval_out[kept], atol=1e-12)

    def test_invalid_dropout(self):
        with pytest.raises(ValueError, match="dropout_rate"):
            model.init_model(2, 4, 4, 2, dropout_rate=1.0)

    def test_linearity_before_activation(self):
        rng = np.random.default_rng(20)
        p = helpers.random_ssm_params(rng, 3, 8)
        kernel = ssm.compute_kernel(p, 32)

        def response(x):
            return ssm.fft_causal_conv(x, kernel) + x * p["d"]

        x1 = rng.standard_normal((32, 3))
        x2 = rng.standard_normal((32, 3))
        alpha, beta = 2.5, -1.25
        np.testing.assert_allclose(
            response(alpha * x1 + beta * x2),
            alpha * response(x1) + beta * response(x2),
            rtol=0, atol=1e-10,
        )


class TestScanStage:
    """The taped stage `ssm.s4d_apply`, one node over the block scan, against the plain
    FFT convolution, and its VJP against central differences."""

    @staticmethod
    def reference(h, p):
        """GELU of the FFT convolution plus feedthrough, in float64."""
        p = {k: np.asarray(v, dtype=float) for k, v in p.items()}
        kernel = ssm.compute_kernel(p, h.shape[1])
        pre = ssm.fft_causal_conv(h.astype(float), kernel) + h * p["d"]
        return ad.gelu(ad.Tensor(pre)).data

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 511, 512, 513, 1029])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 2e-5)])
    def test_forward_equals_the_fft_convolution(self, length, batch, dtype, tol):
        """Across SCAN_BLOCK and STREAM_CHUNK edges; float32 against the float64
        convolution of the same (rounded) values."""
        rng = np.random.default_rng(length + batch)
        p = {k: v.astype(dtype) for k, v in helpers.random_ssm_params(rng, 5, 8).items()}
        h = rng.standard_normal((batch, length, 5)).astype(dtype)
        core = {k: ad.Tensor(v, requires_grad=True) for k, v in p.items()}
        out = ssm.s4d_apply(ad.Tensor(h, requires_grad=True), ssm.scan_t(core))
        assert out.requires_grad and out.dtype == dtype
        np.testing.assert_allclose(out.data, self.reference(h, p), rtol=0, atol=tol)

    def test_any_leading_axes(self):
        """An (L, H) input, or one with two leading axes, runs as the same batch."""
        rng = np.random.default_rng(60)
        p = helpers.random_ssm_params(rng, 3, 4)
        h = rng.standard_normal((2, 2, 40, 3))
        scan = ssm.scan_t({k: ad.Tensor(v, requires_grad=True) for k, v in p.items()})
        flat = ssm.s4d_apply(ad.Tensor(h.reshape(4, 40, 3)), scan).data
        np.testing.assert_array_equal(ssm.s4d_apply(ad.Tensor(h), scan).data, flat.reshape(h.shape))
        np.testing.assert_array_equal(ssm.s4d_apply(ad.Tensor(h[0, 0]), scan).data, flat[0])

    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("length", [1, 3, 4, 5, 8, 9, 13, 17])
    def test_gradients_across_block_and_chunk_edges(self, monkeypatch, length, dropout):
        """With T = 4 and chunks of 8 steps, tiny sizes cross every edge the scan has:
        a partial block, a whole chunk, a carried state and a short last chunk."""
        monkeypatch.setattr(ssm, "SCAN_BLOCK", 4)
        monkeypatch.setattr(ssm, "STREAM_CHUNK", 8)
        rng = np.random.default_rng(length)
        params = {**helpers.random_ssm_params(rng, 2, 4), "x": rng.standard_normal((2, length, 2))}
        probe = rng.standard_normal((2, length, 2))
        keep = (rng.random((2, length, 2)) >= 0.3) / 0.7 if dropout else None

        def loss(t):
            core = {k: v for k, v in t.items() if k != "x"}
            return (ssm.s4d_apply(t["x"], ssm.scan_t(core), keep) * probe).sum()

        errors = ad.finite_diff_errors(loss, params, epsilon=1e-4)
        assert max(errors.values()) <= 2e-5, errors

    def test_gradients_across_a_chunk_edge(self):
        """The real SCAN_BLOCK and STREAM_CHUNK: 545 steps are a whole chunk, then a
        whole block and a partial one."""
        rng = np.random.default_rng(61)
        params = {**helpers.random_ssm_params(rng, 1, 2), "x": rng.standard_normal((1, 545, 1))}
        probe = rng.standard_normal((1, 545, 1))

        def loss(t):
            core = {k: v for k, v in t.items() if k != "x"}
            return (ssm.s4d_apply(t["x"], ssm.scan_t(core)) * probe).sum()

        errors = ad.finite_diff_errors(loss, params, epsilon=1e-4)
        assert max(errors.values()) <= 2e-5, errors


class TestKernelCsv:
    def test_full_precision_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        p = helpers.random_ssm_params(rng, 3, 4)
        kernel = ssm.compute_kernel(p, 17)
        path = tmp_path / "k.csv"
        ssm.write_kernel_csv(kernel, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 17
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
        np.testing.assert_array_equal(parsed, kernel)

    def test_exact_text(self, tmp_path):
        path = tmp_path / "k.csv"
        ssm.write_kernel_csv(np.array([[-0.0, 5e-324], [1e308, 0.1]]), path)
        assert path.read_text() == "-0.0,5e-324\n1e+308,0.1\n"
