"""SSM layer tests: initialization, discretization, kernel, convolution, and
the convolution/recurrence duality, each against an independent oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ms4 import autodiff as ad
from ms4 import ssm

import helpers


class TestInit:
    def test_eigenvalue_formula(self):
        p = ssm.init_s4d_params(1, 4, seed=0)
        np.testing.assert_allclose(p.log_a_real, np.log(0.5))
        np.testing.assert_allclose(p.a_imag[0], [0.0, np.pi])

    def test_channels_share_eigenvalues_at_init(self):
        p = ssm.init_s4d_params(3, 2, seed=5)
        assert (p.lam == p.lam[0]).all()
        np.testing.assert_allclose(p.lam[0], [-0.5 + 0.0j])

    def test_b_d_unit_and_c_seeded_normal(self):
        p = ssm.init_s4d_params(4, 6, seed=1)
        np.testing.assert_array_equal(p.b, np.ones((4, 3), dtype=complex))
        np.testing.assert_array_equal(p.d, np.ones(4))
        assert p.c_re.std() > 0.1

    def test_log_delta_within_bounds(self):
        p = ssm.init_s4d_params(64, 4, dt_min=1e-3, dt_max=1e-1, seed=3)
        assert (p.log_delta >= np.log(1e-3)).all() and (p.log_delta < np.log(1e-1)).all()

    def test_same_seed_bit_identical(self):
        a = ssm.init_s4d_params(5, 8, seed=11)
        b = ssm.init_s4d_params(5, 8, seed=11)
        for name in ssm.SSM_LEAF_NAMES:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_channels": 0, "n_state": 4},
            {"n_channels": 2, "n_state": 5},
            {"n_channels": 2, "n_state": 0},
            {"n_channels": 2, "n_state": 4, "dt_min": 0.1, "dt_max": 0.1},
            {"n_channels": 2, "n_state": 4, "dt_min": -1.0, "dt_max": 0.1},
        ],
    )
    def test_parameter_errors(self, kwargs):
        with pytest.raises(ValueError):
            ssm.init_s4d_params(**kwargs)


def _explicit_params(lam, delta, b=1.0 + 0.0j, c=1.0 + 0.0j):
    """Single-channel single-mode bundle with exact eigenvalue and step."""
    return ssm.SsmParams(
        log_a_real=np.log(-np.array([[lam.real]])),
        a_imag=np.array([[lam.imag]]),
        b_re=np.array([[b.real]]),
        b_im=np.array([[b.imag]]),
        c_re=np.array([[c.real]]),
        c_im=np.array([[c.imag]]),
        d=np.zeros(1),
        log_delta=np.log(np.array([delta])),
    )


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
            q = p.__class__(**{**p.__dict__, "log_delta": np.full(3, np.log(delta))})
            _, b_bar = ssm.zoh_discretize(q)
            norms[delta] = np.linalg.norm(b_bar - delta * q.b)
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
        p.c_re[:] = 0.0
        p.c_im[:] = 0.0
        for length in (1, 5, 33):
            np.testing.assert_array_equal(ssm.compute_kernel(p, length), np.zeros((length, 3)))

    def test_length_one_head(self):
        rng = np.random.default_rng(4)
        p = helpers.random_ssm_params(rng, 2, 6)
        _, b_bar = ssm.zoh_discretize(p)
        expected = 2.0 * (p.c * b_bar).sum(axis=-1).real
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
            envelope = (2.0 * np.abs(p.c * b_bar) * np.abs(a_bar) ** k).sum(axis=-1)
            assert (np.abs(kernel) <= envelope + 1e-12).all()

    def test_per_mode_geometric_decay(self):
        rng = np.random.default_rng(8)
        p = helpers.random_ssm_params(rng, 2, 6)
        a_bar, b_bar = ssm.zoh_discretize(p)
        k = np.arange(32)[:, None, None]
        per_mode = np.abs(p.c * b_bar) * np.abs(a_bar) ** k
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
        state = ssm.StreamState.for_params(p)
        new_state, y = ssm.recurrent_step(state, np.zeros(3), a_bar, b_bar, p.c, p.d)
        np.testing.assert_array_equal(new_state.h, np.zeros_like(state.h))
        np.testing.assert_array_equal(y, np.zeros(3))

    def test_first_step_equals_kernel_head_plus_feedthrough(self):
        rng = np.random.default_rng(13)
        p = helpers.random_ssm_params(rng, 4, 8)
        a_bar, b_bar = ssm.zoh_discretize(p)
        x0 = rng.standard_normal(4)
        _, y0 = ssm.recurrent_step(ssm.StreamState.for_params(p), x0, a_bar, b_bar, p.c, p.d)
        expected = (ssm.compute_kernel(p, 1)[0] + p.d) * x0
        np.testing.assert_allclose(y0, expected, atol=1e-12)

    def test_shape_mismatch(self):
        p = ssm.init_s4d_params(3, 4, seed=0)
        a_bar, b_bar = ssm.zoh_discretize(p)
        with pytest.raises(ValueError):
            ssm.recurrent_step(ssm.StreamState.zeros(2, 2), np.zeros(3), a_bar, b_bar, p.c, p.d)

    def test_stream_equals_conv_plus_feedthrough(self):
        rng = np.random.default_rng(14)
        p = helpers.random_ssm_params(rng, 4, 8)
        x = rng.standard_normal((256, 4))
        streamed = ssm.stream_sequence(p, x)
        batch = ssm.fft_causal_conv(x, ssm.compute_kernel(p, 256)) + x * p.d
        np.testing.assert_allclose(streamed, batch, rtol=0, atol=1e-9)


CHUNK = 16


def stepwise(params, state, x):
    """Reference for `chunk_scanner`: one `recurrent_step` per row of x."""
    a_bar, b_bar = ssm.zoh_discretize(params)
    out = np.empty_like(x)
    for k in range(x.shape[0]):
        state, out[k] = ssm.recurrent_step(state, x[k], a_bar, b_bar, params.c, params.d)
    return state, out


class TestChunkScanner:
    """Chunked carried-state streaming against the per-step recurrence."""

    def assert_matches_stepwise(self, params, x, rng):
        state = ssm.StreamState(
            rng.standard_normal(params.c.shape) + 1j * rng.standard_normal(params.c.shape)
        )
        expected_state, expected = stepwise(params, state, x)
        scan = ssm.chunk_scanner(params, CHUNK)
        outputs = []
        for start in range(0, x.shape[0], CHUNK):
            state, y = scan(state, x[start : start + CHUNK])
            outputs.append(y)
        np.testing.assert_allclose(np.concatenate(outputs), expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.h, expected_state.h, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("length", [1, CHUNK - 1, CHUNK, 3 * CHUNK + 5])
    def test_matches_recurrent_steps(self, length):
        rng = np.random.default_rng(length)
        params = helpers.random_ssm_params(rng, 4, 8)
        self.assert_matches_stepwise(params, rng.standard_normal((length, 4)), rng)

    @pytest.mark.parametrize("length", [1, CHUNK - 1, CHUNK, 3 * CHUNK + 5])
    def test_fast_decay_underflows_cleanly(self, length):
        rng = np.random.default_rng(100 + length)
        params = helpers.random_ssm_params(rng, 4, 8)
        params.log_delta[:] = np.log(1e3)  # delta = 1000, so A_bar^CHUNK underflows to 0
        assert np.abs(ssm.zoh_discretize(params)[0] ** CHUNK).max() == 0.0
        self.assert_matches_stepwise(params, rng.standard_normal((length, 4)), rng)

    def test_rejects_bad_chunks(self):
        params = ssm.init_s4d_params(3, 4, seed=0)
        scan = ssm.chunk_scanner(params, CHUNK)
        state = ssm.StreamState.for_params(params)
        for x in (np.zeros((0, 3)), np.zeros((CHUNK + 1, 3)), np.zeros((4, 2))):
            with pytest.raises(ValueError):
                scan(state, x)
        with pytest.raises(ValueError):
            ssm.chunk_scanner(params, 0)


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
            conv = ssm.fft_causal_conv(x, ssm.compute_kernel(p, length)) + x * p.d
            np.testing.assert_allclose(ssm.stream_sequence(p, x), conv, rtol=0, atol=1e-9)

    def test_single_precision_relaxed(self):
        rng = np.random.default_rng(16)
        p = helpers.random_ssm_params(rng, 4, 8).astype(np.float32)
        x = rng.standard_normal((300, 4)).astype(np.float32)
        kernel = ssm.compute_kernel(p, 300)
        assert kernel.dtype == np.float32
        conv = ssm.fft_causal_conv(x, kernel) + x * p.d
        streamed = ssm.stream_sequence(p, x)
        assert streamed.dtype == np.float32
        np.testing.assert_allclose(streamed, conv, rtol=0, atol=1e-4)


class TestS4dForward:
    def test_zero_input_zero_output(self):
        p = ssm.init_s4d_params(3, 4, seed=0)
        out = ssm.s4d_forward(np.zeros((10, 3)), p)
        np.testing.assert_array_equal(out, np.zeros((10, 3)))

    def test_pure_feedthrough_is_gelu(self):
        p = ssm.init_s4d_params(2, 4, seed=1)
        p.c_re[:] = 0.0
        p.c_im[:] = 0.0
        p.d[:] = 1.0
        rng = np.random.default_rng(17)
        x = rng.standard_normal((9, 2))
        np.testing.assert_allclose(
            ssm.s4d_forward(x, p), ad.gelu(ad.Tensor(x)).data, atol=1e-14
        )

    def test_eval_mode_bit_identical(self):
        p = ssm.init_s4d_params(3, 6, seed=2)
        x = np.random.default_rng(18).standard_normal((20, 3))
        a = ssm.s4d_forward(x, p, dropout_rate=0.5, training=False, seed=0)
        b = ssm.s4d_forward(x, p, dropout_rate=0.5, training=False, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_training_dropout_scales_and_masks(self):
        p = ssm.init_s4d_params(2, 4, seed=3)
        x = np.random.default_rng(19).standard_normal((50, 2))
        eval_out = ssm.s4d_forward(x, p, dropout_rate=0.5, training=False)
        train_out = ssm.s4d_forward(x, p, dropout_rate=0.5, training=True, seed=7)
        dropped = train_out == 0.0
        assert 0.2 < dropped.mean() < 0.8
        kept = ~dropped
        np.testing.assert_allclose(train_out[kept], 2.0 * eval_out[kept], atol=1e-12)

    def test_invalid_dropout(self):
        p = ssm.init_s4d_params(2, 4, seed=0)
        with pytest.raises(ValueError):
            ssm.s4d_forward(np.zeros((4, 2)), p, dropout_rate=1.0)

    def test_linearity_before_activation(self):
        rng = np.random.default_rng(20)
        p = helpers.random_ssm_params(rng, 3, 8)
        kernel = ssm.compute_kernel(p, 32)

        def response(x):
            return ssm.fft_causal_conv(x, kernel) + x * p.d

        x1 = rng.standard_normal((32, 3))
        x2 = rng.standard_normal((32, 3))
        alpha, beta = 2.5, -1.25
        np.testing.assert_allclose(
            response(alpha * x1 + beta * x2),
            alpha * response(x1) + beta * response(x2),
            rtol=0, atol=1e-10,
        )


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
