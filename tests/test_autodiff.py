"""Gradient engine tests: every primitive against central differences, the
classic closed-form cases, and the detector sanity checks."""

import numpy as np
import pytest

from ms4 import autodiff as ad

import helpers


def fd_check(loss_fn, params, epsilon=1e-5, analytic=None):
    """Max relative error over all parameter groups (see finite_diff_errors)."""
    return max(ad.finite_diff_errors(loss_fn, params, epsilon, analytic).values())


def test_exports_exist():
    assert [name for name in ad.__all__ if not hasattr(ad, name)] == []


class TestPrimitiveAdjoints:
    """Each primitive's adjoint individually passes finite differences."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def _real(self, *shape):
        return self.rng.standard_normal(shape)

    def _cplx(self, *shape):
        return self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)

    @pytest.mark.parametrize(
        "expr",
        [
            lambda p: (p["a"] + p["b"] * 2.0).sum(),
            lambda p: (p["a"] - p["b"]).sum(),
            lambda p: (p["a"] * p["b"]).sum(),
            lambda p: (p["a"] / (p["b"] * p["b"] + 1.5)).sum(),
            lambda p: (-p["a"] + 3.0 / (p["b"] + 4.0)).sum(),
        ],
        ids=["add", "sub", "mul", "div", "neg-rdiv"],
    )
    def test_arithmetic(self, expr):
        params = {"a": self._real(3, 4), "b": self._real(3, 4)}
        assert fd_check(expr, params) < 1e-6

    def test_broadcasting(self):
        params = {"a": self._real(2, 3, 4), "b": self._real(4), "c": self._real(3, 1)}
        loss = lambda p: (p["a"] * p["b"] + p["c"]).sum()
        assert fd_check(loss, params) < 1e-6

    @pytest.mark.parametrize(
        "x_shape, w_shape, dtype",
        [((2, 5, 3), (3, 4), float), ((3, 4, 2), (3, 2, 5), complex)],
        ids=["real", "complex-batched"],
    )
    def test_matmul(self, x_shape, w_shape, dtype):
        make = self._real if dtype is float else self._cplx
        params = {"x": make(*x_shape), "w": make(*w_shape)}
        loss = lambda p: ad.real((p["x"] @ p["w"]) * (p["x"] @ p["w"])).sum()
        assert fd_check(loss, params) < 1e-6

    def test_getitem_and_reshape(self):
        params = {"x": self._real(4, 6)}
        loss = lambda p: (
            p["x"][1:3, ::2] * p["x"][0:2, 1::2] * p["x"][:3, :2].swapaxes(0, 1)
        ).reshape(-1).sum()
        assert fd_check(loss, params) < 1e-6

    def test_reductions(self):
        params = {"x": self._real(3, 5)}
        loss = lambda p: (p["x"].mean(axis=0) * p["x"].sum(axis=0, keepdims=True)).sum()
        assert fd_check(loss, params) < 1e-6

    @pytest.mark.parametrize(
        "fn",
        [ad.exp, ad.log, ad.sqrt, ad.sigmoid, ad.gelu],
        ids=["exp", "log", "sqrt", "sigmoid", "gelu"],
    )
    def test_elementwise_real(self, fn):
        params = {"x": np.abs(self._real(3, 4)) + 0.5}
        loss = lambda p: (fn(p["x"]) * fn(p["x"])).sum()
        assert fd_check(loss, params) < 1e-6

    def test_complex_exp_mul_div(self):
        params = {"z": self._cplx(3, 4), "w": self._cplx(3, 4)}

        def loss(p):
            val = ad.exp(p["z"] * 0.3) * p["w"] / (p["z"] + 3.0)
            return ad.real(val).sum()

        assert fd_check(loss, params) < 1e-6

    def test_make_complex_real_roundabout(self):
        params = {"re": self._real(2, 3), "im": self._real(2, 3)}

        def loss(p):
            z = ad.make_complex(p["re"], p["im"])
            return ad.real(z * z * ad.make_complex(p["im"], p["re"])).sum()

        assert fd_check(loss, params) < 1e-6

    def test_causal_conv(self):
        # a batched x against one shared kernel exercises the summed kernel adjoint
        params = {"x": self._real(2, 6, 2), "k": self._real(6, 2)}

        def loss(p):
            out = ad.causal_conv(p["x"], p["k"], 16)
            return (out * out).sum()

        assert fd_check(loss, params) < 1e-6
        with pytest.raises(ValueError, match="2L-1"):
            ad.causal_conv(params["x"], params["k"], 10)


class TestAffine:
    """`ad.affine(x, w, b)` is `x @ w + b` in one node, with the same bits."""

    @pytest.mark.parametrize(
        "x_shape, b_shape, dtypes",
        [
            ((2, 5, 3), (4,), (np.float64, np.float64, np.float64)),
            ((2, 5, 3), (4,), (np.float32, np.float32, np.float32)),
            ((2, 5, 3), (4,), (np.float32, np.float32, np.float64)),  # the bias promotes
            ((5, 3), (5, 4), (np.float64, np.float64, np.float64)),
            ((2, 5, 3), (2, 1, 1, 4), (np.float64, np.float64, np.float64)),  # b widens the output
            ((2, 5, 3), (4,), (np.float64, np.float64, np.complex128)),
        ],
        ids=["f64", "f32", "f32-f64-bias", "matrix-bias", "broadcast-bias", "complex-bias"],
    )
    def test_equals_matmul_plus_bias(self, x_shape, b_shape, dtypes):
        rng = np.random.default_rng(60)
        shapes = (x_shape, (3, 4), b_shape)
        arrays = [rng.standard_normal(s).astype(dt) for s, dt in zip(shapes, dtypes)]
        if np.iscomplexobj(arrays[2]):
            arrays[2] = arrays[2] + 1j * rng.standard_normal(b_shape)
        before = [a.copy() for a in arrays]
        runs = []
        for fn in (ad.affine, lambda x, w, b: x @ w + b):
            leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*leaves)
            loss = ad.real(out * out).sum()
            grads = ad.gradients(loss, dict(enumerate(leaves)))
            runs.append((out.data, grads))
        (out, grads), (out_ref, grads_ref) = runs
        assert out.dtype == out_ref.dtype
        np.testing.assert_array_equal(out, out_ref)
        for i in range(3):
            assert grads[i].dtype == grads_ref[i].dtype
            np.testing.assert_array_equal(grads[i], grads_ref[i])
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(61)
        params = {"x": rng.standard_normal((2, 5, 3)), "w": rng.standard_normal((3, 4)),
                  "b": rng.standard_normal(4)}

        def loss(p):
            out = ad.affine(p["x"], p["w"], p["b"])
            return (out * out).sum()

        assert fd_check(loss, params) < 1e-6

    def test_one_node_and_shape_check(self):
        x = ad.Tensor(np.ones((4, 3)), requires_grad=True)
        out = ad.affine(x, np.ones((3, 2)), np.ones(2))
        assert out._parents[0] is x and len(out._parents) == 3
        np.testing.assert_array_equal(out.data, np.full((4, 2), 4.0))
        with pytest.raises(ValueError, match="unsupported matmul"):
            ad.affine(np.ones(3), np.ones((3, 2)), np.ones(2))


class TestSpectrumKernel:
    def test_spectrum_equals_kernel_and_takes_no_gradient(self):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.standard_normal((2, 6, 3)), requires_grad=True)
        k = rng.standard_normal((6, 3))
        out = ad.causal_conv(x, k, 16)
        spectral = ad.causal_conv(x, np.fft.rfft(k, n=16, axis=0), 16)
        np.testing.assert_array_equal(spectral.data, out.data)
        assert spectral._parents == (x,)
        probe = rng.standard_normal(out.shape)
        grads = [ad.gradients((y * probe).sum(), {"x": x})["x"] for y in (out, spectral)]
        np.testing.assert_array_equal(grads[1], grads[0])


class TestBackwardContract:
    def test_second_call_on_a_graph_raises(self):
        x = ad.Tensor(np.arange(3.0), requires_grad=True)
        loss = (x * x).sum()
        np.testing.assert_array_equal(ad.gradients(loss, {"x": x})["x"], 2.0 * x.data)
        with pytest.raises(ValueError, match="already differentiated"):
            ad.gradients(loss, {"x": x})

    def test_each_vjp_is_dropped_once_it_has_run(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        inner = ad.exp(x)
        loss = (inner * 2.0).sum()
        assert inner._vjp is not None and loss._vjp is not None
        ad.gradients(loss, {"x": x})
        assert inner._vjp is None and loss._vjp is None
        assert inner._parents == (x,)  # the graph's shape and values stay
        np.testing.assert_array_equal(inner.data, np.exp(1.0))

    def test_sum_gradient_is_ones(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grad = ad.gradients(x.sum(), {"x": x})["x"]
        np.testing.assert_array_equal(grad, np.ones((2, 3)))

    def test_half_square_norm_gradient_is_x(self):
        data = np.random.default_rng(0).standard_normal((4, 3))
        x = ad.Tensor(data, requires_grad=True)
        grad = ad.gradients(0.5 * (x * x).sum(), {"x": x})["x"]
        np.testing.assert_allclose(grad, data, rtol=0, atol=1e-15)

    def test_non_scalar_root_rejected(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.gradients(x * 2.0, {"x": x})

    def test_fanin_accumulation(self):
        x = ad.Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x * 2.0  # dy/dx = 2x + 2
        assert ad.gradients(y, {"x": x})["x"] == pytest.approx(8.0)

    def test_unused_leaf_gets_zeros(self):
        leaves = {
            "used": ad.Tensor(np.ones(2), requires_grad=True),
            "unused": ad.Tensor(np.ones(3), requires_grad=True),
        }
        grads = ad.gradients(leaves["used"].sum(), leaves)
        np.testing.assert_array_equal(grads["unused"], np.zeros(3))

    def test_no_graph_without_requires_grad(self):
        a = ad.Tensor(np.ones(4))
        out = ad.gelu(a * 2.0 + 1.0)
        assert out._parents == () and not out.requires_grad

    def test_complex_leaf_gradient_layout(self):
        # d/dRe and d/dIm of Re(z^2) at z = x+iy are (2x, -2y)
        z0 = np.array([1.5 + 0.5j])
        z = ad.Tensor(z0, requires_grad=True)
        grad = ad.gradients(ad.real(z * z).sum(), {"z": z})["z"]
        assert grad[0].real == pytest.approx(2 * z0[0].real)
        assert grad[0].imag == pytest.approx(-2 * z0[0].imag)

    def test_loss_without_gradient_gives_zeros(self):
        leaves = {"a": ad.Tensor(np.ones(2)), "b": ad.Tensor(np.ones((2, 3)))}
        grads = ad.gradients((leaves["a"] * 2.0).sum(), leaves)
        assert list(grads) == ["a", "b"]
        np.testing.assert_array_equal(grads["a"], np.zeros(2))
        np.testing.assert_array_equal(grads["b"], np.zeros((2, 3)))


class TestOperandRules:
    """What every arithmetic operator keeps: scalars do not promote, and only
    Tensor operands enter the graph."""

    scalar_ops = pytest.mark.parametrize(
        "op",
        [lambda t: t + 2.5, lambda t: 2.5 + t, lambda t: t - 2.5, lambda t: 2.5 - t,
         lambda t: t * 2.5, lambda t: 2.5 * t, lambda t: t / 2.5, lambda t: 2.5 / t],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul", "div", "rdiv"],
    )

    @scalar_ops
    def test_python_float_keeps_float32(self, op):
        x = ad.Tensor(np.linspace(1.0, 2.0, 6, dtype=np.float32), requires_grad=True)
        assert op(x).dtype == np.float32

    @scalar_ops
    def test_python_float_keeps_float32_gradients(self, op):
        """A float32 loss seeds a float32 backward, and neither a python scalar
        operand nor `mean`'s 1/n promotes it."""
        x = ad.Tensor(np.linspace(1.0, 2.0, 6, dtype=np.float32), requires_grad=True)
        loss = op(x).mean()
        assert loss.dtype == np.float32
        assert ad.gradients(loss, {"x": x})["x"].dtype == np.float32

    def test_complex64_real_part_keeps_complex64_gradients(self):
        z = ad.Tensor(np.array([1.5 + 0.5j], dtype=np.complex64), requires_grad=True)
        grad = ad.gradients(ad.real(z * (2.0 + 1.0j)).sum(), {"z": z})["z"]
        assert grad.dtype == np.complex64
        np.testing.assert_array_equal(grad, np.array([2.0 - 1.0j], dtype=np.complex64))

    @pytest.mark.parametrize(
        "op",
        [lambda t, c: t + c, lambda t, c: c + t, lambda t, c: t - c, lambda t, c: c - t,
         lambda t, c: t * c, lambda t, c: c * t, lambda t, c: t / c, lambda t, c: c / t],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul", "div", "rdiv"],
    )
    def test_ndarray_operand_is_never_a_parent(self, op):
        x = ad.Tensor(np.array([1.0, 2.0, 4.0]), requires_grad=True)
        c = np.array([0.5, 3.0, -2.0])
        out = op(x, c)
        assert all(isinstance(p, ad.Tensor) for p in out._parents)
        assert not any(p.data is c for p in out._parents)
        grad = ad.gradients(out.sum(), {"x": x})["x"]
        shift = lambda h: op(ad.Tensor(x.data + h), c).data
        numeric = (shift(1e-6) - shift(-1e-6)) / 2e-6
        np.testing.assert_allclose(grad, numeric, rtol=1e-6)

    def test_ndarray_matmul_tensor_raises(self):
        x = ad.Tensor(np.eye(2), requires_grad=True)
        with pytest.raises(TypeError):
            np.ones((2, 2)) @ x


class TestFiniteDifferenceVerifier:
    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(7)
        params = {"x": rng.standard_normal((3, 3))}
        loss = lambda p: (p["x"] * p["x"]).sum() * 0.5 + (p["x"] * 3.0).sum()
        assert fd_check(loss, params, epsilon=1e-4) < 1e-10

    def test_gelu_chain(self):
        rng = np.random.default_rng(8)
        params = {"x": rng.standard_normal((2, 5))}
        loss = lambda p: ad.gelu(ad.gelu(p["x"]) * 1.7).sum()
        assert fd_check(loss, params, epsilon=1e-5) < 1e-6

    def test_corrupted_adjoint_detected(self):
        rng = np.random.default_rng(9)
        params = {"x": rng.standard_normal(4) + 2.0}
        loss = lambda p: (p["x"] * p["x"]).sum()
        doubled = {"x": 4.0 * params["x"]}  # true gradient is 2x
        err = fd_check(loss, params, epsilon=1e-5, analytic=doubled)
        assert err == pytest.approx(0.5, abs=1e-3)

    def test_nan_gradient_is_worst_error(self):
        # max(0.0, nan) is 0.0, so a NaN error must be mapped before the max
        params = {"w": np.ones(2)}
        loss = lambda p: (p["w"] * p["w"]).sum()
        report = ad.finite_diff_errors(loss, params, analytic={"w": [np.nan, np.nan]})
        assert report == {"w": np.inf}

    def test_per_group_report(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        loss = lambda p: (p["a"] * 2.0).sum() + (p["b"] * p["b"]).sum()
        report = ad.finite_diff_errors(loss, params, epsilon=1e-5)
        assert set(report) == {"a", "b"}
        assert max(report.values()) < 1e-8


class TestGelu:
    def test_matches_error_function_form(self):
        from scipy.special import erf

        x = np.linspace(-4, 4, 101)
        expected = x * 0.5 * (1 + erf(x / np.sqrt(2)))
        np.testing.assert_allclose(ad.gelu(ad.Tensor(x)).data, expected, atol=1e-15)

    def test_tanh_approximation_is_detectably_different(self):
        # tolerance 1e-6 in the correctness tests exists to catch this swap
        x = np.linspace(-4, 4, 101)
        tanh_form = 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))
        gap = np.abs(ad.gelu(ad.Tensor(x)).data - tanh_form).max()
        assert gap > 1e-6


class TestConvolutionGradientAgreement:
    """The FFT path's gradients equal the double-loop gradients (<= 1e-9)."""

    def test_fft_conv_gradient_vs_naive(self):
        from ms4 import ssm

        rng = np.random.default_rng(11)
        x0 = rng.standard_normal((12, 3))
        k0 = rng.standard_normal((12, 3))
        probe = rng.standard_normal((12, 3))

        x = ad.Tensor(x0, requires_grad=True)
        k = ad.Tensor(k0, requires_grad=True)
        grads = ad.gradients((ssm.causal_conv_t(x, k) * probe).sum(), {"x": x, "k": k})
        gx_naive, gk_naive = helpers.naive_conv_grads(x0, k0, probe)
        np.testing.assert_allclose(grads["x"], gx_naive, rtol=0, atol=1e-9)
        np.testing.assert_allclose(grads["k"], gk_naive, rtol=0, atol=1e-9)
