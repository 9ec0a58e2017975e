"""Diagonal state-space layer: parameterization, discretization, kernel, duality.

Each of the H channels carries N/2 complex modes; the other half of the
N-dimensional state is the implicit conjugate pair, so real outputs are
recovered as 2*Re(sum over modes). Eigenvalues are stored as
lambda = -exp(log_a_real) + i*a_imag, which keeps Re(lambda) < 0 (and hence
|exp(delta*lambda)| < 1) for every parameter value an optimizer can reach.

The layer has two equivalent execution forms:

* convolution: materialize the impulse response K[k] = 2*Re(C A_bar^k B_bar)
  and convolve causally via padded real FFTs (training / batch scoring), and
* recurrence: h' = A_bar h + B_bar x, y = 2*Re(C h') + D x, one step at a
  time with state of size H x N/2 regardless of sequence length.

Streaming mixes the two (`chunk_scanner`): a chunk of t <= T steps entered
with carried state h0 is the convolution with K[:t] plus the feedthrough
plus the carried term 2*Re(sum_n C A_bar^(k+1) h0), and leaves the state
A_bar^t h0 + sum_j A_bar^(t-1-j) B_bar x_j. All factors come from one
(H, N/2, T+1) table of A_bar powers, so each chunk is one convolution and
two batched products, and memory stays independent of the sequence length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad

SSM_LEAF_NAMES = ("log_a_real", "a_imag", "b_re", "b_im", "c_re", "c_im", "d", "log_delta")


@dataclass
class SsmParams:
    """Trainable bundle for one diagonal SSM layer (all arrays real-valued).

    Complex quantities are stored as real/imaginary pairs: the input matrix B
    as (b_re, b_im), the output matrix C as (c_re, c_im). Shapes are
    (H, N/2) for per-mode arrays and (H,) for the feedthrough gain `d` and
    the per-channel log step size `log_delta`.
    """

    log_a_real: np.ndarray
    a_imag: np.ndarray
    b_re: np.ndarray
    b_im: np.ndarray
    c_re: np.ndarray
    c_im: np.ndarray
    d: np.ndarray
    log_delta: np.ndarray

    @property
    def n_channels(self):
        return self.log_a_real.shape[0]

    @property
    def n_modes(self):
        return self.log_a_real.shape[1]

    @property
    def n_state(self):
        return 2 * self.n_modes

    @property
    def lam(self):
        """Complex eigenvalues, Re < 0 by construction."""
        return -np.exp(self.log_a_real) + 1j * self.a_imag

    @property
    def b(self):
        return self.b_re + 1j * self.b_im

    @property
    def c(self):
        return self.c_re + 1j * self.c_im

    def leaves(self, prefix=""):
        return {prefix + name: getattr(self, name) for name in SSM_LEAF_NAMES}

    def with_leaves(self, leaves, prefix=""):
        return replace(self, **{name: np.asarray(leaves[prefix + name]) for name in SSM_LEAF_NAMES})

    def astype(self, dtype):
        """Copy with every array cast to a real dtype (e.g. float32)."""
        return replace(self, **{name: getattr(self, name).astype(dtype) for name in SSM_LEAF_NAMES})


@dataclass
class StreamState:
    """Per-channel complex hidden state; size depends only on (H, N)."""

    h: np.ndarray

    @classmethod
    def zeros(cls, n_channels, n_modes, dtype=np.complex128):
        return cls(np.zeros((n_channels, n_modes), dtype=dtype))

    @classmethod
    def for_params(cls, params):
        cdtype = np.result_type(params.log_a_real.dtype, np.complex64)
        return cls.zeros(params.n_channels, params.n_modes, dtype=cdtype)


def init_s4d_params(n_channels, n_state, dt_min=1e-3, dt_max=1e-1, seed=0):
    """HiPPO-flavored diagonal initialization lambda_n = -1/2 + i*pi*n.

    All channels start from the same eigenvalues; B = 1, D = 1, C is drawn
    from a seeded standard normal (real and imaginary parts), and log(delta)
    is log-uniform in [log dt_min, log dt_max) per channel.
    """
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    if n_state < 2 or n_state % 2 != 0:
        raise ValueError(f"n_state must be a positive even integer, got {n_state}")
    if not (0.0 < dt_min < dt_max):
        raise ValueError(f"need 0 < dt_min < dt_max, got dt_min={dt_min}, dt_max={dt_max}")
    n_modes = n_state // 2
    rng = np.random.default_rng(seed)
    shape = (n_channels, n_modes)
    log_delta = rng.uniform(np.log(dt_min), np.log(dt_max), size=n_channels)
    return SsmParams(
        log_a_real=np.full(shape, np.log(0.5)),
        a_imag=np.broadcast_to(np.pi * np.arange(n_modes), shape).copy(),
        b_re=np.ones(shape),
        b_im=np.zeros(shape),
        c_re=rng.standard_normal(shape),
        c_im=rng.standard_normal(shape),
        d=np.ones(n_channels),
        log_delta=log_delta,
    )


# -- differentiable core -------------------------------------------------------


def discretize_t(p):
    """Zero-order-hold map to (A_bar, B_bar); also returns the rate delta*lambda.

    A_bar = exp(delta * lambda) and B_bar = lambda^-1 (A_bar - 1) B, applied
    elementwise; lambda != 0 is guaranteed by Re(lambda) < 0.
    """
    lam = ad.make_complex(-ad.exp(p["log_a_real"]), p["a_imag"])
    delta = ad.exp(p["log_delta"]).reshape(-1, 1)
    rate = lam * delta
    a_bar = ad.exp(rate)
    b_bar = (a_bar - 1.0) / lam * ad.make_complex(p["b_re"], p["b_im"])
    return a_bar, b_bar, rate


def kernel_t(p, length):
    """Materialized convolution kernel K[k, h] = 2*Re(sum_n C A_bar^k B_bar).

    With k = q*c + r and c = isqrt(length), A_bar^k = A_bar^(q*c) A_bar^r, so
    each of the H channels' kernels is one (nq, N/2) @ (N/2, c) product of
    giant steps and C*B_bar-weighted baby steps; no (L, H, N/2) power table
    is formed.
    """
    _, b_bar, rate = discretize_t(p)
    weight = ad.make_complex(p["c_re"], p["c_im"]) * b_bar
    h, m = rate.shape
    c = math.isqrt(length)
    nq = -(-length // c)
    rdtype = rate.data.real.dtype
    baby = ad.exp(rate.reshape(h, m, 1) * np.arange(c, dtype=rdtype)) * weight.reshape(h, m, 1)
    giant = ad.exp(rate.reshape(h, 1, m) * np.arange(0, nq * c, c, dtype=rdtype).reshape(-1, 1))
    k = (giant @ baby).reshape(h, nq * c)[:, :length]
    return 2.0 * ad.real(k).swapaxes(0, 1)


def causal_conv_t(x, kernel):
    """Linear causal convolution per channel via FFTs padded past 2L-1.

    x is (..., L, H) and the kernel (L, H); padding to the next power of two
    at or above 2L-1 rules out circular wraparound, so the first L outputs
    equal the direct sum y[k] = sum_{j<=k} K[j] x[k-j].
    """
    return ad.causal_conv(x, kernel, _next_pow2(2 * kernel.shape[-2] - 1))


def s4d_apply(x, p, dropout_rate, training, rng):
    """Full S4D stage on a projected input: conv + feedthrough, GELU, dropout."""
    length = x.shape[-2]
    y = causal_conv_t(x, kernel_t(p, length)) + x * p["d"]
    y = ad.gelu(y)
    if training and dropout_rate > 0.0:
        keep = (rng.random(y.shape) >= dropout_rate).astype(y.dtype)
        y = y * (keep / (1.0 - dropout_rate))
    return y


def _next_pow2(n):
    return 1 << max(0, (int(n) - 1).bit_length())


def _constants(params):
    return {name: ad.Tensor(getattr(params, name)) for name in SSM_LEAF_NAMES}


# -- plain-array surface -------------------------------------------------------


def zoh_discretize(params):
    """Discrete (A_bar, B_bar) arrays for a parameter bundle; all |A_bar| < 1."""
    a_bar, b_bar, _ = discretize_t(_constants(params))
    return a_bar.data, b_bar.data


def compute_kernel(params, length):
    """Kernel matrix of shape (length, H); finite for any valid bundle."""
    if length < 1:
        raise ValueError(f"kernel length must be >= 1, got {length}")
    return kernel_t(_constants(params), length).data


def fft_causal_conv(x, kernel):
    """Causal convolution y[k, h] = sum_{j<=k} K[j, h] x[k-j, h]."""
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.shape[-2:] != kernel.shape:
        raise ValueError(f"input {x.shape} does not match kernel {kernel.shape}")
    return causal_conv_t(ad.Tensor(x), ad.Tensor(kernel)).data


def recurrent_step(state, x_k, a_bar, b_bar, c, d):
    """One streaming update; cost independent of how many steps came before."""
    x_k = np.asarray(x_k)
    if state.h.shape != a_bar.shape or x_k.shape != (a_bar.shape[0],):
        raise ValueError(
            f"state {state.h.shape} / input {x_k.shape} inconsistent with A_bar {a_bar.shape}"
        )
    h = a_bar * state.h + b_bar * x_k[:, None]
    y = 2.0 * (c * h).sum(axis=-1).real + d * x_k
    return StreamState(h), y


def chunk_scanner(params, chunk):
    """Streaming over chunks of at most `chunk` steps with carried state.

    Returns `scan(state, x) -> (state, y)` for a (t, H) input with
    1 <= t <= chunk; it equals t calls of `recurrent_step` up to roundoff.
    Everything derives from one (H, N/2, chunk+1) table of the powers
    A_bar^0..A_bar^chunk, made by doubling (A_bar^(n+k) = A_bar^n A_bar^k):
    the kernel K[:chunk] once, and per chunk the carry term
    2*Re((C h0) @ A_bar^(k+1)) and the input sum B_bar (A_bar^i @ x[t-1-i]),
    two batched products over H.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    a_bar, b_bar = zoh_discretize(params)
    c, d = params.c, params.d
    powers = np.empty(a_bar.shape + (chunk + 1,), dtype=a_bar.dtype)
    powers[..., 0] = 1.0
    powers[..., 1] = a_bar
    n = 1
    while n < chunk:
        k = min(n, chunk - n)
        powers[..., n + 1 : n + 1 + k] = powers[..., n : n + 1] * powers[..., 1 : 1 + k]
        n += k
    kernel = 2.0 * ((c * b_bar)[:, None, :] @ powers[..., :chunk]).real[:, 0, :].T

    def scan(state, x):
        t = x.shape[0]
        if state.h.shape != a_bar.shape or x.shape[1:] != (a_bar.shape[0],) or not 1 <= t <= chunk:
            raise ValueError(
                f"state {state.h.shape} / input {x.shape} inconsistent with "
                f"A_bar {a_bar.shape} and chunk {chunk}"
            )
        y = causal_conv_t(ad.Tensor(x), ad.Tensor(kernel[:t])).data + d * x
        y += 2.0 * ((c * state.h)[:, None, :] @ powers[..., 1 : t + 1]).real[:, 0, :].T
        inputs = (powers[..., :t] @ x[::-1].T[:, :, None])[..., 0]
        return StreamState(powers[..., t] * state.h + b_bar * inputs), y

    return scan


def stream_sequence(params, x):
    """Run the recurrence step by step over a whole (L, H) input; equals conv + D*x."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != params.n_channels:
        raise ValueError(f"expected (L, {params.n_channels}) input, got {x.shape}")
    a_bar, b_bar = zoh_discretize(params)
    state = StreamState.for_params(params)
    out = np.empty_like(x)
    for k in range(x.shape[0]):
        state, out[k] = recurrent_step(state, x[k], a_bar, b_bar, params.c, params.d)
    return out


def s4d_forward(x_p, params, dropout_rate=0.1, training=False, seed=0):
    """S4D stage on a projected (L, H) or (B, L, H) input.

    Dropout uses inverted scaling from a generator seeded per call, and is
    active only when `training` is set; evaluation mode is deterministic.
    """
    if not (0.0 <= dropout_rate < 1.0):
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    x_p = np.asarray(x_p)
    if x_p.shape[-1] != params.n_channels:
        raise ValueError(f"expected {params.n_channels} channels, got input shape {x_p.shape}")
    rng = np.random.default_rng(seed)
    return s4d_apply(ad.Tensor(x_p), _constants(params), dropout_rate, training, rng).data


def write_kernel_csv(kernel, path):
    """Dump a kernel matrix as CSV: one row per step, one column per channel."""
    kernel = np.asarray(kernel)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in kernel:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
