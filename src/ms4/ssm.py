"""Diagonal state-space layer: parameterization, discretization, kernel, duality.

Each of the H channels carries N/2 complex modes; the other half of the
N-dimensional state is the implicit conjugate pair, so real outputs are
recovered as 2*Re(sum over modes). Eigenvalues are stored as
lambda = -exp(log_a_real) + i*a_imag, which keeps Re(lambda) < 0 (and hence
|exp(delta*lambda)| < 1) for every parameter value an optimizer can reach.

The layer has two equivalent execution forms:

* convolution: materialize the impulse response K[k] = 2*Re(C A_bar^k B_bar)
  and convolve causally via padded real FFTs; only training's graph runs it, and
* recurrence: h' = A_bar h + B_bar x, y = 2*Re(C h') + D x, one step at a
  time with state of size H x N/2 regardless of sequence length.

Every eval forward runs the recurrence as block matmuls (`chunk_scan`): a
(B, t, H) chunk of at most STREAM_CHUNK steps, entered with carried state h,
is cut into blocks of T = SCAN_BLOCK steps. A block's output is its input
times the (T, T) Toeplitz of K[:T] plus D, plus its entry state times a (N, T)
map to 2*Re(C A_bar^(k+1) h); a block's state leaves as A_bar^T h plus its
input times a (T, N) map. Memory is O(B*STREAM_CHUNK*H + H*T*(T+N)) whatever
the sequence length; the state is a plain (B, H, N/2) complex array.

The module keeps no state: the scan takes a core's `scan_arrays` from its
caller, which may keep them (`model.memo`). The convolution stage is one tape
node that saves GELU's slope and recomputes the spectra in its VJP. Since the
H channels are independent, it runs in slices of at most CHANNEL_BLOCK
channels, so their FFT spectra stay in cache.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad

# An S4D core is a dict of these real arrays: the eigenvalues as log_a_real
# and a_imag, the complex B and C as real/imaginary pairs, all (H, N/2), and
# the per-channel feedthrough gain d and log step size log_delta, both (H,).
SSM_LEAF_NAMES = ("log_a_real", "a_imag", "b_re", "b_im", "c_re", "c_im", "d", "log_delta")

CHANNEL_BLOCK = 16  # most channels per pass of the S4D stage and its VJP
DT_MIN, DT_MAX = 1e-3, 1e-1  # an initial step size delta is log-uniform in [DT_MIN, DT_MAX)


def init_s4d_params(n_channels, n_state, seed=0):
    """An S4D core with the HiPPO-flavored diagonal eigenvalues lambda_n = -1/2 + i*pi*n.

    All channels start from the same eigenvalues; B = 1, D = 1, C is drawn
    from a seeded standard normal (real and imaginary parts), and log(delta)
    is log-uniform in [log DT_MIN, log DT_MAX) per channel.
    """
    if n_channels < 1:
        raise ValueError(f"n_channels must be >= 1, got {n_channels}")
    if n_state < 2 or n_state % 2 != 0:
        raise ValueError(f"n_state must be a positive even integer, got {n_state}")
    n_modes = n_state // 2
    rng = np.random.default_rng(seed)
    shape = (n_channels, n_modes)
    log_delta = rng.uniform(np.log(DT_MIN), np.log(DT_MAX), size=n_channels)
    return {
        "log_a_real": np.full(shape, np.log(0.5)),
        "a_imag": np.broadcast_to(np.pi * np.arange(n_modes), shape).copy(),
        "b_re": np.ones(shape),
        "b_im": np.zeros(shape),
        "c_re": rng.standard_normal(shape),
        "c_im": rng.standard_normal(shape),
        "d": np.ones(n_channels),
        "log_delta": log_delta,
    }


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

    With c = isqrt(length) and nq*c >= length, the baby steps are
    C*B_bar*exp(rate*r), (H, N/2, c), and the giant steps exp(rate*q*c),
    (H, nq, N/2), so that C*B_bar*A_bar^k = giant[q] * baby[r] for every
    k = q*c + r < length. The sum over modes is one (nq, N/2) @ (N/2, c)
    product per channel, and no (L, H, N/2) power table is formed.
    """
    _, b_bar, rate = discretize_t(p)
    weight = ad.make_complex(p["c_re"], p["c_im"]) * b_bar
    h, m = rate.shape
    c = math.isqrt(length)
    nq = -(-length // c)
    rdtype = rate.data.real.dtype
    baby = ad.exp(rate.reshape(h, m, 1) * np.arange(c, dtype=rdtype)) * weight.reshape(h, m, 1)
    giant = ad.exp(rate.reshape(h, 1, m) * np.arange(0, nq * c, c, dtype=rdtype).reshape(-1, 1))
    power_sum = (giant @ baby).reshape(h, nq * c)[:, :length]
    return 2.0 * ad.real(power_sum).swapaxes(0, 1)


def causal_conv_t(x, kernel):
    """Linear causal convolution per channel via FFTs padded past 2L-1.

    x is (..., L, H) and the kernel (L, H); the padded length `fft_length(L)`
    rules out circular wraparound, so the first L outputs equal the direct sum
    y[k] = sum_{j<=k} K[j] x[k-j].
    """
    return ad.causal_conv(x, kernel, fft_length(x.shape[-2]))


def s4d_apply(x, p, keep=None):
    """Full S4D stage on a projected input: conv + feedthrough, GELU, then dropout.

    `keep` is the dropout multiplier, shaped like the output: 0 where a unit
    is dropped and 1/(1 - rate) where it is kept. Without it no dropout runs.
    The stage runs on at most CHANNEL_BLOCK channels at a time, and each
    channel's arithmetic is that of `_stage` on the whole width, so the output
    is bit-identical to it; see `_stage_node`.
    """
    return _stage_node(x, kernel_t(p, x.shape[-2]), ad.as_tensor(p["d"]), keep)


def _stage_node(x, kernel, d, keep):
    """The taped stage as one node with parents x, the kernel and d.

    It saves GELU's slope (one array shaped like x) and `keep`. Its VJP
    recomputes the spectra of x and the kernel, one channel block at a time.
    """
    n = fft_length(x.shape[-2])
    slope = np.empty(x.shape, np.result_type(x.dtype, kernel.dtype, d.dtype))
    out = _blocks(x.data, kernel.data, d.data, slope)
    if keep is not None:
        out = out * keep

    def vjp(g):
        u = (g if keep is None else g * keep) * slope  # the adjoint of conv + d*x
        length, lead = x.shape[-2], tuple(range(x.ndim - 2))
        gx, gk, gd = (np.empty(shape, u.dtype) for shape in (x.shape, kernel.shape, d.shape))
        for part in _channel_blocks(x.shape[-1]):
            uf = np.fft.rfft(u[..., part], n=n, axis=-2)
            kf = np.fft.rfft(kernel.data[:, part], n=n, axis=0)
            xf = np.fft.rfft(x.data[..., part], n=n, axis=-2)
            gx[..., part] = (np.fft.irfft(uf * np.conj(kf), n=n, axis=-2)[..., :length, :]
                             + u[..., part] * d.data[part])
            gk[:, part] = np.fft.irfft((uf * np.conj(xf)).sum(axis=lead), n=n, axis=0)[:length]
            gd[part] = (u[..., part] * x.data[..., part]).sum(axis=lead + (x.ndim - 2,))
        return gx, gk, gd

    return ad.node(out, (x, kernel, d), vjp)


def _channel_blocks(width):
    """Slices of CHANNEL_BLOCK channels over `width`; the last may be narrower."""
    return [slice(lo, lo + CHANNEL_BLOCK) for lo in range(0, width, CHANNEL_BLOCK)]


def _blocks(x, kernel, d, slope):
    """`_stage` on `_channel_blocks` of plain arrays, one at a time; each block's input
    is a short tape's leaf, and GELU's derivative is written to `slope`."""
    y = np.empty(x.shape, np.result_type(x.dtype, kernel.dtype, d.dtype))
    for part in _channel_blocks(x.shape[-1]):
        act = _stage(ad.Tensor(x[..., part], requires_grad=True), kernel[:, part], d[part])
        y[..., part] = act.data
        (slope[..., part],) = ad.partials(act)
    return y


def _stage(x, kernel, d):
    """Convolution plus feedthrough, then GELU: the convolution stage's maths."""
    return ad.gelu(causal_conv_t(x, kernel) + x * d)


def fft_length(length):
    """The FFT length of a causal convolution over `length` steps: the power of
    two at or above 2*length - 1, so the padded transform does not wrap around."""
    return 1 << (2 * int(length) - 2).bit_length()


# -- plain-array surface -------------------------------------------------------


def zoh_discretize(params):
    """Discrete (A_bar, B_bar) arrays of an S4D core; all |A_bar| < 1."""
    a_bar, b_bar, _ = discretize_t(params)
    return a_bar.data, b_bar.data


def compute_kernel(params, length):
    """Kernel matrix of shape (length, H); finite for any valid core."""
    if length < 1:
        raise ValueError(f"kernel length must be >= 1, got {length}")
    return kernel_t(params, length).data


def fft_causal_conv(x, kernel):
    """Causal convolution y[k, h] = sum_{j<=k} K[j, h] x[k-j, h]."""
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    if x.shape[-2:] != kernel.shape:
        raise ValueError(f"input {x.shape} does not match kernel {kernel.shape}")
    return causal_conv_t(ad.Tensor(x), ad.Tensor(kernel)).data


def recurrent_step(h, x_k, a_bar, b_bar, c, d):
    """One streaming step from (H, N/2) complex state h: (h', y), in O(H*N) whatever L."""
    x_k = np.asarray(x_k)
    if h.shape != a_bar.shape or x_k.shape != (a_bar.shape[0],):
        raise ValueError(
            f"state {h.shape} / input {x_k.shape} inconsistent with A_bar {a_bar.shape}"
        )
    h = a_bar * h + b_bar * x_k[:, None]
    y = 2.0 * (c * h).sum(axis=-1).real + d * x_k
    return h, y


STREAM_CHUNK = 512  # most steps per `chunk_scan`; memory O(B*STREAM_CHUNK*H + H*T*(T+N))
SCAN_BLOCK = 32  # T: steps per block of `chunk_scan`'s matmuls


def scan_arrays(core):
    """What `chunk_scan` reads, for blocks of T = SCAN_BLOCK steps: the (H, T+1, N/2) powers
    A_bar^0..T; the (H, T, T) upper Toeplitz of K[:T] with D added on its diagonal; and the
    (H, T, N) input-to-state map B_bar A_bar^(T-1-i) and the (H, N, T) state-to-output map
    2 C A_bar^(k+1), both as real (re, im) pairs, since numpy's complex @ real product runs
    no BLAS."""
    _, b_bar, rate = (v.data for v in discretize_t(core))
    c, real = core["c_re"] + 1j * core["c_im"], rate.real.dtype
    powers = np.exp(rate[:, None, :] * np.arange(SCAN_BLOCK + 1, dtype=real)[:, None])  # A_bar^0..T
    kernel = 2.0 * (powers[:, :SCAN_BLOCK] @ (c * b_bar)[:, :, None]).real[..., 0]
    lag = np.arange(SCAN_BLOCK) - np.arange(SCAN_BLOCK)[:, None]
    toeplitz = np.where(lag >= 0, kernel[:, lag.clip(0)], 0) + core["d"][:, None, None] * (lag == 0)
    into = (b_bar[:, None, :] * powers[:, SCAN_BLOCK - 1 :: -1]).view(real)
    out = (2.0 * c[:, None, :] * powers[:, 1:]).conj().view(real).swapaxes(1, 2)
    # Copied last, so the kept arrays sit above the build's freed temporaries
    # in the malloc heap; kept below them, they left the heap top free, and
    # glibc trimmed and refaulted 8 MB on every later L=4096 `forward`.
    return tuple(v.copy() for v in (powers, toeplitz, into, out))


def chunk_scan(scan, h, x):
    """Stream a (B, t, H) chunk, 1 <= t <= STREAM_CHUNK, from carried state h; returns (h, y).

    `scan` is a core's `scan_arrays` and h the (B, H, N/2) state in its complex dtype,
    zeros at a sequence's start; each sample's result equals t calls of `recurrent_step`
    up to roundoff. The chunk, zero-padded to whole blocks of T steps, takes its products
    per sample and channel, each stacked over that sample's blocks alone, so a sample's
    bits do not depend on the others: with the Toeplitz; with the input-to-state map,
    written after the carried h into one block-major (whole blocks + 1, H, B, N/2) array
    whose slab k a loop over the contiguous slabs turns in place into the state after k
    whole blocks, by adding A_bar^T times slab k-1; and of every block's entry state,
    read off that array, with the state-to-output map, as one product. A short last
    block of r steps adds only to the state that leaves: the last r rows of the
    input-to-state map, plus A_bar^r times its entry state.
    """
    powers, toeplitz, into, out = scan
    a_bar = powers[:, 1]
    if (x.ndim != 3 or h.shape != (len(x), *a_bar.shape) or x.shape[2] != a_bar.shape[0]
            or not 1 <= x.shape[1] <= STREAM_CHUNK):
        raise ValueError(f"state {h.shape} / input {x.shape} inconsistent with "
                         f"A_bar {a_bar.shape} and chunk {STREAM_CHUNK}")
    (batch, t, width), (full, r) = x.shape, divmod(x.shape[1], SCAN_BLOCK)
    u = np.zeros((width, batch, -(-t // SCAN_BLOCK), SCAN_BLOCK), x.dtype)
    u.reshape(width, batch, -1)[..., :t] = x.transpose(2, 0, 1)
    entry = np.empty((full + 1, width, batch, h.shape[-1]), np.result_type(h, x, into))
    entry[0] = h.swapaxes(0, 1)
    pairs = entry.view(entry.real.dtype)  # the states as (re, im) pairs, (full + 1, H, B, N)
    np.matmul(u[:, :, :full], into[:, None], out=pairs[1:].transpose(1, 2, 0, 3))
    step, carried = powers[:, SCAN_BLOCK, None], np.empty_like(entry[0])
    for k in range(1, full + 1):
        entry[k] += np.multiply(step, entry[k - 1], out=carried)
    y = u @ toeplitz[:, None]
    y += pairs[: u.shape[2]].transpose(1, 2, 0, 3) @ out[:, None]
    h = entry[full]
    if r:
        h = powers[:, r, None] * h + (u[:, :, full, None, :r] @ into[:, None, SCAN_BLOCK - r :]
                                      ).view(h.dtype)[:, :, 0]
    return h.swapaxes(0, 1).copy(), y.reshape(width, batch, -1)[..., :t].transpose(1, 2, 0).copy()


def stream_sequence(params, x):
    """Run the recurrence step by step over a whole (L, H) input; equals conv + D*x."""
    x = np.asarray(x)
    c, d = params["c_re"] + 1j * params["c_im"], params["d"]
    if x.ndim != 2 or x.shape[1] != d.shape[0]:
        raise ValueError(f"expected (L, {d.shape[0]}) input, got {x.shape}")
    a_bar, b_bar = zoh_discretize(params)
    h = np.zeros_like(a_bar)
    out = np.empty_like(x)
    for k in range(x.shape[0]):
        h, out[k] = recurrent_step(h, x[k], a_bar, b_bar, c, d)
    return out


def write_kernel_csv(kernel, path):
    """Dump a kernel matrix as CSV: one row per step, one column per channel."""
    kernel = np.asarray(kernel, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in kernel:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
