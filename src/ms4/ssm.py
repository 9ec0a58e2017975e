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

Streaming mixes the two (`chunk_scan`): a chunk of t <= T = STREAM_CHUNK
steps entered with carried state h0 is the convolution with K[:t] plus the
feedthrough plus the carried term 2*Re(sum_n C A_bar^(k+1) h0), and leaves
the state A_bar^t h0 + sum_j A_bar^(t-1-j) B_bar x_j. The powers A_bar^k are
never tabled: like the kernel, the carry and the input sum split k = q*c + r
with c = isqrt(T) and take exp(rate*r) and exp(rate*q*c) from two
O(H N sqrt(T)) arrays, so a chunk costs one convolution and a few small
batched products, and memory is O(T*H + H*N*sqrt(T)) whatever the sequence
length. The state is a plain (H, N/2) complex array.

The module keeps no state: outside a training graph, the stage and the scan
take a core's `kernel_spectrum` and `scan_arrays` from their caller, which
may keep them (`model.memo`). Since the H channels are independent, the
stage runs in slices of at most CHANNEL_BLOCK channels, and of fewer when
the sequence is long (BLOCK_BINS), so their FFT spectra stay in cache. In
a training graph the stage is one tape node that saves GELU's slope and
recomputes the spectra in its VJP.
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
BLOCK_BINS = 16 * 4097  # most spectrum bins per sequence and pass (1 MB): 16 channels up to L=4096


def init_s4d_params(n_channels, n_state, dt_min=1e-3, dt_max=1e-1, seed=0):
    """An S4D core with the HiPPO-flavored diagonal eigenvalues lambda_n = -1/2 + i*pi*n.

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

    The `_power_sum` of `_powers(rate, length, C*B_bar)`; no (L, H, N/2)
    power table is formed.
    """
    _, b_bar, rate = discretize_t(p)
    weight = ad.make_complex(p["c_re"], p["c_im"]) * b_bar
    baby, giant = _powers(rate, length, weight)
    return 2.0 * ad.real(_power_sum(giant, baby, length)).swapaxes(0, 1)


def _powers(rate, length, weight=None):
    """Baby steps exp(rate*r), (H, N/2, c), times `weight` if one is given,
    and giant steps exp(rate*q*c), (H, nq, N/2), with c = isqrt(length) and
    nq*c >= length, so that weight * A_bar^k = giant[q] * baby[r] for every
    k = q*c + r < length.
    """
    h, m = rate.shape
    c = math.isqrt(length)
    nq = -(-length // c)
    rdtype = ad.as_tensor(rate).data.real.dtype
    baby = ad.exp(rate.reshape(h, m, 1) * np.arange(c, dtype=rdtype))
    if weight is not None:
        baby = baby * weight.reshape(h, m, 1)
    giant = ad.exp(rate.reshape(h, 1, m) * np.arange(0, nq * c, c, dtype=rdtype).reshape(-1, 1))
    return baby, giant


def _power_sum(giant, baby, length):
    """sum_n weight[h, n] A_bar[h, n]^k for k < length, as (H, length), from
    `_powers`: one (rows, N/2) @ (N/2, c) product per channel. `giant` needs
    only its first ceil(length / c) rows.
    """
    h, _, c = baby.shape
    return (giant @ baby).reshape(h, giant.shape[1] * c)[:, :length]


def causal_conv_t(x, kernel):
    """Linear causal convolution per channel via FFTs padded past 2L-1.

    x is (..., L, H) and the kernel (L, H), or its spectrum on the padded
    length `fft_length(L)` (see `ad.causal_conv`); that padding rules out
    circular wraparound, so the first L outputs equal the direct sum
    y[k] = sum_{j<=k} K[j] x[k-j].
    """
    return ad.causal_conv(x, kernel, fft_length(x.shape[-2]))


def s4d_apply(x, p, keep=None, spectrum=None):
    """Full S4D stage on a projected input: conv + feedthrough, GELU, then dropout.

    `keep` is the dropout multiplier, shaped like the output: 0 where a unit
    is dropped and 1/(1 - rate) where it is kept. Without it (eval) no
    dropout runs. The stage runs on at most CHANNEL_BLOCK channels at a time,
    and each channel's arithmetic is that of `_stage` on the whole width, so the
    output is bit-identical to it. When no operand requires a gradient, it reads
    `spectrum`, or builds the core's `kernel_spectrum`; otherwise see `_stage_node`.
    """
    d = ad.as_tensor(p["d"])
    if x.requires_grad or any(ad.as_tensor(v).requires_grad for v in p.values()):
        return _stage_node(x, kernel_t(p, x.shape[-2]), d, keep)
    spectrum = kernel_spectrum(p, x.shape[-2]) if spectrum is None else spectrum
    y = ad.Tensor(_blocks(x.data, spectrum, d.data))
    return y if keep is None else y * keep


def _stage_node(x, kernel, d, keep):
    """The taped stage as one node with parents x, the kernel and d.

    It saves GELU's slope (one array shaped like x) and `keep`. Its VJP
    recomputes the spectra of x and the kernel, one channel block at a time.
    """
    n = fft_length(x.shape[-2])
    slope = np.empty(x.shape, np.result_type(x.dtype, kernel.dtype, d.dtype))
    out = _blocks(x.data, np.fft.rfft(kernel.data, n=n, axis=0), d.data, slope)
    if keep is not None:
        out = out * keep

    def vjp(g):
        u = (g if keep is None else g * keep) * slope  # the adjoint of conv + d*x
        length, lead = x.shape[-2], tuple(range(x.ndim - 2))
        gx, gk, gd = (np.empty(shape, u.dtype) for shape in (x.shape, kernel.shape, d.shape))
        for part in _channel_blocks(x.shape[-1], n // 2 + 1):
            uf = np.fft.rfft(u[..., part], n=n, axis=-2)
            kf = np.fft.rfft(kernel.data[:, part], n=n, axis=0)
            xf = np.fft.rfft(x.data[..., part], n=n, axis=-2)
            gx[..., part] = (np.fft.irfft(uf * np.conj(kf), n=n, axis=-2)[..., :length, :]
                             + u[..., part] * d.data[part])
            gk[:, part] = np.fft.irfft((uf * np.conj(xf)).sum(axis=lead), n=n, axis=0)[:length]
            gd[part] = (u[..., part] * x.data[..., part]).sum(axis=lead + (x.ndim - 2,))
        return gx, gk, gd

    return ad.node(out, (x, kernel, d), vjp)


def _channel_blocks(width, bins):
    """Slices of CHANNEL_BLOCK channels, or of fewer, so that a block holds at most
    BLOCK_BINS of each sequence's spectrum bins; past L=4096 16 channels overflow L2."""
    step = max(1, min(CHANNEL_BLOCK, BLOCK_BINS // bins))
    return [slice(lo, lo + step) for lo in range(0, width, step)]


def _blocks(x, spectrum, d, slope=None):
    """`_stage` on `_channel_blocks` of plain arrays, one at a time; with `slope`, each
    block's input is a short tape's leaf, and GELU's derivative is written to `slope`."""
    y = np.empty(x.shape, np.result_type(x.dtype, spectrum.real.dtype, d.dtype))
    for part in _channel_blocks(x.shape[-1], spectrum.shape[0]):
        part_x = ad.Tensor(x[..., part], requires_grad=slope is not None)
        act = _stage(part_x, spectrum[:, part], d[part])
        y[..., part] = act.data
        if slope is not None:
            (slope[..., part],) = ad.partials(act)
    return y


def _stage(x, kernel, d):
    """Convolution plus feedthrough, then GELU: the stage's maths, for every path."""
    return ad.gelu(causal_conv_t(x, kernel) + x * d)


def kernel_spectrum(p, n):
    """The rfft of `kernel_t(p, n)` on the stage's padded length: all an eval-mode
    convolution reads, so a stage given it makes two transforms per channel, not three."""
    return np.fft.rfft(kernel_t(p, n).data, n=fft_length(n), axis=0)


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


STREAM_CHUNK = 512  # most steps per `chunk_scan`; memory O(STREAM_CHUNK*H + H*N*sqrt(STREAM_CHUNK))


def scan_arrays(core):
    """What `chunk_scan` reads: A_bar, B_bar, C, D, `_powers`' unweighted baby and giant
    steps, K[:STREAM_CHUNK] (`kernel_t`'s bits, from their weighted `_power_sum`) and its rfft."""
    a_bar, b_bar, rate = (v.data for v in discretize_t(core))
    c = core["c_re"] + 1j * core["c_im"]
    baby, giant = (v.data for v in _powers(rate, STREAM_CHUNK))
    kernel = 2.0 * _power_sum(giant, baby * (c * b_bar)[:, :, None], STREAM_CHUNK).real.T
    spectrum = np.fft.rfft(kernel, n=fft_length(STREAM_CHUNK), axis=0)
    # Copied last, so the kept arrays sit above the build's freed temporaries
    # in the malloc heap; kept below them, they left the heap top free, and
    # glibc trimmed and refaulted 8 MB on every later L=4096 `forward`.
    return (a_bar, b_bar, c, core["d"]) + tuple(a.copy() for a in (baby, giant, kernel, spectrum))


def chunk_scan(scan, h, x):
    """Stream a (t, H) chunk, 1 <= t <= STREAM_CHUNK, from carried state h; returns (h, y).

    `scan` is a core's `scan_arrays` and h the (H, N/2) state in its complex dtype,
    zeros at a sequence's start; the result equals t calls of `recurrent_step` up to
    roundoff. A chunk on the full chunk's padded length convolves with the kept spectrum
    of K[:STREAM_CHUNK] (two transforms), a shorter one with K[:t]. The carry
    2*Re(sum_n (C h A_bar)_n A_bar^k) is the `_power_sum` of the giant steps
    weighted by C h A_bar and the baby steps (the first t of them if t < c);
    the input sum sum_i A_bar^i x[t-1-i] is the baby steps times the reversed
    chunk folded to (H, c, nq), weighted by the giant steps; and the state
    decays by A_bar^t, a giant step times a baby step times A_bar.
    """
    a_bar, b_bar, c, d, baby, giant, kernel, spectrum = scan
    t = x.shape[0]
    if h.shape != a_bar.shape or x.shape[1:] != (a_bar.shape[0],) or not 1 <= t <= STREAM_CHUNK:
        raise ValueError(
            f"state {h.shape} / input {x.shape} inconsistent with "
            f"A_bar {a_bar.shape} and chunk {STREAM_CHUNK}"
        )
    n_channels, n_baby = baby.shape[0], baby.shape[-1]
    r = min(t, n_baby)  # a chunk shorter than c steps needs only its first t baby steps
    nq = -(-t // r)
    steps = baby[:, :, :r]
    k = spectrum if fft_length(t) == fft_length(STREAM_CHUNK) else kernel[:t]
    y = causal_conv_t(x, k).data + d * x
    y += 2.0 * _power_sum(giant[:, :nq] * (c * h * a_bar)[:, None, :], steps, t).real.T
    # Complex, since numpy's complex @ real product runs no BLAS.
    folded = np.zeros((n_channels, nq * r), np.result_type(x.dtype, baby.dtype))
    folded[:, :t] = x[::-1].T
    inputs = ((steps @ folded.reshape(n_channels, nq, r).swapaxes(1, 2))
              * giant[:, :nq].swapaxes(1, 2)).sum(axis=-1)
    decay = giant[:, (t - 1) // n_baby] * baby[:, :, (t - 1) % n_baby] * a_bar  # A_bar^t
    return decay * h + b_bar * inputs, y


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
