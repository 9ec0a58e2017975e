"""Diagonal state-space layer: parameterization, discretization, kernel, duality.

Each of the H channels carries N/2 complex modes; the other half of the
N-dimensional state is the implicit conjugate pair, so real outputs are
recovered as 2*Re(sum over modes). Eigenvalues are stored as
lambda = -exp(log_a_real) + i*a_imag, which keeps Re(lambda) < 0 (and hence
|exp(delta*lambda)| < 1) for every parameter value an optimizer can reach.

The layer has two equivalent forms: the convolution with the impulse
response K[k] = 2*Re(C A_bar^k B_bar) via padded real FFTs
(`compute_kernel`, `fft_causal_conv`), against which the scan is checked,
and the recurrence h' = A_bar h + B_bar x, y = 2*Re(C h') + D x.

Every forward, eval's and training's, runs the recurrence as block matmuls
(`chunk_scan`): a (B, t, H) chunk of at most STREAM_CHUNK steps, entered with
carried state h, is cut into blocks of T = SCAN_BLOCK steps. A block's output
is its input times the (T, T) Toeplitz of K[:T] plus D, plus its entry state
times a (N, T) map to 2*Re(C A_bar^(k+1) h); a block's state leaves as
A_bar^T h plus its input times a (T, N) map. Memory is
O(B*STREAM_CHUNK*H + H*T*(T+N)) whatever the sequence length. The module
keeps no state: the scan takes a core's `scan_arrays` from its caller, which
may keep them (`model.memo`). Training's stage, `s4d_apply`, is one tape
node over the same scan, on the arrays of one `scan_t` node, which a training
step builds once per block and shares among its shards."""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad

# An S4D core is a dict of these real arrays: the eigenvalues as log_a_real
# and a_imag, the complex B and C as real/imaginary pairs, all (H, N/2), and
# the per-channel feedthrough gain d and log step size log_delta, both (H,).
SSM_LEAF_NAMES = ("log_a_real", "a_imag", "b_re", "b_im", "c_re", "c_im", "d", "log_delta")

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

    x is (..., L, H) and the kernel (L, H), plain arrays; the padded length,
    the power of two at or above 2L - 1, rules out circular wraparound, so the
    first L outputs equal the direct sum y[k] = sum_{j<=k} K[j] x[k-j].
    """
    length = x.shape[-2]
    n = 1 << (2 * length - 2).bit_length()
    xf = np.fft.rfft(x, n=n, axis=-2)
    kf = np.fft.rfft(kernel, n=n, axis=-2)
    return np.fft.irfft(xf * kf, n=n, axis=-2)[..., :length, :]


def s4d_apply(x, scan, keep=None):
    """Full S4D stage on a projected (..., L, H) input: scan + feedthrough, GELU, then dropout.

    `scan` is the core's `scan_t`, and `keep` the dropout multiplier, shaped like the
    output: 0 where a unit is dropped and 1/(1 - rate) where it is kept. Without it no
    dropout runs. One node with parents x and `scan`. Its forward runs `chunk_scan` from
    a zero state, as the eval forward does, over slices of about SLICE_ROWS sequence
    steps, and saves GELU's slope, `keep` and each chunk's entry state. Its VJP walks
    the chunks backward: it carries the state adjoint back over the blocks,
    leaving[k] = conj(A_bar^T) leaving[k+1] + gy_(k+1) @ out^T, then forward,
    recomputing each block's entry state, with products over at least T rows. It
    returns the adjoints of `scan`'s three maps and of A_bar^T, laid out as `scan`.
    """
    arrays = _views(scan.data)
    powers, toeplitz, into, out_map = arrays
    xs = x.data.reshape(-1, *x.shape[-2:])  # any leading axes, as one batch axis
    (batch, length, width), modes, t = xs.shape, powers.shape[-1], SCAN_BLOCK
    if keep is not None:
        keep = np.reshape(keep, xs.shape)
    rows = max(1, SLICE_ROWS // min(length, STREAM_CHUNK))  # sequences per slice
    slope = np.empty(xs.shape, np.result_type(xs, toeplitz))
    out = np.empty(xs.shape, np.result_type(slope, 1.0 if keep is None else keep))
    state, entries = np.zeros((batch, width, modes), powers.dtype), []
    for lo in range(0, length, STREAM_CHUNK):
        entries.append(state if lo else None)  # the VJP makes the zero state again
        leaving = np.empty_like(state)
        for first in range(0, batch, rows):  # the scan's products are per sample
            seqs = slice(first, first + rows)
            part = seqs, slice(lo, lo + STREAM_CHUNK)
            leaving[seqs], y = chunk_scan(arrays, state[seqs], xs[part])
            act = ad.gelu(ad.Tensor(y, requires_grad=True))
            out[part], (slope[part],) = act.data, ad.partials(act)
            if keep is not None:
                out[part] *= keep[part]
        state = leaving

    def vjp(g):
        # the adjoint of scan + d*x, in the slope's buffer unless g or keep widens it
        u = slope.astype(np.result_type(slope, g, 1.0 if keep is None else keep), copy=False)
        u *= g.reshape(xs.shape)
        del g  # no caller holds it: an activation less through the walk below
        if keep is not None:
            u *= keep
        gx = u  # gx overwrites each chunk of u once it is blocked
        maps = np.concatenate([toeplitz.swapaxes(1, 2), into.swapaxes(1, 2)], axis=1)  # (H,T+N,T)
        to_state, back = maps[:, t:].swapaxes(1, 2)[:, None], out_map.swapaxes(1, 2)[:, None]
        step, group = powers[:, t, None], max(1, t // batch)  # A_bar^T; blocks per product
        g_maps = np.zeros((width, t, maps.shape[1]), u.dtype)  # of [Toeplitz | into]
        g_out, g_step = np.zeros(out_map.shape, u.dtype), np.zeros((width, modes), powers.dtype)
        g_state = np.zeros((width, batch, modes), powers.dtype)  # of the state leaving the chunk
        for lo in reversed(range(0, length, STREAM_CHUNK)):
            # per block k, (H, blocks, B, T + N): its output adjoint gy_k, then the adjoint
            # of the state leaving it, leaving[k], as (re, im) pairs
            adj = _blocked(u[:, lo : lo + STREAM_CHUNK], 2 * modes)
            leaving, starts = _complex(adj[..., t:]), range(0, adj.shape[1], group)
            for k in reversed(starts):
                terms = _complex(adj[:, k : k + group, :, :t] @ back)
                g_state = _carry(terms, leaving[:, k : k + group], g_state, step.conj(), True)
            del terms  # not held through the forward walk
            state = entries[lo // STREAM_CHUNK]
            state = np.zeros_like(g_state) if state is None else state.swapaxes(0, 1)
            for k in starts:
                blocks, at = slice(k, k + group), lo + k * t
                xb = _blocked(xs[:, at : min(at + group * t, lo + STREAM_CHUNK)], 0)
                a = adj[:, blocks].reshape(width, -1, adj.shape[-1])
                gxb = (a @ maps).reshape(xb.shape)  # the input adjoint, (H, group, B, T)
                for j, lo_j in enumerate(range(at, at + gxb.shape[1] * t, t)):
                    gx[:, lo_j : lo_j + t] = gxb[:, j, :, : length - lo_j].transpose(1, 2, 0)
                del gxb  # before the products below
                g_maps += xb.reshape(width, -1, t).swapaxes(1, 2) @ a
                # the entry state of each block, conjugated once it has served g_out
                states = np.empty(leaving[:, blocks].shape, powers.dtype)
                state = _carry(_complex(xb @ to_state), states, state, step, False)
                g_out += _pairs(states).reshape(width, -1, 2 * modes).swapaxes(1, 2) @ a[..., :t]
                g_step += np.einsum("hkbm,hkbm->hm", leaving[:, blocks],
                                    np.conj(states, out=states))
                del xb, states  # before the next group's are made
            del adj, leaving, a  # before the next chunk's are made
        g_scan = np.zeros_like(scan.data)  # laid out as `scan`, made once the walk has ended
        g_powers, g_toeplitz, g_into, g_out_map = _views(g_scan)
        g_powers[:, t], g_toeplitz[...], g_into[...], g_out_map[...] = (
            g_step, g_maps[..., :t], g_maps[..., t:], g_out)
        return gx.reshape(x.shape), g_scan

    return ad.node(out.reshape(x.shape), (x, scan), vjp)


def scan_t(p):
    """A core's `scan_arrays` on the tape: one node with parents the rate delta*lambda,
    B_bar, C and d, whose data is one real (H, T*T + (3T+1)*N) array. Row h holds channel
    h's powers A_bar^0..T = exp(rate * k), k <= T, as (re, im) pairs, then its three
    `scan_maps`; `_views` reads them back. Its VJP maps their adjoints to the parents'
    with `_core_adjoints`, the powers' to the rate's as sum_k k g_k conj(A_bar^k)."""
    _, b_bar, rate = discretize_t(p)
    c, d = ad.make_complex(p["c_re"], p["c_im"]), ad.as_tensor(p["d"])
    (width, modes), t = rate.shape, SCAN_BLOCK
    data = np.empty((width, t * t + (3 * t + 1) * 2 * modes), rate.data.real.dtype)
    powers, *maps = _views(data)
    k = np.arange(t + 1, dtype=data.dtype)[:, None]
    np.exp(rate.data.reshape(width, 1, modes) * k, out=powers)
    for view, value in zip(maps, scan_maps(powers, b_bar.data, c.data, d.data)):
        view[...] = value

    def vjp(g):
        g_powers, g_b, g_c, g_d = _core_adjoints(powers, b_bar.data, c.data, *_views(g))
        return (g_powers * powers.conj() * k).sum(axis=1), g_b, g_c, g_d

    return ad.node(data, (rate, b_bar, c, d), vjp)


def _views(scan):
    """`scan_t`'s rows as views: the (H, T+1, N/2) complex powers A_bar^0..T, then the
    (H, T, T) Toeplitz, the (H, T, N) input-to-state and the (H, N, T) state-to-output
    maps of `scan_maps`. Each view's per-channel matrices are C-contiguous."""
    t, width = SCAN_BLOCK, len(scan)
    n = (scan.shape[1] - t * t) // (3 * t + 1)  # the state size N
    powers, toeplitz, into, out = np.split(scan, np.cumsum([(t + 1) * n, t * t, t * n]), axis=1)
    return (_complex(powers.reshape(width, t + 1, n)), toeplitz.reshape(width, t, t),
            into.reshape(width, t, n), out.reshape(width, n, t))


def _core_adjoints(powers, b_bar, c, g_powers, g_toeplitz, g_into, g_out):
    """The adjoints of the powers, B_bar, C and d from those of the powers and of
    `scan_maps`' three maps, in the real-pair convention of `autodiff`."""
    t = SCAN_BLOCK
    g_kernel = np.stack([np.trace(g_toeplitz, lag, 1, 2) for lag in range(t)], axis=-1)
    g_into = _complex(np.ascontiguousarray(g_into))  # of B_bar A_bar^(T-1-i), (H, T, N/2)
    g_out = _complex(np.ascontiguousarray(g_out.swapaxes(1, 2))).conj()  # of 2 C A_bar^(k+1)
    cb = c * b_bar
    g_powers = g_powers.copy()  # the caller's adjoint is left as it is
    g_powers[:, :t] += 2.0 * g_kernel[..., None] * cb.conj()[:, None]
    g_powers[:, t - 1 :: -1] += g_into * b_bar.conj()[:, None]
    g_powers[:, 1:] += 2.0 * g_out * c.conj()[:, None]
    g_cb = 2.0 * (g_kernel[:, None] @ powers[:, :t].conj())[:, 0]
    g_b = (g_into * powers[:, t - 1 :: -1].conj()).sum(axis=1) + g_cb * c.conj()
    g_c = 2.0 * (g_out * powers[:, 1:].conj()).sum(axis=1) + g_cb * b_bar.conj()
    return g_powers, g_b, g_c, g_kernel[:, 0]  # d sits on the Toeplitz's main diagonal


def _carry(terms, dest, state, step, backward):
    """Carry the (H, B, N/2) `state` in place over the (H, blocks, B, N/2) `terms`,
    state <- step * state + terms[:, k], last block first if `backward`, writing to
    dest[:, k] the state carried into block k. Returns `state`."""
    for k in reversed(range(terms.shape[1])) if backward else range(terms.shape[1]):
        dest[:, k] = state
        state *= step
        state += terms[:, k]
    return state


def _blocked(x, extra):
    """A (B, t, H) chunk as zero-padded blocks of T = SCAN_BLOCK steps, laid out as
    (H, blocks, B, T + extra); the last `extra` entries of each row stay zero."""
    out = np.zeros((x.shape[2], -(-x.shape[1] // SCAN_BLOCK), x.shape[0], SCAN_BLOCK + extra),
                   x.dtype)
    for k, at in enumerate(range(0, x.shape[1], SCAN_BLOCK)):
        part = x[:, at : at + SCAN_BLOCK].transpose(2, 0, 1)
        out[:, k, :, : part.shape[2]] = part
    return out


def _pairs(z):
    """A complex array as its real (re, im) pairs along the last axis, a view."""
    return z.view(z.real.dtype)


def _complex(pairs):
    """Real (re, im) pairs along the last axis as a complex array, a view."""
    return pairs.view(np.result_type(pairs, 1j))


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
    return causal_conv_t(x, kernel)


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
SLICE_ROWS = 1024  # (sequence, step) rows per scan and GELU slice of the taped stage's forward


def scan_arrays(core):
    """What `chunk_scan` reads, for blocks of T = SCAN_BLOCK steps: the (H, T+1, N/2) powers
    A_bar^0..T, then `scan_maps` of them, each copied out of one `scan_t` array."""
    # Copied last, so the kept arrays sit above the build's freed temporaries
    # in the malloc heap; kept below them, they left the heap top free, and
    # glibc trimmed and refaulted 8 MB on every later L=4096 `forward`. Four
    # copies, not one of the packed array: at H=N=64 that was a 3.7 MB block
    # that glibc mapped on its own, away from the heap the forward's
    # temporaries share.
    return tuple(v.copy() for v in _views(scan_t(core).data))


def scan_maps(powers, b_bar, c, d):
    """`chunk_scan`'s maps from the (H, T+1, N/2) powers A_bar^0..T, B_bar, C and d: the
    (H, T, T) upper Toeplitz of K[:T] with d added on its diagonal; and the (H, T, N)
    input-to-state map B_bar A_bar^(T-1-i) and the (H, N, T) state-to-output map
    2 C A_bar^(k+1), both as real (re, im) pairs, since numpy's complex @ real product
    runs no BLAS. Each is C-contiguous: BLAS may round a transposed operand otherwise."""
    kernel = 2.0 * (powers[:, :SCAN_BLOCK] @ (c * b_bar)[:, :, None]).real[..., 0]
    lag = np.arange(SCAN_BLOCK) - np.arange(SCAN_BLOCK)[:, None]
    toeplitz = np.where(lag >= 0, kernel[:, lag.clip(0)], 0) + d[:, None, None] * (lag == 0)
    into = _pairs(b_bar[:, None, :] * powers[:, SCAN_BLOCK - 1 :: -1])
    out = _pairs((2.0 * c[:, None, :] * powers[:, 1:]).conj()).swapaxes(1, 2)
    return toeplitz, into, np.ascontiguousarray(out)


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
    pairs = _pairs(entry)  # the states as (re, im) pairs, (full + 1, H, B, N)
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
