"""Shared independent oracles for the test suite.

These deliberately avoid the library's FFT/vectorized code paths: the brute
force convolution is a double loop, and the kernel oracle drives the
recurrence with a unit impulse. `piped`
serves a file through a named pipe, which has no size to read.
"""

import os
import threading

import numpy as np

from ms4 import ssm


def naive_causal_conv(x, kernel):
    """O(L^2) direct evaluation of y[k, h] = sum_{j<=k} K[j, h] x[k-j, h]."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    length = kernel.shape[0]
    y = np.zeros(x.shape)
    for k in range(length):
        for j in range(k + 1):
            y[..., k, :] += kernel[j] * x[..., k - j, :]
    return y


def direct_causal_conv(x, kernel):
    """Direct-sum oracle with the inner j-loop vectorized: y[k] = sum over
    kernel[:k+1] * x[k::-1]. Same O(L^2) arithmetic, fast enough for L=512."""
    x = np.asarray(x, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    length = kernel.shape[0]
    y = np.empty_like(x)
    for k in range(length):
        y[k] = (kernel[: k + 1] * x[k::-1]).sum(axis=0)
    return y


def impulse_kernel_oracle(params, length):
    """Kernel K[k, h] extracted by unrolling the recurrence on a unit impulse.

    The feedthrough term is excluded, matching the kernel definition.
    """
    a_bar, b_bar = ssm.zoh_discretize(params)
    c = complex_of(params, "c")
    n_channels = a_bar.shape[0]
    h = np.zeros_like(a_bar)
    out = np.empty((length, n_channels))
    for k in range(length):
        x_k = np.ones(n_channels) if k == 0 else np.zeros(n_channels)
        h = a_bar * h + b_bar * x_k[:, None]
        out[k] = 2.0 * (c * h).sum(axis=-1).real
    return out


def complex_of(params, name):
    """Complex B (name "b") or C (name "c") of an S4D core from its real/imaginary pair."""
    return params[f"{name}_re"] + 1j * params[f"{name}_im"]


def random_ssm_params(rng, n_channels, n_state):
    """Randomized S4D core exercising arbitrary (post-update) parameter values."""
    n_modes = n_state // 2
    shape = (n_channels, n_modes)
    return {
        "log_a_real": rng.normal(0.0, 1.0, shape),
        "a_imag": rng.normal(0.0, 3.0, shape),
        "b_re": rng.normal(0.0, 1.0, shape),
        "b_im": rng.normal(0.0, 1.0, shape),
        "c_re": rng.normal(0.0, 1.0, shape),
        "c_im": rng.normal(0.0, 1.0, shape),
        "d": rng.normal(0.0, 1.0, n_channels),
        "log_delta": rng.uniform(np.log(1e-3), np.log(0.3), n_channels),
    }


def spectral_peak_labels(dataset, f_low, f_high):
    """Classify by the larger DFT magnitude at the two candidate frequencies."""
    t = np.arange(dataset.length)
    labels = np.empty(dataset.n_samples, dtype=np.int64)
    for i in range(dataset.n_samples):
        signal = dataset.x[i, :, 0]
        power = [
            np.abs(np.sum(signal * np.exp(-2j * np.pi * f * t))) for f in (f_low, f_high)
        ]
        labels[i] = int(power[1] > power[0])
    return labels


def piped(path, tmp_path):
    """A named pipe that a thread fills with the bytes of `path` once a reader opens it."""
    raw = path.read_bytes()
    fifo = tmp_path / f"pipe{len(list(tmp_path.glob('pipe*')))}"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(raw)
        except BrokenPipeError:  # the reader stopped at a fault
            pass

    threading.Thread(target=feed, daemon=True).start()
    return fifo
