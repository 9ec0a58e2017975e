"""Reverse-mode automatic differentiation over numpy arrays.

The tape is the implicit graph of ``Tensor`` nodes: each non-leaf node keeps
references to its parents and a closure computing the parent adjoints from its
own adjoint (the saved forward values live in the closure). ``backward``
replays that record in reverse topological order, so every leaf reachable from
a scalar loss receives a gradient. A graph is single-use: build, backward,
discard.

Complex arrays use the real-pair convention: the adjoint stored for a complex
node z is dL/dRe(z) + i*dL/dIm(z). For a holomorphic primitive w = f(z) the
chain rule under this convention is adj(z) = adj(w) * conj(f'(z)); where a
complex operation consumes a real input, the real part of the same expression
is the correct gradient. This makes gradients of complex parameters directly
comparable with finite differences taken on their real and imaginary parts.

Operations on tensors that do not require gradients skip graph construction
entirely, so evaluation-mode forward passes carry no tape overhead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, expit

__all__ = [
    "Tensor",
    "as_tensor",
    "backward",
    "gradients",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "gelu",
    "real",
    "make_complex",
    "causal_conv",
    "finite_diff_errors",
    "finite_diff_check",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _unbroadcast(grad, shape):
    """Sum `grad` over the axes that broadcasting expanded, back to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


def _match(grad, data):
    """Project an adjoint onto the dtype domain of `data` (real stays real)."""
    if not np.iscomplexobj(data) and np.iscomplexobj(grad):
        grad = grad.real
    return np.asarray(grad)


class Tensor:
    """Array node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self):
        return self._vjp is None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------
    # Non-Tensor operands (python scalars, ndarrays) stay out of the graph:
    # python scalars in particular must not be wrapped into 0-d float64
    # arrays, or they would promote float32 data.

    def __add__(self, other):
        if isinstance(other, Tensor):
            out = self.data + other.data

            def vjp(g):
                return (
                    _match(_unbroadcast(g, self.shape), self.data),
                    _match(_unbroadcast(g, other.shape), other.data),
                )

            return _node(out, (self, other), vjp)
        return _node(
            self.data + other,
            (self,),
            lambda g: (_match(_unbroadcast(g, self.shape), self.data),),
        )

    __radd__ = __add__

    def __neg__(self):
        return _node(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.data
        if isinstance(other, Tensor):
            b = other.data
            out = a * b

            def vjp(g):
                return (
                    _match(_unbroadcast(g * np.conj(b), self.shape), a),
                    _match(_unbroadcast(g * np.conj(a), other.shape), b),
                )

            return _node(out, (self, other), vjp)
        b = other
        return _node(
            a * b,
            (self,),
            lambda g: (_match(_unbroadcast(g * np.conj(b), self.shape), a),),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        a = self.data
        if isinstance(other, Tensor):
            b = other.data
            out = a / b

            def vjp(g):
                cb = np.conj(b)
                return (
                    _match(_unbroadcast(g / cb, self.shape), a),
                    _match(_unbroadcast(-g * np.conj(out) / cb, other.shape), b),
                )

            return _node(out, (self, other), vjp)
        b = other
        return _node(
            a / b,
            (self,),
            lambda g: (_match(_unbroadcast(g / np.conj(b), self.shape), a),),
        )

    def __rtruediv__(self, other):
        b = self.data
        out = other / b

        def vjp(g):
            return (_match(_unbroadcast(-g * np.conj(out / b), self.shape), b),)

        return _node(out, (self,), vjp)

    def __matmul__(self, other):
        """Matrix product (..., m, k) @ (k, n), or batched with equal ranks."""
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim not in (2, a.ndim):
            raise ValueError(f"unsupported matmul shapes {a.shape} @ {b.shape}")
        out = a @ b

        def vjp(g):
            ga = _unbroadcast(g @ b.conj().swapaxes(-1, -2), a.shape)
            if b.ndim == 2:  # one BLAS call over all leading axes
                gb = a.conj().reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(a.conj().swapaxes(-1, -2) @ g, b.shape)
            return _match(ga, a), _match(gb, b)

        return _node(out, (self, other), vjp)

    # -- shape manipulation -------------------------------------------------

    def __getitem__(self, idx):
        out = self.data[idx]
        shape, dtype = self.data.shape, self.data.dtype

        def vjp(g):
            buf = np.zeros(shape, dtype=dtype if np.iscomplexobj(g) else g.dtype)
            buf[idx] += g
            return (buf,)

        return _node(out, (self,), vjp)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return _node(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    def swapaxes(self, i, j):
        return _node(self.data.swapaxes(i, j), (self,), lambda g: (g.swapaxes(i, j),))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape),)

        return _node(out, (self,), vjp)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def backward(self, adjoint=1.0):
        backward(self, adjoint)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, vjp):
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
    return Tensor(data)


# -- elementwise primitives ---------------------------------------------------


def exp(x):
    x = as_tensor(x)
    out = np.exp(x.data)
    return _node(out, (x,), lambda g: (_match(g * np.conj(out), x.data),))


def log(x):
    x = as_tensor(x)
    return _node(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x):
    x = as_tensor(x)
    out = np.sqrt(x.data)
    return _node(out, (x,), lambda g: (g / (2.0 * out),))


def sigmoid(x):
    x = as_tensor(x)
    out = expit(x.data)
    return _node(out, (x,), lambda g: (g * out * (1.0 - out),))


def gelu(x):
    """Exact Gaussian-error-linear unit x * Phi(x), not the tanh approximation."""
    x = as_tensor(x)
    d = x.data
    cdf = 0.5 * (1.0 + erf(d * _INV_SQRT2))
    out = d * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * d * d)
        return (g * (cdf + d * pdf),)

    return _node(out, (x,), vjp)


def real(x):
    """Real part of a complex tensor as a real tensor."""
    x = as_tensor(x)

    def vjp(g):
        return (g.astype(np.result_type(g.dtype, np.complex128)),)

    return _node(x.data.real, (x,), vjp)


def make_complex(re, im):
    """Combine real tensors into re + i*im."""
    re, im = as_tensor(re), as_tensor(im)
    out = re.data + 1j * im.data
    return _node(out, (re, im), lambda g: (g.real, g.imag))


def causal_conv(x, kernel, n):
    """Causal convolution y[k] = sum_{j<=k} K[j] x[k-j] along axis -2.

    x is (..., L, H) and the kernel (L, H); both are zero-padded to n >= 2L-1
    points of a real FFT, so the circular product has no wraparound. The
    adjoints are the matching correlations, computed from the saved spectra;
    the kernel's is summed over the broadcast leading axes of x.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    length = kernel.shape[-2]
    if n < 2 * length - 1:
        raise ValueError(f"FFT length {n} is below 2L-1 = {2 * length - 1}")
    xf = np.fft.rfft(x.data, n=n, axis=-2)
    kf = np.fft.rfft(kernel.data, n=n, axis=-2)
    out = np.fft.irfft(xf * kf, n=n, axis=-2)[..., :length, :]

    def vjp(g):
        gf = np.fft.rfft(g, n=n, axis=-2)
        gx = np.fft.irfft(gf * np.conj(kf), n=n, axis=-2)[..., :length, :]
        gk = np.fft.irfft(_unbroadcast(gf * np.conj(xf), kf.shape), n=n, axis=-2)[:length]
        return gx, gk

    return _node(out, (x, kernel), vjp)


# -- backward pass ------------------------------------------------------------


def backward(root, adjoint=1.0):
    """Propagate adjoints from a scalar root; leaves receive `.grad`.

    The graph rooted at `root` is the tape; it is walked once in reverse
    topological order and should be discarded afterwards.
    """
    if root.data.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return

    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    adjoints = {id(root): np.broadcast_to(
        _match(np.asarray(adjoint, dtype=np.result_type(root.dtype, float)), root.data),
        root.shape,
    ).copy()}
    for node in reversed(order):
        g = adjoints.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            pg = np.asarray(pg)
            acc = adjoints.get(id(parent))
            adjoints[id(parent)] = pg if acc is None else acc + pg


def gradients(loss, leaves, adjoint=1.0):
    """Gradient bundle keyed by parameter name for a scalar `loss`.

    `leaves` maps names to Tensors; parameters the loss never touched get
    zero gradients so optimizer bookkeeping stays aligned.
    """
    for t in leaves.values():
        t.grad = None
    backward(loss, adjoint)
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in leaves.items()
    }


# -- independent numerical verification ---------------------------------------


def finite_diff_errors(loss_fn, params, epsilon=1e-5, analytic=None):
    """Per-parameter max relative error of autodiff against central differences.

    `loss_fn` maps a dict of Tensors to a scalar Tensor and must be
    deterministic. Every real coordinate (real and imaginary parts counted
    separately for complex arrays) is perturbed by +/- epsilon. The relative
    error denominator is max(|analytic|, |numeric|, 1e-12); a non-finite
    error counts as inf, so NaN never passes a tolerance. Pass `analytic`
    to check an externally supplied gradient bundle instead.
    """
    params = {k: np.asarray(v) for k, v in params.items()}
    if analytic is None:
        leaves = {k: Tensor(v.copy(), requires_grad=True) for k, v in params.items()}
        analytic = gradients(loss_fn(leaves), leaves)

    def eval_at(values):
        out = loss_fn({k: Tensor(v) for k, v in values.items()})
        return float(np.real(out.data))

    errors = {}
    for name in params:
        work = {k: v.copy() for k, v in params.items()}
        arr = work[name]
        flat = arr.reshape(-1)
        grad_flat = np.asarray(analytic[name]).reshape(-1)
        parts = (1.0, 1j) if np.iscomplexobj(arr) else (1.0,)
        worst = 0.0
        for i in range(flat.size):
            for unit in parts:
                orig = flat[i]
                flat[i] = orig + unit * epsilon
                hi = eval_at(work)
                flat[i] = orig - unit * epsilon
                lo = eval_at(work)
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * epsilon)
                g = grad_flat[i]
                a = g.real if unit == 1.0 else g.imag
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
                worst = max(worst, err if np.isfinite(err) else np.inf)
        errors[name] = worst
    return errors


def finite_diff_check(loss_fn, params, epsilon=1e-5, analytic=None):
    """Max relative error over all parameter groups (see finite_diff_errors)."""
    errors = finite_diff_errors(loss_fn, params, epsilon=epsilon, analytic=analytic)
    return max(errors.values()) if errors else 0.0
