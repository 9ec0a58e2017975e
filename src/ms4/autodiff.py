"""Reverse-mode automatic differentiation over numpy arrays.

The tape is the implicit graph of ``Tensor`` nodes: each non-leaf node keeps
references to its parents and a closure computing the parent adjoints from its
own adjoint (the saved forward values live in the closure). ``gradients``
replays that record in reverse topological order, so every leaf reachable from
a scalar loss receives a gradient. A graph is single-use: each closure, and
the arrays it saved, is dropped once it has run. Other modules build fused
primitives with `node`, a node whose hand-written VJP saves fewer arrays than
the generic ops it stands for would.

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

import functools
import math

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "node",
    "partials",
    "gradients",
    "exp",
    "log",
    "sqrt",
    "sigmoid",
    "gelu",
    "real",
    "make_complex",
    "affine",
    "finite_diff_errors",
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


def _conj(v):
    """The complex conjugate; a real operand comes back as it is, so a real array
    is not copied and a python float is not made a float64 that promotes float32."""
    return v.conjugate() if np.iscomplexobj(v) else v


def _match(grad, data):
    """Project an adjoint onto the dtype domain of `data` (real stays real)."""
    if not np.iscomplexobj(data) and np.iscomplexobj(grad):
        grad = grad.real
    return np.asarray(grad)


class Tensor:
    """Array node in the computation graph."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")
    # numpy defers every operator to Tensor, so `ndarray + Tensor` reaches
    # __radd__ and builds a graph, and `ndarray @ Tensor` raises TypeError.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data)
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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------
    # Each operator hands its adjoint expressions to `_binary`, which keeps
    # non-Tensor operands (python scalars, ndarrays) out of the graph.

    def __add__(self, other):
        return _binary(self, other, self.data + _value(other), lambda g: g, lambda g: g)

    __radd__ = __add__

    def __neg__(self):
        return node(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self.data, _value(other)
        return _binary(self, other, a * b, lambda g: g * _conj(b), lambda g: g * _conj(a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _value(other)
        out = self.data / b
        return _binary(
            self, other, out, lambda g: g / _conj(b), lambda g: -g * _conj(out) / _conj(b)
        )

    def __rtruediv__(self, other):
        b = self.data
        out = other / b
        return _binary(other, self, out, None, lambda g: -g * np.conj(out / b))

    def __matmul__(self, other):
        """Matrix product (..., m, k) @ (k, n), or batched with equal ranks."""
        other = as_tensor(other)
        a, b = self.data, other.data
        return node(_matmul(a, b), (self, other), lambda g: _matmul_vjp(g, a, b))

    # -- shape manipulation -------------------------------------------------

    def __getitem__(self, idx):
        out = self.data[idx]
        shape, dtype = self.data.shape, self.data.dtype

        def vjp(g):
            buf = np.zeros(shape, dtype=dtype if np.iscomplexobj(g) else g.dtype)
            np.add.at(buf, idx, g)  # `buf[idx] += g` adds a repeated index once
            return (buf,)

        return node(out, (self,), vjp)

    def reshape(self, *shape):
        old = self.data.shape
        return node(self.data.reshape(*shape), (self,), lambda g: (g.reshape(old),))

    def swapaxes(self, i, j):
        return node(self.data.swapaxes(i, j), (self,), lambda g: (g.swapaxes(i, j),))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape),)

        return node(out, (self,), vjp)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data, parents, vjp):
    """Tensor for `data`; on the tape when a parent requires grad, `vjp` mapping its
    adjoint to one adjoint per parent. Fused primitives outside this module build
    their nodes here too."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
    return Tensor(data)


def partials(t):
    """Partial derivatives of an elementwise node with respect to its parents: its VJP at
    a unit adjoint. A fused primitive reads saved values off a short tape this way."""
    return t._vjp(1.0)


def _value(x):
    return x.data if isinstance(x, Tensor) else x


def _matmul(a, b):
    if a.ndim < 2 or b.ndim not in (2, a.ndim):
        raise ValueError(f"unsupported matmul shapes {a.shape} @ {b.shape}")
    return a @ b


def _matmul_vjp(g, a, b):
    ga = _unbroadcast(g @ b.conj().swapaxes(-1, -2), a.shape)
    if b.ndim == 2:  # one BLAS call over all leading axes
        gb = a.conj().reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    else:
        gb = _unbroadcast(a.conj().swapaxes(-1, -2) @ g, b.shape)
    return _match(ga, a), _match(gb, b)


def affine(x, w, b):
    """`x @ w + b` as one node, which keeps x and w but not the product.

    The bias is added into the product in place when that keeps the product's
    dtype; otherwise it promotes as `+` does. The VJP takes the matmul and `+`
    nodes' steps in their order, so its adjoints are theirs.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    out = _matmul(xd, wd)
    shape, real = out.shape, not np.iscomplexobj(out)
    same_dtype = np.result_type(out.dtype, bd.dtype) == out.dtype
    if same_dtype and np.broadcast_shapes(shape, bd.shape) == shape:
        out += bd
    else:
        out = out + bd

    def vjp(g):
        gb = _match(_unbroadcast(g, bd.shape), bd)
        gp = _unbroadcast(g, shape)  # the product's adjoint, real if the product is
        return (*_matmul_vjp(gp.real if real and np.iscomplexobj(gp) else gp, xd, wd), gb)

    return node(out, (x, w, b), vjp)


def _binary(a, b, out, da, db):
    """Node for `out` = a (op) b, where `da`/`db` map the output adjoint to an
    operand's before broadcasting is summed out. Only Tensor operands become
    parents: a python scalar stays unwrapped, so it cannot promote float32."""
    if not isinstance(b, Tensor):
        return node(out, (a,), lambda g: (_match(_unbroadcast(da(g), a.shape), a.data),))
    if not isinstance(a, Tensor):
        return node(out, (b,), lambda g: (_match(_unbroadcast(db(g), b.shape), b.data),))
    return node(out, (a, b), lambda g: (
        _match(_unbroadcast(da(g), a.shape), a.data),
        _match(_unbroadcast(db(g), b.shape), b.data),
    ))


# -- elementwise primitives ---------------------------------------------------


def exp(x):
    x = as_tensor(x)
    out = np.exp(x.data)
    return node(out, (x,), lambda g: (_match(g * np.conj(out), x.data),))


def log(x):
    x = as_tensor(x)
    return node(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x):
    x = as_tensor(x)
    out = np.sqrt(x.data)
    return node(out, (x,), lambda g: (g / (2.0 * out),))


def sigmoid(x):
    x = as_tensor(x)
    # 1 / (1 + exp(-x)), in place in one buffer
    out = np.negative(x.data, out=np.empty(x.shape, np.result_type(x.dtype, 1.0)))
    with np.errstate(over="ignore"):  # exp(-x) = inf far below 0, where 1 / inf = 0 is exact
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return node(out, (x,), lambda g: (g * out * (1.0 - out),))


def gelu(x):
    """Exact Gaussian-error-linear unit x * Phi(x), not the tanh approximation."""
    x = as_tensor(x)
    d = x.data
    cdf = _erf(d * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    out = d * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * d * d)
        return (g * (cdf + d * pdf),)

    return node(out, (x,), vjp)


# Cephes ndtr.c (Moshier 1989), highest power first. erf(x) = x T(x^2) / U(x^2)
# for |x| <= 1, and erfc(a) = exp(-a^2) P(a) / Q(a) for 1 <= a <= 8.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# x T/U is evaluated as x + x (T - U)/U, which scales the ratio's rounding by
# |T/U - 1| <= 0.16; evaluated as written, it is up to 3 ULP off near |x| = 1.
_ERF_V = tuple(t - u for t, u in zip((0.0, *_ERF_T), _ERF_U))


def _erf(x):
    """The error function of a float array, elementwise, from numpy ufuncs.

    Within 2 ULP of the correctly rounded erf in float64; float32 stays
    float32. Elements with |x| > 1 take the erfc form on a = min(|x|, 8),
    beyond which erf is +-1 in double precision.
    """
    x = np.asarray(x)
    flat = x.reshape(-1)
    z = flat * flat
    big = np.flatnonzero(z > 1.0)  # where |x| > 1, not at nan; indices gather faster than a mask
    np.minimum(z, 1.0, out=z)  # keeps the ratio at a big element, overwritten below, finite
    out = _horner(z, _ERF_V)
    out *= flat
    out /= _horner(z, _ERF_U)
    with np.errstate(invalid="ignore"):  # x = +-inf gives inf - inf, overwritten below
        out += flat
    if big.size:
        xb = flat[big]
        a = np.minimum(np.abs(xb), 8.0)
        e = np.multiply(a, a)
        np.negative(e, out=e)
        np.exp(e, out=e)
        e *= _horner(a, _ERF_P)
        e /= _horner(a, _ERF_Q)
        np.subtract(1.0, e, out=e)
        out[big] = np.copysign(e, xb, out=e)
    return out.reshape(x.shape)


def _horner(z, coefs):
    """The polynomial with `coefs`, highest power first, at z, step by step as
    Cephes' polevl takes it; a leading 1 (its p1evl) multiplies exactly."""
    lead, second, *rest = _constants(coefs, z.dtype)
    p = z * lead
    p += second
    for c in rest:
        p *= z
        p += c
    return p


@functools.lru_cache(maxsize=None)
def _constants(values, dtype):
    """`values` as 0-d arrays of `dtype`, which a ufunc takes faster than python floats."""
    return tuple(np.array(v, dtype) for v in values)


def real(x):
    """Real part of a complex tensor as a real tensor."""
    x = as_tensor(x)

    def vjp(g):
        return (g.astype(np.result_type(g.dtype, np.complex64)),)  # float32 -> complex64

    return node(x.data.real, (x,), vjp)


def make_complex(re, im):
    """Combine real tensors into re + i*im."""
    re, im = as_tensor(re), as_tensor(im)
    out = re.data + 1j * im.data
    return node(out, (re, im), lambda g: (g.real, g.imag))


# -- backward pass ------------------------------------------------------------


def gradients(loss, leaves):
    """Gradient bundle keyed by parameter name for a scalar `loss`.

    `leaves` maps names to Tensors. The graph rooted at `loss` is the tape:
    it is walked once in reverse topological order, which leaves each leaf's
    adjoint in the walk's dict. Leaves the loss never reached get zeros, so
    optimizer bookkeeping stays aligned. Each node's VJP is dropped once it
    has run, and with it the arrays it saved, so a graph is differentiated
    once: a second call raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError(f"gradient root must be scalar, got shape {loss.shape}")
    adjoints = {}
    if loss.requires_grad:
        order = []
        seen = set()
        stack = [(loss, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            if t._parents and t._vjp is None:
                raise ValueError("graph was already differentiated; its saved arrays are gone")
            seen.add(id(t))
            stack.append((t, True))
            for p in t._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        seed = loss.dtype if np.issubdtype(loss.dtype, np.inexact) else float
        adjoints[id(loss)] = np.ones(loss.shape, seed)  # a float32 loss keeps a float32 backward
        for t in reversed(order):
            if t._vjp is None:  # a leaf: its adjoint is the result
                continue
            vjp, t._vjp = t._vjp, None
            _accumulate(adjoints, t._parents, vjp(adjoints.pop(id(t))))
    return {
        name: adjoints[id(t)] if id(t) in adjoints else np.zeros_like(t.data)
        for name, t in leaves.items()
    }


def _accumulate(adjoints, parents, parent_adjoints):
    """Add each parent's adjoint into `adjoints`; the arrays summed are released on return."""
    for parent, pg in zip(parents, parent_adjoints):
        if parent.requires_grad:
            acc = adjoints.get(id(parent))
            adjoints[id(parent)] = np.asarray(pg) if acc is None else acc + pg


# -- independent numerical verification ---------------------------------------


def finite_diff_errors(loss_fn, params, epsilon=1e-5, analytic=None):
    """Per-parameter max relative error of autodiff against central differences.

    `loss_fn` maps a dict of Tensors to a scalar Tensor and must be
    deterministic. Every real coordinate (real and imaginary parts counted
    separately for complex arrays) is perturbed by +/- epsilon on leaves that
    require a gradient, so `loss_fn` runs the code path that the analytic
    gradient differentiates (a model's training graph, say). The relative
    error denominator is max(|analytic|, |numeric|, 1e-12); a non-finite
    error counts as inf, so NaN never passes a tolerance. Pass `analytic`
    to check an externally supplied gradient bundle instead.
    """
    params = {k: np.asarray(v) for k, v in params.items()}
    if analytic is None:
        leaves = {k: Tensor(v.copy(), requires_grad=True) for k, v in params.items()}
        analytic = gradients(loss_fn(leaves), leaves)

    def eval_at(values):
        out = loss_fn({k: Tensor(v, requires_grad=True) for k, v in values.items()})
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
