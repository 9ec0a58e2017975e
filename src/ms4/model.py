"""MS4 / MS4N classifier: projection, S4D block(s), gated mixing, head.

Pipeline per forward pass (MS4N adds the normalization stage):

    x (L, F) --W1--> x_p (L, H) --S4D--> y --GLU--> g [--LayerNorm--> g]
      --mean over time--> h (H,) --GELU(h W3 + b3) W4 + b4--> logits (n_c,)

With more than one block, the S4D-through-normalization segment repeats on
the H-wide stream; the F -> H projection exists to absorb the input width
and is applied once. Parameters live in plain arrays, float64 by default,
addressable by name (complex pairs stored as separate real arrays), which is
also the unit of accounting for parameter counts.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import ssm
from .errors import DataFormatError

CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """A model is its named parameter arrays, in `param_shapes` order, plus its dropout rate.

    Every size, the block count and whether blocks are normalized are read
    off the names and shapes, so none of them can disagree with the arrays.
    """

    params: dict
    dropout_rate: float

    @property
    def n_features(self):
        return self.params["w1"].shape[0]

    @property
    def n_hidden(self):
        return self.params["w1"].shape[1]

    @property
    def n_state(self):
        return 2 * self.params["block0.ssm.c_re"].shape[1]

    @property
    def head_hidden(self):
        return self.params["w3"].shape[1]

    @property
    def n_classes(self):
        return self.params["w4"].shape[1]

    @property
    def n_layers(self):
        return block_count(self.params)

    @property
    def normalized(self):
        return "block0.gamma" in self.params

    def leaves(self):
        """Flat name -> array of every trainable parameter (a new dict of the same arrays)."""
        return dict(self.params)


def block_count(leaves):
    """Number of blocks in a name -> leaf dict: one `block{i}.w2` each."""
    return sum(name.endswith(".w2") for name in leaves)


def block_core(leaves, i):
    """Block i's S4D core keyed by `ssm.SSM_LEAF_NAMES`: the same leaves, arrays or Tensors."""
    return {name: leaves[f"block{i}.ssm.{name}"] for name in ssm.SSM_LEAF_NAMES}


def param_shapes(n_features, n_hidden, n_state, n_classes, n_layers=1, normalized=True,
                 head_hidden=None):
    """Name -> shape of every parameter, in checkpoint order; allocates nothing.

    This is the one definition of the layout and of its size rules:
    `init_model` fills it and `load_checkpoint` checks a file against it. An
    S4D core stores its complex B, C and eigenvalues as real pairs of (H, N/2)
    arrays beside the per-channel `d` and `log_delta`; MS4N adds `gamma` and
    `beta` per block. A size that is not an integer (by `operator.index`),
    a size below its least, or an odd n_state raises ValueError naming the
    field.
    """
    head = n_hidden if head_hidden is None else head_hidden
    for name, value, least in (("n_features", n_features, 1), ("n_hidden", n_hidden, 1),
                               ("head_hidden", head, 1), ("n_classes", n_classes, 2),
                               ("n_layers", n_layers, 1), ("n_state", n_state, 2)):
        even = name == "n_state"
        try:
            valid = operator.index(value) >= least and not (even and value % 2)
        except TypeError:  # a float, or anything else that is not an integer
            valid = False
        if not valid:
            raise ValueError(f"{name}={value} must be {'an even' if even else 'an'} integer "
                             f">= {least}")
    shapes = {"w1": (n_features, n_hidden), "b1": (n_hidden,)}
    for i in range(n_layers):
        for name in ssm.SSM_LEAF_NAMES:
            per_channel = name in ("d", "log_delta")
            shapes[f"block{i}.ssm.{name}"] = (n_hidden,) if per_channel else (n_hidden, n_state // 2)
        shapes[f"block{i}.w2"], shapes[f"block{i}.b2"] = (n_hidden, 2 * n_hidden), (2 * n_hidden,)
        if normalized:
            shapes[f"block{i}.gamma"] = shapes[f"block{i}.beta"] = (n_hidden,)
    shapes.update(w3=(n_hidden, head), b3=(head,), w4=(head, n_classes), b4=(n_classes,))
    return shapes


def init_model(
    n_features,
    n_hidden,
    n_state,
    n_classes,
    n_layers=1,
    normalized=True,
    dropout_rate=0.1,
    head_hidden=None,
    seed=0,
):
    """Seeded model initialization; linear weights ~ N(0, 1/fan_in), zero biases.

    One generator is drawn in layout order; each block's S4D core is made by
    `ssm.init_s4d_params` from a seed drawn where the core starts.
    """
    if not (0.0 <= dropout_rate < 1.0):
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    rng = np.random.default_rng(seed)
    params = {}
    shapes = param_shapes(n_features, n_hidden, n_state, n_classes, n_layers, normalized,
                          head_hidden)
    for name, shape in shapes.items():
        owner, _, leaf = name.rpartition(".")
        if owner.endswith("ssm"):
            if leaf == ssm.SSM_LEAF_NAMES[0]:  # a block's core starts: draw all of it
                core = ssm.init_s4d_params(n_hidden, n_state, seed=int(rng.integers(2**31)))
            params[name] = core[leaf]
        elif leaf.startswith("w"):
            params[name] = rng.standard_normal(shape) / np.sqrt(shape[0])
        else:  # biases and beta start at zero, gamma at one
            params[name] = np.ones(shape) if leaf == "gamma" else np.zeros(shape)
    return ModelParams(params, dropout_rate)


# -- differentiable pipeline ---------------------------------------------------


LN_EPS = 1e-5  # LayerNorm's variance floor


def glu_t(y, w2, b2):
    """Gated channel mixing: expand H -> 2H, split, a * sigmoid(b). With `layer_norm_t`,
    the generic-op reference that `_mix_node`'s bits are tested against."""
    y2 = ad.affine(y, w2, b2)
    half = y2.shape[-1] // 2
    return y2[..., :half] * ad.sigmoid(y2[..., half:])


def layer_norm_t(g, gamma, beta):
    """Per-time-step standardization over features (population variance)."""
    mu = g.mean(axis=-1, keepdims=True)
    centered = g - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / ad.sqrt(var + LN_EPS) * gamma + beta


def classify_t(g, w3, b3, w4, b4):
    # pooled is (B, 1, H), so numpy's matmul takes one product per sample, whatever B is
    pooled = g.mean(axis=-2, keepdims=True)
    return ad.affine(ad.gelu(ad.affine(pooled, w3, b3)), w4, b4)[..., 0, :]


def channel_mix_t(h, leaves, i):
    """Block i after its S4D stage: GLU channel mixing, then LayerNorm if it has one (MS4N).

    Eval and training run the same node, `_mix_node`; on constants it tapes nothing.
    """
    names = [f"block{i}.{name}" for name in ("w2", "b2", "gamma", "beta")]
    return _mix_node(h, [ad.as_tensor(leaves[name]) for name in names if name in leaves])


def _mix_node(h, params):
    """The channel mix as one node with parents h, w2, b2 and, with LayerNorm, gamma, beta.

    Its forward takes `glu_t` and `layer_norm_t`'s steps in their order on plain
    arrays, in place where that order allows, so its output is theirs bit for bit.
    It saves the GLU's linear half a and its sigmoid gate (two contiguous arrays
    shaped like h) and LayerNorm's per-step mean and deviation; its VJP recomputes
    a * gate and its standardized form from those, in the generic ops' order, so
    its gradients are theirs.
    """
    w2, b2, *norm = (t.data for t in params)
    y2 = ad.affine(h.data, w2, b2).data
    half = y2.shape[-1] // 2
    gate = ad.sigmoid(y2[..., half:]).data
    a = y2[..., :half].copy()
    del y2  # before the output is allocated, so the forward holds at most 4 activations
    out = a * gate
    if norm:  # layer_norm_t's mean, variance and sqrt(var + eps), then its affine steps
        width = out.shape[-1]
        mu = out.sum(axis=-1, keepdims=True) * (1.0 / width)
        out -= mu
        std = np.sqrt((out * out).sum(axis=-1, keepdims=True) * (1.0 / width) + LN_EPS)
        out /= std
        out *= norm[0]
        out += norm[1]
    lead = tuple(range(h.ndim - 1))

    def vjp(grad):
        norm_grads = []
        if norm:  # back through layer_norm_t step by step, in the generic ops' order
            centered = a * gate - mu
            xhat = centered / std
            norm_grads = [(grad * xhat).sum(axis=lead), np.sum(grad, axis=lead)]
            gxhat = grad * norm[0]
            # var's adjoint, through xhat = centered / std and std = sqrt(var + eps)
            gvar = (-gxhat * xhat / std).sum(axis=-1, keepdims=True) / (2.0 * std) * (1.0 / width)
            # centered feeds xhat and, twice, centered * centered; g feeds centered and mu
            grad = gxhat / std + gvar * centered + gvar * centered
            grad = grad + -grad.sum(axis=-1, keepdims=True) * (1.0 / width)
            del centered, xhat, gxhat
        gy2 = np.concatenate([grad * gate, grad * a * gate * (1.0 - gate)], axis=-1)
        gw2 = h.data.reshape(-1, h.shape[-1]).T @ gy2.reshape(-1, gy2.shape[-1])
        return (gy2 @ w2.T, gw2, gy2.sum(axis=lead), *norm_grads)

    return ad.node(out, (h, *params), vjp)


def forward_t(x, leaves, keeps=None):
    """Logits for a (B, L, F) batch given leaf Tensors.

    The blocks are those the leaves name. `keeps` holds one (B, L, H) dropout
    multiplier per block (see `ssm.s4d_apply`); without it no dropout runs.
    When an operand requires a gradient this is the training graph, whose
    blocks are each two nodes over the whole sequence: `ssm.s4d_apply`, which
    runs `ssm.chunk_scan` chunk by chunk on maps built from the leaves, and
    `channel_mix_t`. Otherwise it is the eval forward: the batch is read in
    chunks of `ssm.STREAM_CHUNK` steps, and each is projected and run through
    every block's `ssm.chunk_scan`, from the state the chunk before left and
    the scan arrays of one `memo` lookup, then GELU and `channel_mix_t`. A
    running sum over time feeds `classify_t` its mean, so working memory is
    O(B*STREAM_CHUNK*H + H*T*(T+N)), T = `ssm.SCAN_BLOCK`, whatever L is. BLAS
    is held at one thread: the scan's products are small, and a pool thread
    woken by the mix slowed them.
    """
    n = block_count(leaves)
    if x.requires_grad or any(t.requires_grad for t in leaves.values()):
        h = ad.affine(x, leaves["w1"], leaves["b1"])
        for i in range(n):
            h = ssm.s4d_apply(h, block_core(leaves, i), None if keeps is None else keeps[i])
            h = channel_mix_t(h, leaves, i)
        return classify_t(h, leaves["w3"], leaves["b3"], leaves["w4"], leaves["b4"])
    scans, total = memo(memo_key(leaves)), 0.0
    states = [np.zeros((x.shape[0], *powers[:, 0].shape), powers.dtype) for powers, *_ in scans]
    with _one_blas_thread():
        for lo in range(0, x.shape[-2], ssm.STREAM_CHUNK):
            part = slice(lo, lo + ssm.STREAM_CHUNK)
            h = ad.affine(x.data[:, part], leaves["w1"], leaves["b1"])
            for i, scan in enumerate(scans):
                states[i], y = ssm.chunk_scan(scan, states[i], h.data)
                y = ad.gelu(y) if keeps is None else ad.gelu(y) * keeps[i][:, part]
                h = channel_mix_t(y, leaves, i)
            total = total + h.data.sum(axis=-2)
        mean = ad.Tensor(total[:, None] / x.shape[-2])  # (B, 1, H): one step per sequence
        return classify_t(mean, leaves["w3"], leaves["b3"], leaves["w4"], leaves["b4"])


def memo_key(leaves):
    """The name, dtype, shape and bytes of every S4D leaf (array or Tensor): `memo`'s key."""
    arrays = {k: ad.as_tensor(v).data for k, v in leaves.items() if ".ssm." in k}
    return tuple((k, a.dtype, a.shape, a.tobytes()) for k, a in arrays.items())


@functools.lru_cache(maxsize=2)
def memo(key):
    """Every block's `ssm.scan_arrays`, which serve every sequence length.

    The cores are rebuilt read-only from `key` (a `memo_key`), so a model edited in
    place is another key. It holds two models' arrays. Racing misses build twice.
    """
    leaves = {k: np.frombuffer(data, dtype).reshape(shape) for k, dtype, shape, data in key}
    return [ssm.scan_arrays(block_core(leaves, i))
            for i in range(len(leaves) // len(ssm.SSM_LEAF_NAMES))]


def forward(x, model):
    """Eval-mode logits for one (L, F) sequence or a (B, L, F) batch: `batch_logits` scores both."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and x.shape[1] != model.n_features:  # an error shows the caller's shape
        raise ValueError(f"expected (L, {model.n_features}) input, got {x.shape}")
    return batch_logits(x[None], model)[0] if x.ndim == 2 else batch_logits(x, model)


SCORE_ROWS = 1024  # (sequence, step) rows of one chunk of a scoring forward; bounds its memory
SCORE_BATCH = 256  # sequences scored at once by default: batch_logits, ms4 eval and stream


def score_size(length, batch_size):
    """Sequences per scoring forward at `length` steps, `batch_size` of them scored at once.

    As many as fill SCORE_ROWS rows of one chunk, min(length, ssm.STREAM_CHUNK)
    steps each, and at most half of `batch_size`, so that two forwards can run
    at once, but at least one.
    """
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    return max(1, min(SCORE_ROWS // min(length, ssm.STREAM_CHUNK), batch_size // 2))


TRAIN_SHARD = 32  # sequences per training graph; a batch's shards run on the CPUs at once


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None without one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


# BLAS's thread count is one per process, so the maps that hold it at one
# thread share one count of holders; the first saves the old count and the
# last puts it back.
_blas_lock = threading.Lock()
_blas_hold = {"maps": 0, "saved": None}


@contextlib.contextmanager
def _one_blas_thread():
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    with _blas_lock:
        if _blas_hold["maps"] == 0:
            _blas_hold["saved"] = get()
            put(1)
        _blas_hold["maps"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_hold["maps"] -= 1
            if _blas_hold["maps"] == 0:
                put(_blas_hold["saved"])


def cpu_map(fn, items, max_workers=None):
    """`[fn(item) for item in items]`, on up to one thread per CPU in the affinity set.

    Results keep the order of `items`, and a worker's exception reaches the
    caller. With one worker the call runs in the calling thread. With more,
    BLAS is held at one thread until every worker has finished, so its own
    pool does not compete with the workers; the old count comes back after,
    also when a worker raises. No thread outlives the call.
    """
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if max_workers is not None:
        workers = min(workers, max_workers)
    if workers <= 1:
        return [fn(item) for item in items]
    with _one_blas_thread(), ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def batch_logits(x, model, batch_size=SCORE_BATCH):
    """Eval-mode logits for an (n, L, F) batch, scored on the CPUs of this process.

    Its `forward_t` calls score slices of `score_size(L, batch_size)` sequences,
    and one of what is left. A sample's logits depend on the sample alone, and a
    forward's memory on neither the machine nor n. The forwards run on `cpu_map`,
    about `batch_size` sequences in flight; when there are two or more, `memo` is
    filled first. Input not (n, L, F) raises ValueError.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[-1] != model.n_features:
        raise ValueError(f"expected (n, L, {model.n_features}) input, got {x.shape}")
    step = score_size(x.shape[1], batch_size)  # raises ValueError for L < 1, also when n = 0
    if not x.shape[0]:
        return np.empty((0, model.n_classes))
    parts = [slice(lo, lo + step) for lo in range(0, x.shape[0], step)]
    if len(parts) > 1:  # built here, so that no two workers build them
        memo(memo_key(model.params))
    leaves = {k: ad.Tensor(v) for k, v in model.leaves().items()}
    chunks = cpu_map(lambda part: forward_t(ad.Tensor(x[part]), leaves).data, parts,
                     batch_size // step)
    return np.concatenate(chunks)


def predict(x, model, batch_size=SCORE_BATCH):
    """Argmax labels for an (n, L, F) dataset tensor, evaluated in chunks."""
    return np.argmax(batch_logits(x, model, batch_size), axis=-1)


# -- streaming inference -------------------------------------------------------


def stream_logits(model, x):
    """Classify one (L, F) sequence with O(H*N) recurrent state per block.

    This is `forward_t`'s scan on x as a batch of one, so working memory is
    O(STREAM_CHUNK*H + H*T*(T+N)), T = `ssm.SCAN_BLOCK`, whatever L is, and the
    logits are those of `forward` and `batch_logits` bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"expected (L, {model.n_features}) input, got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("sequence length must be >= 1")
    return forward_t(ad.Tensor(x[None]), {k: ad.Tensor(v) for k, v in model.params.items()}).data[0]


# -- complexity accounting -----------------------------------------------------

NORM_MACS_PER_ENTRY = 4  # mean, variance, scale, affine passes


def count_params(model):
    """Total trainable scalars; complex pairs count as two reals each."""
    return sum(int(v.size) for v in model.leaves().values())


def mac_breakdown(model, length):
    """Analytic multiply-accumulate counts per stage for one forward pass.

    Every forward runs `ssm.chunk_scan` over blocks of T = `ssm.SCAN_BLOCK` steps,
    the last zero-padded. `ssm_kernel` builds the scan's arrays, whatever L is:
    per mode, two MACs to form k*delta*lambda for each power A_bar^k, k <= T, and
    four per complex entry of K[:T] and of the two maps. `ssm_fft` is the scan per
    block and channel: the (T, T) Toeplitz, (T, N) input-to-state and (N, T)
    state-to-output products, and the carry, one complex product per mode. D sits
    on the Toeplitz's diagonal, so `feedthrough` is 0. The head and pooling are
    L-independent; GELU, sigmoid and exp are not counted.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    hidden, state, block = model.n_hidden, model.n_state, ssm.SCAN_BLOCK
    build = (state // 2) * (2 * (block + 1) + 3 * 4 * block)
    scan = -(-length // block) * (block * block + 2 * block * state + 2 * state)
    counts = {
        "projection": length * model.n_features * hidden,
        "ssm_kernel": model.n_layers * hidden * build,
        "ssm_fft": model.n_layers * hidden * scan,
        "feedthrough": 0,
        "mixer": model.n_layers * (length * hidden * 2 * hidden + length * hidden),
        "norm": model.n_layers * NORM_MACS_PER_ENTRY * length * hidden if model.normalized else 0,
        "pooling": length * hidden,
        "head": hidden * model.head_hidden + model.head_hidden * model.n_classes,
    }
    return counts


def count_macs(model, length):
    """Total MACs for one forward pass (raw count)."""
    return sum(mac_breakdown(model, length).values())


# -- checkpoint format ---------------------------------------------------------
# A checkpoint is a JSON text document: format_version, the hyperparameter
# block, and each parameter array by name with its shape and row-major values
# at full decimal precision (floats serialize via repr, so save -> load ->
# forward is bit-identical).


def save_checkpoint(model, path):
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "hyper": {
            "n_features": model.n_features,
            "n_hidden": model.n_hidden,
            "n_state": model.n_state,
            "n_classes": model.n_classes,
            "head_hidden": model.head_hidden,
            "n_layers": model.n_layers,
            "normalized": model.normalized,
            "dropout_rate": model.dropout_rate,
        },
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel(order="C").tolist()}
            for name, arr in model.leaves().items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _numbers(data):
    """Whether `data`, a JSON number or nested lists of them, holds numbers only."""
    if type(data) is not list:
        return type(data) in (int, float)
    kinds = set(map(type, data))
    if list in kinds:
        return kinds == {list} and all(map(_numbers, data))
    return kinds <= {int, float}


def load_checkpoint(path):
    """Read a checkpoint, checking `hyper` and every stored shape against `param_shapes`.

    The model is built from the stored arrays themselves, and nothing is
    sized by the `hyper` block, so a file that claims huge sizes costs only
    its own bytes before it is rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
            raise DataFormatError(f"{path}: not a valid checkpoint: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: checkpoint is a JSON {type(doc).__name__}, not an object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported checkpoint format_version {doc.get('format_version')!r}"
        )
    try:
        hyper = doc["hyper"]
        stored = {
            name: np.array(entry["data"], dtype=float).reshape(entry["shape"])
            for name, entry in doc["params"].items()
        }
        for name in ("n_features", "n_hidden", "n_state", "n_classes", "head_hidden", "n_layers"):
            if type(hyper[name]) is not int:
                raise ValueError(f"hyper {name}={hyper[name]!r} is not an integer")
        if type(hyper["normalized"]) is not bool:
            raise ValueError(f"hyper normalized={hyper['normalized']!r} is not a boolean")
        rate = hyper["dropout_rate"]
        if type(rate) not in (int, float) or not 0.0 <= rate < 1.0:
            raise ValueError(f"hyper dropout_rate={rate!r} is not a number in [0, 1)")
        if hyper["n_layers"] > len(stored):  # every block stores parameters; bounds the layout
            raise ValueError(f"hyper n_layers={hyper['n_layers']} exceeds the {len(stored)} "
                             f"parameters stored")
        expected = param_shapes(hyper["n_features"], hyper["n_hidden"], hyper["n_state"],
                                hyper["n_classes"], hyper["n_layers"], hyper["normalized"],
                                hyper["head_hidden"])
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint: {exc}") from exc
    if stored.keys() != expected.keys():
        names = sorted(stored.keys() ^ expected.keys())
        raise DataFormatError(f"{path}: parameters {names} disagree with the hyper block")
    for name, arr in stored.items():
        if arr.shape != expected[name]:
            raise DataFormatError(
                f"{path}: parameter {name!r} has shape {arr.shape}, "
                f"the hyper block implies {expected[name]}"
            )
        if not _numbers(doc["params"][name]["data"]):  # np.array reads "0_5" and true too
            raise DataFormatError(f"{path}: parameter {name!r} holds a value that is not a number")
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{path}: parameter {name!r} holds a non-finite value")
    return ModelParams({name: stored[name] for name in expected}, rate)
