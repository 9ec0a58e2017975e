"""MS4 / MS4N classifier: projection, S4D block(s), gated mixing, head.

Pipeline per forward pass (MS4N adds the normalization stage):

    x (L, F) --W1--> x_p (L, H) --S4D--> y --GLU--> g [--LayerNorm--> g]
      --mean over time--> h (H,) --GELU(h W3 + b3) W4 + b4--> logits (n_c,)

With more than one block, the S4D-through-normalization segment repeats on
the H-wide stream; the F -> H projection exists to absorb the input width
and is applied once. Parameters live in plain float64 arrays addressable by
name (complex pairs stored as separate real arrays), which is also the unit
of accounting for parameter counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import ssm
from .errors import DataFormatError

CHECKPOINT_VERSION = 1


@dataclass
class BlockParams:
    """One S4D + channel-mixing block; gamma/beta present only when normalized."""

    ssm: ssm.SsmParams
    w2: np.ndarray
    b2: np.ndarray
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None


@dataclass
class ModelParams:
    w1: np.ndarray
    b1: np.ndarray
    blocks: list[BlockParams]
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray
    normalized: bool
    dropout_rate: float

    @property
    def n_features(self):
        return self.w1.shape[0]

    @property
    def n_hidden(self):
        return self.w1.shape[1]

    @property
    def n_state(self):
        return self.blocks[0].ssm.n_state

    @property
    def head_hidden(self):
        return self.w3.shape[1]

    @property
    def n_classes(self):
        return self.w4.shape[1]

    @property
    def n_layers(self):
        return len(self.blocks)

    def leaves(self):
        """Flat name -> array view of every trainable parameter."""
        out = {"w1": self.w1, "b1": self.b1}
        for i, blk in enumerate(self.blocks):
            out.update(blk.ssm.leaves(prefix=f"block{i}.ssm."))
            out[f"block{i}.w2"] = blk.w2
            out[f"block{i}.b2"] = blk.b2
            if self.normalized:
                out[f"block{i}.gamma"] = blk.gamma
                out[f"block{i}.beta"] = blk.beta
        out.update({"w3": self.w3, "b3": self.b3, "w4": self.w4, "b4": self.b4})
        return out

    def with_leaves(self, leaves):
        """Copy of the model with arrays replaced from a leaf dict."""
        blocks = []
        for i, blk in enumerate(self.blocks):
            blocks.append(
                BlockParams(
                    ssm=blk.ssm.with_leaves(leaves, prefix=f"block{i}.ssm."),
                    w2=np.asarray(leaves[f"block{i}.w2"]),
                    b2=np.asarray(leaves[f"block{i}.b2"]),
                    gamma=np.asarray(leaves[f"block{i}.gamma"]) if self.normalized else None,
                    beta=np.asarray(leaves[f"block{i}.beta"]) if self.normalized else None,
                )
            )
        return replace(
            self,
            w1=np.asarray(leaves["w1"]),
            b1=np.asarray(leaves["b1"]),
            blocks=blocks,
            w3=np.asarray(leaves["w3"]),
            b3=np.asarray(leaves["b3"]),
            w4=np.asarray(leaves["w4"]),
            b4=np.asarray(leaves["b4"]),
        )


def init_model(
    n_features,
    n_hidden,
    n_state,
    n_classes,
    n_layers=1,
    normalized=True,
    dropout_rate=0.1,
    head_hidden=None,
    dt_min=1e-3,
    dt_max=1e-1,
    seed=0,
):
    """Seeded model initialization; linear weights ~ N(0, 1/fan_in), zero biases."""
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    if not (0.0 <= dropout_rate < 1.0):
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
    head_hidden = n_hidden if head_hidden is None else head_hidden
    rng = np.random.default_rng(seed)

    def linear(n_in, n_out):
        return rng.standard_normal((n_in, n_out)) / np.sqrt(n_in), np.zeros(n_out)

    w1, b1 = linear(n_features, n_hidden)
    blocks = []
    for _ in range(n_layers):
        block_ssm = ssm.init_s4d_params(
            n_hidden, n_state, dt_min=dt_min, dt_max=dt_max, seed=int(rng.integers(2**31))
        )
        w2, b2 = linear(n_hidden, 2 * n_hidden)
        blocks.append(
            BlockParams(
                ssm=block_ssm,
                w2=w2,
                b2=b2,
                gamma=np.ones(n_hidden) if normalized else None,
                beta=np.zeros(n_hidden) if normalized else None,
            )
        )
    w3, b3 = linear(n_hidden, head_hidden)
    w4, b4 = linear(head_hidden, n_classes)
    return ModelParams(w1, b1, blocks, w3, b3, w4, b4, normalized, dropout_rate)


# -- differentiable pipeline ---------------------------------------------------


def glu_t(y, w2, b2):
    """Gated channel mixing: expand H -> 2H, split, a * sigmoid(b)."""
    y2 = y @ w2 + b2
    half = y2.shape[-1] // 2
    return y2[..., :half] * ad.sigmoid(y2[..., half:])


def layer_norm_t(g, gamma, beta, eps=1e-5):
    """Per-time-step standardization over features (population variance)."""
    mu = g.mean(axis=-1, keepdims=True)
    centered = g - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / ad.sqrt(var + eps) * gamma + beta


def classify_t(g, w3, b3, w4, b4):
    pooled = g.mean(axis=-2)
    return ad.gelu(pooled @ w3 + b3) @ w4 + b4


def channel_mix_t(h, leaves, i, normalized):
    """Block i after its S4D stage: GLU channel mixing, then LayerNorm for MS4N."""
    h = glu_t(h, leaves[f"block{i}.w2"], leaves[f"block{i}.b2"])
    if normalized:
        h = layer_norm_t(h, leaves[f"block{i}.gamma"], leaves[f"block{i}.beta"])
    return h


def forward_t(x, leaves, n_layers, normalized, dropout_rate, training, rng):
    """Logits for a (B, L, F) batch given leaf Tensors; the training graph."""
    h = x @ leaves["w1"] + leaves["b1"]
    for i in range(n_layers):
        p = {name: leaves[f"block{i}.ssm.{name}"] for name in ssm.SSM_LEAF_NAMES}
        h = ssm.s4d_apply(h, p, dropout_rate, training, rng)
        h = channel_mix_t(h, leaves, i, normalized)
    return classify_t(h, leaves["w3"], leaves["b3"], leaves["w4"], leaves["b4"])


def forward(x, model, training=False, seed=0):
    """Logits for one (L, F) sequence or a (B, L, F) batch of sequences."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 2
    if single:
        x = x[None]
    if x.ndim != 3 or x.shape[-1] != model.n_features:
        raise ValueError(f"expected (..., L, {model.n_features}) input, got {x.shape}")
    if x.shape[-2] < 1:
        raise ValueError("sequence length must be >= 1")
    leaves = {k: ad.Tensor(v) for k, v in model.leaves().items()}
    rng = np.random.default_rng(seed)
    logits = forward_t(
        ad.Tensor(x), leaves, model.n_layers, model.normalized,
        model.dropout_rate, training, rng,
    ).data
    return logits[0] if single else logits


def batch_logits(x, model, batch_size=256):
    """Eval-mode logits for an (n, L, F) dataset tensor, `batch_size` sequences per forward."""
    x = np.asarray(x, dtype=float)
    logits = np.empty((x.shape[0], model.n_classes))
    for start in range(0, x.shape[0], batch_size):
        logits[start : start + batch_size] = forward(x[start : start + batch_size], model)
    return logits


def predict(x, model, batch_size=256):
    """Argmax labels for an (n, L, F) dataset tensor, evaluated in chunks."""
    return np.argmax(batch_logits(x, model, batch_size), axis=-1)


# -- streaming inference -------------------------------------------------------

STREAM_CHUNK = 64  # steps per pass through the pointwise stages; bounds working memory


def stream_logits(model, x):
    """Classify one (L, F) sequence with O(H*N) recurrent state per block.

    The sequence is read in chunks of STREAM_CHUNK steps, so working memory
    is O(STREAM_CHUNK*H*N) whatever L is. Each block runs a chunk through
    `ssm.chunk_scanner` (the chunk's convolution plus the state carried from
    the previous chunk), then applies GELU and `channel_mix_t` exactly as
    `forward_t` does. A running sum over time replaces pooling and feeds
    the shared head `classify_t`.

    Equals the batch `forward` in eval mode up to roundoff.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(f"expected (L, {model.n_features}) input, got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("sequence length must be >= 1")
    leaves = {k: ad.Tensor(v) for k, v in model.leaves().items()}
    chunk = min(STREAM_CHUNK, x.shape[0])
    scanners = [ssm.chunk_scanner(blk.ssm, chunk) for blk in model.blocks]
    states = [ssm.StreamState.for_params(blk.ssm) for blk in model.blocks]
    total = np.zeros(model.n_hidden)
    for start in range(0, x.shape[0], chunk):
        h = x[start : start + chunk] @ model.w1 + model.b1
        for i in range(model.n_layers):
            states[i], y = scanners[i](states[i], h)
            h = channel_mix_t(ad.gelu(ad.Tensor(y)), leaves, i, model.normalized).data
        total += h.sum(axis=0)
    mean = ad.Tensor(total.reshape(1, 1, -1) / x.shape[0])  # one sequence of one step
    return classify_t(mean, leaves["w3"], leaves["b3"], leaves["w4"], leaves["b4"]).data[0]


# -- complexity accounting -----------------------------------------------------

KERNEL_MACS_PER_ENTRY = 6  # 2 to form k*delta*lambda, 4 for the complex multiply-accumulate
NORM_MACS_PER_ENTRY = 4  # mean, variance, scale, affine passes


def count_params(model):
    """Total trainable scalars; complex pairs count as two reals each."""
    return sum(int(v.size) for v in model.leaves().values())


def mac_breakdown(model, length, n_features=None):
    """Analytic multiply-accumulate counts per stage for one forward pass.

    FFT stages are charged 5*P*log2(P) real MACs per transform at padded
    length P (three transforms per channel) plus four per pointwise complex
    product; these are the only terms not proportional to L. The head and
    pooling costs are L-independent constants. Transcendental evaluations
    (GELU, sigmoid, exp) are not counted as MACs.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    n_feat = model.n_features if n_features is None else int(n_features)
    hidden = model.n_hidden
    modes = model.n_state // 2
    padded = ssm._next_pow2(2 * length - 1)
    fft_per_channel = 3 * 5 * padded * int(np.log2(padded)) + 4 * padded
    counts = {
        "projection": length * n_feat * hidden,
        "ssm_kernel": model.n_layers * length * hidden * modes * KERNEL_MACS_PER_ENTRY,
        "ssm_fft": model.n_layers * hidden * fft_per_channel,
        "feedthrough": model.n_layers * length * hidden,
        "mixer": model.n_layers * (length * hidden * 2 * hidden + length * hidden),
        "norm": model.n_layers * NORM_MACS_PER_ENTRY * length * hidden if model.normalized else 0,
        "pooling": length * hidden,
        "head": hidden * model.head_hidden + model.head_hidden * model.n_classes,
    }
    return counts


def count_macs(model, length, n_features=None):
    """Total MACs for one forward pass (raw count)."""
    return sum(mac_breakdown(model, length, n_features).values())


def count_mmacs(model, length, n_features=None):
    """Forward-pass cost in MMac (10^6 multiply-accumulates)."""
    return count_macs(model, length, n_features) / 1e6


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


def load_checkpoint(path):
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
        raw = doc["params"]
        leaves = {
            name: np.array(entry["data"], dtype=float).reshape(entry["shape"])
            for name, entry in raw.items()
        }
        template = init_model(
            n_features=hyper["n_features"],
            n_hidden=hyper["n_hidden"],
            n_state=hyper["n_state"],
            n_classes=hyper["n_classes"],
            n_layers=hyper["n_layers"],
            normalized=hyper["normalized"],
            dropout_rate=hyper["dropout_rate"],
            head_hidden=hyper["head_hidden"],
        )
    except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint: {exc}") from exc
    expected = template.leaves()
    if leaves.keys() != expected.keys():
        names = sorted(leaves.keys() ^ expected.keys())
        raise DataFormatError(f"{path}: parameters {names} disagree with the hyper block")
    for name, arr in leaves.items():
        if arr.shape != expected[name].shape:
            raise DataFormatError(
                f"{path}: parameter {name!r} has shape {arr.shape}, "
                f"the hyper block implies {expected[name].shape}"
            )
        if not np.isfinite(arr).all():
            raise DataFormatError(f"{path}: parameter {name!r} holds a non-finite value")
    return template.with_leaves(leaves)
