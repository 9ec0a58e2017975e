"""Training protocol: Adam, softmax cross-entropy, early stopping, history.

A run makes a seeded stratified validation split, iterates shuffled
mini-batches, and stops once validation loss has failed to improve for
`patience` consecutive epochs, returning the parameters from the epoch with
the lowest validation loss (earliest epoch on ties). Everything downstream
of the seed is deterministic; the eigenvalue stability invariant
(all |A_bar| < 1) is asserted after every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import model as model_mod
from . import ssm
from .errors import NumericError

BETA1, BETA2, EPS_ADAM = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 20
    val_fraction: float = 0.10
    seed: int = 0

    def validate(self):
        # lr = 0 is allowed so early-stopping mechanics can be exercised in
        # isolation; negative and non-finite rates are rejected.
        if not 0.0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")


@dataclass
class TrainHistory:
    """Per-epoch metrics (1-based epochs) plus checkpoint bookkeeping."""

    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    best_epoch: int = 0

    @property
    def n_epochs(self):
        return len(self.val_loss)


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy of plain (B, n_c) or (n_c,) logits; see cross_entropy_t."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim == 1:
        logits, labels = logits[None], [labels]
    labels = np.asarray(labels)
    n_c = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_c):
        raise ValueError(f"labels must lie in [0, {n_c})")
    return float(cross_entropy_t(ad.Tensor(logits), labels).data)


def cross_entropy_t(logits, labels):
    """Differentiable batch-mean -log softmax(z)[label], max-shifted, on (B, n_c) logits."""
    shifted = logits - logits.data.max(axis=-1, keepdims=True)
    lse = ad.log(ad.exp(shifted).sum(axis=-1))
    return (lse - shifted[np.arange(logits.shape[0]), np.asarray(labels)]).mean()


def adam_step(params, grads, moment1, moment2, t, config):
    """Bias-corrected Adam update; returns new (params, moment1, moment2)."""
    if t < 1:
        raise ValueError(f"Adam step index must be >= 1, got {t}")
    new_p, new_m, new_v = {}, {}, {}
    for key, p in params.items():
        g = grads[key]
        m = BETA1 * moment1[key] + (1.0 - BETA1) * g
        v = BETA2 * moment2[key] + (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        new_p[key] = p - config.lr * m_hat / (np.sqrt(v_hat) + EPS_ADAM)
        new_m[key] = m
        new_v[key] = v
    return new_p, new_m, new_v


def evaluate(mdl, dataset):
    """(mean loss, misclassification error) of a model on a dataset, eval mode."""
    logits = model_mod.batch_logits(dataset.x, mdl)
    wrong = int((np.argmax(logits, axis=-1) != dataset.y).sum())
    return cross_entropy(logits, dataset.y), wrong / dataset.n_samples


def train(mdl, dataset, config):
    """Fit a model; returns (model at best validation loss, TrainHistory).

    Each batch's gradient is the sum over shards of `model.TRAIN_SHARD`
    sequences, each its own tape with its loss scaled by shard/batch, run on
    `model.cpu_map`; the sums are taken in shard order, so the result does
    not depend on the CPU count. Each validation pass's scan arrays leave
    `model.memo` after it: the parameters change every step, so none is used
    twice, and a run leaves none behind.
    """
    config.validate()
    if dataset.n_classes < 2 or np.unique(dataset.y).size < 2:
        raise ValueError("training requires at least two classes present in the data")
    train_set, val_set = data_mod.split(dataset, config.val_fraction, config.seed)

    leaves = {k: v.copy() for k, v in mdl.leaves().items()}
    dtype = leaves["w1"].dtype
    moment1 = {k: np.zeros_like(v) for k, v in leaves.items()}
    moment2 = {k: np.zeros_like(v) for k, v in leaves.items()}
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    best_loss = np.inf
    best_leaves = {k: v.copy() for k, v in leaves.items()}
    since_improve = 0
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(train_set.n_samples)
        loss_sum = 0.0
        correct = 0
        for start in range(0, train_set.n_samples, config.batch_size):
            batch = order[start : start + config.batch_size]
            xb, yb = train_set.x[batch].astype(dtype, copy=False), train_set.y[batch]
            # One mask per block for the whole batch, drawn in block order
            # before sharding, so no draw depends on the shards. Batch and
            # masks take the parameters' dtype, so a float32 model stays float32.
            keeps = None
            if mdl.dropout_rate > 0.0:
                shape = (len(batch), xb.shape[1], mdl.n_hidden)
                scale = dtype.type(1.0 - mdl.dropout_rate)
                keeps = [(rng.random(shape) >= mdl.dropout_rate).astype(dtype) / scale
                         for _ in range(mdl.n_layers)]
            tensors = {k: ad.Tensor(v, requires_grad=True) for k, v in leaves.items()}

            def shard_step(lo):
                """Loss share, logits and gradients of sequences lo:lo+TRAIN_SHARD, one tape."""
                part = slice(lo, lo + model_mod.TRAIN_SHARD)
                logits = model_mod.forward_t(
                    ad.Tensor(xb[part]), tensors, None if keeps is None else [k[part] for k in keeps]
                )
                loss = cross_entropy_t(logits, yb[part]) * (len(yb[part]) / len(yb))
                if not np.isfinite(loss.data):
                    raise NumericError(f"non-finite training loss at epoch {epoch}")
                return float(loss.data), logits.data, ad.gradients(loss, tensors)

            shards = model_mod.cpu_map(shard_step, range(0, len(batch), model_mod.TRAIN_SHARD))
            grads = {k: sum(g[k] for _, _, g in shards) for k in leaves}
            step += 1
            leaves, moment1, moment2 = adam_step(leaves, grads, moment1, moment2, step, config)
            loss_sum += sum(loss for loss, _, _ in shards) * len(batch)
            logits = np.concatenate([z for _, z, _ in shards])
            correct += int((np.argmax(logits, axis=-1) == yb).sum())

        radii = np.array([np.abs(ssm.zoh_discretize(model_mod.block_core(leaves, i))[0])
                          for i in range(mdl.n_layers)])
        if not (radii < 1.0).all():
            raise NumericError(f"|A_bar| >= 1 after epoch {epoch}: max {radii.max()}")

        val_loss, val_err = evaluate(replace(mdl, params=leaves), val_set)
        model_mod.memo.cache_clear()
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        history.train_loss.append(loss_sum / train_set.n_samples)
        history.train_acc.append(correct / train_set.n_samples)
        history.val_loss.append(val_loss)
        history.val_acc.append(1.0 - val_err)

        if val_loss < best_loss:
            best_loss = val_loss
            best_leaves = {k: v.copy() for k, v in leaves.items()}
            history.best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= config.patience:
                break

    return replace(mdl, params=best_leaves), history


def write_history_csv(history, path):
    """history.csv with columns epoch, train_loss, train_acc, val_loss, val_acc."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,train_loss,train_acc,val_loss,val_acc\n")
        for i in range(history.n_epochs):
            fh.write(
                f"{i + 1},{history.train_loss[i]!r},{history.train_acc[i]!r},"
                f"{history.val_loss[i]!r},{history.val_acc[i]!r}\n"
            )


def compare_convergence(dataset, config, seeds, n_hidden, n_state, threshold, dropout_rate=0.1):
    """Threshold-crossing comparison between the plain and normalized variants.

    Trains both variants from matched seeds and reports, per (seed, variant),
    the first epoch whose validation accuracy reaches `threshold`. The
    ordering is reported, never asserted: which variant converges faster is
    an empirical, per-dataset question. A threshold outside [0, 1] is
    rejected before any training.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    rows = []
    for seed in seeds:
        for normalized in (False, True):
            mdl = model_mod.init_model(
                dataset.n_features,
                n_hidden,
                n_state,
                dataset.n_classes,
                normalized=normalized,
                dropout_rate=dropout_rate,
                seed=seed,
            )
            _, history = train(mdl, dataset, replace(config, seed=seed))
            crossed = [i for i, acc in enumerate(history.val_acc, 1) if acc >= threshold]
            rows.append(
                {
                    "seed": seed,
                    "model": "MS4N" if normalized else "MS4",
                    "crossing_epoch": crossed[0] if crossed else None,
                    "epochs_run": history.n_epochs,
                    "best_epoch": history.best_epoch,
                    "best_val_loss": min(history.val_loss),
                }
            )
    return rows


def write_convergence_csv(rows, path):
    """Report CSV: seed,model,crossing_epoch,epochs_run,best_epoch,best_val_loss."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("seed,model,crossing_epoch,epochs_run,best_epoch,best_val_loss\n")
        for row in rows:
            crossing = "" if row["crossing_epoch"] is None else str(row["crossing_epoch"])
            fh.write(
                f"{row['seed']},{row['model']},{crossing},{row['epochs_run']},"
                f"{row['best_epoch']},{row['best_val_loss']!r}\n"
            )
