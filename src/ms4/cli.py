"""Command-line entry point.

Verbs: gen, train, eval, stream, gradcheck, kernel-dump, rank, converge.
Every run echoes its resolved flags to stderr so runs are self-documenting;
among them is the seed of gen, train and gradcheck, the verbs that draw
random numbers. stdout carries only machine-readable output. Exit codes:
0 success, 1 usage error (or sizes too large to allocate), 2 data/format
error or a file that cannot be read or written, 3 numeric failure.
The tolerance gates of `stream --check` and `gradcheck` fail closed: a NaN
or negative --tol is a usage error, and a NaN deviation or error is a
numeric failure, as is a non-finite logit in `eval` or `stream`. `stream`
runs each sequence through the recurrence with O(H*N) state per block. No
verb mutates its input files.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import data as data_mod
from . import evaluate as eval_mod
from . import model as model_mod
from . import ssm as ssm_mod
from . import training as train_mod
from .errors import DataFormatError, NumericError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="ms4", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="random seed (printed at startup)")

    def training(p, hidden, state, epochs, batch):
        """The dataset, model-size and `TrainConfig` flags of train and converge."""
        p.add_argument("--data", required=True)
        p.add_argument("--hidden", type=int, default=hidden)
        p.add_argument("--state", type=int, default=state)
        p.add_argument("--dropout", type=float, default=0.1)
        p.add_argument("--epochs", type=int, default=epochs)
        p.add_argument("--batch", type=int, default=batch)
        p.add_argument("--lr", type=float, default=0.001)
        p.add_argument("--val-frac", type=float, default=0.1)
        p.add_argument("--patience", type=int, default=20)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--f-low", type=float, default=0.05)
    p.add_argument("--f-high", type=float, default=0.125)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--features", type=int, default=1)
    p.add_argument("--out", required=True)
    common(p)

    p = sub.add_parser("train", help="train a model on a TSC-CSV dataset")
    training(p, hidden=64, state=64, epochs=200, batch=256)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--normalized", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", default="model.ckpt")
    p.add_argument("--history", default=None)
    common(p)

    p = sub.add_parser("eval", help="print misclassification error of a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch", type=int, default=model_mod.SCORE_BATCH)

    p = sub.add_parser("stream", help="recurrent inference with O(H*N) state per block")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--check", action="store_true",
                   help="compare with the batch path and print the max abs deviation")
    p.add_argument("--tol", type=float, default=1e-4)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradient engine")
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--state", type=int, default=8)
    p.add_argument("--features", type=int, default=3)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--len", type=int, default=16, dest="length")
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--normalized", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-4)
    common(p)

    p = sub.add_parser("kernel-dump", help="write a checkpoint's convolution kernel as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rank", help="summarize an error-matrix CSV")
    p.add_argument("--table", required=True)
    p.add_argument("--std", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("converge", help="MS4 vs MS4N threshold-crossing report")
    training(p, hidden=16, state=8, epochs=50, batch=64)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--out", required=True)

    return parser


def _announce(args):
    flags = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "verb")
    print(f"ms4 {args.verb} | {flags}", file=sys.stderr)


def _train_config(args, seed=0):
    return train_mod.TrainConfig(
        lr=args.lr, batch_size=args.batch, max_epochs=args.epochs,
        patience=args.patience, val_fraction=args.val_frac, seed=seed,
    )


def _cmd_gen(args):
    dataset = data_mod.synth_freq_task(
        args.n, args.length, f_low=args.f_low, f_high=args.f_high,
        noise_std=args.noise, seed=args.seed, n_features=args.features,
    )
    data_mod.save_dataset(dataset, args.out)
    print(args.out)
    return 0


def _cmd_train(args):
    dataset = data_mod.load_dataset(args.data)
    mdl = model_mod.init_model(
        dataset.n_features, args.hidden, args.state, dataset.n_classes,
        n_layers=args.layers, normalized=args.normalized,
        dropout_rate=args.dropout, seed=args.seed,
    )
    print(
        f"model: params={model_mod.count_params(mdl)} "
        f"mmac={model_mod.count_macs(mdl, dataset.length) / 1e6:.3f} (L={dataset.length})",
        file=sys.stderr,
    )
    best, history = train_mod.train(mdl, dataset, _train_config(args, args.seed))
    model_mod.save_checkpoint(best, args.out)
    if args.history:
        train_mod.write_history_csv(history, args.history)
    for i in range(history.n_epochs):
        print(
            f"epoch {i + 1} train_loss {history.train_loss[i]:.6f} "
            f"train_acc {history.train_acc[i]:.4f} val_loss {history.val_loss[i]:.6f} "
            f"val_acc {history.val_acc[i]:.4f}",
            file=sys.stderr,
        )
    print(args.out)
    return 0


def _block_rows(batch, length):
    """Rows per parsed block of `length`-step sequences scored by `batch_logits(x, model, batch)`.

    A multiple of its forward size `score_size(length, batch)`, so every block
    boundary is a forward boundary and each forward scores the sequences it
    would score on the whole file: a sample that would be left alone joins
    the last block, as it joins the last forward.
    """
    return batch - batch % model_mod.score_size(length, batch)


def _error_rate(args, rows, logits_of):
    """Misclassification error of `logits_of(model, x)` over args.data, in blocks of `rows(L)`.

    L is the data header's sequence length, so a block can be sized by it.

    Only the running count of errors is kept, so memory does not grow with
    the file. The checkpoint's F is checked before the first block is scored.
    The first sample with a non-finite logit is raised as NumericError,
    naming its line, only once the last block has parsed, so a later format
    fault still wins; no block after it is scored.
    """
    mdl = model_mod.load_checkpoint(args.model)
    fault = None
    wrong = n = 0
    for block in data_mod.iter_dataset(args.data, rows):
        if block.n_features != mdl.n_features:
            raise DataFormatError(
                f"{args.data}: F={block.n_features} but {args.model} "
                f"expects n_features={mdl.n_features}"
            )
        if fault is None:
            logits = logits_of(mdl, block.x)
            bad = np.flatnonzero(~np.isfinite(logits).all(axis=-1))
            if bad.size:
                i = n + int(bad[0])
                fault = f"{args.data}:{i + 2}: sample {i} has non-finite logits {logits[bad[0]]}"
            wrong += int((np.argmax(logits, axis=-1) != block.y).sum())
        n += block.n_samples
        del block  # not held while the next one is parsed
    if fault is not None:
        raise NumericError(fault)
    return wrong / n  # the float misclassification_error gives on the whole file


def _cmd_eval(args):
    if args.batch < 1:
        raise ValueError(f"batch_size must be >= 1, got {args.batch}")
    error = _error_rate(args, lambda length: _block_rows(args.batch, length),
                        lambda mdl, x: model_mod.batch_logits(x, mdl, args.batch))
    print(repr(error))
    return 0


def _check_tol(tol):
    if not tol >= 0.0:
        raise _UsageError(f"--tol must be >= 0, got {tol}")


def _cmd_stream(args):
    _check_tol(args.tol)
    deviations = []

    def streamed(mdl, x):
        logits = np.stack([model_mod.stream_logits(mdl, xi) for xi in x])
        if args.check and np.isfinite(logits).all():
            deviations.append(np.abs(logits - model_mod.batch_logits(x, mdl)).max())
        return logits

    # a block of one reference forward: stream memory is bounded by SCORE_ROWS rows too
    error = _error_rate(args, lambda length: model_mod.score_size(length, model_mod.SCORE_BATCH),
                        streamed)
    if args.check:
        deviation = float(np.max(deviations))
        print(repr(deviation))
        if not (deviation <= args.tol):
            raise NumericError(
                f"streaming and batch paths deviate by {deviation} > tol {args.tol}"
            )
        return 0
    print(repr(error))
    return 0


def _cmd_gradcheck(args):
    from . import autodiff as ad

    for flag, value in (("--len", args.length), ("--batch", args.batch),
                        ("--features", args.features)):
        if value < 1:
            raise _UsageError(f"{flag} must be >= 1, got {value}")
    if not 0.0 < args.eps < np.inf:
        raise _UsageError(f"--eps must be finite and > 0, got {args.eps}")
    _check_tol(args.tol)
    mdl = model_mod.init_model(
        args.features, args.hidden, args.state, args.classes,
        normalized=args.normalized, dropout_rate=0.0, seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.batch, args.length, args.features))
    labels = rng.integers(0, args.classes, size=args.batch)

    def loss_fn(leaves):
        return train_mod.cross_entropy_t(model_mod.forward_t(ad.Tensor(x), leaves), labels)

    errors = ad.finite_diff_errors(loss_fn, mdl.leaves(), epsilon=args.eps)
    width = max(len(k) for k in errors)
    for name in sorted(errors):
        print(f"{name:<{width}}  {errors[name]:.3e}")
    worst = max(errors.values())
    print(f"{'max':<{width}}  {worst:.3e}")
    if not (worst <= args.tol):
        raise NumericError(f"gradient check failed: max relative error {worst} > {args.tol}")
    return 0


def _cmd_kernel_dump(args):
    mdl = model_mod.load_checkpoint(args.model)
    if not 0 <= args.block < mdl.n_layers:
        raise ValueError(f"--block must be in [0, {mdl.n_layers}), got {args.block}")
    kernel = ssm_mod.compute_kernel(model_mod.block_core(mdl.params, args.block), args.length)
    ssm_mod.write_kernel_csv(kernel, args.out)
    print(args.out)
    return 0


def _cmd_rank(args):
    table = eval_mod.read_error_matrix(args.table)
    if args.std:
        stds = eval_mod.read_error_matrix(args.std)
        if stds.models != table.models or stds.datasets != table.datasets:
            raise DataFormatError(f"{args.std}: names disagree with {args.table}")
        table.stds = stds.errors
    eval_mod.write_summary_csv(eval_mod.summarize(table), args.out)
    print(args.out)
    return 0


def _cmd_converge(args):
    dataset = data_mod.load_dataset(args.data)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s != ""]
    except ValueError as exc:
        raise _UsageError(f"--seeds must be a comma-separated integer list: {exc}") from exc
    if not seeds:
        raise _UsageError("--seeds must name at least one seed")
    rows = train_mod.compare_convergence(
        dataset, _train_config(args), seeds, args.hidden, args.state, args.threshold,
        dropout_rate=args.dropout,
    )
    train_mod.write_convergence_csv(rows, args.out)
    for variant in ("MS4", "MS4N"):
        crossings = [r["crossing_epoch"] for r in rows if r["model"] == variant]
        reached = [c for c in crossings if c is not None]
        mean = sum(reached) / len(reached) if reached else float("nan")
        print(
            f"{variant}: reached threshold in {len(reached)}/{len(crossings)} runs, "
            f"mean crossing epoch {mean:.2f}",
            file=sys.stderr,
        )
    print(args.out)
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "stream": _cmd_stream,
    "gradcheck": _cmd_gradcheck,
    "kernel-dump": _cmd_kernel_dump,
    "rank": _cmd_rank,
    "converge": _cmd_converge,
}


def run(argv):
    """Parse and execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        _announce(args)
        return _HANDLERS[args.verb](args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size that cannot be allocated, e.g. gen --n 10**12
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:  # includes a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv=None):
    try:
        code = run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse -h/--help
        code = exc.code if isinstance(exc.code, int) else 0
    return code


if __name__ == "__main__":
    sys.exit(main())
