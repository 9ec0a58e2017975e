"""The four benchmark workloads.

Each workload is built from the workload seed alone: its inputs come from
`data.synth_freq_task` and its parameters from `model.init_model`, and the
program receives nothing else. All are closed loop with one client: the
next operation starts when the previous one returns.

A workload object does its set-up in the constructor (input and checkpoint
generation plus one warm-up call), computes the references its output
checks need in `prepare_checks`, runs one operation per `op` call, and
judges that operation's output in `check`. A check returns None when the
output is right and a message otherwise; every comparison is written as
`not (deviation <= tol)` so that NaN fails.
"""

from __future__ import annotations

import os

import numpy as np

from ms4 import data, evaluate, model, training

HIDDEN = 64
STATE = 64
STREAM_TOL = 1e-9


def sub_seed(seed, index):
    """Independent seed for operation `index` of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _max_deviation(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class Train:
    """`training.train` on the criterion-9 data recipe at the CLI width.

    Every operation is one call of EPOCHS epochs with its own split and
    shuffle seed; patience equals EPOCHS, so early stopping never shortens it.
    """

    name = "train"
    op_span = "training.train"
    min_ops = 0
    values_per_load = 0
    EPOCHS = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dataset = data.synth_freq_task(400, 128, noise_std=0.3, seed=seed)
        self.model = model.init_model(
            1, HIDDEN, STATE, 2, normalized=True, dropout_rate=0.1, seed=seed
        )
        train_part, _ = data.split(self.dataset, 0.1, seed)
        self.samples_per_epoch = train_part.n_samples
        training.train(self.model, self.dataset.take(np.arange(128)), self._config(seed, 1))

    @staticmethod
    def _config(seed, epochs):
        return training.TrainConfig(
            lr=1e-3, batch_size=64, max_epochs=epochs, patience=epochs, val_fraction=0.1, seed=seed
        )

    def prepare_checks(self):
        pass

    def op(self, request):
        _, history = training.train(
            self.model, self.dataset, self._config(sub_seed(self.seed, request), self.EPOCHS)
        )
        return self.samples_per_epoch * history.n_epochs, history

    def check(self, request, history):
        if history.n_epochs != self.EPOCHS:
            return f"ran {history.n_epochs} epochs, expected {self.EPOCHS}"
        if not np.isfinite(np.array(history.train_loss + history.val_loss)).all():
            return "non-finite loss"
        return None


class InferLong:
    """`model.forward` on single L=4096 sequences with the criterion-6 model.

    Requests cycle over N_INPUTS distinct sequences. Each response must be
    bit-identical to the first response for its input, and that first
    response must match `model.stream_logits` within STREAM_TOL.
    """

    name = "infer-long"
    op_span = "model.forward"
    min_ops = 100  # so that p90 has at least ten samples above it
    values_per_load = 0
    N_INPUTS = 4
    LENGTH = 4096

    def __init__(self, seed, workdir):
        self.inputs = data.synth_freq_task(
            self.N_INPUTS, self.LENGTH, noise_std=0.3, seed=seed, n_features=4
        ).x
        self.model = model.init_model(
            4, HIDDEN, STATE, 10, normalized=True, dropout_rate=0.0, seed=seed
        )
        model.forward(self.inputs[0], self.model)
        self.first = {}

    def prepare_checks(self):
        self.reference = [model.stream_logits(self.model, x) for x in self.inputs]

    def op(self, request):
        return 1, model.forward(self.inputs[request % self.N_INPUTS], self.model)

    def check(self, request, logits):
        k = request % self.N_INPUTS
        first = self.first.setdefault(k, logits)
        if first is logits:
            dev = _max_deviation(logits, self.reference[k])
            if not (dev <= STREAM_TOL):
                return f"input {k}: forward deviates from stream_logits by {dev}"
        elif not np.array_equal(logits, first):
            return f"input {k}: response differs from the first response"
        return None


class EvalBatch:
    """The `ms4 eval` path through the library: load_checkpoint, load_dataset
    on a TSC-CSV test set, predict in chunks of CHUNK, misclassification_error.

    The error must equal the one computed with `model.forward` on the
    in-memory arrays and parameters the files were written from.
    """

    name = "eval-batch"
    op_span = "cli.eval"
    min_ops = 0
    N_SAMPLES = 1024
    LENGTH = 256
    N_FEATURES = 4
    CHUNK = 256
    values_per_load = N_SAMPLES * LENGTH * N_FEATURES

    def __init__(self, seed, workdir):
        self.dataset = data.synth_freq_task(
            self.N_SAMPLES, self.LENGTH, noise_std=0.3, seed=seed, n_features=self.N_FEATURES
        )
        self.model = model.init_model(
            self.N_FEATURES, HIDDEN, STATE, 2, normalized=True, dropout_rate=0.1, seed=seed
        )
        self.data_path = os.path.join(workdir, "test.csv")
        self.model_path = os.path.join(workdir, "model.ckpt")
        data.save_dataset(self.dataset, self.data_path)
        model.save_checkpoint(self.model, self.model_path)
        model.predict(self.dataset.x[:32], model.load_checkpoint(self.model_path), self.CHUNK)

    def prepare_checks(self):
        x = self.dataset.x
        labels = np.concatenate([
            np.argmax(model.forward(x[start : start + self.CHUNK], self.model), axis=-1)
            for start in range(0, self.N_SAMPLES, self.CHUNK)
        ])
        self.reference_error = evaluate.misclassification_error(labels, self.dataset.y)

    def op(self, request):
        mdl = model.load_checkpoint(self.model_path)
        dataset = data.load_dataset(self.data_path)
        predictions = model.predict(dataset.x, mdl, batch_size=self.CHUNK)
        return dataset.n_samples, evaluate.misclassification_error(predictions, dataset.y)

    def check(self, request, error):
        dev = abs(error - self.reference_error)
        if not (dev <= 0.0):
            return f"error {error!r} differs from the forward reference {self.reference_error!r}"
        return None


class Stream:
    """`model.stream_logits` on one L=1024 sequence at a time: the per-step
    recurrence and pointwise tail, which the other workloads never run.

    Operations cycle over N_INPUTS sequences; each output must match
    `model.forward` on the same sample within STREAM_TOL.
    """

    name = "stream"
    op_span = "model.stream_logits"
    min_ops = 0
    values_per_load = 0
    N_INPUTS = 8
    LENGTH = 1024

    def __init__(self, seed, workdir):
        self.inputs = data.synth_freq_task(
            self.N_INPUTS, self.LENGTH, noise_std=0.3, seed=seed, n_features=4
        ).x
        self.model = model.init_model(
            4, HIDDEN, STATE, 2, normalized=True, dropout_rate=0.1, seed=seed
        )
        model.stream_logits(self.model, self.inputs[0])

    def prepare_checks(self):
        self.reference = [model.forward(x, self.model) for x in self.inputs]

    def op(self, request):
        k = request % self.N_INPUTS
        return self.LENGTH, model.stream_logits(self.model, self.inputs[k])

    def check(self, request, logits):
        k = request % self.N_INPUTS
        dev = _max_deviation(logits, self.reference[k])
        if not (dev <= STREAM_TOL):
            return f"input {k}: stream_logits deviates from forward by {dev}"
        return None


WORKLOADS = {w.name: w for w in (Train, InferLong, EvalBatch, Stream)}
