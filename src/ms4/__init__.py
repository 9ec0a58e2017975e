"""Diagonal state-space sequence models (S4D / MS4 / MS4N) for time-series
classification: kernel math, training, streaming inference, and a benchmark
evaluation harness."""

from .data import Dataset, load_dataset, save_dataset, split, normalize, synth_freq_task
from .errors import DataFormatError, NumericError
from .evaluate import (
    EvalTable,
    average_rank,
    fold_std,
    load_fixture,
    misclassification_error,
    summarize,
)
from .model import (
    ModelParams,
    count_macs,
    count_mmacs,
    count_params,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    stream_logits,
)
from .ssm import (
    StreamState,
    compute_kernel,
    fft_causal_conv,
    init_s4d_params,
    recurrent_step,
    stream_sequence,
    zoh_discretize,
)
from .training import TrainConfig, TrainHistory, adam_step, compare_convergence, cross_entropy, train

__version__ = "0.1.0"
