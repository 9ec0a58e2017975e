"""Acceptance suite: the ten exit criteria, each at its stated tolerance and
runtime budget, printing one PASS/FAIL line per criterion (run with -s).

Headline benchmark experiments are not reproducible at desk scale, so these
are property checks plus fixture-table checks; criterion 9's expected history
was produced once by this recipe and frozen under tests/data/.
"""

import time
from pathlib import Path

import numpy as np

from ms4 import data, evaluate, model, ssm, training

import helpers

DATA_DIR = Path(__file__).parent / "data"


def report(number, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget: {elapsed:.2f}s"


def test_criterion_1_convolution_recurrence_duality():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        channels = int(rng.integers(1, 9))
        n_state = 2 * int(rng.integers(1, 9))
        length = int(rng.integers(1, 257))
        params = helpers.random_ssm_params(rng, channels, n_state)
        x = rng.standard_normal((length, channels))
        conv = ssm.fft_causal_conv(x, ssm.compute_kernel(params, length)) + x * params["d"]
        streamed = ssm.stream_sequence(params, x)
        worst = max(worst, float(np.abs(streamed - conv).max()))
    elapsed = time.perf_counter() - start
    report(1, "convolution-recurrence duality", worst <= 1e-9, elapsed, 5,
           f"max abs deviation {worst:.3e} over 50 pairs (tol 1e-9)")


def test_criterion_2_fft_vs_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for case in range(20):
        length = int(rng.integers(1, 513)) if case else 512
        channels = int(rng.integers(1, 5))
        x = rng.standard_normal((length, channels))
        kernel = rng.standard_normal((length, channels))
        gap = np.abs(ssm.fft_causal_conv(x, kernel) - helpers.direct_causal_conv(x, kernel))
        worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - start
    report(2, "FFT vs brute-force convolution", worst <= 1e-10, elapsed, 2,
           f"max abs deviation {worst:.3e} over 20 cases (tol 1e-10)")


def test_criterion_3_gradient_correctness():
    from ms4 import autodiff as ad

    start = time.perf_counter()
    mdl = model.init_model(3, 8, 8, 3, normalized=True, dropout_rate=0.0, seed=0)
    rng = np.random.default_rng(103)
    x = rng.standard_normal((2, 16, 3))
    labels = np.array([0, 2])

    def loss_fn(leaves):
        logits = model.forward_t(ad.Tensor(x), leaves)
        return training.cross_entropy_t(logits, labels)

    errors = ad.finite_diff_errors(loss_fn, mdl.leaves(), epsilon=1e-4)
    worst = max(errors.values())
    elapsed = time.perf_counter() - start
    report(3, "full-model gradient vs central differences", worst <= 1e-4, elapsed, 30,
           f"max relative error {worst:.3e} over {len(errors)} parameter groups (tol 1e-4)")


def test_criterion_4_normalization_parameter_delta():
    start = time.perf_counter()
    ms4n = model.init_model(4, 64, 64, 10, normalized=True, seed=0)
    ms4 = model.init_model(4, 64, 64, 10, normalized=False, seed=0)
    delta = model.count_params(ms4n) - model.count_params(ms4)
    elapsed = time.perf_counter() - start
    report(4, "normalization parameter delta", delta == 2 * 64 == 128, elapsed, 5,
           f"count_params(MS4N) - count_params(MS4) = {delta} (expected 128 at H=64)")


def test_criterion_5_fixture_reproduction():
    start = time.perf_counter()
    table = evaluate.load_fixture("monster")
    ms4n_mean = float(table.row("MS4N").mean())
    ms4_mean = float(table.row("MS4").mean())
    ok = abs(ms4n_mean - 0.185) <= 0.003 and abs(ms4_mean - 0.191) <= 0.003
    elapsed = time.perf_counter() - start
    report(5, "fixture column means", ok, elapsed, 5,
           f"MS4N mean {ms4n_mean:.4f} (0.185 +/- 0.003), MS4 mean {ms4_mean:.4f} (0.191 +/- 0.003)")


def test_criterion_6_linear_scaling_in_length():
    start = time.perf_counter()
    mdl = model.init_model(4, 64, 64, 10, normalized=True, dropout_rate=0.0, seed=0)
    rng = np.random.default_rng(106)
    inputs = {length: rng.standard_normal((length, 4)) for length in (4096, 8192)}
    for x in inputs.values():
        model.forward(x, mdl)  # warm-up outside the timed repeats; one scan entry serves both
    samples = {length: [] for length in inputs}
    for _ in range(20):  # alternated, so drift on a shared host reaches both lengths alike
        for length, x in inputs.items():
            t0 = time.perf_counter()
            model.forward(x, mdl)
            samples[length].append(time.perf_counter() - t0)
    times = {length: float(np.median(s)) for length, s in samples.items()}
    ratio = times[8192] / times[4096]
    elapsed = time.perf_counter() - start
    report(6, "linear-in-L forward scaling", ratio <= 2.5, elapsed, 60,
           f"median t(L=8192)/t(L=4096) = {ratio:.2f} "
           f"({times[8192] * 1e3:.0f}ms vs {times[4096] * 1e3:.0f}ms, limit 2.5)")


def test_criterion_7_streaming_memory_constant():
    start = time.perf_counter()
    params = ssm.init_s4d_params(8, 8, seed=0)
    a_bar, b_bar = ssm.zoh_discretize(params)
    c = helpers.complex_of(params, "c")
    expected_bytes = 8 * 4 * 16  # H x N/2 complex128

    # structural: state construction knows nothing about sequence length
    h = np.zeros_like(a_bar)
    ok = h.shape == (8, 4) and h.nbytes == expected_bytes

    # behavioral: drive 1e5 steps, state footprint never changes
    rng = np.random.default_rng(107)
    sizes = set()
    x_k = rng.standard_normal(8)
    for step in range(100_000):
        if step % 1000 == 0:
            x_k = rng.standard_normal(8)
        h, _ = ssm.recurrent_step(h, x_k, a_bar, b_bar, c, params["d"])
        if step % 10_000 == 0:
            sizes.add((h.shape, h.nbytes))
    ok = ok and sizes == {((8, 4), expected_bytes)}
    elapsed = time.perf_counter() - start
    report(7, "O(1) streaming state", ok, elapsed, 10,
           f"state stayed {expected_bytes} bytes across 1e5 steps")


def test_criterion_8_stability_after_training():
    start = time.perf_counter()
    dataset = data.synth_freq_task(200, 64, noise_std=0.3, seed=0)
    mdl = model.init_model(1, 8, 8, 2, normalized=True, dropout_rate=0.1, seed=0)
    config = training.TrainConfig(lr=1e-3, batch_size=32, max_epochs=20, patience=20, seed=0)
    best, history = training.train(mdl, dataset, config)
    radii = []
    for i in range(best.n_layers):
        bar, _ = ssm.zoh_discretize(model.block_core(best.params, i))
        radii.append(np.abs(bar))
    worst = float(np.concatenate([r.ravel() for r in radii]).max())
    ok = history.n_epochs == 20 and worst < 1.0
    elapsed = time.perf_counter() - start
    report(8, "stability under training", ok, elapsed, 60,
           f"max |A_bar| = {worst:.6f} after {history.n_epochs} Adam epochs (must be < 1)")


def test_criterion_9_end_to_end_learning():
    start = time.perf_counter()
    train_ds = data.synth_freq_task(400, 128, noise_std=0.3, seed=0)
    test_ds = data.synth_freq_task(400, 128, noise_std=0.3, seed=1)
    mdl = model.init_model(1, 8, 8, 2, normalized=True, dropout_rate=0.1, seed=0)
    config = training.TrainConfig(lr=1e-3, batch_size=64, max_epochs=50, patience=50, seed=0)
    best, history = training.train(mdl, train_ds, config)
    _, err = training.evaluate(best, test_ds)

    # seed-pinned history produced once by this exact recipe and checked in
    frozen = np.genfromtxt(DATA_DIR / "acceptance9_history.csv", delimiter=",", names=True)
    ok = err <= 0.05 and history.n_epochs == frozen.shape[0]
    if ok:
        for column in ("train_loss", "train_acc", "val_loss", "val_acc"):
            got = np.array(getattr(history, column))
            ok = ok and np.allclose(got, frozen[column], rtol=1e-7, atol=1e-9)
    elapsed = time.perf_counter() - start
    report(9, "end-to-end learning on the frequency task", ok, elapsed, 300,
           f"test error {err:.4f} after {history.n_epochs} epochs (limit 0.05); "
           f"history matches the pinned run")


def test_criterion_10_convergence_comparison_harness(tmp_path):
    start = time.perf_counter()
    dataset = data.synth_freq_task(200, 64, noise_std=0.3, seed=0)
    config = training.TrainConfig(lr=1e-3, batch_size=32, max_epochs=20, patience=20)
    rows = training.compare_convergence(dataset, config, [0, 1, 2, 3, 4], 8, 8, threshold=0.9)
    path = tmp_path / "convergence.csv"
    training.write_convergence_csv(rows, path)

    lines = path.read_text().splitlines()
    ok = lines[0] == "seed,model,crossing_epoch,epochs_run,best_epoch,best_val_loss"
    ok = ok and len(lines) == 1 + 10  # 5 seeds x 2 variants
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        ok = ok and len(cells) == 6 and cells[1] in ("MS4", "MS4N")
        ok = ok and (cells[2] == "" or int(cells[2]) >= 1)
        seen.add((cells[0], cells[1]))
    ok = ok and len(seen) == 10

    # report-only comparison; which variant converges faster is per-dataset
    def mean_crossing(variant):
        crossed = [r["crossing_epoch"] for r in rows
                   if r["model"] == variant and r["crossing_epoch"] is not None]
        return float(np.mean(crossed)) if crossed else float("nan")

    elapsed = time.perf_counter() - start
    report(10, "convergence-comparison harness", ok, elapsed, 900,
           f"mean crossing epoch MS4 {mean_crossing('MS4'):.1f} vs "
           f"MS4N {mean_crossing('MS4N'):.1f} over 5 seeds (reported, not asserted)")
