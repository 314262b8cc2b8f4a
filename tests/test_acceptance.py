"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS lines (pytest captures stdout otherwise). Every tolerance here is
fixed; the experiment-scale thresholds (classification gap, diffusion mode
coverage, training ratios) were calibrated by simulation before the suite
was frozen.
"""

import time

import numpy as np
import pytest

from oracles import check_gradient, delta_filter, grad_check_model, wiener_filter_direct
from wienerlab.cli import main
from wienerlab.datasets import make_digit_set, two_cluster_latents
from wienerlab.diffusion import (
    EnergyModel,
    Schedule,
    cosine_schedule,
    energy_terms,
    nearest_defining_sample,
    run_diffusion,
)
from wienerlab.knn import evaluate_accuracy, make_translated_set
from wienerlab.spectral import WindowSpec, make_window
from wienerlab.trainer import DenseAutoencoder, TrainConfig, forward, train
from wienerlab.wiener import QuotientKernel, loss_and_grad, wiener_filter, wiener_loss


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {name} ({detail})")
    assert ok, f"criterion {num} failed: {name} ({detail})"


def margin_image(n, margin, rng):
    img = np.zeros((n, n))
    img[: n - margin, : n - margin] = rng.random((n - margin, n - margin))
    return img


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    lams = (1e-3, 1.0, 250.0)
    for i in range(50):
        n = int(rng.integers(8, 33))
        x = rng.random(n)[None]
        y = rng.random(n)[None]
        for lam in lams:
            vf = wiener_filter(x, y, lam)
            vd = wiener_filter_direct(x, y, lam)
            worst = max(worst, np.abs(vf - vd).max() / np.abs(vd).max())
    for i in range(10):
        x = rng.random((6, 6))[None]
        y = rng.random((6, 6))[None]
        for lam in lams:
            vf = wiener_filter(x, y, lam)
            vd = wiener_filter_direct(x, y, lam)
            worst = max(worst, np.abs(vf - vd).max() / np.abs(vd).max())
    elapsed = time.perf_counter() - t0
    report(
        1,
        "spectral path matches dense circulant solver",
        worst < 1e-8 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_convolutional_identity():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst_id = 0.0
    for _ in range(20):
        y = rng.random((12, 12))[None]
        v = wiener_filter(y, y, float(rng.choice([1e-3, 1.0, 250.0])))
        worst_id = max(worst_id, np.abs(v - delta_filter(v.shape[1:])).max())
    worst_eq = 0.0
    for _ in range(20):
        img = margin_image(16, 6, rng)
        k = (int(rng.integers(0, 7)), int(rng.integers(0, 7)))
        y = img[None]
        x = np.roll(img, k, axis=(0, 1))[None]
        v = wiener_filter(x, y, 1e-12)
        expect = np.roll(delta_filter(v.shape[1:]), k, axis=(1, 2))
        worst_eq = max(worst_eq, np.abs(v - expect).max())
    elapsed = time.perf_counter() - t0
    report(
        2,
        "identity spike at x=y and shift equivariance",
        worst_id < 1e-10 and worst_eq < 1e-9 and elapsed < 5.0,
        f"identity {worst_id:.2e}, equivariance {worst_eq:.2e}, {elapsed:.1f}s",
    )


def check_energy_gradient(x, model):
    """Finite differences of the dataset energy at one state, a batch of one."""
    grad = energy_terms(model, x[None])[1][0]
    energy = lambda xx: float(energy_terms(model, xx[None])[0][0])
    return check_gradient(energy, grad, x, h=1e-5)


def test_criterion_3_gradient_fidelity():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst_loss = 0.0
    for lam in (0.1, 1.0, 250.0):
        pred = rng.random((16, 16))[None]
        targ = rng.random((16, 16))[None]
        w = WindowSpec("laplace", 2.0, 0.1)
        w_raw = make_window(w, targ.shape[1:])
        grad = loss_and_grad(QuotientKernel(targ, targ.shape[1:], lam), pred, w_raw)[1]
        rep = check_gradient(lambda p: wiener_loss(p, targ, w, lam), grad, pred, h=1e-5)
        worst_loss = max(worst_loss, rep.max_rel_error)

    pen1 = WindowSpec("inverted_laplace", 3.0)
    model1 = EnergyModel(np.stack([rng.random((1, 16)) for _ in range(3)]), pen1, 1.0, 0.1)
    x1 = rng.random(16)[None]
    rep1 = check_energy_gradient(x1, model1)

    pen2 = WindowSpec("inverted_laplace", 2.0)
    model2 = EnergyModel(np.stack([rng.random((1, 8, 8)) for _ in range(2)]), pen2, 1.0, 1.0)
    x2 = rng.random((8, 8))[None]
    rep2 = check_energy_gradient(x2, model2)
    worst_energy = max(rep1.max_rel_error, rep2.max_rel_error)

    # end-to-end parameter check is roundoff-limited, so it gets a larger step
    worst_train = 0.0
    batch = make_digit_set(4, size=8, seed=31).stack
    for loss in ("mse", "wiener"):
        model = DenseAutoencoder.initialize((64, 16, 8, 16, 64), seed=13)
        cfg = TrainConfig(loss=loss, whitening=WindowSpec("laplace", 2.0, 0.3), lam=1.0)
        rep = grad_check_model(model, batch, cfg, h=1e-4)
        worst_train = max(worst_train, rep.max_rel_error)
    elapsed = time.perf_counter() - t0
    report(
        3,
        "analytic gradients match finite differences",
        worst_loss < 1e-5 and worst_energy < 1e-5 and worst_train < 1e-4 and elapsed < 60.0,
        f"loss {worst_loss:.2e}, energy {worst_energy:.2e}, trainer {worst_train:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_translation_robust_classification():
    t0 = time.perf_counter()
    train_base = make_digit_set(500, size=8, seed=11)
    test_base = make_digit_set(200, size=8, seed=99)
    train_set = make_translated_set(train_base, 0, 6, seed=1)
    test_set = make_translated_set(test_base, 6, 6, seed=2)
    baseline = evaluate_accuracy(train_set, test_set, 3, "manhattan")
    ti = evaluate_accuracy(train_set, test_set, 10, "wiener_ti", 1.0)
    gap = ti.accuracy - baseline.accuracy
    elapsed = time.perf_counter() - t0
    report(
        4,
        "translation-invariant distance beats element-wise baseline",
        gap >= 0.20 and elapsed < 300.0,
        f"ti {ti.accuracy:.3f} vs manhattan {baseline.accuracy:.3f}, gap {gap:+.3f}, {elapsed:.0f}s",
    )


def test_criterion_5_diffusion_behavior():
    t0 = time.perf_counter()
    samples, ids = two_cluster_latents(8, dim=8, separation=2.0, spread=0.15, seed=7)
    pen = WindowSpec("inverted_laplace", 0.5)
    schedule = Schedule(cosine_schedule(200, 5.0, 0.01), cosine_schedule(200, 0.001, 0.08))
    details = []
    ok = True
    for gamma in (0.5, 1.0):
        model = EnergyModel(samples, pen, gamma, 0.5)
        run = run_diffusion(model, schedule, 50, 1.0, seed=2024, snapshot_stride=200)
        counts = [0, 0]
        collapsed = 0
        floor = 0.5 * np.sqrt(schedule.beta[-1])
        for x in run.final:
            idx, dist = nearest_defining_sample(x, model)
            counts[ids[idx]] += 1
            collapsed += int(dist < floor)
        e0 = float(np.mean(run.energies[:, 0]))
        eT = float(np.mean(run.energies[:, -1]))
        c0 = float(np.mean(run.concentrations[:, 0]))
        cT = float(np.mean(run.concentrations[:, -1]))
        ok_gamma = (
            min(counts) >= 10  # (a) each cluster holds >= 20% of 50 chains
            and eT < e0  # (b) mean energy decreased
            and cT > c0  # (c) nearest-filter concentration increased
            and collapsed <= 5  # (d) <= 10% of chains inside the collapse floor
        )
        ok = ok and ok_gamma
        details.append(
            f"gamma={gamma}: clusters {counts}, E {e0:.2f}->{eT:.2f}, "
            f"C {c0:.3f}->{cT:.3f}, collapsed {collapsed}"
        )
    elapsed = time.perf_counter() - t0
    report(
        5,
        "two-cluster generation covers modes without collapse",
        ok and elapsed < 120.0,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_6_training_demonstration():
    t0 = time.perf_counter()
    data = make_digit_set(500, size=8, seed=3).stack
    val = make_digit_set(100, size=8, seed=55).stack

    def run(loss):
        model = DenseAutoencoder.initialize((64, 32, 16, 32, 64), "mish", seed=5)
        cfg = TrainConfig(
            loss=loss,
            batch_size=32,
            learning_rate=3e-3,
            epochs=100,
            whitening=WindowSpec("laplace", 2.0, 0.3),
            lam=1.0,
            seed=5,
        )
        log = train(model, data, cfg)
        recon = forward(model, val)
        val_mse = float(np.mean([np.mean((r - v) ** 2) for r, v in zip(recon, val)]))
        return log, val_mse

    log_mse, mse_of_mse = run("mse")
    log_w, mse_of_wiener = run("wiener")
    ratio = mse_of_wiener / mse_of_mse
    halved = log_mse.losses[-1] <= 0.5 * log_mse.losses[0]
    focused = log_w.concentrations[-1] > log_w.initial_concentration
    finite = all(np.isfinite(log_mse.losses)) and all(np.isfinite(log_w.losses))
    elapsed = time.perf_counter() - t0
    report(
        6,
        "both losses train; filter loss focuses filters at bounded pixel cost",
        finite and halved and focused and ratio <= 3.0 and elapsed < 300.0,
        f"mse loss x{log_mse.losses[-1] / log_mse.losses[0]:.3f}, "
        f"concentration {log_w.initial_concentration:.3f}->{log_w.concentrations[-1]:.3f}, "
        f"pixel-mse ratio {ratio:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_schedule_endpoints():
    s1 = cosine_schedule(200, 500.0, 1.0)
    s2 = cosine_schedule(400, 0.1, 4.0)
    exact = s1[0] == 500.0 and s1[-1] == 1.0 and s2[0] == 0.1 and s2[-1] == 4.0
    report(
        7,
        "cosine schedules hit their endpoints exactly",
        exact,
        f"s1 [{s1[0]}, {s1[-1]}], s2 [{s2[0]}, {s2[-1]}]",
    )


def test_criterion_8_reproducibility(tmp_path):
    digit = tmp_path / "digit.pgm"
    from wienerlab.dataio import write_pgm

    write_pgm(digit, make_digit_set(1, size=16, seed=4).stack[0, 0])
    cfgf = tmp_path / "c.ini"
    cfgf.write_text(
        "[diffusion]\nT = 25\nn_samples = 4\nsnapshot_stride = 5\n"
        "[train]\nn_train = 80\nepochs = 3\nloss = wiener\n"
        "[knn]\nn_train = 30\nn_test = 10\nmax_shift = 2\npad = 2\n"
        "[recover]\niterations = 60\n"
    )
    mismatches = []
    for cmd, files in [
        (["diffuse"], ["trajectory.csv", "samples.csv", "diffuse.json"]),
        (["train"], ["model.wnae", "train_log.csv", "train.json"]),
        (["knn"], ["knn.json"]),
        (["recover", str(digit)], ["loss_curve.csv", "recovered.pgm", "recover.json"]),
        (["filter", str(digit), str(digit)], ["filter.pgm", "filter.json"]),
        (["loss", str(digit), str(digit)], ["loss.json"]),
    ]:
        outs = []
        for i in (1, 2):
            out = tmp_path / f"{cmd[0]}-{i}"
            rc = main(cmd + ["--config", str(cfgf), "--out", str(out), "--seed", "77"]
                      if cmd[0] in ("diffuse", "train", "knn")
                      else cmd + ["--config", str(cfgf), "--out", str(out)])
            assert rc == 0, f"{cmd[0]} run {i} exited {rc}"
            outs.append(out)
        for fname in files:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{cmd[0]}/{fname}")
    report(
        8,
        "identical config and seed reproduce outputs bit for bit",
        not mismatches,
        "all subcommands byte-stable" if not mismatches else f"mismatches: {mismatches}",
    )


def test_criterion_9_performance_scaling():
    lam = 1.0
    sizes = (32, 64, 128)
    inputs = {}
    rng = np.random.default_rng(1)
    for n in sizes:
        inputs[n] = (
            rng.random((n, n))[None],
            rng.random((n, n))[None],
            WindowSpec("laplace", 2.0, 0.3),
        )

    def one(n):
        pred, targ, w = inputs[n]
        t0 = time.perf_counter()
        wiener_filter(pred, targ, lam)
        wiener_loss(pred, targ, w, lam)
        w_raw = make_window(w, targ.shape[1:])
        loss_and_grad(QuotientKernel(targ, targ.shape[1:], lam), pred, w_raw)
        return time.perf_counter() - t0

    # interleaved min-of-7 per size: robust to transient machine load
    times = {n: np.inf for n in sizes}
    for _ in range(7):
        for n in sizes:
            times[n] = min(times[n], one(n))
    work = {n: (2 * n) ** 2 * np.log((2 * n) ** 2) for n in sizes}
    # the 2x band is multiplicative, so fit the rate in log space
    c = float(np.exp(np.mean([np.log(times[n] / work[n]) for n in sizes])))
    ratios = {n: times[n] / (c * work[n]) for n in sizes}
    fit_ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    fast_ok = times[64] < 0.050
    report(
        9,
        "64x64 pipeline under 50 ms and n log n scaling",
        fast_ok and fit_ok,
        f"64x64 {times[64] * 1e3:.1f} ms; fit ratios "
        + ", ".join(f"{n}: {ratios[n]:.2f}" for n in sorted(ratios)),
    )
