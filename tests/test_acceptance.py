"""End-to-end acceptance checks.

Each test covers one headline property at its stated tolerance and prints
a single PASS/FAIL line so the run log doubles as a scorecard.  Several of
them are Monte-Carlo and take minutes; run with `pytest -s` to watch the
lines appear.
"""

import json
import math

import numpy as np
import pytest

from rnn_sysid.existence import construct_comparator, verify_existence
from oracles import (brute_jvp_A, brute_jvp_W, dense_grad_W,
                     finite_difference_check)
from rnn_sysid.gradients import jvp_f_all_t, loss_gradients_bptt
from rnn_sysid.harness import generalization_gap, run_experiment
from rnn_sysid.linalg import fit_loglog_slope
from rnn_sysid.losses import make_loss, sequence_loss
from rnn_sysid.student import forward_rescaled, init_student
from rnn_sysid.teacher import (generate_dataset, impulse_response,
                               random_stable_system, simulate)
from rnn_sysid.trainer import running_average, sgd_train
from rnn_sysid.verify import (sample_init, verify_concentration,
                              verify_linearization, verify_spectral,
                              verify_truncation)

pytestmark = pytest.mark.acceptance


def _verdict(name, ok, detail=""):
    print("\n[%s] %s %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, f"{name}: {detail}"


def test_01_gradient_correctness():
    # adjoint vs explicit sums at m=48, T=6, then vs finite differences
    # at m=64, T=8 for the smooth losses
    rnn = init_student(48, 3, 2, 0.9, 0)
    args = (rnn.W, rnn.A, rnn.B, rnn.rho)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3)) / np.sqrt(3)
    worst = 0.0
    for t in (1, 3, 6):
        Zw = rng.normal(size=rnn.W.shape)
        Za = rng.normal(size=rnn.A.shape)
        for fast, slow in [
            (jvp_f_all_t(*args, x, Z_W=Zw)[t - 1],
             brute_jvp_W(*args, x, t, Zw)),
            (jvp_f_all_t(*args, x, Z_A=Za)[t - 1],
             brute_jvp_A(*args, x, t, Za)),
        ]:
            denom = max(np.linalg.norm(slow), 1e-300)
            worst = max(worst, np.linalg.norm(fast - slow) / denom)
    adjoint_ok = worst <= 1e-9

    rnn = init_student(64, 3, 2, 0.9, 2)
    x = rng.normal(size=(8, 3)) / np.sqrt(3)
    y = rng.normal(size=(8, 2))
    worst_fd = 0.0
    for kind in ("square", "huber"):
        loss = make_loss(kind, d_y=2)
        pair = loss_gradients_bptt(rnn.W, rnn.A, rnn.B, rnn.rho, x, y, loss)
        for params, grad, setter in [
            (rnn.W, dense_grad_W(pair), lambda W: (W, rnn.A)),
            (rnn.A, pair.grad_A, lambda A: (rnn.W, A)),
        ]:
            Z = rng.normal(size=params.shape)
            Z /= np.linalg.norm(Z)

            def scalar(p, setter=setter):
                F = forward_rescaled(*setter(p), rnn.B, rnn.rho, x)
                return sequence_loss(loss, y, F)

            rep = finite_difference_check(scalar, params, Z,
                                          float(np.sum(grad * Z)))
            worst_fd = max(worst_fd, rep["min_relerr"])
    fd_ok = worst_fd <= 1e-6
    _verdict("1 gradient correctness", adjoint_ok and fd_ok,
             "adjoint relerr %.2e (<=1e-9), fd relerr %.2e (<=1e-6)"
             % (worst, worst_fd))


def test_02_forward_identities():
    worst = 0.0
    for seed in range(20):
        sys = random_stable_system(4, 3, 2, 0.8, seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=(12, 3)) / np.sqrt(3)
        _, y = simulate(sys, x)
        H = impulse_response(sys, 12)
        y_conv = np.array([sum(H[k] @ x[t - k] for k in range(t + 1))
                           for t in range(12)])
        worst = max(worst, np.max(np.abs(y - y_conv))
                    / max(np.max(np.abs(y)), 1e-300))

        rnn = init_student(40, 3, 2, 0.9, seed)
        F = forward_rescaled(rnn.W, rnn.A, rnn.B, rnn.rho, x)
        powers = [np.eye(40)]
        for _ in range(11):
            powers.append(rnn.W @ powers[-1])
        F_sum = np.zeros_like(F)
        for t in range(1, 13):
            for t0 in range(t):
                F_sum[t - 1] += rnn.rho**t0 * (
                    rnn.B @ powers[t0] @ rnn.A @ x[t - 1 - t0])
        scale = max(np.max(np.abs(F_sum)), 1e-300)
        worst = max(worst, np.max(np.abs(F - F_sum)) / scale)
    _verdict("2 forward identities", worst <= 1e-9,
             "max relerr %.2e over 20 seeds (<=1e-9)" % worst)


def test_03_spectral_power_bounds():
    fracs = {}
    ok = True
    for m in (256, 1024, 4096):
        rep = verify_spectral(m=m, trials=20, seed=0)
        fracs[m] = rep.pass_fraction
        ok = ok and rep.passed
    _verdict("3 spectral power bounds", ok,
             "pass fractions " + ", ".join(
                 "m=%d: %.3f" % (m, f) for m, f in fracs.items())
             + " (>=0.95 each)")


def test_04_concentration():
    rep = verify_concentration(m=4096, tau=8, d=4, trials=20, seed=0)
    detail = ", ".join("%s: %.3f" % (n, rep.checks[n]["pass_fraction"])
                       for n in ("a", "b", "c", "d"))
    _verdict("4 concentration at initialization", rep.passed,
             detail + " (>=0.95 each; near-isometry over its base range, "
             "full range %.3f recorded)"
             % rep.checks["d_all_t"]["pass_fraction"])


def test_05_linearization():
    rep = verify_linearization(m=1024, omega_grid=(1e-3, 3e-3, 1e-2, 3e-2),
                               trials=20, seed=0)
    _verdict("5 linearization residual", rep.passed,
             "bound %.3f, slope %.3f (>=0.95); mean slope %.3f (2.0 +- 0.2)"
             % (rep.checks["bound"]["pass_fraction"],
                rep.checks["slope"]["pass_fraction"],
                rep.observed["mean_slope"]))


def test_06_truncation():
    rep = verify_truncation(m=1024, tau_grid=(4, 8, 12, 16, 20, 24, 28, 32),
                            trials=20, seed=0)
    slope = rep.observed["pooled_slope"]
    slope_ok = abs(slope - math.log(0.9)) <= 0.2 * abs(math.log(0.9))
    app_ok = rep.checks["app"]["pass_fraction"] >= 0.95
    _verdict("6 truncation error", rep.passed and slope_ok and app_ok,
             "slope %.4f vs log rho_0 %.4f (+-20%%), schedule-level error "
             "fraction %.3f" % (slope, math.log(0.9),
                                rep.checks["app"]["pass_fraction"]))


def test_07_existence():
    teacher = random_stable_system(4, 2, 2, 0.8, seed=7)
    loss = make_loss("square", d_y=2)
    T_max, rho = 12, 0.9
    means = []
    all_dist_ok = True
    for m in (256, 1024, 4096):
        errs = []
        for s in range(10):
            W0, A0, B = sample_init(np.random.default_rng([s, m]), m, 2, 2)
            comp = construct_comparator(W0, A0, B, teacher, rho, T_max)
            ds = generate_dataset(teacher, "iid_gaussian_unit", 0.0, T_max,
                                  4, seed=s + 500)
            rep = verify_existence(comp, ds, loss, W0, B)
            all_dist_ok = all_dist_ok and rep["distances_ok"]
            errs.append(rep["fit_error"])
        means.append(float(np.mean(errs)))
    slope = fit_loglog_slope([256, 1024, 4096], means)
    slope_ok = abs(slope - (-0.5)) <= 0.2
    _verdict("7 comparator existence", all_dist_ok and slope_ok,
             "distances within 2 c_rho b T^2/sqrt(m) in every trial: %s; "
             "fit_error slope %.3f (-0.5 +- 0.2)" % (all_dist_ok, slope))


def test_08_end_to_end_learning(tmp_path):
    # eta = 1e-2/m from the recorded grid search; 6000 steps suffice
    cfg = {
        "kind": "train",
        "seed": 0,
        "teacher": {"d_p": 4, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0},
        "data": {"T": 20, "K": 64},
        "student": {"m": 512, "rho_mode": "practical", "rho": 0.9},
        "loss": {"kind": "square"},
        "train": {"K_steps": 6000, "holdout": True, "checkpoint_every": 2000},
    }
    code, out = run_experiment(cfg, out_dir=str(tmp_path / "e2e"))
    summary = json.loads((tmp_path / "e2e" / "summary.json").read_text())
    ratio = summary["loss_ratio"]
    holdout = summary["holdout_ratio"]
    ok = code == 0 and ratio <= 0.01 and holdout <= 2.0
    _verdict("8 end-to-end learning", ok,
             "loss ratio %.5f (<=0.01 within K<=20000), holdout/train %.3f "
             "(<=2)" % (ratio, holdout))


def test_09_generalization_gap():
    teacher = random_stable_system(4, 2, 2, 0.8, 0)
    loss = make_loss("square", d_y=2)
    curves = []
    for s in range(5):
        train = generate_dataset(teacher, "iid_gaussian_unit", 0.1, 20, 32, s)
        hold = generate_dataset(teacher, "iid_gaussian_unit", 0.1, 20, 32,
                                s + 10_000)
        rnn = init_student(256, 2, 2, 0.9, s + 1)
        trace = sgd_train(rnn, train, loss, 1e-2 / 256, 2000, seed=s,
                          holdout=hold)
        gap = generalization_gap(trace, train, hold, loss)
        curves.append(gap)
    ks = curves[0]["ks"]
    mean_gaps = np.mean([c["gaps"] for c in curves], axis=0)
    exponent = fit_loglog_slope(ks, mean_gaps)
    decreasing = mean_gaps[-1] < mean_gaps[0]
    ok = decreasing and -0.75 <= exponent <= -0.25
    _verdict("9 generalization gap", ok,
             "pooled exponent %.3f over 5 paired seeds (in [-0.75, -0.25]), "
             "gap decreasing: %s" % (exponent, decreasing))


def test_10_determinism(tmp_path):
    cfg = {
        "kind": "train",
        "seed": 5,
        "teacher": {"d_p": 4, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0},
        "data": {"T": 16, "K": 16},
        "student": {"m": 128, "rho_mode": "practical", "rho": 0.9},
        "loss": {"kind": "square"},
        "train": {"K_steps": 200, "holdout": True, "checkpoint_every": 100},
    }
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    same = True
    for rel in ("summary.json", "trace.jsonl", "config.json",
                "checkpoints/step_000200/W.bin",
                "checkpoints/step_000200/checkpoint.json"):
        same = same and ((tmp_path / "a" / rel).read_bytes()
                         == (tmp_path / "b" / rel).read_bytes())
    _verdict("10 determinism", same,
             "re-run artifacts byte-identical: %s" % same)
