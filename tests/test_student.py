import json

import numpy as np
import pytest

from rnn_sysid.student import (forward, forward_rescaled, init_student,
                               linearized_forward, load_checkpoint,
                               rescaled_view, save_checkpoint,
                               truncated_forward)
from rnn_sysid.teacher import ParameterError


def _setup(m=48, d=3, d_y=2, rho=0.9, seed=0, T=10):
    rnn = init_student(m, d, d_y, rho, seed)
    view = rescaled_view(rnn)
    x = np.random.default_rng(seed + 100).normal(size=(T, d)) / np.sqrt(d)
    return rnn, view, x


def test_init_scales():
    rnn = init_student(4096, 3, 2, 0.9, 1)
    assert np.std(rnn.W_tilde) == pytest.approx(np.sqrt(0.9 / 4096), rel=0.05)
    assert np.std(rnn.A) == pytest.approx(np.sqrt(1.0 / 4096), rel=0.05)
    assert np.std(rnn.B) == pytest.approx(np.sqrt(1.0 / 2), rel=0.05)


def test_init_rejects_bad_rho():
    with pytest.raises(ParameterError):
        init_student(8, 2, 2, 0.0, 0)


def test_raw_and_rescaled_forward_agree():
    rnn, view, x = _setup()
    _, F_raw = forward(rnn, x)
    F_res = forward_rescaled(view, rnn.B, rnn.rho, x)
    np.testing.assert_allclose(F_raw, F_res, atol=1e-12)


def test_forward_matches_explicit_powers():
    rnn, view, x = _setup(m=32, T=8)
    F = forward_rescaled(view, rnn.B, rnn.rho, x)
    T = x.shape[0]
    for t in range(1, T + 1):
        expect = np.zeros(rnn.d_y)
        for t0 in range(t):
            Wp = np.linalg.matrix_power(view.W, t0)
            expect += rnn.rho**t0 * rnn.B @ Wp @ view.A @ x[t - 1 - t0]
        np.testing.assert_allclose(F[t - 1], expect, atol=1e-10)


def test_truncated_equals_full_when_tau_large():
    rnn, view, x = _setup(T=9)
    F = forward_rescaled(view, rnn.B, rnn.rho, x)
    F_tau = truncated_forward(view, rnn.B, rnn.rho, x, tau=len(x) - 1)
    np.testing.assert_allclose(F, F_tau, atol=1e-12)


def test_truncated_tau_zero_is_memoryless():
    rnn, view, x = _setup()
    F0 = truncated_forward(view, rnn.B, rnn.rho, x, tau=0)
    np.testing.assert_allclose(F0, x @ (rnn.B @ view.A).T, atol=1e-14)


def test_truncated_rejects_negative_tau():
    rnn, view, x = _setup()
    with pytest.raises(ParameterError):
        truncated_forward(view, rnn.B, rnn.rho, x, tau=-1)


def test_linearized_at_anchor_is_exact():
    rnn, view, x = _setup()
    F = forward_rescaled(view, rnn.B, rnn.rho, x)
    Fl = linearized_forward(view.W0, view.A0, view.W0, view.A0,
                            rnn.B, rnn.rho, x)
    np.testing.assert_allclose(F, Fl, atol=1e-12)


def test_linearized_is_affine_in_direction():
    rnn, view, x = _setup(m=24)
    rng = np.random.default_rng(7)
    dW = rng.normal(size=view.W0.shape)
    dA = rng.normal(size=view.A0.shape)

    def lin(c):
        return linearized_forward(view.W0, view.A0, view.W0 + c * dW,
                                  view.A0 + c * dA, rnn.B, rnn.rho, x)

    F0, F1, F2 = lin(0.0), lin(1.0), lin(2.0)
    np.testing.assert_allclose(F2 - F1, F1 - F0, atol=1e-9)


def test_linearized_truncated_matches_full_when_tau_large():
    rnn, view, x = _setup(m=24, T=7)
    rng = np.random.default_rng(8)
    W = view.W0 + 0.02 * rng.normal(size=view.W0.shape)
    A = view.A0 + 0.02 * rng.normal(size=view.A0.shape)
    full = linearized_forward(view.W0, view.A0, W, A, rnn.B, rnn.rho, x)
    trunc = linearized_forward(view.W0, view.A0, W, A, rnn.B, rnn.rho, x,
                               tau=len(x) - 1)
    np.testing.assert_allclose(full, trunc, atol=1e-11)


@pytest.mark.parametrize("tau", [1, 3])
def test_truncated_forwards_match_per_lag_sums(tau):
    rnn, view, x = _setup(m=24, T=8)
    rng = np.random.default_rng(9)
    W = view.W0 + 0.02 * rng.normal(size=view.W0.shape)
    A = view.A0 + 0.02 * rng.normal(size=view.A0.shape)
    dW = W - view.W0
    rho, B = rnn.rho, rnn.B
    P0 = [np.linalg.matrix_power(view.W0, j) for j in range(tau + 1)]
    # lag-j transfer matrices of f^tau and of its linearization at (W0, A0)
    N = [rho**j * B @ P0[j] @ view.A0 for j in range(tau + 1)]
    N_lin = [rho**j * B @ (P0[j] @ A + sum((P0[i] @ dW @ P0[j - 1 - i]
                                            for i in range(j)),
                                           np.zeros_like(dW)) @ view.A0)
             for j in range(tau + 1)]
    F = truncated_forward(view, B, rho, x, tau)
    F_lin = linearized_forward(view.W0, view.A0, W, A, B, rho, x, tau=tau)
    for t in range(len(x)):
        lags = range(min(tau, t) + 1)
        np.testing.assert_allclose(F[t], sum(N[j] @ x[t - j] for j in lags),
                                   atol=1e-12)
        np.testing.assert_allclose(F_lin[t],
                                   sum(N_lin[j] @ x[t - j] for j in lags),
                                   atol=1e-12)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rnn, view, x = _setup()
    rnn.step = 17
    view.set_params(view.W + 0.01, view.A - 0.01)
    rnn.W_tilde = view.W * rnn.rho
    rnn.A = view.A.copy()
    save_checkpoint(rnn, view, tmp_path / "ck")
    rnn2, view2 = load_checkpoint(tmp_path / "ck")
    np.testing.assert_array_equal(rnn.W_tilde, rnn2.W_tilde)
    np.testing.assert_array_equal(rnn.A, rnn2.A)
    np.testing.assert_array_equal(rnn.B, rnn2.B)
    np.testing.assert_array_equal(view.W0, view2.W0)
    assert rnn2.step == 17
    assert view2.dist_W == pytest.approx(view.dist_W)


def _edit_header(path, edit):
    header = json.loads((path / "checkpoint.json").read_text())
    edit(header)
    (path / "checkpoint.json").write_text(json.dumps(header))


def test_checkpoint_blob_shape_must_match_header(tmp_path):
    rnn, view, _ = _setup(m=8, d=3, d_y=2)
    save_checkpoint(rnn, view, tmp_path / "ck")
    # B is d_y x m; read as m x d_y it would give a student with d_y == m
    _edit_header(tmp_path / "ck",
                 lambda h: h["blobs"]["B"].update(shape=[8, 2]))
    with pytest.raises(IOError, match="blob B has shape"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_format_version_checked(tmp_path):
    rnn, view, _ = _setup(m=8)
    save_checkpoint(rnn, view, tmp_path / "ck")
    _edit_header(tmp_path / "ck", lambda h: h.update(format_version=2))
    with pytest.raises(IOError, match="format_version"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_blob_must_hold_every_value(tmp_path):
    rnn, view, _ = _setup(m=8)
    save_checkpoint(rnn, view, tmp_path / "ck")
    blob = tmp_path / "ck" / "A.bin"
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(IOError, match="blob A has 23 values, expected 24"):
        load_checkpoint(tmp_path / "ck")
