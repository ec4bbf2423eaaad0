import numpy as np
import pytest

from oracles import (brute_forward_powers, brute_jvp_A, brute_jvp_W,
                     dense_grad_W, finite_difference_check, jvp_f_all_t)
from rnn_sysid.gradients import loss_gradients_bptt
from rnn_sysid.losses import make_loss, sequence_loss
from rnn_sysid.student import forward_rescaled, init_student


def _setup(m=32, d=3, d_y=2, rho=0.9, seed=0, T=7):
    rnn = init_student(m, d, d_y, rho, seed)
    rng = np.random.default_rng(seed + 50)
    x = rng.normal(size=(T, d)) / np.sqrt(d)
    y = rng.normal(size=(T, d_y))
    return rnn, x, y, rng


def _args(rnn):
    """The (W, A, B, rho) that every forward and derivative takes first."""
    return rnn.W, rnn.A, rnn.B, rnn.rho


def test_forward_recurrence_matches_power_series():
    rnn, x, _, _ = _setup()
    F = forward_rescaled(*_args(rnn), x)
    np.testing.assert_allclose(F, brute_forward_powers(*_args(rnn), x),
                               atol=1e-12)


def test_jvp_W_matches_brute_sum():
    rnn, x, _, rng = _setup()
    Z = rng.normal(size=rnn.W.shape)
    for t in (1, 2, 4, 7):
        fast = jvp_f_all_t(*_args(rnn), x, Z_W=Z)[t - 1]
        slow = brute_jvp_W(*_args(rnn), x, t, Z)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_jvp_A_matches_brute_sum():
    rnn, x, _, rng = _setup()
    Z = rng.normal(size=rnn.A.shape)
    for t in (1, 3, 6):
        fast = jvp_f_all_t(*_args(rnn), x, Z_A=Z)[t - 1]
        slow = brute_jvp_A(*_args(rnn), x, t, Z)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_jvp_all_t_consistent_with_single_t():
    rnn, x, _, rng = _setup()
    Z_W = rng.normal(size=rnn.W.shape)
    Z_A = rng.normal(size=rnn.A.shape)
    out = jvp_f_all_t(*_args(rnn), x, Z_W=Z_W, Z_A=Z_A)
    for t in (1, 4, 7):
        single = (jvp_f_all_t(*_args(rnn), x, Z_W=Z_W)[t - 1]
                  + jvp_f_all_t(*_args(rnn), x, Z_A=Z_A)[t - 1])
        np.testing.assert_allclose(out[t - 1], single, atol=1e-12)


def test_jvp_first_step_W_is_zero():
    # f_1 = B A x_1 does not depend on W
    rnn, x, _, rng = _setup()
    Z = rng.normal(size=rnn.W.shape)
    np.testing.assert_allclose(jvp_f_all_t(*_args(rnn), x, Z_W=Z)[0], 0.0,
                               atol=1e-14)


def test_bptt_duality_with_jvp():
    # <grad, Z> must equal the JVP of the loss along Z, for both blocks
    rnn, x, y, rng = _setup()
    loss = make_loss("square", d_y=rnn.d_y)
    pair = loss_gradients_bptt(*_args(rnn), x, y, loss)
    F = forward_rescaled(*_args(rnn), x)
    R = F - y  # residuals = dL/df for the square loss
    for Z, block in [(rng.normal(size=rnn.W.shape), "W"),
                     (rng.normal(size=rnn.A.shape), "A")]:
        if block == "W":
            df = jvp_f_all_t(*_args(rnn), x, Z_W=Z)
            inner = float(np.sum(dense_grad_W(pair) * Z))
        else:
            df = jvp_f_all_t(*_args(rnn), x, Z_A=Z)
            inner = float(np.sum(pair.grad_A * Z))
        expect = float(np.sum(R * df)) / len(x)
        assert inner == pytest.approx(expect, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kind", ["square", "huber", "logistic"])
def test_bptt_matches_finite_differences(kind):
    rnn, x, y, rng = _setup(m=24, T=6)
    if kind == "logistic":
        y = np.sign(y) + (y == 0)
    loss = make_loss(kind, d_y=rnn.d_y)
    pair = loss_gradients_bptt(*_args(rnn), x, y, loss)

    Z = rng.normal(size=rnn.W.shape)
    Z /= np.linalg.norm(Z)

    def f_of_W(W):
        F = forward_rescaled(W, rnn.A, rnn.B, rnn.rho, x)
        return sequence_loss(loss, y, F)

    rep = finite_difference_check(f_of_W, rnn.W, Z,
                                  float(np.sum(dense_grad_W(pair) * Z)))
    assert rep["min_relerr"] < 1e-6

    Za = rng.normal(size=rnn.A.shape)
    Za /= np.linalg.norm(Za)

    def f_of_A(A):
        F = forward_rescaled(rnn.W, A, rnn.B, rnn.rho, x)
        return sequence_loss(loss, y, F)

    rep = finite_difference_check(f_of_A, rnn.A, Za,
                                  float(np.sum(pair.grad_A * Za)))
    assert rep["min_relerr"] < 1e-6
