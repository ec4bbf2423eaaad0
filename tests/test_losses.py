import numpy as np
import pytest

from rnn_sysid.losses import eval_loss, make_loss, sequence_loss
from rnn_sysid.teacher import ParameterError


def test_square_value_and_grad():
    loss = make_loss("square")
    v, g = eval_loss(loss, np.array([1.0, 0.0]), np.array([2.0, -2.0]))
    assert v == pytest.approx(0.5 * (1 + 4))
    np.testing.assert_allclose(g, [1.0, -2.0])


def test_l1_piecewise_linear():
    loss = make_loss("l1", d_y=2)
    v, g = eval_loss(loss, np.array([0.0, 0.0]), np.array([1.0, -2.0]))
    assert v == pytest.approx(3.0)
    np.testing.assert_allclose(g, [1.0, -1.0])


def test_l1_subgradient_zero_at_zero_residual():
    loss = make_loss("l1")
    _, g = eval_loss(loss, np.array([0.5]), np.array([0.5]))
    np.testing.assert_allclose(g, 0.0)


def test_huber_matches_square_inside_delta():
    hub = make_loss("huber", delta=10.0)
    sq = make_loss("square")
    y = np.array([0.3, -0.1])
    y_hat = np.array([0.2, 0.4])
    vh, gh = eval_loss(hub, y, y_hat)
    vs, gs = eval_loss(sq, y, y_hat)
    assert vh == pytest.approx(vs)
    np.testing.assert_allclose(gh, gs)


def test_huber_linear_outside_delta():
    hub = make_loss("huber", delta=0.5)
    _, g = eval_loss(hub, np.array([0.0]), np.array([3.0]))
    np.testing.assert_allclose(g, [0.5])


def test_logistic_value():
    loss = make_loss("logistic")
    v, _ = eval_loss(loss, np.array([1.0]), np.array([0.0]))
    assert v == pytest.approx(np.log(2.0))


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError):
        make_loss("hinge")


@pytest.mark.parametrize("delta", [0, -1.0])
def test_huber_delta_outside_zero_to_infinity_rejected(delta):
    # at 0 the loss and its gradient vanish everywhere, and l0 is 0
    with pytest.raises(ParameterError, match=r"^delta must lie in \(0, inf\)"):
        make_loss("huber", delta=delta)


@pytest.mark.parametrize("kind", ["square", "huber", "logistic"])
def test_gradient_matches_central_differences(kind):
    rng = np.random.default_rng(0)
    loss = make_loss(kind, d_y=3)
    y = rng.normal(size=3)
    if kind == "logistic":
        y = np.sign(y)
    y_hat = rng.normal(size=3)
    _, g = eval_loss(loss, y, y_hat)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        vp, _ = eval_loss(loss, y, y_hat + e)
        vm, _ = eval_loss(loss, y, y_hat - e)
        assert (vp - vm) / (2 * h) == pytest.approx(g[j], rel=1e-7, abs=1e-9)


def test_local_lipschitz_bound():
    # ||grad|| <= l0 (1 + C) on the ball ||y||, ||y_hat|| <= C
    rng = np.random.default_rng(1)
    C = 2.0
    for kind in ("square", "l1", "huber", "logistic"):
        loss = make_loss(kind, d_y=4)
        for _ in range(50):
            y = rng.normal(size=4)
            y = y / np.linalg.norm(y) * C * rng.uniform()
            if kind == "logistic":
                y = np.sign(y) + (y == 0)
            y_hat = rng.normal(size=4)
            y_hat = y_hat / np.linalg.norm(y_hat) * C * rng.uniform()
            _, g = eval_loss(loss, y, y_hat)
            assert np.linalg.norm(g) <= loss.l0 * (1 + C) + 1e-12


@pytest.mark.parametrize("kind", ["square", "l1", "huber", "logistic"])
def test_block_call_is_the_sum_of_row_calls(kind):
    rng = np.random.default_rng(3)
    loss = make_loss(kind, delta=0.7, d_y=3)
    Y = rng.normal(size=(20, 3))
    if kind == "logistic":
        Y = np.where(Y >= 0, 1.0, -1.0)
    F = rng.normal(size=(20, 3))
    v, g = eval_loss(loss, Y, F)
    rows = [eval_loss(loss, Y[t], F[t]) for t in range(20)]
    np.testing.assert_allclose(v, sum(r[0] for r in rows), rtol=1e-14, atol=0)
    np.testing.assert_array_equal(g, np.array([r[1] for r in rows]))


def test_sequence_loss_averages():
    loss = make_loss("square")
    Y = np.zeros((4, 2))
    F = np.ones((4, 2))
    assert sequence_loss(loss, Y, F) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["square", "huber"])
def test_sequence_loss_of_a_time_major_block_sums_its_sequences(kind):
    loss = make_loss(kind, delta=0.5)
    rng = np.random.default_rng(4)
    Y, F = rng.normal(size=(2, 6, 3, 2))  # T x K x d_y each
    value = sequence_loss(loss, Y, F)
    parts = [sequence_loss(loss, Y[:, k], F[:, k]) for k in range(3)]
    assert value == pytest.approx(sum(parts), rel=1e-14)
