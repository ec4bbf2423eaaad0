import json
import tracemalloc

import numpy as np
import pytest

from oracles import dense_grad_W
from rnn_sysid import trainer
from rnn_sysid.gradients import loss_gradients_bptt
from rnn_sysid.linalg import frob
from rnn_sysid.losses import make_loss
from rnn_sysid.student import init_student
from rnn_sysid.teacher import ParameterError, generate_dataset, random_stable_system
from rnn_sysid.trainer import averaged_loss, running_average, sgd_train


def _problem(seed=0, noise=0.0, T=12, K=8):
    sys = random_stable_system(3, 2, 2, 0.8, seed)
    ds = generate_dataset(sys, "iid_gaussian_unit", noise, T, K, seed + 1)
    return sys, ds


def test_loss_decreases():
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(64, 2, 2, 0.9, 3)
    trace = sgd_train(rnn, ds, loss, 1e-2 / 64, 300, seed=0)
    losses = trace.losses()
    assert np.mean(losses[-50:]) < 0.5 * np.mean(losses[:50])
    assert not trace.aborted


def test_eta_zero_keeps_parameters():
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    W_before = rnn.W.copy()
    trace = sgd_train(rnn, ds, loss, 0.0, 20, seed=0)
    np.testing.assert_array_equal(rnn.W, W_before)
    assert trace.records[-1]["dW_frob"] == 0.0


def test_sgd_step_is_the_rescaled_gradient_step():
    # one step on W~ = rho W with step size eta moves W by
    # (eta / rho^2) grad_W and A by eta grad_A, both taken at the old iterate
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    W, A = rnn.W.copy(), rnn.A.copy()
    eta = 0.05
    trace = sgd_train(rnn, ds, loss, eta, 1, seed=4)
    i = trace.records[0]["i"]
    pair = loss_gradients_bptt(W, A, rnn.B, rnn.rho, ds.inputs[i],
                               ds.observed_outputs[i], loss)
    np.testing.assert_allclose(rnn.W,
                               W - eta / rnn.rho**2 * dense_grad_W(pair),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(rnn.A, A - eta * pair.grad_A, rtol=1e-12, atol=0)
    assert not np.array_equal(rnn.W, W)
    # the trace carries the norms of the gradients the step took
    assert trace.records[0]["grad_W_frob"] == pair.grad_W_frob
    assert trace.records[0]["grad_A_frob"] == frob(pair.grad_A)
    assert trace.records[0]["grad_W_frob"] > 0.0


@pytest.mark.parametrize("kind", ["square", "l1", "huber", "logistic"])
def test_factored_grad_norm_matches_dense(kind):
    _, ds = _problem(T=20)
    loss = make_loss(kind, d_y=2)
    rnn = init_student(96, 2, 2, 0.9, 3)
    y = ds.observed_outputs[0]
    if kind == "logistic":
        y = np.where(y >= 0, 1.0, -1.0)
    pair = loss_gradients_bptt(rnn.W, rnn.A, rnn.B, rnn.rho,
                               ds.inputs[0], y, loss)
    np.testing.assert_allclose(pair.grad_W_frob, frob(dense_grad_W(pair)),
                               rtol=1e-13, atol=0)


def test_tracked_dW_frob_matches_exact(monkeypatch):
    # every recorded dW_frob, carried from step to step, against the exact
    # ||W - W0||_F at the iterate the step's gradient is taken at
    sys, ds = _problem(T=20, K=16)
    holdout = generate_dataset(sys, "iid_gaussian_unit", 0.0, 20, 4, seed=9)
    loss = make_loss("square", d_y=2)
    rnn = init_student(64, 2, 2, 0.9, 3)
    exact = []

    def spy(W, *args):
        exact.append(frob(W - rnn.W0))
        return loss_gradients_bptt(W, *args)

    monkeypatch.setattr(trainer, "loss_gradients_bptt", spy)
    trace = sgd_train(rnn, ds, loss, 3e-2 / 64, 1500, seed=0, holdout=holdout)
    tracked = np.array([r["dW_frob"] for r in trace.records])
    assert len(tracked) == len(exact) == 1500
    assert tracked[0] == exact[0] == 0.0
    np.testing.assert_allclose(tracked, exact, rtol=1e-12, atol=0)
    assert tracked[-1] > 0.1


def test_step_allocates_no_m_by_m_array():
    # numpy reports its buffers to tracemalloc; one m x m float64 array is
    # 2 MB at m = 512, and no step may allocate one
    sys, ds = _problem(T=20)
    holdout = generate_dataset(sys, "iid_gaussian_unit", 0.0, 20, 4, seed=9)
    loss = make_loss("square", d_y=2)
    m = 512
    rnn = init_student(m, 2, 2, 0.9, 3)
    tracemalloc.start()
    try:
        trace = sgd_train(rnn, ds, loss, 3e-2 / m, 3, seed=0, holdout=holdout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 3
    assert trace.records[-1]["dW_frob"] > 0.0
    assert peak < m * m * 8


def test_same_seed_same_trace():
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    traces = []
    for _ in range(2):
        rnn = init_student(32, 2, 2, 0.9, 3)
        traces.append(sgd_train(rnn, ds, loss, 1e-4, 50, seed=5))
    np.testing.assert_array_equal(traces[0].losses(), traces[1].losses())
    assert [r["i"] for r in traces[0].records] == \
        [r["i"] for r in traces[1].records]


def test_trace_file_matches_records(tmp_path):
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    path = tmp_path / "trace.jsonl"
    trace = sgd_train(rnn, ds, loss, 1e-4, 30, seed=1, trace_path=str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 30
    assert rows[7] == trace.records[7]


def test_checkpoints_written(tmp_path):
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    trace = sgd_train(rnn, ds, loss, 1e-4, 40, seed=1,
                      checkpoint_every=20, checkpoint_dir=str(tmp_path))
    assert len(trace.checkpoint_dirs) == 2
    assert (tmp_path / "step_000020" / "checkpoint.json").exists()


def test_divergence_aborts_with_checkpoint(tmp_path):
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = sgd_train(rnn, ds, loss, 1e6, 200, seed=1,
                          checkpoint_dir=str(tmp_path))
    assert trace.aborted
    assert len(trace.records) < 200
    assert any(d.find("abort") >= 0 for d in trace.checkpoint_dirs)


def test_holdout_losses_recorded():
    sys, ds = _problem()
    holdout = generate_dataset(sys, "iid_gaussian_unit", 0.0, 12, 8, seed=99)
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    trace = sgd_train(rnn, ds, loss, 1e-4, 25, seed=1, holdout=holdout)
    assert len(trace.holdout_losses()) == 25


def test_invalid_eta_and_K():
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(8, 2, 2, 0.9, 3)
    with pytest.raises(ParameterError):
        sgd_train(rnn, ds, loss, -1.0, 10, seed=0)
    with pytest.raises(ParameterError):
        sgd_train(rnn, ds, loss, 1e-4, 0, seed=0)


def test_averaged_loss_is_mean():
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(16, 2, 2, 0.9, 3)
    trace = sgd_train(rnn, ds, loss, 1e-4, 20, seed=2)
    assert averaged_loss(trace) == pytest.approx(float(np.mean(trace.losses())))


def test_running_average_trailing_window():
    vals = [1.0, 2.0, 3.0, 4.0]
    out = running_average(vals, 2)
    np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])


def test_running_average_equals_the_per_step_loop():
    vals = np.random.default_rng(0).exponential(size=1500)
    for window in (1, 50, 200, 1500, 4000):
        c = np.concatenate([[0.0], np.cumsum(vals)])
        expected = np.empty_like(vals)
        for k in range(len(vals)):
            lo = max(0, k + 1 - window)
            expected[k] = (c[k + 1] - c[lo]) / (k + 1 - lo)
        np.testing.assert_array_equal(running_average(vals, window), expected)
