import json
import tracemalloc

import numpy as np
import pytest

from oracles import dense_grad_W
from rnn_sysid import student, trainer
from rnn_sysid.gradients import loss_gradients_bptt
from rnn_sysid.linalg import TWO_ROW_MAX_M, DimensionError, frob
from rnn_sysid.losses import make_loss, sequence_loss
from rnn_sysid.student import (draw_W0_blocks, forward_rescaled, init_student,
                               load_checkpoint, save_checkpoint)
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
    assert trace.dW_frob_final == 0.0


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
    # dW_frob is on the records of steps k % checkpoint_every == 0, each the
    # exact ||W - W0||_F at the iterate the step's gradient is taken at;
    # dW_frob_final is the one after the last step
    sys, ds = _problem(T=20, K=16)
    holdout = generate_dataset(sys, "iid_gaussian_unit", 0.0, 20, 4, seed=9)
    loss = make_loss("square", d_y=2)
    rnn = init_student(64, 2, 2, 0.9, 3)
    W0, exact = rnn.W.copy(), []

    def spy(W, *args):
        exact.append(frob(W - W0))
        return loss_gradients_bptt(W, *args)

    monkeypatch.setattr(trainer, "loss_gradients_bptt", spy)
    trace = sgd_train(rnn, ds, loss, 3e-2 / 64, 1500, seed=0, holdout=holdout,
                      checkpoint_every=100)
    sampled = [r["k"] for r in trace.records if "dW_frob" in r]
    assert sampled == list(range(0, 1500, 100))
    tracked = np.array([r["dW_frob"] for r in trace.records if "dW_frob" in r])
    assert len(trace.records) == len(exact) == 1500
    assert tracked[0] == exact[0] == 0.0
    np.testing.assert_allclose(tracked, np.array(exact)[sampled], rtol=1e-12,
                               atol=0)
    np.testing.assert_allclose(trace.dW_frob_final, frob(rnn.W - W0),
                               rtol=1e-12, atol=0)
    assert trace.dW_frob_final > 0.1


def test_dW_frob_at_step_zero_alone_without_checkpoints():
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    trace = sgd_train(rnn, ds, loss, 1e-3, 30, seed=0, checkpoint_every=31)
    assert [r["k"] for r in trace.records if "dW_frob" in r] == [0]
    assert trace.dW_frob_final == rnn.dW_frob() > 0.0


def _three_steps_at_512(**kwargs):
    """(trace, tracemalloc peak) of three SGD steps at m = 512."""
    sys, ds = _problem(T=20)
    holdout = generate_dataset(sys, "iid_gaussian_unit", 0.0, 20, 4, seed=9)
    loss = make_loss("square", d_y=2)
    m = 512
    rnn = init_student(m, 2, 2, 0.9, 3)
    tracemalloc.start()
    try:
        trace = sgd_train(rnn, ds, loss, 3e-2 / m, 3, seed=0, holdout=holdout,
                          **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 3
    assert trace.dW_frob_final > 0.0
    return trace, peak


def test_step_allocates_no_m_by_m_array():
    # numpy reports its buffers to tracemalloc; one m x m float64 array is
    # 2 MB at m = 512, and no step may allocate one
    _, peak = _three_steps_at_512()
    assert peak < 512 * 512 * 8


def test_checkpoints_and_distances_allocate_no_m_by_m_array(tmp_path):
    # a checkpoint inside the run: the W0 digest and the dW_frob
    # passes (steps 0 and 2, and the final one) fall under the same bound
    trace, peak = _three_steps_at_512(checkpoint_every=2,
                                      checkpoint_dir=str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["step_000002"]
    assert [r["k"] for r in trace.records if "dW_frob" in r] == [0, 2]
    assert peak < 512 * 512 * 8


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
    sgd_train(rnn, ds, loss, 1e-4, 40, seed=1, checkpoint_every=20,
              checkpoint_dir=str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["step_000020", "step_000040"]
    assert (tmp_path / "step_000020" / "checkpoint.json").exists()


def test_anchor_is_hashed_once_per_student(monkeypatch, tmp_path):
    # one W0 pass per dW_frob sample (k = 0, 2, 4 and the final one) and
    # one for the digest at the first save; the saves after step 4 and 6
    # reuse it, as does the save of a loaded student, whose load hashed W0
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    passes = []

    def spy(*args):
        passes.append(args[1])
        return draw_W0_blocks(*args)

    monkeypatch.setattr(student, "draw_W0_blocks", spy)
    sgd_train(rnn, ds, loss, 1e-4, 6, seed=1, checkpoint_every=2,
              checkpoint_dir=str(tmp_path))
    assert len(passes) == 5
    loaded = load_checkpoint(tmp_path / "step_000006")
    save_checkpoint(loaded, tmp_path / "again")
    assert len(passes) == 6

    def digest(name):
        header = (tmp_path / name / "checkpoint.json").read_text()
        return json.loads(header)["W0_sha256"]

    assert digest("again") == digest("step_000006") == digest("step_000002")
    assert load_checkpoint(tmp_path / "again").W.tobytes() == rnn.W.tobytes()


def test_divergence_aborts_with_checkpoint(tmp_path):
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = sgd_train(rnn, ds, loss, 1e6, 200, seed=1,
                          checkpoint_dir=str(tmp_path))
    assert trace.aborted
    assert len(trace.records) < 200
    assert [p.name for p in tmp_path.iterdir()] == \
        ["abort_%06d" % len(trace.records)]
    assert trace.dW_frob_final is None or np.isfinite(trace.dW_frob_final)


def test_holdout_losses_recorded():
    sys, ds = _problem()
    holdout = generate_dataset(sys, "iid_gaussian_unit", 0.0, 12, 8, seed=99)
    loss = make_loss("square", d_y=2)
    rnn = init_student(32, 2, 2, 0.9, 3)
    trace = sgd_train(rnn, ds, loss, 1e-4, 25, seed=1, holdout=holdout)
    assert len(trace.holdout_losses()) == 25


def test_invalid_eta_and_K(tmp_path):
    _, ds = _problem()
    loss = make_loss("square", d_y=2)
    rnn = init_student(8, 2, 2, 0.9, 3)
    with pytest.raises(ParameterError):
        sgd_train(rnn, ds, loss, -1.0, 10, seed=0)
    with pytest.raises(ParameterError):
        sgd_train(rnn, ds, loss, 1e-4, 0, seed=0)
    with pytest.raises(ParameterError, match="checkpoint_every"):
        sgd_train(rnn, ds, loss, 1e-4, 10, seed=0, checkpoint_every=0)
    # a non-finite step size is refused before the trace file is opened
    path = tmp_path / "trace.jsonl"
    for eta in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="eta"):
            sgd_train(rnn, ds, loss, eta, 10, seed=0, trace_path=str(path),
                      checkpoint_dir=str(tmp_path))
    assert not path.exists() and not list(tmp_path.iterdir())


@pytest.mark.parametrize("d, d_y", [(3, 2), (2, 3)])
def test_holdout_of_other_dimensions_refused_before_any_write(tmp_path, d, d_y):
    _, ds = _problem()
    other = generate_dataset(random_stable_system(3, d, d_y, 0.8, 5),
                             "iid_gaussian_unit", 0.0, 12, 4, seed=9)
    loss = make_loss("square", d_y=2)
    path = tmp_path / "trace.jsonl"
    for m in (32, TWO_ROW_MAX_M + 64):
        rnn = init_student(m, 2, 2, 0.9, 3)
        W = rnn.W.copy()
        with pytest.raises(DimensionError, match="holdout"):
            sgd_train(rnn, ds, loss, 1e-4, 5, seed=0, trace_path=str(path),
                      checkpoint_every=1, checkpoint_dir=str(tmp_path),
                      holdout=other)
        np.testing.assert_array_equal(rnn.W, W)
    with pytest.raises(DimensionError, match="dataset"):
        sgd_train(rnn, other, loss, 1e-4, 5, seed=0, trace_path=str(path))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("m, T_h", [(64, 12), (64, 5), (64, 20),
                                    (TWO_ROW_MAX_M + 64, 5)])
def test_holdout_step_matches_separate_calls(monkeypatch, m, T_h):
    # up to the width rule the holdout runs as row 1 of the training
    # forward, above it in a forward of its own; either way every step's
    # gradient pair and holdout loss must equal the separate calls at the
    # pre-step iterate, whatever the holdout's length
    sys, ds = _problem(T=12)
    holdout = generate_dataset(sys, "iid_gaussian_unit", 0.0, T_h, 6, seed=9)
    loss = make_loss("huber", d_y=2)
    rnn = init_student(m, 2, 2, 0.9, 3)
    forwards, steps = [], []

    def spy_forward(W, A, B, rho, x):
        forwards.append((B is None, x.shape))
        return forward_rescaled(W, A, B, rho, x)

    def spy_bptt(W, A, B, rho, x, y, loss, G):
        pair = loss_gradients_bptt(W, A, B, rho, x, y, loss, G)
        steps.append((W.copy(), A.copy(), pair,
                      loss_gradients_bptt(W, A, B, rho, x, y, loss)))
        return pair

    monkeypatch.setattr(trainer, "forward_rescaled", spy_forward)
    monkeypatch.setattr(trainer, "loss_gradients_bptt", spy_bptt)
    trace = sgd_train(rnn, ds, loss, 3e-2 / m, 40, seed=2, holdout=holdout)
    fused = m <= TWO_ROW_MAX_M
    assert forwards == [(True, (max(12, T_h), 2, 2)) if fused
                        else (False, (T_h, 2))] * 40
    assert len(trace.holdout_losses()) == len(steps) == 40
    holdout_rng = np.random.default_rng([2, 1])
    for rec, (W, A, pair, separate) in zip(trace.records, steps):
        j = int(holdout_rng.integers(holdout.K))
        F = forward_rescaled(W, A, rnn.B, rnn.rho, holdout.inputs[j])
        np.testing.assert_allclose(
            rec["holdout_loss"],
            sequence_loss(loss, holdout.observed_outputs[j], F),
            rtol=1e-13, atol=0)
        # arrays by their Frobenius norm: single entries near zero carry
        # the cancellation of a different summation order
        for a, b in ((pair.loss, separate.loss),
                     (pair.grad_W_frob, separate.grad_W_frob),
                     (dense_grad_W(pair), dense_grad_W(separate)),
                     (pair.grad_A, separate.grad_A), (pair.G, separate.G),
                     (pair.Lam, separate.Lam)):
            assert frob(np.atleast_1d(a - b)) <= 1e-13 * frob(np.atleast_1d(b))
    assert trace.dW_frob_final > 0.0


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
