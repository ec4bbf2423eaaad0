import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from oracles import jvp_f_all_t
from rnn_sysid import student
from rnn_sysid.existence import FactoredW
from rnn_sysid.linalg import DimensionError, frob
from rnn_sysid.student import (BLOCK_ROWS, forward_rescaled, init_student,
                               linearized_forward, load_checkpoint,
                               sample_init, sample_W0, save_checkpoint)
from rnn_sysid.teacher import ParameterError


def _setup(m=48, d=3, d_y=2, rho=0.9, seed=0, T=10):
    rnn = init_student(m, d, d_y, rho, seed)
    x = np.random.default_rng(seed + 100).normal(size=(T, d)) / np.sqrt(d)
    return rnn, x


def test_init_scales():
    # sample_init's W0 ~ N(0, 1/m), scaled by rho^(-1/2): the trained
    # recurrence matrix W~ = rho W is N(0, rho/m)
    rnn = init_student(4096, 3, 2, 0.9, 1)
    assert np.std(rnn.W) == pytest.approx(np.sqrt(1.0 / (0.9 * 4096)), rel=0.05)
    W_tilde = rnn.rho * rnn.W
    assert np.std(W_tilde) == pytest.approx(np.sqrt(0.9 / 4096), rel=0.05)
    assert np.std(rnn.A) == pytest.approx(np.sqrt(1.0 / 4096), rel=0.05)
    assert np.std(rnn.B) == pytest.approx(np.sqrt(1.0 / 2), rel=0.05)


@pytest.mark.parametrize("m, rho, seed", [(64, 0.9, 7), (300, 0.5, 0)])
def test_init_student_is_sample_init_with_w_scaled(m, rho, seed):
    # one sampler: A0 and B are sample_init's, bit for bit, and W0 is its
    # W0 after the one scale by rho^(-1/2)
    rnn = init_student(m, 3, 2, rho, seed)
    W0, A0, B = sample_init(np.random.default_rng(seed), m, 3, 2)
    W0 *= rho ** -0.5
    assert rnn.A0.tobytes() == A0.tobytes() and rnn.B.tobytes() == B.tobytes()
    assert np.vstack([block.copy() for _, block in rnn.W0_blocks()]
                     ).tobytes() == W0.tobytes()
    assert rnn.W.tobytes() == W0.tobytes() and rnn.A.tobytes() == A0.tobytes()


@pytest.mark.parametrize("m", [1, BLOCK_ROWS, 100, 256, 300, 512])
def test_redrawn_W0_is_the_stored_draw(tmp_path, m):
    # widths below BLOCK_ROWS and past it, multiples of it and not: the
    # re-drawn blocks are the bytes of sample_W0's array scaled by
    # rho^(-1/2), and a checkpoint's W0_sha256 is the digest of those bytes
    rho, seed = 0.7, 11
    rnn = init_student(m, 2, 2, rho, seed)
    W0 = sample_W0(np.random.default_rng(seed), m) * rho ** -0.5
    rows = [(lo, block.copy()) for lo, block in rnn.W0_blocks()]
    assert [lo for lo, _ in rows] == list(range(0, m, BLOCK_ROWS))
    assert np.vstack([b for _, b in rows]).tobytes() == W0.tobytes()
    assert rnn.W.tobytes() == W0.tobytes()
    save_checkpoint(rnn, tmp_path / "ck")
    header = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
    assert header["W0_sha256"] == \
        hashlib.sha256(W0.astype("<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("m", [1, 100, 300])
def test_redraw_has_the_same_bits_at_every_block_size(monkeypatch, m):
    # the generator fills values in order and dW_frob sums row by row, so
    # the block size moves no bit of W0, its digest or the distance
    rnn = init_student(m, 2, 2, 0.8, 5)
    rnn.W += np.random.default_rng(2).normal(size=rnn.W.shape) / m
    seen = set()
    for rows in (1, 7, 64, 256):
        monkeypatch.setattr(student, "BLOCK_ROWS", rows)
        fresh = dataclasses.replace(rnn)  # no cached W0_sha256
        W0 = np.vstack([block.copy() for _, block in fresh.W0_blocks()])
        seen.add((W0.tobytes(), fresh.W0_sha256, fresh.dW_frob().hex()))
    assert len(seen) == 1


def test_dW_frob_allocates_one_row_block():
    # one BLOCK_ROWS-row float64 block of W0 (0.5 MB at m = 1024) and the
    # m row sums; a 256-row block held 2 MB
    m = 1024
    rnn = init_student(m, 2, 2, 0.9, 3)
    rnn.dW_frob()  # first-call allocations, untraced
    tracemalloc.start()
    try:
        rnn.dW_frob()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (BLOCK_ROWS + 8) * m * 8


def test_init_student_holds_one_m_by_m_array():
    # W is the only m x m array: W0 is re-drawn, not copied
    m = 512
    tracemalloc.start()
    try:
        rnn = init_student(m, 2, 2, 0.9, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rnn.W.shape == (m, m)
    assert peak < 1.5 * m * m * 8


def test_dW_frob_is_the_exact_distance():
    rnn, _ = _setup(m=300)
    W0 = rnn.W.copy()
    assert rnn.dW_frob() == 0.0
    rnn.W += np.random.default_rng(1).normal(size=rnn.W.shape) / 300
    expected = frob(rnn.W - W0)
    assert abs(rnn.dW_frob() - expected) <= 1e-13 * expected


def test_init_rejects_bad_rho():
    with pytest.raises(ParameterError):
        init_student(8, 2, 2, 0.0, 0)


def test_forward_matches_explicit_powers():
    rnn, x = _setup(m=32, T=8)
    F = forward_rescaled(rnn.W, rnn.A, rnn.B, rnn.rho, x)
    T = x.shape[0]
    for t in range(1, T + 1):
        expect = np.zeros(rnn.d_y)
        for t0 in range(t):
            Wp = np.linalg.matrix_power(rnn.W, t0)
            expect += rnn.rho**t0 * rnn.B @ Wp @ rnn.A @ x[t - 1 - t0]
        np.testing.assert_allclose(F[t - 1], expect, atol=1e-10)


@pytest.mark.parametrize("factored", [False, True])
@pytest.mark.parametrize("K", [1, 3])
def test_block_forward_matches_one_call_per_sequence(K, factored):
    # a time-major T x K x d block: one K-row product per step
    rnn, _ = _setup(m=40, T=9)
    rng = np.random.default_rng(11)
    W = rnn.W
    if factored:
        W = FactoredW(rnn.W, rng.normal(size=(4, 40)),
                      0.1 * rng.normal(size=(4, 6)), rng.normal(size=(6, 40)))
    X = rng.normal(size=(9, K, rnn.d))
    F = forward_rescaled(W, rnn.A, rnn.B, rnn.rho, X)
    assert F.shape == (9, K, rnn.d_y)
    for k in range(K):
        single = forward_rescaled(W, rnn.A, rnn.B, rnn.rho, X[:, k])
        assert frob(F[:, k] - single) <= 1e-13 * frob(single)


def test_linearized_forward_takes_one_sequence_only():
    rnn, x = _setup()
    with pytest.raises(DimensionError, match="inputs must be T x 3, got"):
        linearized_forward(rnn.W, rnn.A0, np.zeros_like(rnn.W), rnn.A0,
                           rnn.B, rnn.rho, x[:, None], [2])


def _truncated(rnn, x, taus):
    """f_t^tau for each tau: the linearization at (W, A) in a zero direction."""
    return linearized_forward(rnn.W, rnn.A, np.zeros_like(rnn.W), rnn.A,
                              rnn.B, rnn.rho, x, taus)


def test_truncated_equals_full_when_tau_large():
    rnn, x = _setup(T=9)
    F = forward_rescaled(rnn.W, rnn.A, rnn.B, rnn.rho, x)
    F_tau = _truncated(rnn, x, [len(x) - 1])[0]
    np.testing.assert_allclose(F, F_tau, atol=1e-12)


def test_truncated_tau_zero_is_memoryless():
    rnn, x = _setup()
    F0 = _truncated(rnn, x, [0])[0]
    np.testing.assert_allclose(F0, x @ (rnn.B @ rnn.A).T, atol=1e-14)


def test_truncated_rejects_negative_tau():
    rnn, x = _setup()
    for taus in ([-1], [0, 3, -1]):
        with pytest.raises(ParameterError):
            _truncated(rnn, x, taus)


def test_linearized_at_anchor_is_exact():
    rnn, x = _setup()
    W0 = rnn.W.copy()
    F = forward_rescaled(rnn.W, rnn.A, rnn.B, rnn.rho, x)
    Fl = linearized_forward(W0, rnn.A0, np.zeros_like(W0), rnn.A0,
                            rnn.B, rnn.rho, x, [len(x) - 1])[0]
    np.testing.assert_allclose(F, Fl, atol=1e-12)


def test_linearized_is_affine_in_direction():
    rnn, x = _setup(m=24)
    W0 = rnn.W.copy()
    rng = np.random.default_rng(7)
    dW = rng.normal(size=W0.shape)
    dA = rng.normal(size=rnn.A0.shape)

    def lin(c):
        return linearized_forward(W0, rnn.A0, c * dW, rnn.A0 + c * dA,
                                  rnn.B, rnn.rho, x, [len(x) - 1])[0]

    F0, F1, F2 = lin(0.0), lin(1.0), lin(2.0)
    np.testing.assert_allclose(F2 - F1, F1 - F0, atol=1e-9)


def test_linearized_truncated_matches_full_when_tau_large():
    rnn, x = _setup(m=24, T=7)
    W0 = rnn.W.copy()
    rng = np.random.default_rng(8)
    dW = 0.02 * rng.normal(size=W0.shape)
    A = rnn.A0 + 0.02 * rng.normal(size=rnn.A0.shape)
    # f is linear in A: the full expansion is the JVP at (W0, A0) along (dW, A)
    full = jvp_f_all_t(W0, rnn.A0, rnn.B, rnn.rho, x, Z_W=dW, Z_A=A)
    # tau = T - 1 and past it
    truncs = linearized_forward(W0, rnn.A0, dW, A, rnn.B, rnn.rho, x,
                                [len(x) - 1, len(x) + 3])
    for trunc in truncs:
        np.testing.assert_allclose(full, trunc, atol=1e-11)


@pytest.mark.parametrize("tau", [1, 3])
def test_truncated_forwards_match_per_lag_sums(tau):
    rnn, x = _setup(m=24, T=8)
    W0 = rnn.W.copy()
    T = len(x)
    # tau alongside 0 and a tau past T, all served by one ladder
    taus = [0, tau, T + 2]
    rng = np.random.default_rng(9)
    dW = 0.02 * rng.normal(size=W0.shape)
    A = rnn.A0 + 0.02 * rng.normal(size=rnn.A0.shape)
    rho, B = rnn.rho, rnn.B
    P0 = [np.linalg.matrix_power(W0, j) for j in range(T)]
    # lag-j transfer matrices of f^tau and of its linearization at (W0, A0)
    N = [rho**j * B @ P0[j] @ rnn.A0 for j in range(T)]
    N_lin = [rho**j * B @ (P0[j] @ A + sum((P0[i] @ dW @ P0[j - 1 - i]
                                            for i in range(j)),
                                           np.zeros_like(dW)) @ rnn.A0)
             for j in range(T)]
    Fs = _truncated(rnn, x, taus)
    F_lins = linearized_forward(W0, rnn.A0, dW, A, B, rho, x, taus)
    for tau, F, F_lin in zip(taus, Fs, F_lins):
        for t in range(len(x)):
            lags = range(min(tau, t) + 1)
            np.testing.assert_allclose(F[t],
                                       sum(N[j] @ x[t - j] for j in lags),
                                       atol=1e-12)
            np.testing.assert_allclose(F_lin[t],
                                       sum(N_lin[j] @ x[t - j] for j in lags),
                                       atol=1e-12)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rnn, _ = _setup()
    rnn.step = 17
    rnn.W += 0.01
    rnn.A -= 0.01
    save_checkpoint(rnn, tmp_path / "ck")
    rnn2 = load_checkpoint(tmp_path / "ck")
    for name in ("W", "A", "B", "A0"):
        np.testing.assert_array_equal(getattr(rnn, name), getattr(rnn2, name))
    assert (rnn2.rho, rnn2.seed, rnn2.step) == (rnn.rho, rnn.seed, 17)
    assert rnn2.W0_sha256 == rnn.W0_sha256


def _edit_header(path, edit):
    header = json.loads((path / "checkpoint.json").read_text())
    edit(header)
    (path / "checkpoint.json").write_text(json.dumps(header))


def test_checkpoint_blob_shape_must_match_header(tmp_path):
    rnn, _ = _setup(m=8, d=3, d_y=2)
    edits = [
        # B is d_y x m; read as m x d_y it would give a student with d_y == m
        (lambda h: h["blobs"]["B"].update(shape=[8, 2]), "blob B has shape"),
        (lambda h: h["blobs"].pop("A0"), "lacks key 'A0'"),
        # A0 has A's shape, so only the file name tells them apart
        (lambda h: h["blobs"]["A0"].update(file="A.bin"),
         "blob A0 is stored in 'A.bin'"),
        (lambda h: h.pop("m"), "lacks key 'm'"),
        (lambda h: h.update(m=8.0), "m must be an integer, got 8.0"),
        (lambda h: h.pop("rho"), "lacks key 'rho'"),
        (lambda h: h.update(rho="abc"), "rho must be a number in text"),
        (lambda h: h.update(seed="x"), "seed must be an integer"),
        (lambda h: h.update(step=None), "step must be an integer"),
        (lambda h: h["blobs"].update(A="A.bin"),
         "blobs: A must be an object, got 'A.bin'"),
        (lambda h: h.update(blobs=["A.bin"]), "blobs must be an object"),
        (lambda h: h["blobs"]["A"].update(length=7),
         "blob A has length 7, expected 24"),
    ]
    for edit, message in edits:
        save_checkpoint(rnn, tmp_path / "ck")
        _edit_header(tmp_path / "ck", edit)
        with pytest.raises(IOError, match=message):
            load_checkpoint(tmp_path / "ck")


def test_checkpoint_format_version_checked(tmp_path):
    rnn, _ = _setup(m=8)
    save_checkpoint(rnn, tmp_path / "ck")
    # version 1 stored W~ = rho W, version 2 stored W0.bin; neither is read
    for version in (1, 2, 4):
        _edit_header(tmp_path / "ck",
                     lambda h: h.update(format_version=version))
        with pytest.raises(IOError, match="format_version"):
            load_checkpoint(tmp_path / "ck")


def test_checkpoint_W0_must_be_the_redraw(tmp_path):
    # W0_sha256 is checked against the W0 the header's seed, m and rho
    # re-draw: an edit of either side is refused
    rnn, _ = _setup(m=300)
    save_checkpoint(rnn, tmp_path / "ck")
    header = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
    for key, value in (("seed", 1), ("rho", "0.8"), ("W0_sha256", "0" * 64)):
        _edit_header(tmp_path / "ck", lambda h: h.update({key: value}))
        with pytest.raises(IOError, match="W0_sha256 differs from the digest "
                           "of the W0 that seed .*, m 300 and rho"):
            load_checkpoint(tmp_path / "ck")
        (tmp_path / "ck" / "checkpoint.json").write_text(json.dumps(header))
    assert load_checkpoint(tmp_path / "ck").W.tobytes() == rnn.W.tobytes()


def test_checkpoint_holds_no_W0_blob(tmp_path):
    rnn, _ = _setup(m=8)
    save_checkpoint(rnn, tmp_path / "ck")
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == \
        ["A.bin", "A0.bin", "B.bin", "W.bin", "checkpoint.json"]


def test_checkpoint_blob_must_hold_every_value(tmp_path):
    rnn, _ = _setup(m=8)
    save_checkpoint(rnn, tmp_path / "ck")
    blob = tmp_path / "ck" / "A.bin"
    data = blob.read_bytes()
    blob.write_bytes(data[:-8])
    with pytest.raises(IOError, match="blob A has 23 values, expected 24"):
        load_checkpoint(tmp_path / "ck")
    # 3 stray bytes past the last value
    blob.write_bytes(data + b"\0\0\0")
    with pytest.raises(IOError, match="blob A has 24.375 values, expected 24"):
        load_checkpoint(tmp_path / "ck")
    # a header cut short is refused the same way
    header = tmp_path / "ck" / "checkpoint.json"
    header.write_text(header.read_text()[:40])
    with pytest.raises(IOError, match="checkpoint.json is not JSON"):
        load_checkpoint(tmp_path / "ck")
