import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import (copied_transpose_power_opnorm, longdouble_forward,
                     subspace_power_opnorm)
from rnn_sysid.linalg import (DimensionError, causal_fir, frob,
                              haar_orthogonal, lag_ladder, log_slope,
                              matrix_power_opnorm, operator_norm,
                              operator_norm_fast, recurrence, spectral_radius,
                              tangent_recurrence)
from rnn_sysid.student import sample_W0
from rnn_sysid.verify import POWER_ITERS


def test_spectral_radius_diagonal():
    M = np.diag([0.3, -0.7, 0.1])
    assert spectral_radius(M) == pytest.approx(0.7)


def test_spectral_radius_rejects_rectangular():
    with pytest.raises(DimensionError):
        spectral_radius(np.zeros((2, 3)))


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(0)
    for shape in [(5, 5), (8, 3), (3, 8)]:
        M = rng.normal(size=shape)
        sigma = np.linalg.svd(M, compute_uv=False)[0]
        assert operator_norm(M) == pytest.approx(sigma, rel=1e-9)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((4, 4))) == 0.0


@pytest.mark.parametrize("m", [64, 256, 512])
def test_operator_norm_fast_exact_on_spectral_W(m):
    # W0 plus a perturbation of Frobenius norm omega_0 at rho_0 = 0.9, a
    # point of the ball that verify_spectral's (d) covers without building
    # it; the k = 1 norm must be the exact top singular value at every
    # width, not a lower estimate
    for seed in range(3):
        rng = np.random.default_rng([seed, m])
        W = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, m))
        U = rng.normal(size=(m, m))
        W += (1.0 / 0.9 - 1.0) * U / np.linalg.norm(U)
        exact = np.linalg.svd(W, compute_uv=False)[0]
        assert abs(operator_norm_fast(W) / exact - 1.0) <= 1e-12


@pytest.mark.parametrize("shape, rank", [((300, 40), 40), ((40, 300), 40),
                                         ((64, 64), 3), ((1, 1), 1)])
def test_operator_norm_fast_exact_beyond_square_gaussians(shape, rank):
    # tall, wide, 1 x 1, and rank 3, whose Krylov space is exhausted long
    # before min(m, n) steps
    rng = np.random.default_rng([rank, *shape])
    M = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
    exact = np.linalg.svd(M, compute_uv=False)[0]
    assert abs(operator_norm_fast(M) / exact - 1.0) <= 1e-12


def test_operator_norm_fast_zero_matrix():
    assert operator_norm_fast(np.zeros((16, 16))) == 0.0


@pytest.mark.parametrize("norm", [operator_norm, operator_norm_fast])
def test_operator_norms_refuse_a_vector(norm):
    with pytest.raises(DimensionError):
        norm(np.ones(5))


@pytest.mark.parametrize("norm", [operator_norm, operator_norm_fast])
def test_operator_norms_of_an_empty_matrix_read_zero(norm):
    assert norm(np.zeros((0, 5))) == 0.0


def test_operator_norm_fast_never_casts_a_float32_matrix():
    # the products cast the vector to M's dtype, so a float32 M is never
    # copied to float64 (one such copy alone is 8 m^2 bytes)
    m = 1024
    M = np.random.default_rng(0).normal(size=(m, m)).astype(np.float32)
    tracemalloc.start()
    try:
        operator_norm_fast(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m


def test_matrix_power_opnorm_vs_dense_power():
    rng = np.random.default_rng(1)
    m = 60
    W = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, m))
    for k in (1, 2, 5, 9):
        exact = np.linalg.svd(np.linalg.matrix_power(0.9 * W, k),
                              compute_uv=False)[0]
        est = matrix_power_opnorm(0.9 * W, k, iters=20)
        assert est == pytest.approx(exact, rel=1e-6)


def test_matrix_power_opnorm_same_for_a_float32_copy():
    # from m = 2048 the iteration runs in float32, so a float32 copy made
    # once by the caller gives exactly the estimate of the float64 matrix
    W = np.random.default_rng(7).normal(0.0, 1.0 / np.sqrt(2048),
                                        size=(2048, 2048))
    for k in (1, 3):
        assert (matrix_power_opnorm(W.astype(np.float32), k, iters=2)
                == matrix_power_opnorm(W, k, iters=2))


@pytest.mark.parametrize("m,dtype,block", [(256, np.float64, 8),
                                           (1024, np.float64, 4),
                                           (2048, np.float32, 8),
                                           (2048, np.float32, 4)])
def test_matrix_power_opnorm_batch_equals_per_power_calls(m, dtype, block):
    # one GEMM serves every power's block, and a blocked GEMM computes each
    # column alike whatever its neighbours: each batched estimate is exactly
    # the single-power one (blocks of 8, as verify_spectral uses, and of 4,
    # from m = 512 up)
    W = np.random.default_rng(8).normal(0.0, 1.0 / np.sqrt(m),
                                        size=(m, m)).astype(dtype)
    ks, iters = [2, 0, 1, 5, 3], [6, 4, 3, 2, 5]
    est = matrix_power_opnorm(W, ks, iters=iters, block=block, seed=3)
    assert est == [matrix_power_opnorm(W, k, iters=it, block=block, seed=3)
                   for k, it in zip(ks, iters)]
    assert est[1] == 1.0


def test_matrix_power_opnorm_gemm_count(monkeypatch):
    # lockstep rounds, one GEMM per step over the powers still that deep:
    # 3 rounds of 14 W and 14 W^T steps, then 14 + 3 and 3.  A W step
    # stacks its blocks side by side (hstack), a W^T step stacks their
    # transposes as rows (vstack)
    calls = []
    for name in ("hstack", "vstack"):
        def counted(blocks, stack=getattr(np, name)):
            calls.append(len(blocks))
            return stack(blocks)
        monkeypatch.setattr(np, name, counted)
    W = np.random.default_rng(4).normal(0.0, 0.125, size=(64, 64))
    matrix_power_opnorm(W, [2, 3, 5, 7, 10, 14], iters=[4, 4, 3, 3, 3, 3],
                        block=8)
    assert len(calls) == 104


@pytest.mark.parametrize("m,draws", [(256, 8), (1024, 3)])
def test_block_krylov_reads_no_lower_than_subspace_iteration(m, draws):
    # verify_spectral's trials at seed 0: its draws of W0, start blocks and
    # iteration counts, against explicit powers.  Each estimate is a lower
    # value, and at 4/3 iterations each k's worst shortfall is no larger
    # than subspace iteration's at the 6/4 it replaced (measured 1.3-2.3%
    # against 2.3-3.6% at m = 1024, k <= 7)
    ks = [2, 3, 5, 7, 10, 14]
    worst_new, worst_old = np.zeros(len(ks)), np.zeros(len(ks))
    for r in range(draws):
        W = sample_W0(np.random.default_rng([0, r]), m)
        exact, P = [], W
        for k in range(2, max(ks) + 1):
            P = W @ P
            if k in ks:
                exact.append(np.linalg.norm(P, 2))
        new = matrix_power_opnorm(
            W, ks, iters=[POWER_ITERS if k <= 3 else POWER_ITERS - 1
                          for k in ks], block=8, seed=1000 + r)
        old = [subspace_power_opnorm(W, k, 6 if k <= 3 else 4, 8, 1000 + r)
               for k in ks]
        assert all(n <= e * (1 + 1e-6) for n, e in zip(new, exact))
        worst_new = np.maximum(worst_new, 1 - np.divide(new, exact))
        worst_old = np.maximum(worst_old, 1 - np.divide(old, exact))
    assert np.all(worst_new <= worst_old)


def test_matrix_power_opnorm_k_zero_is_identity_norm():
    W = np.random.default_rng(2).normal(size=(7, 7))
    assert matrix_power_opnorm(W, 0) == 1.0


@pytest.mark.parametrize("m,dtype,block", [(256, np.float64, 8),
                                           (1024, np.float64, 4),
                                           (2048, np.float32, 8)])
def test_matrix_power_opnorm_row_form_has_the_bits_of_a_transposed_copy(
        m, dtype, block):
    # W^T Y is computed as (Y^T W)^T on W itself, with no transposed copy
    # of W: on verify_spectral's powers, iteration counts and seed-0 draw
    # each estimate equals, bit for bit, the one whose W^T products read
    # np.ascontiguousarray(W.T).  Smaller sizes are left out: there OpenBLAS
    # may take another kernel for one orientation, and the last bits move
    # (at m = 64 with block 4, 2.4682912992748953 read 2.468291299274893)
    ks = [2, 3, 5, 7, 10, 14]
    iters = [POWER_ITERS if k <= 3 else POWER_ITERS - 1 for k in ks]
    W = sample_W0(np.random.default_rng([0, 0]), m).astype(dtype)
    assert (matrix_power_opnorm(W, ks, iters=iters, block=block, seed=1000)
            == [copied_transpose_power_opnorm(W, k, it, block, 1000)
                for k, it in zip(ks, iters)])


W_256 = np.random.default_rng(6).normal(0.0, 1.0 / 16.0, size=(256, 256))


@pytest.mark.parametrize("kwargs, name", [
    ({"k": -1}, "k"), ({"k": 2.5}, "k"), ({"k": [2, -3]}, "k"),
    ({"k": 2, "block": 0}, "block"), ({"k": 2, "iters": -1}, "iters")])
def test_matrix_power_opnorm_refuses_a_bad_count(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        matrix_power_opnorm(W_256, **kwargs)


def test_matrix_power_opnorm_refuses_an_empty_matrix():
    with pytest.raises(DimensionError):
        matrix_power_opnorm(np.zeros((0, 0)), 2)


def test_matrix_power_opnorm_refuses_iters_of_another_length():
    with pytest.raises(DimensionError, match="iters"):
        matrix_power_opnorm(W_256, [2, 3, 5], iters=[4, 4])


def test_haar_orthogonal_is_orthogonal():
    Q = haar_orthogonal(12, np.random.default_rng(3))
    np.testing.assert_allclose(Q.T @ Q, np.eye(12), atol=1e-12)


def test_frob():
    assert frob(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_log_slope_recovers_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 3.0 * x**-0.5
    assert log_slope(np.log(x), y) == pytest.approx(-0.5, abs=1e-12)


def test_log_slope_is_none_without_a_fit():
    # a y <= 0 has no logarithm, and one point no slope
    assert log_slope([1.0, 2.0], [0.0, 1.0]) is None
    assert log_slope([1.0, 2.0], [-1.0, 1.0]) is None
    assert log_slope([1.0], [1.0]) is None
    assert log_slope([], []) is None


def test_recurrence_vector_rows_match_step_loop():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(6, 6))
    U = rng.normal(size=(5, 6))
    g = np.zeros(6)
    for t in range(5):
        g = 0.7 * (g @ M) + U[t]
        np.testing.assert_allclose(recurrence(U, M, 0.7)[t], g, rtol=1e-13)


def test_recurrence_block_rows_give_lag_ladder():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(6, 6))
    U = np.zeros((4, 2, 6))
    U[0] = rng.normal(size=(2, 6))
    ladder = recurrence(U, M, 0.5)
    for j in range(4):
        np.testing.assert_allclose(
            ladder[j], 0.5**j * U[0] @ np.linalg.matrix_power(M, j),
            rtol=1e-12)


@pytest.mark.parametrize("directions", ["W", "A", "both"])
def test_tangent_recurrence_time_rows_match_longdouble_tangent(directions):
    # the states' tangent along Z_W (through the shifted drive), along Z_A
    # (through U) or both, against the extended-precision tangent loop read
    # out with B = I
    m, d, T, rho = 32, 3, 12, 0.85
    rng = np.random.default_rng(7)
    W = rng.normal(size=(m, m)) / np.sqrt(m)
    A = rng.normal(size=(m, d)) / np.sqrt(m)
    x = rng.normal(size=(T, d))
    Z_W = rng.normal(size=(m, m)) if directions != "A" else np.zeros((m, m))
    Z_A = rng.normal(size=(m, d)) if directions != "W" else np.zeros((m, d))
    G = recurrence(x @ A.T, W.T, rho)
    got = tangent_recurrence(G, None if directions == "A" else Z_W.T, W.T,
                             rho, None if directions == "W" else x @ Z_A.T)
    ref = longdouble_forward(W, A, np.eye(m), rho, x, Z_W, Z_A)[1]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_tangent_recurrence_block_rows_match_per_lag_loop():
    # a lag ladder's tangent along Z: every block row meets Z in one GEMM,
    # against S_j = rho S_{j-1} W^T + rho G_{j-1} Z one lag at a time
    m, d, tau, rho = 48, 2, 9, 0.9
    rng = np.random.default_rng(8)
    W = rng.normal(size=(m, m)) / np.sqrt(m)
    Z = rng.normal(size=(m, m)) / np.sqrt(m)
    G = lag_ladder(W, rng.normal(size=(m, d)), rho, tau)
    got = tangent_recurrence(G, Z, W.T, rho)
    S = np.zeros((d, m))
    for j in range(1, tau + 1):
        S = rho * (S @ W.T) + rho * (G[j - 1] @ Z)
        np.testing.assert_allclose(got[j], S, rtol=1e-12, atol=1e-14)
    assert not got[0].any()
    # with no direction the tangent is zero, with only U it is U's own run
    assert not tangent_recurrence(G, None, W.T, rho).any()
    np.testing.assert_array_equal(tangent_recurrence(G, None, W.T, rho, G),
                                  recurrence(G, W.T, rho))


def test_causal_fir_matches_literal_sum():
    rng = np.random.default_rng(6)
    K = rng.normal(size=(3, 2, 4))   # lags 0..2
    x = rng.normal(size=(6, 2))
    F = causal_fir(K, x)
    # one running sum per lag: F[tau] is the series cut after lag tau
    assert F.shape == (3, 6, 4)
    for tau in range(3):
        for t in range(6):
            expect = sum(x[t - j] @ K[j] for j in range(min(tau, t) + 1))
            np.testing.assert_allclose(F[tau, t], expect, rtol=1e-13)
    # lags past the sequence length are never reached
    np.testing.assert_allclose(causal_fir(K, x[:2]), F[:2, :2], rtol=1e-13)


_NORM_SCRIPT = """
import numpy as np
from rnn_sysid.linalg import operator_norm_fast
M = np.random.default_rng(0).normal(size=(1024, 1024))
print(repr(operator_norm_fast(M)))
"""


def _run(script, *args, **env_vars):
    env = dict(os.environ, **env_vars)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=300).stdout


def test_operator_norm_fast_same_in_every_process():
    outs = [_run(_NORM_SCRIPT) for _ in range(2)]
    assert outs[0] == outs[1]
    sigma = float(outs[0])
    exact = np.linalg.svd(np.random.default_rng(0).normal(size=(1024, 1024)),
                          compute_uv=False)[0]
    assert sigma == pytest.approx(exact, rel=1e-9)


_SPECTRAL_SCRIPT = """
import sys
from rnn_sysid.verify import verify_spectral
verify_spectral(m=2048, trials=1, seed=0).save(sys.argv[1])
"""


def test_spectral_report_same_at_every_blas_thread_count(tmp_path):
    # the batched GEMMs and the float32 Lanczos split work across threads
    # without changing any sum's order, so the report does not move
    paths = [tmp_path / f"report_{n}.json" for n in (1, 2)]
    for n, path in zip((1, 2), paths):
        _run(_SPECTRAL_SCRIPT, str(path), OPENBLAS_NUM_THREADS=str(n))
    assert paths[0].read_bytes() == paths[1].read_bytes()
