"""Dense linear algebra helpers shared across the package.

`recurrence` and `causal_fir` are the two primitives behind every
forward, tangent, adjoint and lag-ladder evaluation of the series
f_t = sum_{t0} rho^t0 B W^t0 A x_{t-t0}: the first walks a transition
matrix over time (or over lag, as `lag_ladder`), the second sums per-lag
transfer matrices against an input sequence.

Operator norms: `operator_norm` is the exact norm from a full SVD, for
the small matrices of the teacher; `operator_norm_fast` is a
Golub-Kahan-Lanczos bidiagonalization from a seeded start, stopped on
ARPACK's residual rule, for large ones; and
`matrix_power_opnorm` estimates norms of matrix powers by block Krylov
iteration (the Rayleigh-Ritz value over every block it builds), never
forming the power.
"""

import numpy as np


class DimensionError(ValueError):
    """Shape mismatch between operands."""


def recurrence(U, M, scale=1.0):
    """Stacked rows g_t = scale * g_{t-1} @ M + U[t], with g_{-1} = 0.

    A row U[t] is either one state vector (T x m input) or a k x m block
    (T x k x m input).  Column-vector recurrences h_t = W h_{t-1} + u_t
    are the row form with M = W^T; the adjoint of one is a call with M = W
    on the time-reversed drive.  A block row driven by U = [M0, 0, ...]
    gives the lag ladder M0, scale M0 M, scale^2 M0 M^2, ...
    """
    G = np.array(U, dtype=float, order="C")
    for t in range(1, len(G)):
        G[t] += scale * (G[t - 1] @ M)
    return G


def tangent_recurrence(G, Z, M, scale=1.0, U=None):
    """Tangent of G = recurrence(., M, scale) along M -> M + Z: the
    recurrence driven by scale G[t-1] @ Z, every block row in one GEMM,
    plus U[t] where the drive moved too.  A Z or U of None is zero."""
    drive = np.zeros(G.shape) if U is None else np.array(U, dtype=float)
    if Z is not None:
        rows = G[:-1].reshape(-1, G.shape[-1])
        drive[1:] += scale * (rows @ Z).reshape(G[:-1].shape)
    return recurrence(drive, M, scale)


def lag_ladder(W, A, rho, tau):
    """(rho^j W^j A)^T for j = 0..tau, stacked as a (tau+1) x d x m array.

    With W -> W^T and A -> B^T the same ladder gives rho^j B W^j.
    """
    U = np.zeros((tau + 1,) + A.T.shape)
    U[:1] = A.T
    return recurrence(U, W.T, rho)


def causal_fir(K, x):
    """F[j]_t = sum_{i <= min(j, t)} x_{t-i} @ K[i]: the sum cut after lag j.

    K is (tau+1) x d x d_y (K[i] is the transpose of the lag-i transfer
    matrix N_i, so F[j]_t = sum_{i <= j} N_i x_{t-i}); x is T x d.  Lags
    at or past T are never reached, so F holds min(tau+1, T) of the sums.
    """
    T = x.shape[0]
    F = np.zeros((min(len(K), T), T, K.shape[2]))
    for j in range(len(F)):
        F[j:, j:] += x[:T - j] @ K[j]
    return F


def spectral_radius(M):
    """Largest eigenvalue magnitude of a square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def operator_norm(M):
    """2-norm (largest singular value) of a rectangular matrix: the exact
    value from a full SVD, for the small matrices of the teacher."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={M.ndim}")
    if min(M.shape) == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def _orthogonalize(x, Q):
    """x minus its projection on the orthonormal rows of Q, in place: two
    classical Gram-Schmidt passes, so x stays orthogonal to Q even where
    it lay almost inside their span."""
    for _ in range(2):
        x -= (Q @ x) @ Q
    return x


def _append(X, k, x):
    """X with row k set to x; a full X first doubles its rows (8 at least)."""
    if k == len(X):
        X = np.concatenate([X, np.empty((max(k, 8), X.shape[1]))])
    X[k] = x
    return X


def operator_norm_fast(M):
    """2-norm (top singular value) by Golub-Kahan-Lanczos, without the
    cost of a full SVD.

    From the seeded unit vector v_1, step k applies M to v_k and M^T to
    the new u_k, each vector orthogonalized against every earlier one in
    float64, and appends alpha_k, beta_k to the k x k upper bidiagonal
    B_k = U_k^T M V_k.  The estimate is B_k's top singular value; its Ritz
    pair leaves the residual ||M^T u - sigma v|| = beta_k |p_k|, p the top
    left singular vector of B_k.  The iteration stops once that is at most
    eps * sigma, eps of M's dtype (ARPACK's rule at tol = 0), or once the
    Krylov space is exhausted (beta_k = 0, or k = min(m, n)).  The products
    run in M's dtype (the vector is cast, never M); the bases grow with the
    steps taken.  A zero or empty matrix reads 0.0, and anything but a
    matrix raises DimensionError (both as in `operator_norm`).
    """
    M = np.asarray(M)
    if M.ndim != 2 or not M.size:
        return operator_norm(M)
    eps = np.finfo(M.dtype).eps
    v = np.random.default_rng(0).normal(size=M.shape[1])
    U = np.empty((0, M.shape[0]))
    V = _append(np.empty((0, M.shape[1])), 0, v / frob(v))
    alpha, beta = [], []
    for k in range(min(M.shape)):
        u = (M @ V[k].astype(M.dtype, copy=False)).astype(np.float64)
        if k:
            u -= beta[-1] * U[k - 1]
        alpha.append(frob(_orthogonalize(u, U[:k])))
        b = 0.0
        if alpha[-1]:
            U = _append(U, k, u / alpha[-1])
            v = (M.T @ U[k].astype(M.dtype, copy=False)).astype(np.float64)
            v -= alpha[-1] * V[k]
            b = frob(_orthogonalize(v, V[:k + 1]))
        beta.append(b)
        P, S, _ = np.linalg.svd(np.diag(alpha) + np.diag(beta[:-1], 1))
        if b * abs(P[-1, 0]) <= eps * S[0]:
            break
        V = _append(V, k + 1, v / b)
    return float(S[0])


def power_dtype(m):
    """The dtype `matrix_power_opnorm` iterates in at width m."""
    return np.float32 if m >= 2048 else np.float64


# The widest m at which one 2-row product with an m x m float64 matrix
# costs no more than two matrix-vector products with it.  The ratio of
# the two (median of 400 calls, two runs, 2-core VM, OpenBLAS at 1 / 2
# threads) is 0.47-0.59 for m = 256..576, then 1.23 / 0.74-0.75 at 640 and
# 1.03-1.71 from 704 to 2048 (CHANGES.md, "The holdout in the training
# forward").
TWO_ROW_MAX_M = 576


def _next_block(V, c, Y):
    """Stores in V[:, c:c + w] an orthonormal basis of the part of Y's
    first w columns orthogonal to V[:, :c], with w = V.shape[1] - c capped
    at Y's width, and returns it.  The arithmetic is float64; two rounds of
    projection and QR keep the block orthogonal to the earlier ones even
    where Y lies almost (or wholly) inside their span."""
    K = V[:, :c].astype(np.float64, copy=False)
    Y = Y[:, :V.shape[1] - c].astype(np.float64)
    for _ in range(2):
        Y -= K @ (K.T @ Y)
        Y = np.linalg.qr(Y)[0]
    V[:, c:c + Y.shape[1]] = Y
    return V[:, c:c + Y.shape[1]]


def matrix_power_opnorm(W, k, iters=8, block=4, seed=0):
    """Estimate ||W^k||_2 without forming the matrix power.

    Block Krylov: from a seeded orthonormal block V_0, round r applies W
    k times to V_r (kept as W^k V_r) and W^T k times to that, and the part
    of the result orthogonal to V_0..V_r, orthonormalized in float64, is
    V_{r+1}.  After `iters` rounds the estimate is the top singular value
    of [W^k V_0, ..., W^k V_iters]: the Rayleigh-Ritz value of W^k over
    the span of every block.  That span holds the last block of subspace
    iteration from the same start, so in exact arithmetic the estimate is
    never below that iteration's at the same count.  Cost O(iters * k *
    m^2 * block); the basis stops growing once it spans R^m (there the
    estimate is the exact norm).  The estimate is a lower value: at the
    counts `verify_spectral` uses (4 iterations at k <= 3, 3 above, block
    8) its worst shortfall per k in {2, 3, 5, 7, 10, 14} is 0.3-2.3% at
    m = 1024 (3 draws, against explicit powers), where subspace iteration
    at the 6 and 4 iterations it replaced read 0.6-3.6% low.

    `k` may be a sequence of powers, with `iters` one count per power or
    one for all; the result is then a list of estimates.  They start from
    the same seeded block and run in lockstep rounds: in round r, a power
    with iters > r applies W k times, W^T k times and orthonormalizes, one
    with iters == r W k times and takes the SVD.  Each step is one GEMM
    over the side-by-side blocks of the powers still that deep: 104 GEMMs
    for powers [2, 3, 5, 7, 10, 14] at iters [4, 4, 3, 3, 3, 3].  A
    blocked GEMM computes each column alike whatever stands beside it, so
    each estimate equals its one-power call's; below m^2 * block ~ 1e6
    OpenBLAS may take its small-matrix kernel for the lone product only,
    and the last bits then differ (seen at m <= 256 with block 4).

    The GEMMs run in `power_dtype(m)`, float32 from m = 2048 up (the
    round-off is orders of magnitude below the iteration's own slack); W
    already in it is not cast, and the blocks are stored in it.  W^T
    products run in row form, (Y^T W)^T, on W itself: no transposed copy is
    made, and the bits are those of products with `np.ascontiguousarray(W.T)`
    (seen at m >= 512, and at m = 256 with block 8).  W not square and
    non-empty, or `iters` of another length than `k`, raises
    DimensionError; `k`, `iters` not whole numbers >= 0 or `block` not one
    >= 1 raise ValueError.
    """
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or not W.size:
        raise DimensionError(f"expected a non-empty square W, got {W.shape}")
    if np.size(iters) not in (1, np.size(k)):
        raise DimensionError(f"{np.size(iters)} iters for {np.size(k)} powers")
    for name, x, lo in (("k", k, 0), ("iters", iters, 0), ("block", block, 1)):
        if np.ndim(x) > 1 or np.any(np.mod(x, 1)) or np.any(np.less(x, lo)):
            raise ValueError(f"{name} must be whole numbers >= {lo}, got {x}")
    ks = [int(x) for x in np.atleast_1d(k)]
    m = W.shape[0]
    dtype = power_dtype(m)
    W = W.astype(dtype, copy=False)
    block = min(int(block), m)
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(m, block)))[0].astype(dtype)
    est = [1.0] * len(ks)
    # the basis spans R^m after ceil(m / block) blocks
    its = np.minimum(np.resize(np.int_(iters), len(ks)), (m - 1) // block)
    V = {j: np.empty((m, min((its[j] + 1) * block, m)), dtype)
         for j, kj in enumerate(ks) if kj}
    WV = {j: np.empty_like(Vj) for j, Vj in V.items()}
    Y = {j: Q for j in V}
    for Vj in V.values():
        Vj[:, :block] = Q
    for r in range(max(its, default=-1) + 1):
        c, w = r * block, min(block, m - r * block)
        deeper = [j for j in Y if its[j] > r]
        for transpose, due in ((False, list(Y)), (True, deeper)):
            for step in range(max((ks[j] for j in due), default=0)):
                now = [j for j in due if ks[j] > step]
                out = ((np.vstack([Y[j].T for j in now]) @ W).T if transpose
                       else W @ np.hstack([Y[j] for j in now]))
                for n, j in enumerate(now):
                    Y[j] = out[:, n * w:(n + 1) * w]
            if not transpose:  # W^k V_r, kept for the Rayleigh-Ritz value
                for j in due:
                    WV[j][:, c:c + w] = Y[j]
        for j in set(Y) - set(deeper):
            est[j] = float(np.linalg.svd(WV[j].astype(np.float64, copy=False),
                                         compute_uv=False)[0])
        Y = {j: _next_block(V[j], c + w, Y[j]) for j in deeper}
    return est[0] if np.ndim(k) == 0 else est


def frob(M):
    """Frobenius norm of a matrix, or the 2-norm of a vector.

    A plain numpy reduction, not a BLAS dot, so the value is the same at
    every BLAS thread count.
    """
    M = np.atleast_2d(M)
    return float(np.sqrt(np.einsum("ij,ij->", M, M)))


def haar_orthogonal(n, rng):
    """Haar-distributed orthogonal matrix (QR of a Gaussian, sign-fixed)."""
    M = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    return Q * d


def log_slope(x, y):
    """Least-squares slope of log(y) on x; None below two points or unless
    every y > 0.  A log-log fit passes log(x)."""
    if len(x) < 2 or not all(v > 0 for v in y):
        return None
    return float(np.polyfit(x, np.log(y), 1)[0])
