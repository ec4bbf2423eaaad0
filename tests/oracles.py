"""Reference implementations the tests compare the package against.

Central finite differences, literal power-series sums of the rescaled
series f_t = sum_{t0} rho^t0 B W^t0 A x_{t-t0} and of its directional
derivatives, an extended-precision forward with its tangent, the dense
form of a factored loss gradient, and the dense form and the spectrum of
a factored comparator.  They share no code with the recurrences under
test.  `jvp_f_all_t` is the exception: the package's tangent states read
out through B, the one JVP of every f_t that the tests hold against them.
So is `copied_transpose_power_opnorm`, the power-norm estimate with its
own W^T products and the package's orthonormalization.
"""

import numpy as np

from rnn_sysid.gradients import tangent_states
from rnn_sysid.linalg import _next_block, power_dtype


def finite_difference_check(scalar_fn, params, direction, analytic,
                            h_grid=(1e-3, 1e-4, 1e-5)):
    """Central differences of scalar_fn along `direction` vs `analytic`.

    scalar_fn maps a parameter array (same shape as params) to a float.
    Returns a report dict with per-h relative errors and their minimum.
    """
    params = np.asarray(params, dtype=float)
    direction = np.asarray(direction, dtype=float)
    rows = []
    for h in h_grid:
        fp = scalar_fn(params + h * direction)
        fm = scalar_fn(params - h * direction)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError("non-finite function value in finite differences")
        numeric = (fp - fm) / (2.0 * h)
        denom = max(abs(analytic), abs(numeric), 1e-300)
        relerr = abs(numeric - analytic) / denom
        rows.append({"h": h, "numeric": numeric, "analytic": analytic,
                     "relerr": relerr})
    return {"rows": rows, "min_relerr": min(r["relerr"] for r in rows)}


def jvp_f_all_t(W, A, B, rho, x, Z_W=None, Z_A=None):
    """JVP of every f_t, B u_t; either direction may be None (zero)."""
    return tangent_states(W, A, rho, x, Z_W, Z_A) @ B.T


# literal-sum oracles, O(T^2 m^3); keep m <= 64, T <= 8

def brute_jvp_W(W, A, B, rho, x, t, Z):
    """Triple sum: sum over t0 and i+j = t-t0-1 of rho^{t-t0} B W^i Z W^j A x_t0.

    Indexing convention W^0 = I; validated against finite differences.
    """
    x = np.asarray(x, dtype=float)
    m = W.shape[0]
    powers = [np.eye(m)]
    for _ in range(t):
        powers.append(W @ powers[-1])
    out = np.zeros(B.shape[0])
    for t0 in range(1, t):  # input time, 1-indexed
        lag = t - t0        # number of W factors in the chain, >= 1
        for i in range(lag):
            j = lag - 1 - i
            out += rho**lag * (B @ powers[i] @ Z @ powers[j] @ A @ x[t0 - 1])
    return out


def brute_jvp_A(W, A, B, rho, x, t, Z):
    x = np.asarray(x, dtype=float)
    m = W.shape[0]
    out = np.zeros(B.shape[0])
    P = np.eye(m)
    for j in range(t):
        out += rho**j * (B @ P @ Z @ x[t - 1 - j])
        P = W @ P
    return out


def brute_forward_powers(W, A, B, rho, x):
    """f_t by explicitly powered matrices (closed-form series oracle)."""
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    m = W.shape[0]
    powers = [np.eye(m)]
    for _ in range(T):
        powers.append(W @ powers[-1])
    F = np.zeros((T, B.shape[0]))
    for t in range(1, T + 1):
        for t0 in range(t):
            F[t - 1] += rho**t0 * (B @ powers[t0] @ A @ x[t - 1 - t0])
    return F


def longdouble_forward(W, A, B, rho, x, Z_W, Z_A):
    """f_t and its JVP along (Z_W, Z_A), both in np.longdouble.

    One explicit loop over t carries the state h_t = rho W h_{t-1} + A x_t
    and its tangent u_t = rho W u_{t-1} + rho Z_W h_{t-1} + Z_A x_t.
    """
    W, A, B, x, Z_W, Z_A = (np.asarray(M, dtype=np.longdouble)
                            for M in (W, A, B, x, Z_W, Z_A))
    rho = np.longdouble(rho)
    h = np.zeros(W.shape[0], dtype=np.longdouble)
    u = np.zeros_like(h)
    F, dF = [], []
    for x_t in x:
        h, u = (rho * (W @ h) + A @ x_t,
                rho * (W @ u) + rho * (Z_W @ h) + Z_A @ x_t)
        F.append(B @ h)
        dF.append(B @ u)
    return np.array(F), np.array(dF)


def dense_grad_W(pair):
    """The m x m gradient w.r.t. the rescaled W that a `GradientPair` keeps
    as its factors: rho Lam[1:]^T G[:-1]."""
    return pair.rho * (pair.Lam[1:].T @ pair.G[:-1])


def comparator_rank_profile(comp):
    """Singular values of W* - W0 = left^T core right: with QR factors
    left^T = Q1 R1 and right^T = Q2 R2, those of the small R1 core R2^T."""
    R1 = np.linalg.qr(comp.left.T, mode="r")
    R2 = np.linalg.qr(comp.right.T, mode="r")
    return np.linalg.svd(R1 @ comp.core @ R2.T, compute_uv=False)


def dense_W_star(comp, W0):
    """The comparator's W* = W0 + left^T (core right) as one m x m array."""
    return W0 + comp.left.T @ (comp.core @ comp.right)


def subspace_power_opnorm(W, k, iters, block, seed):
    """||W^k||_2 estimated by blocked subspace iteration from the seeded
    start block of `matrix_power_opnorm`: each of `iters` rounds applies W
    k times and W^T k times and re-orthonormalizes, and the estimate is the
    top singular value of W^k times the last block.  In float64 throughout.
    """
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(len(W), block)))[0]
    for _ in range(iters):
        for M in [W] * k + [W.T] * k:
            Q = M @ Q
        Q = np.linalg.qr(Q)[0]
    for _ in range(k):
        Q = W @ Q
    return float(np.linalg.svd(Q, compute_uv=False)[0])


def copied_transpose_power_opnorm(W, k, iters, block, seed):
    """`matrix_power_opnorm`'s block Krylov estimate of ||W^k||_2 for one
    power k >= 1, with every W^T product read from a C-contiguous copy,
    `np.ascontiguousarray(W.T)`, in `power_dtype(m)`.  It shares only the
    start block and `_next_block` with the package, so it pins the bits
    of the package's W^T products in row form."""
    m = len(W)
    W = W.astype(power_dtype(m), copy=False)
    Wt = np.ascontiguousarray(W.T)
    rng = np.random.default_rng(seed)
    Y = np.linalg.qr(rng.normal(size=(m, block)))[0].astype(W.dtype)
    iters = min(iters, -(-m // block) - 1)
    V = np.empty((m, min((iters + 1) * block, m)), W.dtype)
    V[:, :block] = Y
    WV = np.empty_like(V)
    for r in range(iters + 1):
        for _ in range(k):
            Y = W @ Y
        WV[:, r * block:r * block + Y.shape[1]] = Y
        if r < iters:
            for _ in range(k):
                Y = Wt @ Y
            Y = _next_block(V, (r + 1) * block, Y)
    return float(np.linalg.svd(WV.astype(np.float64, copy=False),
                               compute_uv=False)[0])
