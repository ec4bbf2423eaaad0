"""Derivatives of the rescaled forward map and of sequence losses.

Directional derivatives (JVPs) run a tangent copy of the forward
recurrence; full loss gradients use the reverse-mode adjoint recursion.
Forward, tangent and adjoint are each one call to `linalg.recurrence`.
Literal power-series sums exist only as small-scale test oracles.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionError, recurrence
from .losses import eval_loss


@dataclass
class GradientPair:
    grad_W: np.ndarray   # m x m, rescaled parameterization
    grad_A: np.ndarray   # m x d
    meta: dict = field(default_factory=dict)


def jvp_f_wrt_W(W, A, B, rho, x, t, Z):
    """Directional derivative of f_t w.r.t. W in direction Z (m x m).

    Row t-1 of `jvp_f_all_t` on the first t inputs.
    """
    if Z.shape != W.shape:
        raise DimensionError(f"direction must be {W.shape}, got {Z.shape}")
    x = np.asarray(x, dtype=float)
    if not 1 <= t <= len(x):
        raise DimensionError(f"t must lie in 1..{len(x)}, got {t}")
    return jvp_f_all_t(W, A, B, rho, x[:t], Z_W=Z)[t - 1]


def jvp_f_wrt_A(W, A, B, rho, x, t, Z):
    """Directional derivative of f_t w.r.t. A in direction Z (m x d)."""
    if Z.shape != A.shape:
        raise DimensionError(f"direction must be {A.shape}, got {Z.shape}")
    x = np.asarray(x, dtype=float)
    if not 1 <= t <= len(x):
        raise DimensionError(f"t must lie in 1..{len(x)}, got {t}")
    return jvp_f_all_t(W, A, B, rho, x[:t], Z_A=Z)[t - 1]


def jvp_f_all_t(W, A, B, rho, x, Z_W=None, Z_A=None):
    """JVP of every f_t in one pass; either direction may be None (zero).

    Tangent recurrence u_t = rho W u_{t-1} + rho Z_W g_{t-1} + Z_A x_t,
    result B u_t; its drive is formed for all t at once.
    """
    x = np.asarray(x, dtype=float)
    G = recurrence(x @ A.T, W.T, rho)
    drive = np.zeros_like(G)
    if Z_A is not None:
        drive += x @ Z_A.T
    if Z_W is not None:
        drive[1:] += rho * (G[:-1] @ Z_W.T)
    return recurrence(drive, W.T, rho) @ B.T


def loss_gradients_bptt(W, A, B, rho, x, y, loss):
    """(1/T) sum_t grad L(y_t, f_t) w.r.t. (W, A) by the adjoint recursion.

    lambda_t = (1/T) B^T r_t + rho W^T lambda_{t+1};
    grad_W = rho sum_t lambda_t g_{t-1}^T, grad_A = sum_t lambda_t x_t^T.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    T = x.shape[0]
    G = recurrence(x @ A.T, W.T, rho)
    F = G @ B.T
    R = np.empty_like(F)
    total = 0.0
    for t in range(T):
        v, R[t] = eval_loss(loss, y[t], F[t])
        total += v
    # the adjoint runs backward in time: a forward recurrence with M = W
    # on the reversed drive
    Lam = recurrence((R @ B)[::-1] / T, W, rho)[::-1]
    grad_W = Lam[1:].T @ G[:-1]
    grad_W *= rho
    return GradientPair(grad_W=grad_W, grad_A=Lam.T @ x,
                        meta={"loss": loss.kind, "seq_loss": total / T})


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


# ---------------------------------------------------------------------------
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
