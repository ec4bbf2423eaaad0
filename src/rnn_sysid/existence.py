"""Explicit near-initialization comparator matching the teacher.

For each lag t0 the teacher's transfer matrix is G C^{t0} D and the
student's is rho^{t0} B W^{t0} A.  The construction corrects A for lag 0
and spreads a correction for each lag t0 >= 1 over the t0 index pairs
(a, b) with a + b = t0 - 1, which together form one block product

  W* - W0 = Lcat^T Core Rcat,  Lcat = [B W0^a]_a,  Rcat = [(W0^b A0)^T]_b,
  Core[a, b] = rho^{-t0}/t0 * P1[a] M_t0 P2[b] if t0 = a + b + 1 < T_max else 0,
  M_t0 = G C^{t0} D - rho^{t0} B W0^{t0} A0,

of rank <= (T_max - 1) min(d, d_y), where P1[a] and P2[b] invert the small
Gram matrices of B W0^a and W0^b A0.  Each matched pair reproduces M_t0
exactly through the linearization; the unmatched cross terms vanish at
rate log m / sqrt(m) by the concentration bounds.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .linalg import frob, lag_ladder
from .losses import sequence_loss
from .store import write_json
from .student import forward_rescaled
from .teacher import check_decay, impulse_response


class ConditioningError(RuntimeError):
    pass


@dataclass
class GramInverses:
    P1: list   # P1[a] inverts B W0^a (W0^a)^T B^T, a = 0..max(T_max-2, 0)
    P2: list   # P2[b] inverts (W0^b A0)^T W0^b A0, b = 0..T_max-2
    cond_max: float
    resid_max: float
    L: np.ndarray   # L[a] = B W0^a, T_max x d_y x m
    R: np.ndarray   # R[b] = (W0^b A0)^T, (T_max-1) x d x m


class FactoredW:
    """W* = W0 + left^T core right as an operator, never formed.

    `X @ op` is X @ W0 + ((X @ left^T) @ core) @ right, and `op.T` is the
    transposed operator, so `forward_rescaled` runs on it unchanged:
    numpy defers `ndarray @ op` to it (`__array_ufunc__ = None`).
    """

    __array_ufunc__ = None

    def __init__(self, W0, left, core, right):
        self.W0, self.left, self.core, self.right = W0, left, core, right

    @property
    def T(self):
        return FactoredW(self.W0.T, self.right, self.core.T, self.left)

    def __rmatmul__(self, X):
        return X @ self.W0 + ((X @ self.left.T) @ self.core) @ self.right


@dataclass
class ComparatorParams:
    A_star: np.ndarray
    left: np.ndarray         # Lcat, (T_max-1) d_y x m
    core: np.ndarray         # (T_max-1) d_y x (T_max-1) d
    right: np.ndarray        # Rcat, (T_max-1) d x m
    dist_W: float
    dist_A: float
    distance_bound: float       # on max(dist_W, dist_A)
    theorem_error_bound: float  # on the fit error of (W*, A*)
    T_max: int
    b: float
    rho: float
    meta: dict = field(default_factory=dict)


def _validated_inverse(Gram, tag):
    cond = float(np.linalg.cond(Gram))
    if not np.isfinite(cond) or cond > 1e8:
        raise ConditioningError(
            f"{tag}: Gram condition number {cond:.3g} exceeds 1e8 "
            "(m too small for this horizon)")
    P = np.linalg.solve(Gram, np.eye(Gram.shape[0]))
    resid = frob(P @ Gram - np.eye(Gram.shape[0]))
    if resid > 1e-8:
        raise ConditioningError(f"{tag}: inverse residual {resid:.3g} > 1e-8")
    return P, cond, resid


def gram_inverses(W0, A0, B, T_max):
    # what construct_comparator reads: L to the top M_t0's lag T_max-1, R,
    # P1 and P2 to the core's T_max-2, and P1[0] (A*) at every T_max
    L = lag_ladder(W0.T, B.T, 1.0, T_max - 1)
    R = lag_ladder(W0, A0, 1.0, T_max - 2)
    P = {"P1": [], "P2": []}
    cond_max = 0.0
    resid_max = 0.0
    for tag, ladder in (("P1", L[:max(T_max - 1, 1)]), ("P2", R)):
        for k, M in enumerate(ladder):
            Pk, c, r = _validated_inverse(M @ M.T, f"{tag}[{k}]")
            P[tag].append(Pk)
            cond_max = max(cond_max, c)
            resid_max = max(resid_max, r)
    return GramInverses(**P, cond_max=cond_max, resid_max=resid_max, L=L, R=R)


def construct_comparator(W0, A0, B, teacher, rho, T_max):
    """Build (W*, A*) for lags 0..T_max-1 of the teacher's response.

    Requires rho_C < rho < 1: the rho^{-t0} weights are summable only above
    rho_C, and the fit bound's 1 / (1 - rho) holds only below 1.  The W*
    correction is kept as its factors (left, core, right) = (Lcat, Core,
    Rcat), never formed: dist_W = ||left^T core right||_F comes from the
    two small Grams, ||.||_F^2 = <core^T (left left^T) core, right
    right^T>.  The two claimed bounds, on the distances and on the fit
    error, are computed here with b = sqrt(log(e T_max)).
    """
    check_decay("rho", rho, teacher.rho_C, "rho_C")
    m, d = A0.shape
    b = math.sqrt(math.log(T_max * math.e))
    grams = gram_inverses(W0, A0, B, T_max)
    L, R = grams.L, grams.R
    ir = impulse_response(teacher, T_max)  # G C^k D, k = 0..T_max-1

    A_star = A0 + L[0].T @ (grams.P1[0] @ (ir[0] - B @ A0))

    n = T_max - 1
    left = L[:n].reshape(-1, m)
    right = R.reshape(-1, m)
    core = np.zeros((n, B.shape[0], n, A0.shape[1]))
    for t0 in range(1, T_max):
        M = ir[t0] - rho**t0 * (L[t0] @ A0)
        coef = rho ** (-t0) / t0
        for a in range(t0):
            core[a, :, t0 - 1 - a] = coef * (grams.P1[a] @ M @ grams.P2[t0 - 1 - a])
    core = core.reshape(len(left), len(right))

    dist_W = math.sqrt(float(np.einsum(
        "ij,ij->", core.T @ (left @ left.T) @ core, right @ right.T)))

    return ComparatorParams(
        A_star=A_star,
        left=left,
        core=core,
        right=right,
        dist_W=dist_W,
        dist_A=frob(A_star - A0),
        distance_bound=2.0 * teacher.c_rho * b * T_max**2 / math.sqrt(m),
        theorem_error_bound=(
            b * d**2 * teacher.c_rho * T_max**3 * math.log(m) / math.sqrt(m)
            + teacher.c_rho * rho**T_max / (1.0 - rho)),
        T_max=int(T_max),
        b=b,
        rho=float(rho),
        meta={"cond_max": grams.cond_max, "resid_max": grams.resid_max,
              "rho_C": teacher.rho_C},
    )


def verify_existence(comp, dataset, loss, W0, B):
    """Evaluate the comparator on real sequences; returns the cell report.

    fit_error = max over (sequence, t <= T_max) of ||f_t(W*, A*) - y~_t||;
    the horizon cap keeps the comparison inside the lag range the
    construction covers.  All probes run in one time-major block forward
    on W* factored (`FactoredW`), so no m x m array besides W0 is formed.
    The report adds the averaged loss gap to the teacher's own outputs,
    and carries the comparator's distances and claimed bounds as they
    are; `comp` is left unchanged.
    """
    T_eval = min(dataset.T, comp.T_max)
    x, ytil, yobs = (a[:, :T_eval].swapaxes(0, 1) for a in (
        dataset.inputs, dataset.clean_outputs, dataset.observed_outputs))
    F = forward_rescaled(FactoredW(W0, comp.left, comp.core, comp.right),
                         comp.A_star, B, comp.rho, x)
    gap = sequence_loss(loss, yobs, F) - sequence_loss(loss, yobs, ytil)
    return {
        "fit_error": float(np.max(np.linalg.norm(F - ytil, axis=-1))),
        "loss_gap": gap / dataset.K,
        "dist_W": comp.dist_W,
        "dist_A": comp.dist_A,
        "distance_bound": comp.distance_bound,
        "distances_ok": bool(max(comp.dist_W, comp.dist_A) <= comp.distance_bound),
        "theorem_error_bound": comp.theorem_error_bound,
        "T_eval": T_eval,
        "m": W0.shape[0],
    }


def save_comparator(comp, report, path):
    """Writes `path`/comparator.json (format 2): the comparator's T_max, b
    and rho, its Gram metadata and the cell `report` of `verify_existence`,
    each key once and each value a JSON number or boolean."""
    os.makedirs(path, exist_ok=True)
    doc = {"format_version": 2, "T_max": comp.T_max, "b": comp.b,
           "rho": comp.rho, **comp.meta, **report}
    write_json(os.path.join(path, "comparator.json"), doc)
