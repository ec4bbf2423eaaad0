"""Derivatives of the rescaled forward map and of sequence losses.

Directional derivatives (JVPs) run a tangent copy of the forward
recurrence; full loss gradients use the reverse-mode adjoint recursion.
Forward and adjoint are each one call to `linalg.recurrence`, the
tangent one to `linalg.tangent_recurrence`.
The W-gradient has rank <= T-1 and stays as its two T x m factors.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import recurrence, tangent_recurrence
from .losses import eval_loss


@dataclass
class GradientPair:
    """Loss gradients; grad_W = rho Lam[1:]^T G[:-1] is kept as its factors."""
    Lam: np.ndarray      # T x m adjoint states
    G: np.ndarray        # T x m forward states
    rho: float
    grad_A: np.ndarray   # m x d
    loss: float          # (1/T) sum_t L(y_t, f_t)

    @property
    def grad_W_frob(self):
        """||grad_W||_F = rho sqrt(<Lam Lam^T, G G^T>) over T x T Grams."""
        L, G = self.Lam[1:], self.G[:-1]
        return self.rho * float(np.sqrt(np.einsum("ij,ij->", L @ L.T, G @ G.T)))


def tangent_states(W, A, rho, x, Z_W, Z_A):
    """Tangent states u_t along (Z_W, Z_A); either direction may be None.

    Tangent recurrence u_t = rho W u_{t-1} + rho Z_W g_{t-1} + Z_A x_t over
    the forward states g_t: one `tangent_recurrence` call.
    """
    x = np.asarray(x, dtype=float)
    G = recurrence(x @ A.T, W.T, rho)
    return tangent_recurrence(G, None if Z_W is None else Z_W.T, W.T, rho,
                              None if Z_A is None else x @ Z_A.T)


def loss_gradients_bptt(W, A, B, rho, x, y, loss, G=None):
    """(1/T) sum_t grad L(y_t, f_t) w.r.t. (W, A) by the adjoint recursion.

    lambda_t = (1/T) B^T r_t + rho W^T lambda_{t+1};
    grad_W = rho sum_t lambda_t g_{t-1}^T, grad_A = sum_t lambda_t x_t^T.
    G, if given, holds the forward states g_t of x, which are then not
    recomputed.
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[0]
    if G is None:
        G = recurrence(x @ A.T, W.T, rho)
    total, R = eval_loss(loss, y, G @ B.T)
    # the adjoint runs backward in time: a forward recurrence with M = W
    # on the reversed drive
    Lam = recurrence((R @ B)[::-1] / T, W, rho)[::-1].copy()
    return GradientPair(Lam=Lam, G=G, rho=rho, grad_A=Lam.T @ x, loss=total / T)
