"""Convex sequence losses and their (sub)gradients w.r.t. the prediction.

Every loss is convex in y_hat and locally Lipschitz: ||grad|| <= l0 (1 + C)
whenever ||y_hat||, ||y|| <= C.  l0 is recorded on the loss object because
the schedule and the gradient-norm bounds depend on it.
"""

from dataclasses import dataclass

import numpy as np

from .teacher import ParameterError

KINDS = ("square", "l1", "huber", "logistic")


@dataclass(frozen=True)
class LossFunction:
    kind: str
    delta: float = 1.0   # huber transition point
    l0: float = 1.0


def make_loss(kind, delta=1.0, d_y=1):
    if kind not in KINDS:
        raise ParameterError(f"unknown loss kind {kind!r}")
    # square: grad = y_hat - y, so ||grad|| <= 2C <= 2(1 + C)
    cap = min(delta, 1.0) if kind == "huber" else 1.0
    l0 = 2.0 if kind == "square" else float(np.sqrt(d_y)) * cap
    return LossFunction(kind=kind, delta=float(delta), l0=l0)


def eval_loss(loss, y, y_hat):
    """Returns (value, gradient w.r.t. y_hat) of one output or a T x d_y block.

    The value sums over every entry, so a block's value is the sum of its
    rows' values.
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    r = y_hat - y
    if loss.kind == "square":
        return 0.5 * float(np.sum(r * r)), r
    if loss.kind == "l1":
        # subgradient 0 at exact zeros (minimal-norm element)
        return float(np.sum(np.abs(r))), np.sign(r)
    if loss.kind == "huber":
        d = loss.delta
        a = np.abs(r)
        quad = a <= d
        val = float(np.sum(np.where(quad, 0.5 * r * r, d * (a - 0.5 * d))))
        return val, np.where(quad, r, d * np.sign(r))
    if loss.kind == "logistic":
        # labels y in {-1, +1} per coordinate; sum of log(1 + exp(-y y_hat))
        z = -y * y_hat
        return float(np.sum(np.logaddexp(0.0, z))), -y / (1.0 + np.exp(-z))
    raise ParameterError(f"unknown loss kind {loss.kind!r}")


def sequence_loss(loss, Y, F):
    """(1/T) sum_t L(y_t, f_t) over aligned T x d_y arrays."""
    return eval_loss(loss, Y, F)[0] / Y.shape[0]
