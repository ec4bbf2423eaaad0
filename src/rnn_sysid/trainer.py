"""Plain SGD over sequences: sample one sequence per step, update (W, A).

B stays frozen.  The student holds the rescaled W = W~ / rho, and the step
is the one SGD takes on the trained W~ with step size eta: the chain rule
gives grad_W~ = grad_W / rho, so W moves by eta_W grad_W (eta_W = eta /
rho^2) and A by eta grad_A.  grad_W = rho Lam[1:]^T G[:-1] has rank <= T-1
and is never formed: W is updated in place from its factors one row block
at a time, and ||grad_W|| comes from T x T Grams.

A step reads W0 zero times.  With a holdout it reads W about 3T+6 times:
T passes each for the forward, the adjoint and the holdout forward, the
rest for the update.  At widths up to `linalg.TWO_ROW_MAX_M`, where one
2-row product costs what one matrix-vector product does, the holdout
sequence rides in the forward as the second row of one time-major block,
and W is read 2T+6 times.  Above it the holdout keeps its own forward.
The distance ||W - W0||_F is exact and sampled: each sample re-draws W0 a
row block at a time (`StudentRNN.dW_frob`), every `checkpoint_every` steps
and once at the end.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .gradients import loss_gradients_bptt
from .linalg import TWO_ROW_MAX_M, DimensionError, frob
from .losses import sequence_loss
from .student import forward_rescaled, save_checkpoint
from .teacher import ParameterError


@dataclass
class TrainTrace:
    records: list = field(default_factory=list)
    aborted: bool = False
    # ||W - W0||_F and ||A - A0||_F at the iterate the run ends on; None
    # when not finite
    dW_frob_final: float = None
    dA_frob_final: float = None

    def losses(self):
        return np.array([r["loss"] for r in self.records])

    def holdout_losses(self):
        return np.array([r["holdout_loss"] for r in self.records
                         if "holdout_loss" in r])


def sgd_train(rnn, dataset, loss, eta, K, seed, trace_path=None,
              checkpoint_every=500, checkpoint_dir=None, holdout=None):
    """Run K steps of Algorithm-style SGD; returns a TrainTrace.

    Per step: draw sequence i uniformly, evaluate both gradients at the
    current iterate, then update W and A together, in place.  If `holdout`
    is given, each record also carries the loss on one holdout sequence
    drawn from an independent stream, so train and holdout curves are
    directly comparable.  The holdout may have another length T; both
    datasets must have the student's d and d_y.  The records of steps k
    with k % checkpoint_every == 0 (k = 0 alone when it is K or more) carry
    the exact dW_frob at the pre-update iterate; `dW_frob_final` and
    `dA_frob_final` are the distances after the last update, or at the
    iterate whose loss was not finite.
    """
    if not 0.0 <= eta < np.inf:
        raise ParameterError(f"eta must be finite and >= 0, got {eta}")
    if K < 1:
        raise ParameterError("K must be >= 1")
    if checkpoint_every < 1:
        raise ParameterError("checkpoint_every must be >= 1")
    for name, data in (("dataset", dataset), ("holdout", holdout)):
        if data is None:
            continue
        dims = (data.inputs.shape[-1], data.observed_outputs.shape[-1])
        if dims != (rnn.d, rnn.d_y):
            raise DimensionError(f"{name} has (d, d_y) = {dims}, the student "
                                 f"({rnn.d}, {rnn.d_y})")
    rho = rnn.rho
    eta_W = eta / rho**2
    # W is updated 64 rows at a time through one buffer: a fresh temporary
    # per block made the update up to three times slower at m = 2048
    buf = np.empty((min(64, rnn.m), rnn.m))
    blocks = [(slice(lo, lo + 64), buf[:min(64, rnn.m - lo)])
              for lo in range(0, rnn.m, 64)]
    rng = np.random.default_rng(seed)
    holdout_rng = np.random.default_rng([int(seed), 1])
    # at widths up to TWO_ROW_MAX_M the training and holdout sequences run
    # as rows 0 and 1 of one time-major block, zero past the shorter one
    X2 = (np.zeros((max(dataset.T, holdout.T), 2, rnn.d))
          if holdout is not None and rnn.m <= TWO_ROW_MAX_M else None)
    trace = TrainTrace()
    writer = open(trace_path, "w") if trace_path else None
    try:
        for k in range(K):
            i = int(rng.integers(dataset.K))
            x, y = dataset.inputs[i], dataset.observed_outputs[i]
            if holdout is not None:
                j = int(holdout_rng.integers(holdout.K))
                x_h, y_h = holdout.inputs[j], holdout.observed_outputs[j]
            G = None
            if X2 is not None:
                X2[:len(x), 0], X2[:len(x_h), 1] = x, x_h
                G2 = forward_rescaled(rnn.W, rnn.A, None, rho, X2)
                G = G2[:len(x), 0]
            pair = loss_gradients_bptt(rnn.W, rnn.A, rnn.B, rho, x, y, loss, G)
            if not np.isfinite(pair.loss):
                trace.aborted = True
                if checkpoint_dir:
                    rnn.step = k
                    save_checkpoint(rnn, os.path.join(checkpoint_dir,
                                                      "abort_%06d" % k))
                break
            rec = {"k": k, "i": i, "loss": pair.loss}
            if k % checkpoint_every == 0:
                rec["dW_frob"] = rnn.dW_frob()
            rec.update(dA_frob=frob(rnn.A - rnn.A0),
                       grad_W_frob=pair.grad_W_frob,
                       grad_A_frob=frob(pair.grad_A))
            if holdout is not None:
                F = (G2[:len(x_h), 1] @ rnn.B.T if X2 is not None else
                     forward_rescaled(rnn.W, rnn.A, rnn.B, rho, x_h))
                rec["holdout_loss"] = sequence_loss(loss, y_h, F)
            trace.records.append(rec)
            if writer:
                writer.write(json.dumps(rec) + "\n")
            Lam, G_prev = pair.Lam[1:], pair.G[:-1]   # lambda_t, g_{t-1}
            cL = Lam.T * (-eta_W * rho)
            for s, out in blocks:
                np.matmul(cL[s], G_prev, out=out)
                rnn.W[s] += out
            rnn.A -= eta * pair.grad_A
            rnn.step = k + 1
            if checkpoint_dir and (k + 1) % checkpoint_every == 0:
                save_checkpoint(rnn, os.path.join(checkpoint_dir,
                                                  "step_%06d" % (k + 1)))
    finally:
        if writer:
            writer.close()
    trace.dW_frob_final, trace.dA_frob_final = (
        v if np.isfinite(v) else None
        for v in (rnn.dW_frob(), frob(rnn.A - rnn.A0)))
    return trace


def averaged_loss(trace):
    """Online-to-batch average (1/K) sum_k of the recorded per-step losses."""
    if not trace.records:
        raise ParameterError("trace is empty")
    return float(np.mean(trace.losses()))


def running_average(values, window):
    """Trailing-window means; entry k averages the last `window` values up to k."""
    c = np.concatenate([[0.0], np.cumsum(values, dtype=float)])
    hi = np.arange(1, len(c))
    lo = np.maximum(0, hi - window)
    return (c[hi] - c[lo]) / (hi - lo)
