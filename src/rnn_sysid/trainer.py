"""Plain SGD over sequences: sample one sequence per step, update (W, A).

B stays frozen.  The student holds the rescaled W = W~ / rho, and the step
is the one SGD takes on the trained W~ with step size eta: the chain rule
gives grad_W~ = grad_W / rho, so W moves by (eta / rho^2) * grad_W and A
by eta * grad_A.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .gradients import loss_gradients_bptt
from .linalg import frob
from .losses import sequence_loss
from .student import forward_rescaled, save_checkpoint
from .teacher import ParameterError


@dataclass
class TrainTrace:
    records: list = field(default_factory=list)
    eta: float = 0.0
    K: int = 0
    seed: int = 0
    checkpoint_dirs: list = field(default_factory=list)
    aborted: bool = False

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
    directly comparable.
    """
    if eta < 0:
        raise ParameterError("eta must be >= 0")
    if K < 1:
        raise ParameterError("K must be >= 1")
    rho = rnn.rho
    eta_W = eta / rho**2
    dW = np.empty_like(rnn.W)   # W - W0, reused every step
    rng = np.random.default_rng(seed)
    holdout_rng = np.random.default_rng([int(seed), 1])
    trace = TrainTrace(eta=float(eta), K=int(K), seed=int(seed))
    writer = open(trace_path, "w") if trace_path else None
    try:
        for k in range(K):
            i = int(rng.integers(dataset.K))
            x = dataset.inputs[i]
            y = dataset.observed_outputs[i]
            pair = loss_gradients_bptt(rnn.W, rnn.A, rnn.B, rho, x, y, loss)
            step_loss = pair.meta["seq_loss"]
            if not np.isfinite(step_loss):
                trace.aborted = True
                if checkpoint_dir:
                    path = os.path.join(checkpoint_dir, "abort_%06d" % k)
                    rnn.step = k
                    save_checkpoint(rnn, path)
                    trace.checkpoint_dirs.append(path)
                break
            rec = {
                "k": k,
                "i": i,
                "loss": step_loss,
                "dW_frob": frob(np.subtract(rnn.W, rnn.W0, out=dW)),
                "dA_frob": frob(rnn.A - rnn.A0),
                "grad_W_frob": frob(pair.grad_W),
                "grad_A_frob": frob(pair.grad_A),
            }
            if holdout is not None:
                j = int(holdout_rng.integers(holdout.K))
                F = forward_rescaled(rnn.W, rnn.A, rnn.B, rho,
                                     holdout.inputs[j])
                rec["holdout_loss"] = sequence_loss(
                    loss, holdout.observed_outputs[j], F)
            trace.records.append(rec)
            if writer:
                writer.write(json.dumps(rec) + "\n")
            pair.grad_W *= eta_W
            rnn.W -= pair.grad_W
            rnn.A -= eta * pair.grad_A
            del pair   # so the next step's grad_W does not live beside it
            rnn.step = k + 1
            if checkpoint_dir and checkpoint_every and (k + 1) % checkpoint_every == 0:
                path = os.path.join(checkpoint_dir, "step_%06d" % (k + 1))
                save_checkpoint(rnn, path)
                trace.checkpoint_dirs.append(path)
    finally:
        if writer:
            writer.close()
    return trace


def averaged_loss(trace):
    """Online-to-batch average (1/K) sum_k of the recorded per-step losses."""
    if not trace.records:
        raise ParameterError("trace is empty")
    return float(np.mean(trace.losses()))


def running_average(values, window):
    """Trailing-window means; entry k averages the last `window` values up to k."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    c = np.concatenate([[0.0], np.cumsum(values)])
    for k in range(len(values)):
        lo = max(0, k + 1 - window)
        out[k] = (c[k + 1] - c[lo]) / (k + 1 - lo)
    return out
