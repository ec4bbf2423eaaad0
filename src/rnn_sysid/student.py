"""Over-parameterized linear RNN student.

The trained recurrence h_t = W~ h_{t-1} + A x_t with readout f_t = B h_t
is held in the rescaled parameterization W = W~ / rho, where
f_t = sum_{t0} rho^t0 B W^t0 A x_{t-t0}: W is the one parameter matrix,
and the recurrence g_t = rho W g_{t-1} + A x_t evaluates the same series
without explicit matrix powers.  Every forward here is a call to
`linalg.recurrence`: over time for the full series, over lag for the
linearization's ladders rho^j W^j A, whose per-lag transfer matrices
`linalg.causal_fir` sums against the inputs for every truncation lag.
"""

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (DimensionError, causal_fir, lag_ladder, recurrence,
                     tangent_recurrence)
from .store import load_arrays, save_arrays
from .teacher import ParameterError, check_decay


@dataclass
class StudentRNN:
    """Trained (W, A), frozen B, and the anchor A0 = A at initialization.

    The anchor W0 = W at initialization is not held: it is a function of
    (seed, m, rho), re-drawn a row block at a time by `W0_blocks`, and a
    checkpoint stores its digest `W0_sha256` instead of its values.
    """

    W: np.ndarray    # m x m, rescaled: the recurrence matrix is rho W
    A: np.ndarray    # m x d
    B: np.ndarray    # d_y x m, frozen after init
    rho: float
    A0: np.ndarray
    seed: int = 0
    step: int = 0

    @property
    def m(self):
        return self.W.shape[0]

    @property
    def d(self):
        return self.A.shape[1]

    @property
    def d_y(self):
        return self.B.shape[0]

    def W0_blocks(self):
        """Row blocks (lo, block) of W0, re-drawn from `default_rng(seed)` and
        scaled by rho^(-1/2) as `init_student` scales W: its W0 bit for bit.
        One buffer serves every block."""
        for lo, block in draw_W0_blocks(np.random.default_rng(self.seed),
                                        self.m):
            block *= self.rho ** -0.5
            yield lo, block

    @cached_property
    def W0_sha256(self):
        """SHA-256 hex digest of W0's little-endian float64 bytes in
        row-major order, over one `W0_blocks` pass: what a checkpoint
        stores in place of W0.  Seed, m and rho never change on a student,
        so the pass is made once, at the first save or at load."""
        digest = hashlib.sha256()
        for _, block in self.W0_blocks():
            digest.update(block.astype("<f8", copy=False))
        return digest.hexdigest()

    def dW_frob(self):
        """||W - W0||_F in one block pass: each re-drawn block of W0 has W's
        rows subtracted and squared in place and is then summed row by row,
        so no m x m temporary is made, and the m row sums are summed last:
        the value does not depend on the block size."""
        sq = np.empty(self.m)
        for lo, block in self.W0_blocks():
            block -= self.W[lo:lo + len(block)]
            np.square(block, out=block)
            np.add.reduce(block, axis=1, out=sq[lo:lo + len(block)])
        return float(np.sqrt(sq.sum()))


# The row block of every pass over W0 or W: each re-draw of W0 and the SGD
# update of W.  1 MB of float64 at m = 2048
BLOCK_ROWS = 64


def draw_W0_blocks(rng, m, into=None):
    """Row blocks of one W0 ~ N(0, 1/m) drawn from `rng`: yields (lo, block),
    block holding rows lo.. of the draw, BLOCK_ROWS rows at a time (the
    SGD update's block, so a re-draw holds no more than an update does).

    The generator fills values in order, so any block size gives the values
    of one (m, m) draw.  Each block is filled by `standard_normal` and scaled
    in place: the values and the generator's end state are those of
    `rng.normal(0, sqrt(1/m), (m, m))`, without its temporary.  The blocks
    are views of `into`, a float64 m x m array, when it is given; otherwise
    they share one buffer, which the next block overwrites.  This is the one
    drawing loop: `sample_W0` fills its array from it, and the student's
    anchor is re-drawn from it.
    """
    buf = np.empty((min(BLOCK_ROWS, m), m)) if into is None else None
    for lo in range(0, m, BLOCK_ROWS):
        n = min(BLOCK_ROWS, m - lo)
        block = buf[:n] if into is None else into[lo:lo + n]
        rng.standard_normal(out=block)
        block *= np.sqrt(1.0 / m)
        yield lo, block


def sample_W0(rng, m, dtype=np.float64):
    """W0 ~ N(0, 1/m) i.i.d. from `draw_W0_blocks`, held in `dtype`.

    A float64 W0 is filled in place, a narrower one through one float64 row
    block, so no float64 m x m array is held beside a narrower copy.
    """
    W0 = np.empty((m, m), dtype=dtype)
    into = W0 if W0.dtype == np.float64 else None
    for lo, block in draw_W0_blocks(rng, m, into):
        if into is None:
            W0[lo:lo + len(block)] = block
    return W0


def sample_init(rng, m, d, d_y):
    """The initialization (W0, A0, B), drawn from `rng` in that order."""
    W0 = sample_W0(rng, m)
    A0 = rng.normal(0.0, np.sqrt(1.0 / m), size=(m, d))
    B = rng.normal(0.0, np.sqrt(1.0 / d_y), size=(d_y, m))
    return W0, A0, B


def init_student(m, d, d_y, rho, seed):
    """`sample_init(default_rng(seed), m, d, d_y)` with W scaled by
    rho^(-1/2), and A0 = A as the anchor; W0 is re-drawn when needed."""
    check_decay("rho", rho)
    if m < 1 or d < 1 or d_y < 1:
        raise DimensionError("dimensions must be positive")
    W, A, B = sample_init(np.random.default_rng(seed), m, d, d_y)
    # W~ = rho W ~ N(0, rho/m), not the lemmas' N(0, 1/m): that law fails
    # train_small's loss_ratio <= 0.01 gate at 6 of seeds 0-15 (schema.md,
    # "Student initialization"), so it waits for a change of its own.
    # `StudentRNN.W0_blocks` re-draws W0 with the same scale
    rho = float(rho)
    W *= rho ** -0.5
    return StudentRNN(W=W, A=A, B=B, rho=rho, A0=A.copy(), seed=int(seed))


def _check_inputs(x, d, block=False):
    x = np.asarray(x, dtype=float)
    if x.ndim not in ((2, 3) if block else (2,)) or x.shape[-1] != d:
        raise DimensionError(
            f"inputs must be T x {'[K x] ' * block}{d}, got {x.shape}")
    return x


def forward_rescaled(W, A, B, rho, x):
    """f_t(W, A) via the rescaled recurrence g_t = rho W g_{t-1} + A x_t,
    of one T x d sequence or a time-major T x K x d block (one K-row
    product with W^T per step); the outputs have x's shape with d_y.
    With B None it returns the states g_t (x's shape with m)."""
    x = _check_inputs(x, A.shape[1], block=True)
    G = recurrence(x @ A.T, W.T, rho)
    return G if B is None else G @ B.T


def linearized_kernel(W0, A0, dW, A, B, rho, tau):
    """The `causal_fir` kernel of `linearized_forward` at lags 0..tau."""
    # per-lag ladders: [M0_j | M_j] = rho^j W0^j [A0 | A], and M0's tangent
    # along dW, S_j = rho W0 S_{j-1} + rho dW M0_{j-1}
    d = A0.shape[1]
    ladder = lag_ladder(W0, np.hstack([A0, A]), rho, tau)
    return (ladder[:, d:]
            + tangent_recurrence(ladder[:, :d], dW.T, W0.T, rho)) @ B.T


def linearized_forward(W0, A0, dW, A, B, rho, x, taus):
    """First-order expansion of f_t^tau around (W0, A0), one per tau.

    The W-direction is `dW`; f is linear in A, so A is the endpoint.  One
    lag ladder to the largest tau gives a len(taus) x T x d_y array; a tau
    >= T - 1 gives the full expansion, and at dW = 0 it holds f_t^tau at
    (W0, A) itself.
    """
    x = _check_inputs(x, A0.shape[1])
    if min(taus) < 0:
        raise ParameterError(f"every tau must be >= 0, got {list(taus)}")
    T = x.shape[0]
    F = causal_fir(linearized_kernel(W0, A0, dW, A, B, rho,
                                     min(max(taus), T - 1)), x)
    return F[[min(tau, T - 1) for tau in taus]]


# ---------------------------------------------------------------------------
# checkpoint serialization: checkpoint.json + one .bin blob per matrix

FORMAT_VERSION = 3
_SHAPES = {"W": ("m", "m"), "A": ("m", "d"), "B": ("d_y", "m"),
           "A0": ("m", "d")}
_FIELDS = {"rho": float, "seed": int, "step": int, "W0_sha256": str}


def save_checkpoint(rnn, path):
    """Writes W, A, B and A0; W0 is not stored, the header holds the
    student's `W0_sha256`, hashed at its first save and kept after."""
    header = {"format_version": FORMAT_VERSION, "m": rnn.m, "d": rnn.d,
              "d_y": rnn.d_y, "rho": "%.17g" % rnn.rho, "seed": rnn.seed,
              "step": rnn.step, "W0_sha256": rnn.W0_sha256}
    save_arrays(path, "checkpoint.json", header,
                {name: getattr(rnn, name) for name in _SHAPES})


def load_checkpoint(path):
    """The saved student.

    Raises IOError unless the header has format_version 3, rho as text,
    integer seed and step, every blob the shape its m, d and d_y imply and
    that many values, and a `W0_sha256` equal to the digest of the W0 that
    the header's seed, m and rho re-draw.
    """
    fields, mats = load_arrays(path, "checkpoint.json", FORMAT_VERSION,
                               _SHAPES, _FIELDS)
    rnn = StudentRNN(rho=fields["rho"], seed=fields["seed"],
                     step=fields["step"], **mats)
    if rnn.W0_sha256 != fields["W0_sha256"]:
        raise IOError(
            f"{path}: W0_sha256 differs from the digest of the W0 that seed "
            f"{rnn.seed}, m {rnn.m} and rho {rnn.rho!r} re-draw")
    return rnn
