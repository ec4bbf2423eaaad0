"""Stable linear dynamic systems (the teacher) and dataset generation.

The teacher is the recurrence p_t = C p_{t-1} + D x_t with output
y~_t = G p_t, certified stable via max_k ||C^k D|| / rho_C^k.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .linalg import (DimensionError, haar_orthogonal, lag_ladder,
                     operator_norm, recurrence, spectral_radius)
from .store import load_arrays, save_arrays

# rho(C) == rho_C exactly for the orthogonal teacher construction, so the
# certificate accepts equality up to roundoff.
_RADIUS_SLACK = 1e-9
CERTIFIED_LAGS = 200  # the horizon every teacher's c_rho is certified over


class ParameterError(ValueError):
    pass


def check_decay(name, value, floor=0.0, floor_name="0"):
    """Refuses a decay or a failure probability `value` outside (floor, 1)."""
    if not floor < value < 1.0:
        at = "" if floor_name == "0" else f" = ({floor}, 1)"
        raise ParameterError(f"{name} must lie in ({floor_name}, 1){at}, "
                             f"got {value}")


@dataclass
class StableLinearSystem:
    C: np.ndarray       # d_p x d_p state transition
    D: np.ndarray       # d_p x d input map
    G: np.ndarray       # d_y x d_p output map
    rho_C: float
    c_rho: float = 0.0

    @property
    def d_p(self):
        return self.C.shape[0]

    @property
    def d(self):
        return self.D.shape[1]

    @property
    def d_y(self):
        return self.G.shape[0]

    def system_hash(self):
        h = hashlib.sha256()
        for M in (self.C, self.D, self.G):
            h.update(np.ascontiguousarray(M, dtype="<f8").tobytes())
        h.update(repr(float(self.rho_C)).encode())
        return h.hexdigest()


def stability_certificate(sys, horizon):
    """max_{0<=k<=horizon} ||C^k D|| / rho_C^k and a decay-rate flag.

    ok means the spectral radius of C does not exceed rho_C (up to
    roundoff).  For a normal C, such as every teacher `random_stable_system`
    builds, ||C^k D|| / rho_C^k then never grows with k, so the maximum over
    the horizon is the global one.  For a non-normal C it need not be: the
    ratio can peak past any fixed horizon.
    """
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    check_decay("rho_C", sys.rho_C)
    CkD = lag_ladder(sys.C, sys.D, 1.0, horizon)  # (C^k D)^T, k = 0..horizon
    norms = np.linalg.norm(CkD, 2, axis=(1, 2))
    c_rho = np.max(norms / sys.rho_C ** np.arange(horizon + 1))
    ok = spectral_radius(sys.C) <= sys.rho_C * (1.0 + _RADIUS_SLACK)
    return float(c_rho), bool(ok)


def random_stable_system(d_p, d, d_y, rho_C, seed):
    """Teacher with C = rho_C * Q for Haar-orthogonal Q.

    The orthogonal factor makes spectral_radius(C) == rho_C exactly and
    ||C^k D|| == rho_C^k ||D||, so c_rho == ||D||.  D and G are Gaussian,
    rescaled to unit operator norm; c_rho is certified over 200 lags.
    """
    if min(d_p, d, d_y) < 1:
        raise DimensionError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    C = rho_C * haar_orthogonal(d_p, rng)
    D = rng.normal(size=(d_p, d))
    D /= operator_norm(D)
    G = rng.normal(size=(d_y, d_p))
    G /= operator_norm(G)
    sys = StableLinearSystem(C=C, D=D, G=G, rho_C=rho_C)
    sys.c_rho, ok = stability_certificate(sys, CERTIFIED_LAGS)
    if not ok:
        raise ParameterError(
            f"spectral radius of C exceeds rho_C = {rho_C} (seed {seed})")
    return sys


def simulate(sys, inputs):
    """Run the state recurrence over one input sequence.

    Returns (states, outputs) with p_0 = 0.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != sys.d:
        raise DimensionError(f"inputs must be T x {sys.d}, got {x.shape}")
    P = recurrence(x @ sys.D.T, sys.C.T)
    return P, P @ sys.G.T


def impulse_response(sys, nlag):
    """Per-lag transfer matrices G C^k D for k = 0..nlag-1 (nlag x d_y x d)."""
    return (lag_ladder(sys.C, sys.D, 1.0, nlag - 1) @ sys.G.T).transpose(0, 2, 1)


@dataclass
class SequenceDataset:
    inputs: np.ndarray           # K x T x d
    clean_outputs: np.ndarray    # K x T x d_y
    observed_outputs: np.ndarray
    noise_sigma: float
    seed: int
    input_spec: str
    system_hash: str = ""

    @property
    def K(self):
        return self.inputs.shape[0]

    @property
    def T(self):
        return self.inputs.shape[1]


def _gaussian_unit(rng, T, d):
    x = rng.normal(size=(T, d)) / np.sqrt(d)
    norms = np.linalg.norm(x, axis=1)
    big = norms > 1.0
    x[big] /= norms[big][:, None]
    return x


def _uniform_sphere(rng, T, d):
    x = rng.normal(size=(T, d))
    norms = np.linalg.norm(x, axis=1)
    norms[norms == 0.0] = 1.0
    return x / norms[:, None]


_INPUT_SPECS = {"iid_gaussian_unit": _gaussian_unit,
                "iid_uniform_sphere": _uniform_sphere}


def input_drawer(input_spec):
    """The drawer of `input_spec`'s sequences, (rng, T, d) -> T x d inputs."""
    if input_spec not in _INPUT_SPECS:
        raise ParameterError(f"unknown input_spec {input_spec!r}")
    return _INPUT_SPECS[input_spec]


def generate_dataset(sys, input_spec, noise_sigma, T, K, seed):
    """K i.i.d. sequences; inputs in the unit ball, observation noise N(0, sigma^2).

    Each sequence draws from its own sub-stream seeded by (seed, i), so
    generation is independent of iteration order.
    """
    if T <= 0 or K <= 0:
        raise ParameterError("T and K must be positive")
    if noise_sigma < 0:
        raise ParameterError("noise_sigma must be >= 0")
    draw = input_drawer(input_spec)
    X = np.empty((K, T, sys.d))
    Yc = np.empty((K, T, sys.d_y))
    Yo = np.empty((K, T, sys.d_y))
    for i in range(K):
        rng = np.random.default_rng([int(seed), i])
        x = draw(rng, T, sys.d)
        _, y = simulate(sys, x)
        X[i] = x
        Yc[i] = y
        if noise_sigma > 0:
            Yo[i] = y + rng.normal(0.0, noise_sigma, size=y.shape)
        else:
            Yo[i] = y
    return SequenceDataset(
        inputs=X,
        clean_outputs=Yc,
        observed_outputs=Yo,
        noise_sigma=float(noise_sigma),
        seed=int(seed),
        input_spec=input_spec,
        system_hash=sys.system_hash(),
    )


# ---------------------------------------------------------------------------
# serialization: directory with meta.json + one .bin blob per array

DATASET_FORMAT_VERSION = 2
_DATASET_SHAPES = {"C": ("d_p", "d_p"), "D": ("d_p", "d"), "G": ("d_y", "d_p"),
                   "inputs": ("K", "T", "d"),
                   "observed_outputs": ("K", "T", "d_y"),
                   "clean_outputs": ("K", "T", "d_y")}
_DATASET_FIELDS = {"rho_C": float, "c_rho": float, "noise_sigma": float,
                   "seed": int, "input_spec": str, "system_hash": str}


def _c_rho_certified(sys):
    """Whether C decays at rho_C and sys.c_rho is its certificate's value."""
    c_rho, ok = stability_certificate(sys, CERTIFIED_LAGS)
    return ok and c_rho == sys.c_rho


def save_dataset(ds, sys, path):
    """Writes `ds` and its teacher `sys` to directory `path`.  A `sys`
    other than the one that generated `ds`, or whose c_rho is not its
    certificate's, is refused before any write."""
    if ds.system_hash != sys.system_hash():
        raise ParameterError("the dataset was not generated by this system")
    if not _c_rho_certified(sys):
        raise ParameterError(f"c_rho = {sys.c_rho} is not the system's "
                             f"{CERTIFIED_LAGS}-lag certificate")
    meta = {"format_version": DATASET_FORMAT_VERSION, "d_p": sys.d_p,
            "d": sys.d, "d_y": sys.d_y, "T": ds.T, "K": ds.K,
            "noise_sigma": "%.17g" % ds.noise_sigma, "seed": ds.seed,
            "input_spec": ds.input_spec, "rho_C": "%.17g" % sys.rho_C,
            "c_rho": "%.17g" % sys.c_rho, "system_hash": ds.system_hash}
    save_arrays(path, "meta.json", meta, {
        "C": sys.C, "D": sys.D, "G": sys.G, "inputs": ds.inputs,
        "observed_outputs": ds.observed_outputs,
        "clean_outputs": ds.clean_outputs})


def load_dataset(path):
    """Returns (dataset, system) from a directory written by save_dataset.

    Raises IOError as `store.load_arrays` does (a format-1 directory, with
    its data.csv, is refused by its format_version), when the stored
    system does not hash to meta.json's system_hash, or when meta.json's
    c_rho, which the hash does not cover, is not the stored system's
    certificate.
    """
    meta, arrays = load_arrays(path, "meta.json", DATASET_FORMAT_VERSION,
                               _DATASET_SHAPES, _DATASET_FIELDS)
    sys = StableLinearSystem(C=arrays["C"], D=arrays["D"], G=arrays["G"],
                             rho_C=meta["rho_C"], c_rho=meta["c_rho"])
    if sys.system_hash() != meta["system_hash"]:
        raise IOError(f"{path}: stored system does not match its system_hash")
    if not _c_rho_certified(sys):
        raise IOError(f"{path}: c_rho = {sys.c_rho} is not the stored "
                      f"system's {CERTIFIED_LAGS}-lag certificate")
    ds = SequenceDataset(
        inputs=arrays["inputs"],
        clean_outputs=arrays["clean_outputs"],
        observed_outputs=arrays["observed_outputs"],
        noise_sigma=meta["noise_sigma"],
        seed=meta["seed"],
        input_spec=meta["input_spec"],
        system_hash=meta["system_hash"],
    )
    return ds, sys
