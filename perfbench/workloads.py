"""Workload definitions: generated configs, main-compute boundary, output checks.

Each workload is a list of `run_experiment` configs built from the workload
seed; the seed goes into every config, so the same seed gives the same
inputs.  Sizes are arguments so the tracer tests can run the same call
structure at small widths.

- `train_small`: the acceptance train config (m=512, T=20, K=64, holdout,
  checkpoints).  `W` (2 MB) fits in L2, so the step is bound by per-call
  overhead; this is the run users make.
- `train_large`: the same config at m=2048.  `W` (32 MB) is past L2, so the
  step streams `W` from memory; the parameter update is a large share.
- `certify`: a `verify` config (spectral at m=4096, truncation and
  linearization at m=1024) and an `existence` config (one cell at m=4096,
  T_max=12).  It exercises linalg, verify, existence and the linearized
  forward, none of which the train workloads touch.
"""

import json
import math
import os

# harness bindings where each workload's main compute starts
MAIN_COMPUTE = {
    "train": ("sgd_train",),
    "verify": ("run_lemma",),
    "existence": ("construct_comparator",),
}

TEACHER = {"d_p": 4, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0}


def train_config(seed, m, K_steps, checkpoint_every):
    # The acceptance config runs 6000 steps at eta = 1e-2/m; at 3e-2/m,
    # 1500 steps meet its loss-ratio threshold in a quarter of the time.
    return {
        "kind": "train",
        "seed": seed,
        "teacher": dict(TEACHER),
        "data": {"T": 20, "K": 64},
        "student": {"m": m, "rho_mode": "practical", "rho": 0.9},
        "loss": {"kind": "square"},
        "train": {"K_steps": K_steps, "holdout": True, "eta": 3e-2 / m,
                  "checkpoint_every": checkpoint_every},
    }


def verify_config(seed, m_spectral=4096, m_lemma=1024, trials=2):
    return {
        "kind": "verify",
        "seed": seed,
        "lemmas": ["spectral", "truncation", "linearization"],
        "trials": trials,
        "lemma_params": {"spectral": {"m": m_spectral, "trials": 1},
                         "truncation": {"m": m_lemma},
                         "linearization": {"m": m_lemma}},
    }


def existence_config(seed, m=4096, T_max=12):
    return {
        "kind": "existence",
        "seed": seed,
        "teacher": {**TEACHER, "seed": 7},
        "m_grid": [m],
        "seeds": [seed],
        "T_max": T_max,
        "rho": 0.9,
        "probe": {"K": 4},
    }


def configs(workload, seed, small=False):
    """[(name, config)] for one repetition of `workload`.

    `small` shrinks every width for tests; the call structure is unchanged.
    """
    if workload == "train_small":
        return [("train", train_config(seed, 64 if small else 512,
                                       60 if small else 1500,
                                       20 if small else 500))]
    if workload == "train_large":
        return [("train", train_config(seed, 96 if small else 2048,
                                       40 if small else 80, 500))]
    if workload == "certify":
        if small:
            return [("verify", verify_config(seed, 256, 128, 1)),
                    ("existence", existence_config(seed, 256, 6))]
        return [("verify", verify_config(seed)),
                ("existence", existence_config(seed))]
    raise KeyError(workload)


WORKLOADS = ("train_small", "train_large", "certify")

# untraced repetitions per benchmark call (at least two, for the determinism
# check).  Repetitions of train_small vary most from process to process, so
# it gets one more; certify's are the longest.
REPS = {"train_small": 3, "train_large": 2, "certify": 2}


def _load(path):
    with open(path) as f:
        return json.load(f)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def check(workload, name, out, code):
    """Output checks for one `run_experiment` call: [(check, ok, detail)].

    None of them can pass vacuously: a lemma report whose asserted check
    ran on zero instances fails here even though the report says passed.
    """
    summary = _load(os.path.join(out, "summary.json"))
    if name == "train":
        values = [v for k, v in summary.items()
                  if k not in ("_meta", "loss_kind", "aborted", "gap_exponent")]
        result = [("not_aborted", code == 0 and not summary["aborted"],
                   "exit %d" % code),
                  ("finite", all(_finite(v) for v in values), "summary values")]
        ratio = summary["loss_ratio"]
        if workload == "train_small":
            # thresholds of the acceptance end-to-end learning test
            result += [("loss_ratio", ratio <= 0.01, "%.5g <= 0.01" % ratio),
                       ("holdout_ratio", summary["holdout_ratio"] <= 2.0,
                        "%.5g <= 2" % summary["holdout_ratio"])]
        else:
            result.append(("loss_ratio", ratio < 1.0, "%.5g < 1" % ratio))
        return result
    if name == "verify":
        result = []
        for lemma in summary["results"]:
            report = _load(os.path.join(out, f"report_{lemma}.json"))
            empty = [c for c, e in report["checks"].items()
                     if e.get("asserted", True) and not e["n_instances"]]
            result.append((f"{lemma}_instances", not empty,
                           "checks without instances: %s" % (empty or "none")))
        return result
    if name == "existence":
        row = summary["rows"][0]
        return [("distances_ok", bool(row["distances_ok"]) and code == 0,
                 "exit %d" % code),
                ("fit_error_finite", _finite(row["fit_error"]),
                 "fit_error %r" % row["fit_error"])]
    raise KeyError(name)


# Artifacts the package does not reproduce byte for byte.  The spectral
# report holds ||W0|| and ||W|| from `linalg.operator_norm_fast`, which calls
# scipy's `svds` without a start vector or random state, so ARPACK starts
# from OS entropy and `observed.max_ratio_c` changes in its last digits from
# process to process.  Repetitions must agree on these artifacts value by
# value: every key, string, count and verdict exactly, every float to within
# VALUE_RTOL.  A byte mismatch is still recorded in the info line.
UNSEEDED = ("verify/report_spectral.json",)
VALUE_RTOL = 1e-9


def same_values(a, b, rtol=VALUE_RTOL):
    """True when two parsed JSON documents agree, floats to within `rtol`."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_values(a[k], b[k], rtol) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_values(x, y, rtol) for x, y in zip(a, b))
    return a == b


def artifact_files(name, out):
    """Artifacts whose bytes must repeat across runs with the same seed."""
    files = ["summary.json"]
    if name == "train":
        files.append("trace.jsonl")
    elif name == "verify":
        files += [f"report_{lemma}.json"
                  for lemma in _load(os.path.join(out, "summary.json"))["results"]]
    elif name == "existence":
        files += [os.path.join(d, "comparator.json")
                  for d in sorted(os.listdir(out)) if d.startswith("cell_")]
    return files
