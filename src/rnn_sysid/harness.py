"""Config-driven experiment runner.

A single JSON config describes one of four experiment kinds (train,
verify, existence, sweep).  `SCHEMA` holds every field each kind accepts
and its default; `resolve_config` checks a config against it at every
depth and fills it in.  Every artifact embeds the config hash, the seed,
and the package version, and re-running a config reproduces all numeric
outputs bit-exactly.
"""

import copy
import csv
import ctypes
import hashlib
import inspect
import json
import math
import os

import numpy as np

from . import __version__
from .existence import construct_comparator, save_comparator, verify_existence
from .linalg import log_slope
from .losses import make_loss
from .schedule import check_targets, theory_schedule
from .store import write_json
from .student import init_student, sample_init
from .teacher import (check_decay, generate_dataset, input_drawer,
                      load_dataset, random_stable_system)
from .trainer import running_average, sgd_train
from .verify import (ALL_LEMMAS, _at_most, _finish, _within, lemma_kwargs,
                     run_lemma)


class ConfigError(ValueError):
    pass


# Every config field and its default.  A dict is a section: it accepts its
# own keys only and fills in the missing ones.  A None default is worked
# out at run time: `seeds` is [seed], `_derive` sets train.eta and
# train.K_steps from m or the theory schedule, `out_dir` comes from the
# config hash.  Verify's `m` and `trials`, when given, fill each lemma's
# section where it leaves them out (`resolve_config`).  Sections are named
# after the keyword arguments of the function they feed, given in the
# comments.
TEACHER = {"d_p": 4, "d": 2, "d_y": 2, "rho_C": 0.8, "seed": 0}  # random_stable_system
DATA = {"input_spec": "iid_gaussian_unit", "noise_sigma": 0.0,    # generate_dataset
        "T": 20, "K": 64}
LOSS = {"kind": "square", "delta": 1.0}                           # make_loss
SCHEDULE = {"epsilon": 0.05, "delta": math.exp(-1.0)}  # theory_schedule
STUDENT = {"rho_mode": "practical", "rho": 0.9, "rho_0": 0.9}
TRAIN = {"K_steps": None, "eta": None, "holdout": False, "checkpoint_every": 500}
TRAINING = {"teacher": TEACHER, "data": DATA, "student": STUDENT, "loss": LOSS,
            "train": TRAIN, "schedule": SCHEDULE}
COMMON = {"kind": None, "seed": 0, "out_dir": None}

SCHEMA = {
    "train": {**COMMON, **TRAINING, "dataset_path": None,
              "student": {"m": 512, **STUDENT}},
    "sweep": {**COMMON, **TRAINING, "m_grid": [256], "seeds": None},
    "existence": {**COMMON, "teacher": TEACHER, "m_grid": [256, 1024],
                  "seeds": None, "T_max": 12, "rho": 0.9,
                  "probe": {"K": 4}},                             # generate_dataset
    "verify": {**COMMON, "lemmas": "all", "m": None, "trials": None,
               "lemma_params": {
                   name: {key: p.default for key, p in
                          inspect.signature(fn).parameters.items()
                          if key != "seed"}  # the run's seed
                   for name, fn in ALL_LEMMAS.items()}},
}


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# The JSON type of a value, and of each list entry, by its default's (a
# None default is worked out at run time and checked there).  bool is a
# subclass of int in Python, so int and float fields refuse it apart.
# The default gives the floor too: an integer field whose default is at
# least 1 is a count, at least 1; every other number is at least 0.
_JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string"),
               list: ((list,), "a list"), tuple: ((list,), "a list")}


def _check_type(value, default, name):
    types, what = _JSON_TYPES[type(default)]
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and not isinstance(default, bool)):
        raise ConfigError(f"config field {name} must be {what}, got {value!r}")
    if types == (list,):
        for n, entry in enumerate(value if default else ()):
            _check_type(entry, default[0], f"{name}[{n}]")
    elif type(default) in (int, float):
        low = 1 if type(default) is int and default >= 1 else 0
        if not value >= low:  # NaN too
            raise ConfigError(f"config field {name} must be >= {low}, "
                              f"got {value!r}")


def _fill(spec, section, path):
    """`section` checked against `spec`, with every missing field filled in."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path[:-1] or 'config'} must be a JSON object, "
                          f"got {section!r}")
    unknown = [path + key for key in section if key not in spec]
    if unknown:
        raise ConfigError(f"unknown config field {', '.join(unknown)}")
    filled = {}
    for key, sub in spec.items():
        if isinstance(sub, dict):
            filled[key] = _fill(sub, section[key] if key in section else {},
                                f"{path}{key}.")
        elif key not in section:
            filled[key] = copy.deepcopy(sub)
        else:
            # `lemmas` is a name or a list of names: resolve_config checks it
            if sub is not None and key != "lemmas":
                _check_type(section[key], sub, path + key)
            filled[key] = section[key]
    return filled


def resolve_config(config, seed_override=None):
    """`config` checked against SCHEMA at every depth, defaults filled in.

    Raises ConfigError naming the dotted path of an unknown field, or of
    a value whose JSON type differs from its default's or that lies below
    the floor its default gives (`_check_type`); `seed_override` and each
    `seeds` entry are checked as `seed` is.  The defaults that need the
    teacher or the width are left to `_derive`.
    """
    kind = config.get("kind")
    if kind not in SCHEMA:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    c = _fill(SCHEMA[kind], config, "")
    if seed_override is not None:
        _check_type(seed_override, 0, "seed")
        c["seed"] = seed_override
    if "seeds" in c:
        if c["seeds"] is None:
            c["seeds"] = [c["seed"]]
        _check_type(c["seeds"], [0], "seeds")
    if kind == "train" and c["dataset_path"] is not None:
        beside = [key for key in ("teacher", "data") if key in config]
        if beside:
            raise ConfigError(f"{' and '.join(beside)} beside dataset_path: "
                              "the saved dataset fixes the teacher and data")
        del c["teacher"], c["data"]
    if kind == "verify":
        if c["lemmas"] == "all":
            c["lemmas"] = list(ALL_LEMMAS)
        elif isinstance(c["lemmas"], str):
            c["lemmas"] = [c["lemmas"]]
        elif not isinstance(c["lemmas"], list) or not c["lemmas"]:
            # a run over no lemmas would test nothing
            raise ConfigError("config field lemmas must be a name or a list "
                              f"of names, not empty, got {c['lemmas']!r}")
        bad = [name for name in c["lemmas"] if name not in ALL_LEMMAS]
        if bad:
            raise ConfigError(f"unknown lemmas {bad}; choose from "
                              f"{list(ALL_LEMMAS)} or 'all'")
        given = config.get("lemma_params", {})
        for name, params in c["lemma_params"].items():
            for key in ("m", "trials"):
                if c[key] is not None and key not in given.get(name, {}):
                    params[key] = c[key]
    return c


def _derive(c, sys, m):
    """One train cell of `c` at width m, derived defaults filled in.

    Returns (config, theory schedule or None, loss).  train.eta defaults
    to 1e-2/m and train.K_steps to 2000 in practical mode, and both to the
    schedule's values in theory mode, where student.rho is the schedule's;
    a given value must have its derived default's type and floor.  A
    theory schedule outside its regime asks for an astronomically long
    run, so it is refused unless train.K_steps is given.
    """
    if "data" in c:
        input_drawer(c["data"]["input_spec"])
    student = {**c["student"], "m": m}
    train = dict(c["train"])
    loss = make_loss(**c["loss"], d_y=sys.d_y)
    mode = student["rho_mode"]
    sched = None
    if mode == "theory":
        sched = theory_schedule(**c["schedule"], rho_0=student["rho_0"],
                                c_rho=sys.c_rho, m=m, l0=loss.l0)
        if sched.outside_theory_regime and train["K_steps"] is None:
            raise ConfigError(
                f"student.rho_mode 'theory' at m={m} is outside the theory "
                f"regime (m_star = {sched.m_star:.3g}): its schedule asks for "
                f"K = {sched.K:.3g} steps at eta = {sched.eta:.3g}; set "
                "train.K_steps to run it anyway")
        student["rho"] = sched.rho
        derived = {"eta": sched.eta, "K_steps": sched.K}
    elif mode == "practical":
        check_decay("student.rho", student["rho"])  # a float: no int lies there
        # unread here, but recorded: refused as theory mode refuses them
        check_decay("rho_0", student["rho_0"])
        check_targets(**c["schedule"])
        derived = {"eta": 1e-2 / m, "K_steps": 2000}
    else:
        raise ConfigError(f"unknown student.rho_mode {mode!r}")
    for key, value in derived.items():
        if train[key] is None:
            train[key] = value
        _check_type(train[key], value, "train." + key)
    train["eta"] = float(train["eta"])
    return {**c, "student": student, "train": train}, sched, loss


def _find_malloc_trim():
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _find_malloc_trim()


def _release_freed_memory():
    """Hands the heap pages the last phase freed back to the OS.

    glibc keeps freed heap memory for reuse, so without this the next
    phase's large arrays (an m x m W0 is 128 MB at m = 4096) are mapped on
    top of what the earlier phases left behind.  A C library without
    `malloc_trim` keeps its own policy.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _stamp(cfg, seed):
    return {"config_hash": config_hash(cfg), "seed": seed,
            "version": __version__}


def _train_cell(c, sched, loss, sys, dataset, out, seed):
    """Trains one `_derive`d cell; returns its summary."""
    if dataset is None:
        dataset = generate_dataset(sys, **c["data"], seed=seed)
    student, train = c["student"], c["train"]
    holdout = None
    if train["holdout"]:
        # drawn like the training set, whether that was generated or loaded
        holdout = generate_dataset(sys, dataset.input_spec, dataset.noise_sigma,
                                   dataset.T, dataset.K, seed + 10_000)
    rnn = init_student(student["m"], sys.d, sys.d_y, student["rho"], seed + 1)
    os.makedirs(out, exist_ok=True)
    trace = sgd_train(
        rnn, dataset, loss, train["eta"], train["K_steps"], seed,
        trace_path=os.path.join(out, "trace.jsonl"),
        checkpoint_every=train["checkpoint_every"],
        checkpoint_dir=os.path.join(out, "checkpoints"),
        holdout=holdout)
    losses = trace.losses()
    window = max(1, min(len(losses) // 4, 500))
    summary = {
        "m": student["m"], "rho": student["rho"], "eta": train["eta"],
        "K_steps": train["K_steps"],
        "loss_kind": loss.kind,
        "aborted": trace.aborted,
        "window": window,
        "dW_frob_final": trace.dW_frob_final,
        "dA_frob_final": trace.dA_frob_final,
    }
    if sched is not None:
        summary["schedule"] = sched.to_dict()
    if not trace.records:
        # aborted at its first step: there is no loss to average, and strict
        # JSON has no NaN, so every field derived from the losses is null
        derived = ["initial_avg_loss", "final_avg_loss", "loss_ratio"]
        if holdout is not None:
            derived += ["gap_exponent", "final_gap", "final_holdout_avg",
                        "holdout_ratio"]
        return {**summary, **dict.fromkeys(derived)}
    avg = running_average(losses, window)
    summary.update({
        "initial_avg_loss": float(avg[window - 1]),
        "final_avg_loss": float(avg[-1]),
        "loss_ratio": float(avg[-1] / max(avg[window - 1], 1e-300)),
    })
    if holdout is not None:
        gap = generalization_gap(trace, dataset, holdout)
        summary["gap_exponent"] = gap["exponent"]
        summary["final_gap"] = gap["gaps"][-1]
        ho_avg = running_average(trace.holdout_losses(), window)
        summary["final_holdout_avg"] = float(ho_avg[-1])
        summary["holdout_ratio"] = float(
            ho_avg[-1] / max(summary["final_avg_loss"], 1e-300))
    return summary


def generalization_gap(trace, train_dataset, holdout_dataset):
    """|running train loss - running holdout loss| at 20 log-spaced step counts.

    Both curves are online means over the same steps, so the gap isolates
    the train/holdout mismatch rather than the optimization trend.  Step
    counts never pass the run's length; with fewer than two distinct ones
    the exponent is None.
    """
    if train_dataset.system_hash != holdout_dataset.system_hash:
        raise ValueError("holdout dataset comes from a different teacher")
    tr = trace.losses()
    ho = trace.holdout_losses()
    if len(ho) != len(tr):
        raise ValueError("trace does not carry per-step holdout losses")
    K = len(tr)
    ks = sorted(set(min(int(k), K)
                    for k in np.geomspace(max(10, K // 50), K, 20)))
    gaps = [abs(float(np.mean(tr[:k]) - np.mean(ho[:k]))) for k in ks]
    pos = [(k, g) for k, g in zip(ks, gaps) if g > 0]
    exponent = log_slope(np.log([k for k, _ in pos]), [g for _, g in pos])
    return {"ks": ks, "gaps": gaps, "exponent": exponent}


def _run_verify(calls, out):
    """Runs each lemma with its keywords, as `lemma_kwargs` checked them."""
    results = {}
    for name, kwargs in calls.items():
        report = run_lemma(name, **kwargs)
        report.save(os.path.join(out, f"report_{name}.json"))
        _release_freed_memory()
        results[name] = {"passed": report.passed,
                         "pass_fraction": report.pass_fraction}
    return results


EXISTENCE_THRESHOLD = 1.0  # every cell must meet the distance bound
_EXISTENCE_COLUMNS = ("m", "seed", "fit_error", "dist_W", "dist_A",
                      "distance_bound", "distances_ok", "loss_gap")


def _existence_cell(c, sys, loss, m, s, out):
    """One (m, seed) cell of an existence run; returns its report.

    Its W0 is freed on return, so no two cells' W0 are held at once.
    """
    W0, A0, B = sample_init(np.random.default_rng([int(s), m]), m, sys.d, sys.d_y)
    # probe sequences of length T_max, drawn like the default data
    dataset = generate_dataset(sys, **{**DATA, "T": c["T_max"], **c["probe"]},
                               seed=s + 500)
    comp = construct_comparator(W0, A0, B, sys, float(c["rho"]), c["T_max"])
    report = verify_existence(comp, dataset, loss, W0, B)
    save_comparator(comp, report, os.path.join(out, f"cell_m{m}_s{s}"))
    return report


def _run_existence(c, sys, out):
    """Runs every (m, seed) cell; returns the summary.  Its verdict is
    `_finish`'s over the cells' checks: `distance` is asserted, at
    EXISTENCE_THRESHOLD, and `fit` and `slope` are recorded only."""
    loss = make_loss(**LOSS, d_y=sys.d_y)
    cells = []
    for m in c["m_grid"]:
        for s in c["seeds"]:
            cells.append({**_existence_cell(c, sys, loss, m, s, out),
                          "m": m, "seed": s})
            _release_freed_memory()
    ms = sorted(set(cell["m"] for cell in cells))
    slope = log_slope(np.log(ms), [
        float(np.mean([cell["fit_error"] for cell in cells if cell["m"] == m]))
        for m in ms])
    table = {
        "distance": (_at_most, [(max(cell["dist_W"], cell["dist_A"]),
                                 cell["distance_bound"]) for cell in cells]),
        "fit": (_at_most, [(cell["fit_error"], cell["theorem_error_bound"])
                           for cell in cells]),
        "slope": (_within, [] if slope is None else [(-slope, (0.3, 0.7))])}
    rows = [{key: cell[key] for key in _EXISTENCE_COLUMNS} for cell in cells]
    return {"format_version": 2, "rows": rows,
            "observed": {"fit_error_slope_vs_m": slope},
            "threshold": EXISTENCE_THRESHOLD,
            **_finish(table, ("distance",), EXISTENCE_THRESHOLD)}


def _run_sweep(c, cells, sys, out):
    """Trains every (m, seed) cell; `cells` maps m to its derived config."""
    rows = []
    for m in c["m_grid"]:
        for s in c["seeds"]:
            cell_dir = os.path.join(out, f"cell_m{m}_s{s}")
            summary = _train_cell(*cells[m], sys, None, cell_dir, s)
            summary = {"m": m, "seed": s, **summary}
            write_json(os.path.join(cell_dir, "summary.json"), summary)
            rows.append(summary)
            _release_freed_memory()
    rows.sort(key=lambda r: (r["m"], r["seed"]))
    return rows


_SWEEP_COLUMNS = ["m", "seed", "rho", "eta", "K_steps", "loss_kind",
                  "initial_avg_loss", "final_avg_loss", "loss_ratio",
                  "dW_frob_final", "dA_frob_final", "aborted"]


def _begin(out, cfg, c, stamp):
    """Writes the config as given (config.json) and as resolved."""
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "config.json"), {**cfg, "_meta": stamp})
    write_json(os.path.join(out, "resolved_config.json"), {**c, "out_dir": out})


def run_experiment(config, out_dir=None, seed_override=None):
    """Execute one experiment; returns (exit_code, artifact_dir).  Every
    input is checked by the owner of its domain before the first write."""
    cfg = dict(config)
    c = resolve_config(cfg, seed_override)
    kind, seed = c["kind"], c["seed"]
    out = out_dir or c["out_dir"] or os.path.join(
        "runs", kind + "_" + config_hash(cfg)[:12])
    stamp = _stamp(cfg, seed)

    if kind == "train":
        if c["dataset_path"] is None:
            dataset, sys = None, random_stable_system(**c["teacher"])
        else:
            dataset, sys = load_dataset(c["dataset_path"])
        c, sched, loss = _derive(c, sys, c["student"]["m"])
        _begin(out, cfg, c, stamp)
        summary = _train_cell(c, sched, loss, sys, dataset, out, seed)
        write_json(os.path.join(out, "summary.json"), {**summary, "_meta": stamp})
        return (1 if summary["aborted"] else 0), out
    if kind == "sweep":
        sys = random_stable_system(**c["teacher"])
        cells = {m: _derive(c, sys, m) for m in c["m_grid"]}
        _begin(out, cfg, c, stamp)
        rows = _run_sweep(c, cells, sys, out)
        with open(os.path.join(out, "summary.csv"), "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=_SWEEP_COLUMNS, extrasaction="ignore")
            w.writeheader()
            for row in rows:
                w.writerow(row)
        write_json(os.path.join(out, "summary.json"), {"cells": len(rows),
                                                       "_meta": stamp})
        return 0, out
    if kind == "verify":
        calls = {name: lemma_kwargs(name, seed=c["seed"],
                                    **c["lemma_params"][name])
                 for name in c["lemmas"]}
        _begin(out, cfg, c, stamp)
        results = _run_verify(calls, out)
        ok = all(r["passed"] for r in results.values())
        write_json(os.path.join(out, "summary.json"),
                   {"results": results, "all_passed": ok, "_meta": stamp})
        return (0 if ok else 1), out
    sys = random_stable_system(**c["teacher"])
    check_decay("rho", c["rho"], sys.rho_C, "rho_C")
    _begin(out, cfg, c, stamp)
    summary = _run_existence(c, sys, out)
    write_json(os.path.join(out, "summary.json"), {**summary, "_meta": stamp})
    return (0 if summary["passed"] else 1), out
