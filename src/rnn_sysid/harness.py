"""Config-driven experiment runner.

A single JSON config describes one of four experiment kinds (train,
verify, existence, sweep).  Every artifact embeds the config hash, the
seed, and the package version, and re-running a config reproduces all
numeric outputs bit-exactly.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

from . import __version__
from .existence import construct_comparator, save_comparator, verify_existence
from .linalg import fit_loglog_slope
from .losses import make_loss
from .schedule import theory_schedule
from .student import init_student
from .teacher import generate_dataset, load_dataset, random_stable_system
from .trainer import running_average, sgd_train
from .verify import run_lemma

_KIND_FIELDS = {
    "train": {"kind", "seed", "out_dir", "teacher", "dataset_path", "data",
              "student", "loss", "train", "schedule"},
    "verify": {"kind", "seed", "out_dir", "lemmas", "m", "trials", "lemma_params"},
    "existence": {"kind", "seed", "out_dir", "teacher", "m_grid", "seeds",
                  "T_max", "rho", "probe"},
    "sweep": {"kind", "seed", "out_dir", "m_grid", "seeds", "teacher", "data",
              "student", "loss", "train", "schedule"},
}


class ConfigError(ValueError):
    pass


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _validate(cfg):
    kind = cfg.get("kind")
    if kind not in _KIND_FIELDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    unknown = set(cfg) - _KIND_FIELDS[kind]
    if unknown:
        raise ConfigError(f"unknown config fields for {kind}: {sorted(unknown)}")
    return kind


def _stamp(cfg, seed):
    return {"config_hash": config_hash(cfg), "seed": seed,
            "version": __version__}


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True, default=float)
        f.write("\n")


def _resolve_student(cfg, d, d_y, c_rho, m_override=None):
    """Returns (m, rho, eta, K_steps, schedule_or_none)."""
    student = cfg.get("student", {})
    train = cfg.get("train", {})
    m = int(m_override if m_override is not None else student.get("m", 512))
    mode = student.get("rho_mode", "practical")
    sched = None
    if mode == "theory":
        sc = cfg.get("schedule", {})
        sched = theory_schedule(
            sc.get("epsilon", 0.05), sc.get("delta", math.exp(-1.0)),
            student.get("rho_0", 0.9), c_rho, m,
            l0=sc.get("l0", 1.0), multipliers=sc.get("multipliers"))
        rho = sched.rho
        eta = train.get("eta", sched.eta)
        K_steps = int(train.get("K_steps", sched.K))
    elif mode == "practical":
        rho = float(student.get("rho", 0.9))
        eta = float(train["eta"]) if "eta" in train else 1e-2 / m
        K_steps = int(train.get("K_steps", 2000))
    else:
        raise ConfigError(f"unknown rho_mode {mode!r}")
    return m, rho, eta, K_steps, sched


def _train_cell(cfg, out, seed, m_override=None):
    teacher_cfg = cfg.get("teacher", {})
    data_cfg = cfg.get("data", {})
    if "dataset_path" in cfg:
        dataset, sys = load_dataset(cfg["dataset_path"])
    else:
        sys = random_stable_system(
            teacher_cfg.get("d_p", 4), teacher_cfg.get("d", 2),
            teacher_cfg.get("d_y", 2), teacher_cfg.get("rho_C", 0.8),
            teacher_cfg.get("seed", 0))
        dataset = generate_dataset(
            sys, data_cfg.get("input_spec", "iid_gaussian_unit"),
            data_cfg.get("noise_sigma", 0.0), data_cfg.get("T", 20),
            data_cfg.get("K", 64), seed)
    loss_cfg = cfg.get("loss", {})
    loss = make_loss(loss_cfg.get("kind", "square"),
                     delta=loss_cfg.get("delta", 1.0), d_y=sys.d_y)
    m, rho, eta, K_steps, sched = _resolve_student(
        cfg, sys.d, sys.d_y, sys.c_rho, m_override=m_override)
    train_cfg = cfg.get("train", {})
    holdout = None
    if train_cfg.get("holdout", False):
        holdout = generate_dataset(
            sys, data_cfg.get("input_spec", "iid_gaussian_unit"),
            data_cfg.get("noise_sigma", 0.0), data_cfg.get("T", 20),
            data_cfg.get("K", 64), seed + 10_000)
    rnn = init_student(m, sys.d, sys.d_y, rho, seed + 1)
    os.makedirs(out, exist_ok=True)
    trace = sgd_train(
        rnn, dataset, loss, eta, K_steps, seed,
        trace_path=os.path.join(out, "trace.jsonl"),
        checkpoint_every=train_cfg.get("checkpoint_every", 500),
        checkpoint_dir=os.path.join(out, "checkpoints"),
        holdout=holdout)
    losses = trace.losses()
    window = max(1, min(len(losses) // 4, 500))
    avg = running_average(losses, window)
    summary = {
        "m": m, "rho": rho, "eta": eta, "K_steps": K_steps,
        "loss_kind": loss.kind,
        "initial_avg_loss": float(avg[window - 1] if len(avg) >= window else avg[0]),
        "final_avg_loss": float(avg[-1]),
        "loss_ratio": float(avg[-1] / max(avg[window - 1], 1e-300)),
        "dW_frob_final": trace.records[-1]["dW_frob"],
        "dA_frob_final": trace.records[-1]["dA_frob"],
        "aborted": trace.aborted,
        "window": window,
    }
    if holdout is not None:
        gap = generalization_gap(trace, dataset, holdout, loss)
        summary["gap_exponent"] = gap["exponent"]
        summary["final_gap"] = gap["gaps"][-1]
        ho_avg = running_average(trace.holdout_losses(), window)
        summary["final_holdout_avg"] = float(ho_avg[-1])
        summary["holdout_ratio"] = float(
            ho_avg[-1] / max(summary["final_avg_loss"], 1e-300))
    if sched is not None:
        summary["schedule"] = sched.to_dict()
    return summary, trace


def generalization_gap(trace, train_dataset, holdout_dataset, loss, n_points=20):
    """|running train loss - running holdout loss| at log-spaced step counts.

    Both curves are online means over the same steps, so the gap isolates
    the train/holdout mismatch rather than the optimization trend.
    """
    if train_dataset.system_hash != holdout_dataset.system_hash:
        raise ValueError("holdout dataset comes from a different teacher")
    tr = trace.losses()
    ho = trace.holdout_losses()
    if len(ho) != len(tr):
        raise ValueError("trace does not carry per-step holdout losses")
    K = len(tr)
    ks = sorted(set(int(k) for k in np.geomspace(max(10, K // 50), K, n_points)))
    gaps = [abs(float(np.mean(tr[:k]) - np.mean(ho[:k]))) for k in ks]
    exponent = None
    pos = [(k, g) for k, g in zip(ks, gaps) if g > 0]
    if len(pos) >= 2:
        exponent = fit_loglog_slope([p[0] for p in pos], [p[1] for p in pos])
    return {"ks": ks, "gaps": gaps, "exponent": exponent}


def _run_verify(cfg, out, seed):
    lemmas = cfg.get("lemmas", "all")
    if lemmas == "all":
        lemmas = ["spectral", "concentration", "tail", "linearization",
                  "truncation"]
    params = cfg.get("lemma_params", {})
    all_pass = True
    results = {}
    for name in lemmas:
        kwargs = {"trials": cfg.get("trials", 20), "seed": seed}
        if "m" in cfg:
            kwargs["m"] = cfg["m"]
        kwargs.update(params.get(name, {}))
        report = run_lemma(name, **kwargs)
        report.save(os.path.join(out, f"report_{name}.json"))
        results[name] = {"passed": report.passed,
                         "pass_fraction": report.pass_fraction}
        all_pass = all_pass and report.passed
    return results, all_pass


def _run_existence(cfg, out, seed):
    teacher_cfg = cfg.get("teacher", {})
    sys = random_stable_system(
        teacher_cfg.get("d_p", 4), teacher_cfg.get("d", 2),
        teacher_cfg.get("d_y", 2), teacher_cfg.get("rho_C", 0.8),
        teacher_cfg.get("seed", 0))
    T_max = int(cfg.get("T_max", 12))
    rho = float(cfg.get("rho", 0.9))
    probe = cfg.get("probe", {})
    loss = make_loss("square", d_y=sys.d_y)
    rows = []
    for m in cfg.get("m_grid", [256, 1024]):
        for s in cfg.get("seeds", [seed]):
            rng = np.random.default_rng([int(s), m])
            W0 = rng.normal(0.0, np.sqrt(1.0 / m), size=(m, m))
            A0 = rng.normal(0.0, np.sqrt(1.0 / m), size=(m, sys.d))
            B = rng.normal(0.0, np.sqrt(1.0 / sys.d_y), size=(sys.d_y, m))
            dataset = generate_dataset(
                sys, "iid_gaussian_unit", 0.0, T_max,
                probe.get("K", 4), s + 500)
            comp = construct_comparator(W0, A0, B, sys, rho, T_max)
            report = verify_existence(comp, sys, dataset, loss, W0, A0, B)
            cell = os.path.join(out, f"cell_m{m}_s{s}")
            save_comparator(comp, report, cell)
            rows.append({"m": m, "seed": s, **{k: report[k] for k in
                        ("fit_error", "dist_W", "dist_A", "distance_bound",
                         "distances_ok", "loss_gap")}})
    ms = sorted(set(r["m"] for r in rows))
    slope = None
    if len(ms) >= 2:
        means = [float(np.mean([r["fit_error"] for r in rows if r["m"] == m]))
                 for m in ms]
        slope = fit_loglog_slope(ms, means)
    ok = all(r["distances_ok"] for r in rows)
    return {"rows": rows, "fit_error_slope_vs_m": slope, "distances_ok": ok}, ok


def _run_sweep(cfg, out, seed):
    rows = []
    for m in cfg.get("m_grid", [256]):
        for s in cfg.get("seeds", [seed]):
            cell_dir = os.path.join(out, f"cell_m{m}_s{s}")
            summary, _ = _train_cell(cfg, cell_dir, s, m_override=m)
            summary = {"m": m, "seed": s, **summary}
            _write_json(os.path.join(cell_dir, "summary.json"), summary)
            rows.append(summary)
    rows.sort(key=lambda r: (r["m"], r["seed"]))
    return rows


_SWEEP_COLUMNS = ["m", "seed", "rho", "eta", "K_steps", "loss_kind",
                  "initial_avg_loss", "final_avg_loss", "loss_ratio",
                  "dW_frob_final", "dA_frob_final", "aborted"]


def run_experiment(config, out_dir=None, seed_override=None):
    """Execute one experiment; returns (exit_code, artifact_dir)."""
    cfg = dict(config)
    kind = _validate(cfg)
    seed = int(seed_override if seed_override is not None else cfg.get("seed", 0))
    out = out_dir or cfg.get("out_dir") or os.path.join(
        "runs", kind + "_" + config_hash(cfg)[:12])
    os.makedirs(out, exist_ok=True)
    stamp = _stamp(cfg, seed)
    _write_json(os.path.join(out, "config.json"), {**cfg, "_meta": stamp})

    if kind == "train":
        summary, _ = _train_cell(cfg, out, seed)
        _write_json(os.path.join(out, "summary.json"), {**summary, "_meta": stamp})
        return (1 if summary["aborted"] else 0), out
    if kind == "verify":
        results, ok = _run_verify(cfg, out, seed)
        _write_json(os.path.join(out, "summary.json"),
                    {"results": results, "all_passed": ok, "_meta": stamp})
        return (0 if ok else 1), out
    if kind == "existence":
        summary, ok = _run_existence(cfg, out, seed)
        _write_json(os.path.join(out, "summary.json"), {**summary, "_meta": stamp})
        return (0 if ok else 1), out
    # sweep
    rows = _run_sweep(cfg, out, seed)
    with open(os.path.join(out, "summary.csv"), "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=_SWEEP_COLUMNS, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)
    _write_json(os.path.join(out, "summary.json"), {"cells": len(rows),
                                                    "_meta": stamp})
    return 0, out
