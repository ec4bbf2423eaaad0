"""One repetition of a workload in a fresh process.

    python3 perfbench/rep.py --workload train_small --seed 0 --out DIR \
        --spawn <time.monotonic() of the parent at spawn> --mode full|setup|traced

Modes:
  full    untraced; the only instrumentation is the main-compute boundary.
  setup   stops at the first main-compute call, to time set-up alone.
  traced  wraps every traced function (see tracer.TARGETS) and reports
          per-layer metrics; also probes the matvec floor in this process.

Writes its result as JSON to DIR/result.json.  Times use the monotonic
clock, which is shared across processes, so `wall_s` and `setup_s` count
from the parent's spawn call: interpreter start and imports are included.
"""

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import rnn_sysid
import rnn_sysid.harness as harness

import workloads
from floor import matvec_2T_ms
from tracer import LAYERS, Boundary, Tracer, aggregate


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _tree_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def blas_info():
    """OpenBLAS library, config string and thread count as numpy loaded it."""
    info = {"numpy": np.__version__, "scipy": None, "openblas": None,
            "openblas_config": None, "blas_threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    import scipy

    info["scipy"] = scipy.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["blas_threads"] = int(get_threads())
                info["openblas_config"] = get_config().decode()
                return info
    return info


def per_layer(stats, runs):
    """The per-layer metrics of one traced repetition (0 where a layer idles)."""

    def st(name, key):
        return float(stats.get(name, {}).get(key, 0.0))

    m = {}
    for key in ("calls", "s", "self_s", "ms_p50", "ms_p99"):
        m[f"gradients.loss_gradients_bptt.{key}"] = st("gradients.loss_gradients_bptt", key)
    for key in ("calls", "s"):
        m[f"losses.eval_loss.{key}"] = st("losses.eval_loss", key)
    for key in ("calls", "s", "ms_p50", "ms_p99"):
        m[f"student.forward_rescaled.{key}"] = st("student.forward_rescaled", key)
    m["student.save_checkpoint.calls"] = st("student.save_checkpoint", "calls")
    m["student.save_checkpoint.s"] = st("student.save_checkpoint", "s")
    m["student.init_student.s"] = st("student.init_student", "s")
    m["student.linearized_forward.calls"] = st("student.linearized_forward", "calls")
    m["student.linearized_forward.s"] = st("student.linearized_forward", "s")
    for fn in ("matrix_power_opnorm", "operator_norm_fast", "operator_norm"):
        m[f"linalg.{fn}.calls"] = st(f"linalg.{fn}", "calls")
        m[f"linalg.{fn}.s"] = st(f"linalg.{fn}", "s")
    for fn in ("construct_comparator", "gram_inverses", "verify_existence",
               "save_comparator"):
        m[f"existence.{fn}.s"] = st(f"existence.{fn}", "s")
        m[f"existence.{fn}.self_s"] = st(f"existence.{fn}", "self_s")
    for fn in ("random_stable_system", "generate_dataset"):
        m[f"teacher.{fn}.calls"] = st(f"teacher.{fn}", "calls")
        m[f"teacher.{fn}.s"] = st(f"teacher.{fn}", "s")
    m["harness.run_experiment.calls"] = st("harness.run_experiment", "calls")
    m["harness.run_experiment.self_s"] = st("harness.run_experiment", "self_s")
    m["harness.generalization_gap.s"] = st("harness.generalization_gap", "s")

    steps = st("gradients.loss_gradients_bptt", "calls")
    m["trainer.sgd_train.s"] = st("trainer.sgd_train", "s")
    m["trainer.steps"] = steps
    m["trainer.step_ms"] = 1e3 * m["trainer.sgd_train.s"] / steps if steps else 0.0
    m["trainer.self_ms_per_step"] = (
        1e3 * st("trainer.sgd_train", "self_s") / steps if steps else 0.0)

    trace_bytes = checkpoint_bytes = artifact_bytes = 0
    loss_ratio = fit_error = 0.0
    lemma = {}
    for name, out, _ in runs:
        artifact_bytes += _tree_bytes(out)
        if name == "train":
            trace_bytes += os.path.getsize(os.path.join(out, "trace.jsonl"))
            checkpoint_bytes += _tree_bytes(os.path.join(out, "checkpoints"))
            with open(os.path.join(out, "summary.json")) as f:
                loss_ratio = json.load(f)["loss_ratio"]
        elif name == "verify":
            for lem in ("spectral", "truncation", "linearization"):
                with open(os.path.join(out, f"report_{lem}.json")) as f:
                    lemma[lem] = json.load(f)
        elif name == "existence":
            with open(os.path.join(out, "summary.json")) as f:
                fit_error = json.load(f)["rows"][0]["fit_error"]
    m["trainer.trace_bytes"] = float(trace_bytes)
    m["student.save_checkpoint.bytes"] = float(checkpoint_bytes)
    m["harness.artifact_bytes"] = float(artifact_bytes)
    m["harness.loss_ratio"] = float(loss_ratio)
    m["existence.fit_error"] = float(fit_error)
    for lem in ("spectral", "truncation", "linearization"):
        rep = lemma.get(lem)
        m[f"verify.{lem}.s"] = st(f"verify.verify_{lem}", "s")
        m[f"verify.{lem}.self_s"] = st(f"verify.verify_{lem}", "self_s")
        m[f"verify.{lem}.trials"] = float(rep["trials"]) if rep else 0.0
        m[f"verify.{lem}.instances"] = float(sum(
            c["n_instances"] for c in rep["checks"].values()
            if c.get("asserted", True))) if rep else 0.0
        m[f"verify.{lem}.pass_fraction"] = float(rep["pass_fraction"]) if rep else 0.0
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(sum(
            s["errors"] for name, s in stats.items()
            if name.split(".")[0] == layer))
    return m


def main():
    p = argparse.ArgumentParser(description="one repetition of a workload")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--mode", choices=("full", "setup", "traced"), default="full")
    p.add_argument("--small", action="store_true",
                   help="shrink widths (tests only)")
    args = p.parse_args()

    clock = time.monotonic
    plan = workloads.configs(args.workload, args.seed, small=args.small)
    result = {"mode": args.mode, "ops": []}
    tracer = None
    if args.mode == "traced":
        tracer = Tracer(args.spawn, clock)
        result["ops"] += [[f"trace.{name}", False, "traced function not found"]
                          for name in tracer.install()]
    boundary = Boundary(clock, stop_at_entry=args.mode == "setup")
    boundary.install(harness, sorted({fn for name, _ in plan
                                      for fn in workloads.MAIN_COMPUTE[name]}))
    runs = []
    os.makedirs(args.out, exist_ok=True)
    try:
        for name, cfg in plan:
            out = os.path.join(args.out, name)
            try:
                code, _ = harness.run_experiment(cfg, out_dir=out)
            except Boundary.SetupDone:
                raise
            except Exception:
                result["ops"].append([f"{name}.run", False, traceback.format_exc()])
                continue
            result["ops"].append([f"{name}.run", True, "exit %d" % code])
            runs.append((name, out, code))
        t_end = clock()
    except Boundary.SetupDone:
        result["setup_s"] = boundary.first_entry - args.spawn
        _write(args.out, result)
        return
    result["wall_s"] = t_end - args.spawn
    # no main-compute entry means every run failed; count set-up to the end
    result["setup_s"] = (boundary.first_entry or t_end) - args.spawn
    result["compute_s"] = boundary.inside_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    hashes = {}
    unseeded = {}
    for name, out, code in runs:
        try:
            checks = workloads.check(args.workload, name, out, code)
            for fname in workloads.artifact_files(name, out):
                key = f"{name}/{fname}"
                hashes[key] = _sha256(os.path.join(out, fname))
                if key in workloads.UNSEEDED:
                    with open(os.path.join(out, fname)) as f:
                        unseeded[key] = json.load(f)
            with open(os.path.join(out, "summary.json")) as f:
                summary = json.load(f)
        except (OSError, KeyError, ValueError):
            result["ops"].append([f"{name}.outputs", False, traceback.format_exc()])
            continue
        result["ops"] += [[f"{name}.{c}", bool(ok), d] for c, ok, d in checks]
        if name == "train":
            result["K_steps"] = summary["K_steps"]
            result["loss_ratio"] = summary["loss_ratio"]
        elif name == "existence":
            result["fit_error"] = summary["rows"][0]["fit_error"]
    result["hashes"] = hashes
    result["unseeded"] = unseeded
    result["blas"] = blas_info()
    result["package_version"] = rnn_sysid.__version__

    if tracer is not None:
        tracer.finish(t_end)
        tracer.uninstall()
        stats = aggregate(tracer.spans)
        tracer.dump(os.path.join(args.out, "spans.tsv"))
        layer = per_layer(stats, runs)
        floor_ms = 0.0
        for name, cfg in plan:
            if name == "train":
                result["floor_shape"] = [cfg["student"]["m"], cfg["data"]["T"]]
                floor_ms = matvec_2T_ms(*result["floor_shape"])
        layer["floor.matvec_2T_ms"] = floor_ms
        layer["trainer.step_over_floor"] = (
            layer["trainer.step_ms"] / floor_ms if floor_ms else 0.0)
        result["per_layer"] = layer
        result["span_self_sum_s"] = sum(s["self_s"] for s in stats.values())
        result["span_names"] = {k: v["calls"] for k, v in stats.items()}
    _write(args.out, result)


def _write(out, result):
    with open(os.path.join(out, "result.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
