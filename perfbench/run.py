"""Benchmark of the rnn_sysid package: one workload per call.

    python3 perfbench/run.py --workload train_small --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout (the package is imported from
`src/`).  Each repetition of the workload is a fresh process (`rep.py`),
started one at a time, so `wall_s`, `setup_s` and `peak_rss_mb` belong to
the workload alone and no two computations share the cores.

--trace 0  untraced repetitions for at least --seconds (at least
           workloads.REPS), with set-up probes before, between and after
           them; prints the end-to-end metrics (medians).
--trace 1  one untraced and then traced repetitions for at least --seconds;
           prints the per-layer metrics (medians over traced repetitions)
           and the tracing overhead.

Every repetition's outputs are checked, and their artifact hashes must
agree across the repetitions of one call (same seed, same BLAS threads);
the artifacts in `workloads.UNSEEDED` must agree value by value.
The last line of standard output is the result JSON; the line before it
carries the environment stamp and per-repetition detail.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import REPS, UNSEEDED, VALUE_RTOL, WORKLOADS, same_values

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

PROBES_PER_REP = 3   # set-up-only processes before each repetition, and at the end
TOTAL_BUDGET_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s",
              "peak_rss_mb": "MB"}


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "errors", "steps", "trials", "instances"):
        return "count"
    if last in ("s", "self_s"):
        return "s"
    if "ms" in last.split("_"):
        return "ms"
    if last.endswith("bytes"):
        return "B"
    return "ratio"


def _child_env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra or {})
    return env


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def environment(seed):
    """Machine, interpreter and source stamp recorded with every result."""
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    git = {"sha": None, "dirty": None}
    genv = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=genv,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    env=genv, capture_output=True, text=True,
                                    timeout=30)
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "caches": caches, "python": platform.python_version(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git": git, "seed": seed}


class Run:
    """One benchmark call: spawns repetitions and keeps their results."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = os.path.join(RUNS, f"{workload}-s{seed}-{os.getpid()}")
        self.ops = []        # [name, ok, detail]
        self.reps = []       # results of full / traced repetitions
        self.probes = []     # results of set-up probes
        self.spawned = 0

    def spawn(self, mode):
        out = os.path.join(self.dir, "%03d-%s" % (self.spawned, mode))
        self.spawned += 1
        cmd = [sys.executable, os.path.join(HERE, "rep.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", out, "--mode", mode]
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawn", repr(t0)], env=_child_env(),
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.ops.append([f"{mode}.process", False, "timed out"])
            return None
        result = None
        if proc.returncode == 0:
            try:
                with open(os.path.join(out, "result.json")) as f:
                    result = json.load(f)
            except (OSError, ValueError):
                pass
        if result is None:
            self.ops.append([f"{mode}.process", False,
                             "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])])
            return None
        result["elapsed_s"] = time.monotonic() - t0
        result["out"] = out
        if mode == "setup":
            self.ops.append(["setup.probe", True, ""])
            self.probes.append(result)
        else:
            self.ops += result["ops"]
            self.reps.append(result)
        return result

    def repeat(self, mode, minimum, until=0.0, probes=0):
        """Spawn `mode` repetitions while before `until`, at least `minimum`.

        Each repetition follows `probes` set-up probes, so the probes sample
        the host over the whole call.  A repetition whose typical length
        would overrun the call's total budget is not started, once `minimum`
        are done.
        """
        done = []
        while len(done) < minimum or time.monotonic() < until:
            if done:
                typical = statistics.median(r["elapsed_s"] for r in done)
                if len(done) >= minimum and time.monotonic() + typical > self.deadline:
                    break
            for _ in range(probes):
                self.spawn("setup")
            r = self.spawn(mode)
            if r is None:
                break
            done.append(r)
        return done

    def check_determinism(self):
        """One operation: every repetition wrote the same artifacts.

        Artifacts must be byte-identical, except those in
        `workloads.UNSEEDED`, which must agree value by value
        (`workloads.same_values`).  Returns the hashes seen per artifact and
        the artifacts that matched only by value.
        """
        hashes = [r["hashes"] for r in self.reps]
        names = sorted(set().union(*hashes)) if hashes else []
        differ = [n for n in names if len({h.get(n) for h in hashes}) > 1]
        by_value = [n for n in differ if n in UNSEEDED and all(
            n in r["unseeded"] and same_values(self.reps[0]["unseeded"][n],
                                               r["unseeded"][n])
            for r in self.reps)]
        differ = [n for n in differ if n not in by_value]
        self.ops.append(["determinism", len(hashes) >= 2 and not differ,
                         "%d repetitions; differing artifacts: %s; equal by "
                         "value only (rtol %g): %s"
                         % (len(hashes), differ or "none", VALUE_RTOL,
                            by_value or "none")])
        return ({n: sorted({h.get(n) for h in hashes}, key=str) for n in names},
                by_value)


def _median(values):
    return statistics.median(values) if values else 0.0


def floor_one_thread(m, T, deadline):
    """2T-matvec floor in a child process with OPENBLAS_NUM_THREADS=1."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "floor.py"), "--m", str(m), "--T", str(T)],
        env=_child_env({"OPENBLAS_NUM_THREADS": "1"}), cwd=ROOT,
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["matvec_2T_ms"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rnn_sysid", "__init__.py")):
        print("perfbench: no package source at src/rnn_sysid; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    run = Run(args.workload, args.seed, start + TOTAL_BUDGET_S)
    until = start + args.seconds
    try:
        if args.trace:
            untraced = run.repeat("full", 1)
            traced = run.repeat("traced", 1, until)
        else:
            run.spawn("setup")
            run.probes = []   # the first probe warms the file cache
            untraced = run.repeat("full", REPS[args.workload], until,
                                  probes=PROBES_PER_REP)
            for _ in range(PROBES_PER_REP):
                run.spawn("setup")
            traced = []
        if not untraced or (args.trace and not traced):
            print("perfbench: no repetition completed: %s" % run.ops,
                  file=sys.stderr)
            return 1
        hashes, by_value = run.check_determinism()

        if args.trace:
            metrics = {k: _median([r["per_layer"][k] for r in traced])
                       for k in sorted(traced[0]["per_layer"])}
            one = 0.0
            if "floor_shape" in traced[0]:
                one = floor_one_thread(*traced[0]["floor_shape"], run.deadline)
                if one is None:
                    run.ops.append(["floor_1thread", False, "probe failed"])
                    one = 0.0
            metrics["floor.matvec_2T_ms_1thread"] = one
            metrics["trace.overhead_frac"] = (_median([r["wall_s"] for r in traced])
                                              / _median([r["wall_s"] for r in untraced])
                                              - 1.0)
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics = {
                "wall_s": _median([r["wall_s"] for r in untraced]),
                "setup_s": _median([r["setup_s"] for r in run.probes + untraced]),
                "compute_s": _median([r["compute_s"] for r in untraced]),
                "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            }
            units = END_TO_END
        failed = sum(1 for _, ok, _ in run.ops if not ok)
        reps = run.reps
        info = {
            "workload": args.workload, "trace": args.trace,
            "environment": environment(args.seed),
            "blas": reps[0]["blas"],
            "package_version": reps[0]["package_version"],
            "artifact_hashes": hashes,
            "artifacts_equal_by_value_only": by_value,
            "samples": {"repetitions": len(reps), "setup_probes": len(run.probes)},
            "per_rep": [{k: r.get(k) for k in ("mode", "wall_s", "setup_s",
                                               "compute_s", "peak_rss_mb",
                                               "K_steps", "loss_ratio",
                                               "fit_error")} for r in reps],
            "setup_probe_s": [r["setup_s"] for r in run.probes],
            "sgd_steps_per_s": _median([r["K_steps"] / r["compute_s"]
                                        for r in untraced if "K_steps" in r]),
            "failed_ops": [op for op in run.ops if not op[1]],
            "measured_s": time.monotonic() - start,
        }
        if traced:
            last = traced[-1]["out"]
            os.makedirs(RUNS, exist_ok=True)
            shutil.copy(os.path.join(last, "spans.tsv"),
                        os.path.join(RUNS, f"spans-{args.workload}.tsv"))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as f:
        json.dump(info, f, indent=1, sort_keys=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
