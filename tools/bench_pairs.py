"""Alternating parent/change benchmark calls, kept as one BENCH_<slug>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload train_large --seeds 500-509 --out BENCH_sgd_step.json

DIR is a source checkout of each commit, for example made with
`git archive <commit> | tar -x -C DIR`.  For every seed the script runs
`perfbench/run.py --workload W --seed S --seconds 20 --trace 0` once in
each checkout, one process at a time, and alternates which side runs
first.  Both result documents (the `info` line and the result line) go
into the output file, which is read first if it exists, so several
workloads can share one file.  Its `summary` holds, per workload and
end-to-end metric, each side's median and quartiles, the change's median
over the parent's, and the pairs the change won (lower is better for
every metric; ties count for neither side).  A metric is `unresolved`
when the parent's interquartile spread over its median exceeds the
metric's bound in the repo's BENCHMARK.json (read, never written), unless
every change call beat every parent call: the runs then spread too widely
to tell a change within the bound from none.  A metric's `gain_shown` is
the repo's rule for claiming a gain: the change wins at least nine pairs
in ten, the parent's median exceeds the change's by more than the
parent's interquartile distance, and the change's share of failed
operations (failed over attempted) is no larger than the parent's.  The
summary names each side's failed operations as [seed, op, detail], read
from the `failed_ops` of the stored `info` lines, so a changed failed
share names its seeds.  It also lists, per workload, the artifacts whose
hashes differ between the two calls of any pair (`artifacts_differ`;
both calls of a pair run the same seed), so "same outputs" is measured
rather than assumed.  After each pair it prints both sides' value of
every end-to-end metric.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")


STDERR_TAIL = 20  # lines of a failed call's stderr that are printed


def call(side, checkout, workload, seed, seconds):
    """One perfbench call in `checkout`: its `info` and result documents.

    A call that exits non-zero prints the side, workload, seed, exit code
    and the last STDERR_TAIL lines of its stderr, then raises
    CalledProcessError.
    """
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if out.returncode:
        print(f"{side} call failed: workload {workload}, seed {seed}, exit "
              f"code {out.returncode}; its stderr ends:", file=sys.stderr)
        print("\n".join(out.stderr.splitlines()[-STDERR_TAIL:]),
              file=sys.stderr, flush=True)
        out.check_returncode()
    lines = out.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def artifacts_differ(rows):
    """Artifacts whose hash sets differ between the two sides of a pair."""
    differ = set()
    for p in rows:
        a, b = (p[side]["info"]["artifact_hashes"] for side in ("parent", "change"))
        differ |= {n for n in a.keys() | b.keys() if a.get(n) != b.get(n)}
    return sorted(differ)


def summarize(pairs, bound):
    summary = {}
    for workload in sorted({p["workload"] for p in pairs}):
        rows = [p for p in pairs if p["workload"] == workload]
        failed, attempted = ({side: sum(p[side]["result"][key] for p in rows)
                              for side in ("parent", "change")}
                             for key in ("failed", "attempted"))
        # change failed / attempted > parent failed / attempted, cross-multiplied
        more_failed = (failed["change"] * attempted["parent"]
                       > failed["parent"] * attempted["change"])
        metrics = {}
        for name in rows[0]["parent"]["result"]["metrics"]:
            vals = {side: np.array([p[side]["result"]["metrics"][name]["value"]
                                    for p in rows])
                    for side in ("parent", "change")}
            q = {side: [float(x) for x in np.percentile(v, [25, 50, 75])]
                 for side, v in vals.items()}
            iqr = q["parent"][2] - q["parent"][0]
            spread = iqr / q["parent"][1]
            wins = int(np.sum(vals["change"] < vals["parent"]))
            metrics[name] = {
                "parent_spread": spread,
                "unresolved": bool(spread > bound[name] and not
                                   vals["change"].max() < vals["parent"].min()),
                "parent_q1_median_q3": q["parent"],
                "change_q1_median_q3": q["change"],
                "change_over_parent": q["change"][1] / q["parent"][1],
                "change_wins": wins,
                "gain_shown": bool(10 * wins >= 9 * len(rows) and
                                   q["parent"][1] - q["change"][1] > iqr
                                   and not more_failed),
                "pairs": len(rows)}
        summary[workload] = {
            "seeds": [p["seed"] for p in rows],
            "failed": failed,
            "failed_ops": {side: [[p["seed"], op, detail] for p in rows for
                                  op, _, detail in p[side]["info"]["failed_ops"]]
                           for side in ("parent", "change")},
            "attempted": attempted,
            "artifacts_differ": artifacts_differ(rows),
            "metrics": metrics}
    return summary


def seed_range(text):
    """The seeds of `first-last`, inclusive, or of `N` alone; a range with
    an empty bound or reversed is refused as an argparse error."""
    lo, dash, hi = text.partition("-")
    if dash and not (lo and hi):
        raise argparse.ArgumentTypeError(f"empty bound in seed range {text!r}")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"reversed seed range {text!r}")
    return range(lo, hi + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range,
                   help="first-last, inclusive, or one seed N")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(BENCHMARK) as f:
        bound = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    doc = {"pairs": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    for n, seed in enumerate(args.seeds):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        pair = {"workload": args.workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = call(side, getattr(args, side), args.workload, seed,
                              args.seconds)
        doc["pairs"].append(pair)
        doc["summary"] = summarize(doc["pairs"], bound)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        print("%s seed %d: %s" % (args.workload, seed, ", ".join(
            "%s parent %.4g change %.4g" % (
                name, pair["parent"]["result"]["metrics"][name]["value"],
                pair["change"]["result"]["metrics"][name]["value"])
            for name in bound)), flush=True)


if __name__ == "__main__":
    main()
