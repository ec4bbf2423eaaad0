"""Command-line entry point.

    sysid train|verify|existence|sweep --config path.json [--out dir] [--seed n]
    sysid verify --lemma spectral --m 1024 --trials 20 --seed 0 --out dir
    sysid verify --lemma all --m 1024 --out reports   # reports/report_<name>.json

The config file is a single JSON document; see the README for the schema.
`--lemma`, `--m` and `--trials` run lemmas without a config file: they
become the verify config {"lemmas": ..., "m": ..., "trials": ...}, which
runs as a config run does and writes the same run directory, `--out` or
else runs/verify_<hash>.  They are refused beside `--config`, whose
`lemmas`, `m` and `trials` fields they would otherwise be mistaken for.
"""

import argparse
import json
import os
import sys

from .harness import ConfigError, run_experiment
from .verify import ALL_LEMMAS


def _add_common(p):
    p.add_argument("--config", help="path to the experiment config JSON")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--seed", type=int, help="seed override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sysid",
        description="Learn stable linear systems with an over-parameterized "
                    "linear RNN, and verify the supporting numerical bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ("train", "existence", "sweep"):
        _add_common(sub.add_parser(kind))
    pv = sub.add_parser("verify")
    _add_common(pv)
    pv.add_argument("--lemma", choices=sorted(ALL_LEMMAS) + ["all"],
                    help="run one lemma check directly, without a config")
    pv.add_argument("--m", type=int, help="width for direct lemma runs")
    pv.add_argument("--trials", type=int,
                    help="trials per lemma (default: the lemma's own)")
    return parser


def _load_config(path, kind):
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {cfg!r}")
    if cfg.get("kind", kind) != kind:
        raise ConfigError(f"config kind {cfg.get('kind')!r} does not match "
                          f"subcommand {kind!r}")
    cfg["kind"] = kind
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.config:
        beside = ["--" + flag for flag in ("lemma", "m", "trials")
                  if getattr(args, flag, None) is not None]
        if beside:
            print(f"error: {', '.join(beside)} cannot be used with --config; "
                  "set them in the config", file=sys.stderr)
            return 2
        cfg = _load_config(args.config, args.command)
    elif args.command == "verify" and args.lemma:
        cfg = {"kind": "verify", "lemmas": args.lemma, "m": args.m,
               "trials": args.trials}
    else:
        print("error: --config is required (or --lemma for verify)",
              file=sys.stderr)
        return 2
    code, out = run_experiment(cfg, out_dir=args.out, seed_override=args.seed)
    if args.command == "verify":
        with open(os.path.join(out, "summary.json")) as f:
            results = json.load(f)["results"]
        for name, r in results.items():
            print("%-14s pass_fraction=%.3f %s" % (
                name, r["pass_fraction"], "PASS" if r["passed"] else "FAIL"))
    print(f"{args.command}: artifacts in {out} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
