"""Bandwidth floor of an SGD step: 2T plain `W @ v` matvecs at width m.

An SGD step on a length-T sequence applies `W` at least 2T times (T forward,
T adjoint), so the time of 2T bare matvecs is the floor the step is read
against.  Run as a script to measure in a fresh process, e.g. with
`OPENBLAS_NUM_THREADS=1` set for that process only:

    python3 perfbench/floor.py --m 2048 --T 20
"""

import argparse
import json
import statistics
import time

import numpy as np


def matvec_2T_ms(m, T, repeats=15, warmup=5, seed=0):
    """Median milliseconds of 2T matvecs with an m x m matrix, after warm-up."""
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, m))
    v = rng.normal(size=m)
    times = []
    for r in range(warmup + repeats):
        t0 = time.perf_counter()
        for _ in range(2 * T):
            W @ v
        dt = time.perf_counter() - t0
        if r >= warmup:
            times.append(dt)
    return 1e3 * statistics.median(times)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    args = p.parse_args()
    print(json.dumps({"matvec_2T_ms": matvec_2T_ms(args.m, args.T)}))


if __name__ == "__main__":
    main()
