"""Isolated timing of the public Burgers term across truncation sizes.

    PYTHONPATH=src python3 perfbench/probe.py

Prints one JSON object: microseconds per burgers_nonlinearity call at each
N in SIZES, the median of REPEATS timed batches on fixed seeded inputs.
N=64 and N=65 straddle the switch from the exact convolution route to the
dealiased FFT route.
"""

import json
import statistics
import sys
import time

import numpy as np

from sburgers.spectral import burgers_nonlinearity, random_field

SIZES = (8, 64, 65, 128, 256)
REPEATS = 7
BATCH_S = 0.02          # target length of one timed batch


def time_per_call(fn, arg) -> float:
    fn(arg)
    calls, elapsed = 1, 0.0
    while elapsed < BATCH_S:
        calls *= 2
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        elapsed = time.perf_counter() - t0
    batches = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        batches.append((time.perf_counter() - t0) / calls)
    return statistics.median(batches)


def main() -> int:
    rng = np.random.default_rng(20190401)
    burgers_us = {}
    for n in SIZES:
        x = random_field(n, rng, norm=1.0)
        burgers_us[f"n{n}"] = 1e6 * time_per_call(burgers_nonlinearity, x)
    print(json.dumps({"burgers_us": burgers_us}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
