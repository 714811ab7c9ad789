"""Fixed reference work, timed next to every CLI invocation.

    python3 perfbench/reference.py

Starts the interpreter, imports numpy and scipy.fft and runs a fixed loop
of small-array numpy calls and interpreted arithmetic: the same kind of
work as the program's set-up and its per-step loop, but none of the
program's code, so no change to sburgers can change its time.  run.py
divides each invocation's times by this work's time measured around it,
which takes out the host's speed at that moment (see README.md).
"""

import numpy as np
import scipy.fft

STEPS = 10000
N = 16


def main() -> None:
    x = np.linspace(-1.0, 1.0, N)
    decay = np.exp(-0.01 * np.arange(1, N + 1) ** 2)
    acc = 0.0
    for step in range(STEPS):
        y = scipy.fft.dst(x * x, type=1)[:N]
        x = decay * x + 1e-3 * np.tanh(y)
        acc += float(x @ x) / (step + 1)
    print(repr(acc))


if __name__ == "__main__":
    main()
