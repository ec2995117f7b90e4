"""A fixed task that measures how fast the machine is running right now.

    python3 perfbench/calibrate.py

The benchmark runs this between the kclattice children and scales their
times by it (see ``run.py``).  It does the same kinds of work as a
kclattice run, on fixed inputs and without importing kclattice: start an
interpreter, import numpy and scipy, run 3-D real FFTs and a plain Python
loop.  Its time therefore follows the speed of the machine, and no change
to kclattice can move it.
"""

import numpy as np
from scipy.fft import irfftn, rfftn

ROUNDS = 150
SIDE = 40
LOOP = 3000


def main():
    field = np.random.default_rng(0).standard_normal((SIDE, SIDE, SIDE))
    total = 0.0
    for _ in range(ROUNDS):
        total += float(irfftn(rfftn(field) * 0.5, s=field.shape)[0, 0, 0])
        acc = 0
        for j in range(LOOP):
            acc += j * j
        total += acc * 1e-12
    return 0 if np.isfinite(total) else 1


if __name__ == "__main__":
    raise SystemExit(main())
