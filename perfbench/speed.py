"""A fixed task that measures how fast the machine runs at the moment.

On a shared host the same code runs up to a third slower or faster from one
minute to the next, because of load from other tenants.  The benchmark runs
this task right before and after the timed operations, on the same CPU,
and scales each operation's wall time by REFERENCE_S / (mean time of the
task around it), which cancels most of that drift.  The task mixes the
kinds of work delayfdtd does: sparse matrix-vector products (the leapfrog
step), numpy operations on small arrays (the per-sample boundary solve and
the energy records), plain Python (config, set-up), and streaming through
arrays larger than the caches (assembly and the sparse LU factors).

The task runs in a helper process, so its memory never counts towards the
peak RSS of the process that runs the operations.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# Median time of one task on the machine the baseline was taken on, so that
# scaled times read as seconds on that machine (see README.md).
REFERENCE_S = 0.25


class SpeedProbe:
    """Starts the helper process; `seconds()` runs the task once in it."""

    def __init__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )

    def seconds(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe helper exited")
        return float(line)

    def close(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def scale(seconds: float, before: float, after: float) -> float:
    """Wall time expressed in seconds at the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))


def _serve():
    import numpy as np
    import scipy.sparse as sp

    n = 24
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    a = (sp.kron(sp.kron(lap, eye), eye) + sp.kron(sp.kron(eye, lap), eye) + sp.kron(sp.kron(eye, eye), lap)).tocsr()
    x0 = np.linspace(0.0, 1.0, n**3)
    v0 = np.linspace(-1.0, 1.0, 2 * 600).reshape(-1, 2)
    big = np.linspace(0.0, 1.0, 4_000_000)  # 32 MB, more than the caches
    out = np.empty_like(big)

    def task() -> float:
        start = time.perf_counter()
        x = x0.copy()
        for _ in range(500):
            x = a @ x
            x *= 0.1
        v = v0
        for _ in range(2500):
            r = np.sqrt(np.einsum("ij,ij->i", v, v))
            v = 0.5 * (v + v0 / (1.0 + r)[:, None])
        s = 0
        for i in range(800_000):
            s += i * i
        for _ in range(8):
            np.multiply(big, 1.0000001, out=out)
            np.add(out, 1.0, out=big)
        return time.perf_counter() - start

    for _ in sys.stdin:
        print(repr(task()), flush=True)


if __name__ == "__main__":
    _serve()
