"""A fixed reference task that measures how fast the host runs right now.

A shared host changes speed by tens of percent over seconds to minutes (on
the 2-vCPU reference machine, the same request ran 0.8x to 1.5x its typical
time within five minutes), which no amount of averaging inside one run
removes.  The worker therefore runs this task after every request, with the
request clock stopped, and scales each request's time by the reference's
local speed:

    normalised = measured * NOMINAL_MS / (median of the nearby reference times)

so every time reads as milliseconds on the host running at its typical
speed.  A faster program still reads faster in the same proportion; only the
host's drift cancels.  The task uses numpy and scipy directly, never
stokes_schur, so no change to the library can change it.  It mixes the three
kinds of work the workloads do: a sparse LU and its triangular solves, dense
BLAS products, and formatting floats as text.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# median time of one `Reference.run` on the 2-vCPU reference host, one BLAS thread
NOMINAL_MS = 5.0
# reference times on each side of a request that set its local speed
WINDOW = 2


class Reference:
    """The reference task with its inputs built once."""

    def __init__(self) -> None:
        m = 24
        d = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
        eye = sp.identity(m)
        self.poisson = (sp.kron(eye, d) + sp.kron(d, eye)).tocsc()
        self.rhs = np.linspace(0.0, 1.0, m * m)
        self.dense = np.random.default_rng(0).standard_normal((96, 96)) / 96.0
        self.values = np.random.default_rng(1).standard_normal(400).tolist()

    def task(self) -> None:
        spla.splu(self.poisson).solve(self.rhs)
        y = self.dense
        for _ in range(8):
            y = self.dense @ y
        "\n".join(f"{v:.17g},{2.0 * v:.17g}" for v in self.values)

    def run(self) -> float:
        """Run the task twice; return the wall time of both runs in milliseconds.

        The first run starts with whatever the request before it left in
        cache and so also feels the host's memory contention; the second
        finds the task's own data in cache.  Their sum tracked the host's
        drift better than either run alone.
        """
        start = time.perf_counter()
        self.task()
        self.task()
        return (time.perf_counter() - start) * 1000.0


def normalise(times_ms: list, reference_ms: list) -> list:
    """Scale times_ms[i] by NOMINAL_MS over the median of reference_ms[i-W..i+W]."""
    if len(times_ms) != len(reference_ms):
        raise ValueError("one reference time per request is needed")
    out = []
    for i, t in enumerate(times_ms):
        local = statistics.median(reference_ms[max(0, i - WINDOW) : i + WINDOW + 1])
        out.append(t * NOMINAL_MS / local)
    return out
