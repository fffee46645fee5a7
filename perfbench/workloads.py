"""The three benchmark workloads: inputs from the seed, one request, its check.

Every workload is a closed loop with one client.  Request i is a pure
function of (seed, i), so a run can issue as many requests as its time
allows without repeating an input, and two runs with one seed see the same
sequence.  `call` is the timed part and touches only the library's public
entry points; `check` runs after the clock stops and compares the output
against the independent oracle.

cavity-rankr         solve_stokes on the Dirichlet cavity, boundary mode,
                     preconditioner "auto" (the rank-r pinv(S_D)); n cycles
                     24, 32, 48 and every request draws new smooth wall
                     data on all four walls.  The schur build dominates and
                     depends only on (n, mode), which repeats.
cavity-export-large  solve_stokes then format_solution_csv; n runs over
                     32..96 in a seed-set low-discrepancy order, moved
                     to start at the largest n; Neumann ("auto", the
                     projector) and Dirichlet
                     ("neumann-projector") requests alternate.  Neumann
                     requests pass mode "full", which the Neumann family
                     ignores (A = A_N), so no (n, mode) pair repeats within
                     130 requests.  No rank-r build runs.
verify-suite         checks_for over (8, 12, 14) x (boundary, full) in a
                     fixed cycle with a new suite seed per request: the
                     dense SVD oracles and the materialized schur forms.
"""

from __future__ import annotations

import math

import numpy as np

import stokes_schur
from stokes_schur import checks, solver

from . import oracle

WALLS = ("u_bottom", "u_top", "v_left", "v_right")
WALL_MODES = 3
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def wall_data(rng: np.random.Generator, n: int) -> dict:
    """Smooth tangential data per wall: a few sine modes vanishing at corners."""
    s = np.arange(1, n) / n
    k = np.arange(1, WALL_MODES + 1)
    basis = np.sin(np.pi * np.outer(s, k))
    return {w: basis @ (rng.standard_normal(WALL_MODES) / k) for w in WALLS}


def spread_order(values: np.ndarray, offset: float) -> np.ndarray:
    """Permutation of values whose every prefix covers their range evenly.

    Position i takes the value whose rank matches that of frac(offset + i*g)
    among all positions, g the golden ratio conjugate.
    """
    keys = (offset + GOLDEN * np.arange(values.size)) % 1.0
    return np.sort(values)[np.argsort(np.argsort(keys))]


class Workload:
    """Base: per-request generator seeded by (seed, i)."""

    name: str
    # mean seconds per request at the seed code, sizing the fixed passes of traced runs
    nominal_s: float
    # length of the request pattern (size cycle, bvp alternation); passes cover whole ones
    period: int

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer

    def rng(self, i: int) -> np.random.Generator:
        # i = -1 is the warm-up input; seed sequences take no negative words
        return np.random.default_rng([self.seed, i + 1])

    def traced_requests(self, seconds: float) -> int:
        """Request count of one traced pass: about 40% of the run's seconds."""
        periods = round(0.4 * seconds / self.nominal_s / self.period)
        return self.period * max(1, periods)

    def warmup(self) -> None:
        """One request on an input outside the request sequence."""
        req = self.make_input(-1)
        problem = self.check(req, self.call(req))
        if problem is not None:
            raise RuntimeError(f"warm-up request failed its check: {problem}")

    def _grid(self, n: int):
        with self.tracer.span("grid.make_grid"):
            return stokes_schur.make_grid(n)


class CavityRankR(Workload):
    name = "cavity-rankr"
    nominal_s = 0.08
    period = 3
    SIZES = (24, 32, 48)

    def make_input(self, i: int) -> dict:
        n = self.SIZES[i % len(self.SIZES)]
        return {"n": n, "walls": wall_data(self.rng(i), n)}

    def call(self, req: dict):
        grid = self._grid(req["n"])
        config = stokes_schur.BvpConfig(bvp="dirichlet", mode="boundary", **req["walls"])
        return solver.solve_stokes(grid, config, preconditioner="auto")

    def check(self, req: dict, sol):
        return oracle.solution_problem(
            sol, req["n"], "dirichlet", req["walls"], iterations=1
        )


class CavityExportLarge(Workload):
    name = "cavity-export-large"
    nominal_s = 0.22
    period = 2
    SIZES = np.arange(32, 97)

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(seed, tracer)
        offsets = np.random.default_rng([seed, 2**63]).random(2)
        self.orders = [spread_order(self.SIZES, off) for off in offsets]
        # move the largest n to the front so every run reaches its peak memory at once
        for order in self.orders:
            top = int(np.argmax(order))
            order[[0, top]] = order[[top, 0]]

    def make_input(self, i: int) -> dict:
        if i < 0:
            return {"n": 24, "bvp": "dirichlet", "walls": wall_data(self.rng(i), 24)}
        order = self.orders[i % 2]
        n = int(order[(i // 2) % order.size])
        bvp = "neumann" if i % 2 == 0 else "dirichlet"
        return {"n": n, "bvp": bvp, "walls": wall_data(self.rng(i), n)}

    def call(self, req: dict):
        grid = self._grid(req["n"])
        if req["bvp"] == "neumann":
            config = stokes_schur.BvpConfig(bvp="neumann", mode="full", **req["walls"])
            precond = "auto"
        else:
            config = stokes_schur.BvpConfig(bvp="dirichlet", mode="boundary", **req["walls"])
            precond = "neumann-projector"
        sol = solver.solve_stokes(grid, config, preconditioner=precond)
        with self.tracer.span("solver.format_solution_csv"):
            text = solver.format_solution_csv(sol)
        self.tracer.count("solver.csv_bytes", len(text))  # ASCII: one byte per character
        return sol, text

    def check(self, req: dict, out):
        sol, text = out
        iterations = 1 if req["bvp"] == "neumann" else None
        problem = oracle.solution_problem(
            sol, req["n"], req["bvp"], req["walls"], iterations=iterations
        )
        return problem or oracle.csv_problem(text, sol, req["n"])


class VerifySuite(Workload):
    name = "verify-suite"
    nominal_s = 0.24
    PAIRS = tuple((n, mode) for n in (8, 12, 14) for mode in ("boundary", "full"))
    period = len(PAIRS)

    def make_input(self, i: int) -> dict:
        n, mode = self.PAIRS[i % len(self.PAIRS)]
        return {"n": n, "mode": mode, "seed": int(self.rng(i).integers(2**63))}

    def call(self, req: dict):
        with self.tracer.span("checks.checks_for"):
            rows = checks.checks_for(req["n"], req["mode"], req["seed"], 1.0)
        self.tracer.count("checks.rows", len(rows))
        self.tracer.count("checks.rows_failed", sum(not r.passed for r in rows))
        return rows

    def check(self, req: dict, rows):
        return oracle.check_rows_problem(rows, req["n"], req["mode"])


WORKLOADS = {w.name: w for w in (CavityRankR, CavityExportLarge, VerifySuite)}
