"""Correctness oracle for benchmark outputs, independent of the library.

The saddle-point operators are assembled here from the 1D forward-difference
matrix with Kronecker products, without `stokes_schur.operators`.  The
vector Laplacian uses its block-diagonal form

    A_N = diag( I_n (x) D^T D + D D^T (x) I_{n-1},      (u: x aligned, y shifted)
                I_{n-1} (x) D D^T + D^T D (x) I_n )     (v: x shifted, y aligned)

instead of the library's B^T B + C^T C route, the Dirichlet rows are marked
by flat-index arithmetic, and the momentum right-hand side is written from
the wall data by ghost-node elimination.  Each check returns None when the
output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np
import scipy.sparse as sp

RESIDUAL_TOL = 1e-8
MEAN_TOL = 1e-8
CSV_HEADER = "field,i_x,i_y,x,y,value"
CSV_SPOT_ROWS = 48
COORD_TOL = 1e-12

CHECK_NAMES = (
    "div-of-curl",
    "curl-of-gradient",
    "mixed-partials",
    "laplacian-block-diagonal",
    "operator-ranks",
    "helmholtz-split",
    "inverse-direct-sum",
    "schur-neumann-projector",
    "schur-dirichlet-lowrank",
    "schur-dirichlet-pinv",
    "limiting-inverse",
)


def difference_1d(n: int) -> sp.csr_matrix:
    """n x (n-1) forward difference: +1/h on the diagonal, -1/h below it."""
    inv_h = float(n)
    main = sp.eye(n, n - 1, k=0) * inv_h
    below = sp.eye(n, n - 1, k=-1) * -inv_h
    return (main + below).tocsr()


@functools.lru_cache(maxsize=8)
def saddle_operators(n: int, bvp: str) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(A, B): momentum block for the boundary condition family, and B."""
    d = difference_1d(n)
    eye_s = sp.identity(n)
    eye_a = sp.identity(n - 1)
    b = sp.hstack([-sp.kron(eye_s, d), -sp.kron(d, eye_s)]).tocsr()
    dtd = d.T @ d
    ddt = d @ d.T
    a_u = sp.kron(eye_s, dtd) + sp.kron(ddt, eye_a)
    a_v = sp.kron(eye_a, ddt) + sp.kron(dtd, eye_s)
    a = sp.block_diag([a_u, a_v]).tocsr()
    if bvp == "dirichlet":
        dim_u = n * (n - 1)
        u_iy = np.arange(dim_u) // (n - 1)
        v_ix = np.arange(dim_u) % n
        marked = np.concatenate(
            [(u_iy == 0) | (u_iy == n - 1), (v_ix == 0) | (v_ix == n - 1)]
        )
        a = (a + sp.diags(2.0 * n * n * marked.astype(float))).tocsr()
    elif bvp != "neumann":
        raise ValueError(f"unknown boundary condition family {bvp!r}")
    return a, b


def momentum_rhs(n: int, bvp: str, walls: dict) -> np.ndarray:
    """f from tangential wall data: (2/h^2) g for Dirichlet, (1/h) g for Neumann."""
    scale = 2.0 * n * n if bvp == "dirichlet" else float(n)
    dim_u = n * (n - 1)
    f = np.zeros(2 * dim_u)
    m = n - 1
    f[:m] += scale * walls["u_bottom"]
    f[dim_u - m : dim_u] += scale * walls["u_top"]
    v_rows = dim_u + np.arange(m) * n
    f[v_rows] += scale * walls["v_left"]
    f[v_rows + n - 1] += scale * walls["v_right"]
    return f


def solution_problem(
    sol, n: int, bvp: str, walls: dict, iterations: Optional[int] = None
) -> Optional[str]:
    """Coupled residual, mean-zero pressure, convergence and iteration count."""
    if not sol.converged:
        return f"Schur CG did not converge ({sol.schur_iters} iterations)"
    if iterations is not None and sol.schur_iters != iterations:
        return f"Schur CG took {sol.schur_iters} iterations, expected {iterations}"
    a, b = saddle_operators(n, bvp)
    vel = np.concatenate([sol.u, sol.v])
    p = np.asarray(sol.p)
    if vel.shape != (a.shape[0],) or p.shape != (n * n,):
        return f"solution shapes {vel.shape}, {p.shape} do not fit n={n}"
    f = momentum_rhs(n, bvp, walls)
    norm_f = float(np.linalg.norm(f)) or 1.0
    res_mom = float(np.linalg.norm(a @ vel + b.T @ p - f))
    res_div = float(np.linalg.norm(b @ vel))
    residual = max(res_mom, res_div) / norm_f
    if not residual <= RESIDUAL_TOL:
        return f"coupled residual {residual:.3e} above {RESIDUAL_TOL:g}"
    mean = abs(float(np.sum(p))) / n
    if not mean <= MEAN_TOL * max(1.0, float(np.linalg.norm(p))):
        return f"pressure mean component {mean:.3e} is not zero"
    return None


def _expected_csv_row(sol, n: int, j: int) -> tuple:
    """(field, i_x, i_y, x, y, value) of data row j in u, v, p order."""
    h = 1.0 / n
    dim_u = n * (n - 1)
    if j < dim_u:
        i_y, i_x = divmod(j, n - 1)
        return ("u", i_x, i_y, (i_x + 1) * h, (i_y + 0.5) * h, sol.u[j])
    j -= dim_u
    if j < dim_u:
        i_y, i_x = divmod(j, n)
        return ("v", i_x, i_y, (i_x + 0.5) * h, (i_y + 1) * h, sol.v[j])
    j -= dim_u
    i_y, i_x = divmod(j, n)
    return ("p", i_x, i_y, (i_x + 0.5) * h, (i_y + 0.5) * h, sol.p[j])


def csv_problem(text: str, sol, n: int) -> Optional[str]:
    """Header, row count, and evenly spaced rows parsed back exactly."""
    rows = 2 * n * (n - 1) + n * n
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return f"CSV header {lines[0]!r}"
    if len(lines) != rows + 2 or lines[-1] != "":
        return f"CSV has {len(lines) - 2} data rows, expected {rows}"
    for j in np.linspace(0, rows - 1, CSV_SPOT_ROWS).astype(int):
        got = lines[1 + j].split(",")
        want = _expected_csv_row(sol, n, int(j))
        if (
            len(got) != 6
            or got[0] != want[0]
            or int(got[1]) != want[1]
            or int(got[2]) != want[2]
            or abs(float(got[3]) - want[3]) > COORD_TOL
            or abs(float(got[4]) - want[4]) > COORD_TOL
            or float(got[5]) != float(want[5])
        ):
            return f"CSV row {j} is {lines[1 + j]!r}, expected {want}"
    return None


def check_rows_problem(rows, n: int, mode: str) -> Optional[str]:
    """The eleven property rows of one (n, mode) pair, each measured and passing."""
    names = tuple(row.name for row in rows)
    if names != CHECK_NAMES:
        return f"check rows {names} differ from the eleven properties"
    for row in rows:
        if row.n != n or row.mode != mode:
            return f"row {row.name} is for ({row.n}, {row.mode}), expected ({n}, {mode})"
        err = row.measured_error
        if err is None or not math.isfinite(err) or not err <= row.tolerance:
            return f"row {row.name} measured {err} against tolerance {row.tolerance}"
        if not row.passed or row.error is not None:
            return f"row {row.name} reports passed={row.passed}, error={row.error!r}"
    return None
