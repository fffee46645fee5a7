"""Sparse assembly of the staggered Stokes operators from one 1D matrix.

Every 2D operator is a Kronecker product of the 1D forward-difference
matrix D (n x (n-1), entries +1/h on the diagonal and -1/h below it) with
identities, following the x-fastest flat ordering defined in `grid`:

    Bxu = I_n     (x) D     u -> p      Bxq = I_{n-1} (x) D     q -> v
    Byv = D       (x) I_n   v -> p      Byq = D       (x) I_{n-1}   q -> u

    B  = [-Bxu  -Byv]                   negative divergence, velocity -> p
    C^T = [-Byq; Bxq]                   q -> velocity;  C = (C^T)^T is the curl
    A_N = B^T B + C^T C                 vector Laplacian, tangential Neumann
    A_D = A_N + (2/h^2) I_pert          tangential Dirichlet via ghost nodes

Scale convention: entries carry the physical 1/h (1/h^2 in Laplacians); the
2/h^2 Dirichlet perturbation is literal.  No dense intermediates are formed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .errors import InvalidSizeError
from .grid import StaggeredGrid

BOUNDARY = "boundary"
FULL = "full"


@dataclass(frozen=True)
class OperatorSet:
    """All assembled operators for one grid and one perturbation mode.

    Matrices are CSR; build_operator_set makes their arrays read-only.
    """

    grid: StaggeredGrid
    mode: str
    B1d: sp.csr_matrix
    Bxu: sp.csr_matrix
    Byv: sp.csr_matrix
    Bxq: sp.csr_matrix
    Byq: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    A_N: sp.csr_matrix
    A_D: sp.csr_matrix
    I_pert: sp.csr_matrix
    U: sp.csr_matrix
    r: int

    @property
    def gradient(self) -> sp.spmatrix:
        """Discrete pressure gradient; the conjugate of the divergence."""
        return self.B.T

    @property
    def extracted_indices(self) -> np.ndarray:
        """Velocity flat indices selected by the rows of U, in row order."""
        return self.U.indices.copy()

    def _arrays(self) -> list:
        mats = [getattr(self, f.name) for f in fields(self)]
        return [
            a for m in mats if sp.issparse(m) for a in (m.data, m.indices, m.indptr)
        ]

    @property
    def nbytes(self) -> int:
        """Bytes held by the arrays of every matrix in the set."""
        return sum(a.nbytes for a in self._arrays())


def derivative_1d(n: int, h: float) -> sp.csr_matrix:
    """1D derivative from the aligned axis (n-1 values) to the shifted (n).

    Interior velocity values are differenced against the homogeneous
    no-penetration wall values, which are eliminated; column sums vanish.
    """
    if n < 2:
        raise InvalidSizeError(f"problem size must be >= 2, got {n}")
    inv_h = 1.0 / h
    rows = np.concatenate([np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([np.arange(n - 1), np.arange(n - 1)])
    vals = np.concatenate([np.full(n - 1, inv_h), np.full(n - 1, -inv_h)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n - 1))


def assemble_velocity_derivatives(
    grid: StaggeredGrid,
) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """Return (Bxu, Byv, Bxq, Byq) as CSR Kronecker products."""
    n = grid.n
    d1 = derivative_1d(n, grid.h)
    eye_shift = sp.identity(n, format="csr")
    eye_align = sp.identity(n - 1, format="csr")
    bxu = sp.kron(eye_shift, d1, format="csr")
    byv = sp.kron(d1, eye_shift, format="csr")
    bxq = sp.kron(eye_align, d1, format="csr")
    byq = sp.kron(d1, eye_align, format="csr")
    return bxu, byv, bxq, byq


def assemble_divergence(grid: StaggeredGrid) -> sp.csr_matrix:
    """Negative divergence B = [-Bxu  -Byv], shape dim_p x dim_velocity."""
    bxu, byv, _, _ = assemble_velocity_derivatives(grid)
    return sp.hstack([-bxu, -byv], format="csr")


def assemble_curl(grid: StaggeredGrid) -> sp.csr_matrix:
    """Velocity curl C, shape dim_q x dim_velocity.

    Built by transposing C^T = [-Byq; Bxq] so that the div-of-curl and
    curl-of-gradient identities hold by construction; the equivalent direct
    form is available from assemble_curl_direct for cross-checking.
    """
    _, _, bxq, byq = assemble_velocity_derivatives(grid)
    ct = sp.vstack([-byq, bxq], format="csr")
    return ct.T.tocsr()


def assemble_tangential_derivative_blocks(
    grid: StaggeredGrid,
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Cross derivatives of the velocity components, u -> q and v -> q.

    The 1D derivative from the shifted axis back to the aligned one is -D^T,
    so d/dy on u is (-D^T) (x) I_{n-1} and d/dx on v is I_{n-1} (x) (-D^T).
    These are the two blocks of the vorticity operator.
    """
    d1t = derivative_1d(grid.n, grid.h).T.tocsr()
    eye_align = sp.identity(grid.n - 1, format="csr")
    dyu = sp.kron(-d1t, eye_align, format="csr")
    dxv = sp.kron(eye_align, -d1t, format="csr")
    return dyu, dxv


def assemble_pressure_gradient_blocks(
    grid: StaggeredGrid,
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Pressure gradient components, p -> u and p -> v.

    d/dx on p is I_n (x) (-D^T), d/dy on p is (-D^T) (x) I_n; stacked they
    equal B^T entrywise, which the suite verifies rather than assumes.
    """
    d1t = derivative_1d(grid.n, grid.h).T.tocsr()
    eye_shift = sp.identity(grid.n, format="csr")
    gpx = sp.kron(eye_shift, -d1t, format="csr")
    gpy = sp.kron(-d1t, eye_shift, format="csr")
    return gpx, gpy


def assemble_curl_direct(grid: StaggeredGrid) -> sp.csr_matrix:
    """Curl in its direct form [dyu  -dxv], from the cross-derivative blocks.

    Equal to assemble_curl entrywise; kept as an independent construction
    path so the suite can compare the two.
    """
    dyu, dxv = assemble_tangential_derivative_blocks(grid)
    return sp.hstack([dyu, -dxv], format="csr")


def mixed_derivative_residual(grid: StaggeredGrid) -> float:
    """Largest entry by which the discrete mixed partials fail to commute.

    For u the two routes are d/dy(d/dx u) through pressure nodes versus
    d/dx(d/dy u) through vorticity nodes; symmetrically for v.  Both routes
    reduce to the same Kronecker product, so the residual is exactly zero.
    """
    bxu, byv, bxq, byq = assemble_velocity_derivatives(grid)
    gpx, gpy = assemble_pressure_gradient_blocks(grid)
    dyu, dxv = assemble_tangential_derivative_blocks(grid)
    res_u = gpy @ bxu - bxq @ dyu
    res_v = gpx @ byv - byq @ dxv
    worst = 0.0
    for res in (res_u, res_v):
        if res.nnz:
            worst = max(worst, float(np.max(np.abs(res.data))))
    return worst


def assemble_laplacian_neumann(grid: StaggeredGrid) -> sp.csr_matrix:
    """Vector Laplacian A_N = B^T B + C^T C; SPD and block-diagonal in u/v.

    The u/v cross blocks cancel exactly (the entries are equal-magnitude
    products of +-1/h, so the cancellation is exact in floating point) and
    the explicit zeros are compacted away.
    """
    b = assemble_divergence(grid)
    c = assemble_curl(grid)
    a = (b.T @ b + c.T @ c).tocsr()
    a.eliminate_zeros()
    return a


def assemble_perturbation(
    grid: StaggeredGrid, mode: str = BOUNDARY
) -> tuple[sp.csr_matrix, sp.csr_matrix, int]:
    """Diagonal 0/1 marker of Dirichlet-affected velocity nodes, and its factor.

    boundary mode marks the wall-adjacent tangential rows (first/last shifted
    slab per component), r = 4(n-1); full mode marks every node, the synthetic
    device for the limiting-case identity.  Returns (I_pert, U, r) with
    U^T U = I_pert, U U^T = I_r, and U rows ordered by ascending flat index
    (u block first).
    """
    n = grid.n
    if mode == BOUNDARY:
        edge = np.zeros(n)
        edge[0] = 1.0
        edge[-1] = 1.0
        marker = sp.diags(edge, format="csr")
        eye_align = sp.identity(n - 1, format="csr")
        pert_u = sp.kron(marker, eye_align, format="csr")
        pert_v = sp.kron(eye_align, marker, format="csr")
        i_pert = sp.block_diag([pert_u, pert_v], format="csr")
    elif mode == FULL:
        i_pert = sp.identity(grid.dim_velocity, format="csr")
    else:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    i_pert.eliminate_zeros()
    idx = np.flatnonzero(i_pert.diagonal())
    r = idx.size
    u = sp.csr_matrix(
        (np.ones(r), (np.arange(r), idx)), shape=(r, grid.dim_velocity)
    )
    return i_pert, u, r


def assemble_laplacian_dirichlet(
    grid: StaggeredGrid, i_pert: sp.spmatrix
) -> sp.csr_matrix:
    """A_D = A_N + (2/h^2) I_pert, the ghost-node-eliminated Dirichlet Laplacian."""
    a_n = assemble_laplacian_neumann(grid)
    scale = 2.0 / (grid.h * grid.h)
    a_d = (a_n + scale * i_pert).tocsr()
    a_d.eliminate_zeros()
    return a_d


def build_operator_set(grid: StaggeredGrid, mode: str = BOUNDARY) -> OperatorSet:
    """Assemble every operator for the grid in the given perturbation mode."""
    d1 = derivative_1d(grid.n, grid.h)
    bxu, byv, bxq, byq = assemble_velocity_derivatives(grid)
    b = sp.hstack([-bxu, -byv], format="csr")
    ct = sp.vstack([-byq, bxq], format="csr")
    c = ct.T.tocsr()
    a_n = (b.T @ b + c.T @ c).tocsr()
    a_n.eliminate_zeros()
    i_pert, u, r = assemble_perturbation(grid, mode)
    scale = 2.0 / (grid.h * grid.h)
    a_d = (a_n + scale * i_pert).tocsr()
    a_d.eliminate_zeros()
    ops = OperatorSet(
        grid=grid,
        mode=mode,
        B1d=d1,
        Bxu=bxu,
        Byv=byv,
        Bxq=bxq,
        Byq=byq,
        B=b,
        C=c,
        A_N=a_n,
        A_D=a_d,
        I_pert=i_pert,
        U=u,
        r=r,
    )
    for a in ops._arrays():
        a.flags.writeable = False
    return ops
