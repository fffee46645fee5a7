"""Staggered tensor-product grids for the unit square.

Four node sets discretize (0,1)^2, built from two 1D point sets:

    aligned  omega_h    = (h, 2h, ..., 1-h)          n-1 points
    shifted  omega_h^s  = (h/2, 3h/2, ..., 1-h/2)    n   points

    u  : x aligned, y shifted   (vertical-face normals, walls removed)
    v  : x shifted, y aligned   (horizontal-face normals, walls removed)
    p  : x shifted, y shifted   (cell centers)
    q  : x aligned, y aligned   (interior vertices, the curl variable)

Index-ordering contract (global, every module obeys it): a node (i_x, i_y)
on a grid with x-size s_x has flat index i_y * s_x + i_x, i.e. x runs
fastest.  Equivalently, a field vector reshapes to a C-order array of shape
(y_size, x_size).  Under this convention a Kronecker product A (x) B acts
with B on the x-index and A on the y-index, so the 2D operators assemble
verbatim from 1D factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSizeError

ALIGNED = "aligned"
SHIFTED = "shifted"


@dataclass(frozen=True)
class GridAxis:
    """One 1D point set. kind is "aligned" (n-1 points) or "shifted" (n).

    coordinates is read-only: grids are shared through cached solve plans.
    """

    kind: str
    count: int
    coordinates: np.ndarray


@dataclass(frozen=True)
class StaggeredGrid:
    """Problem size, spacing, per-field dimensions, and the two 1D axes."""

    n: int
    h: float
    dim_u: int
    dim_v: int
    dim_p: int
    dim_q: int
    aligned: GridAxis
    shifted: GridAxis

    @property
    def dim_velocity(self) -> int:
        return self.dim_u + self.dim_v

    # (y_size, x_size) array shapes matching the flat x-fastest ordering.
    @property
    def shape_u(self) -> tuple[int, int]:
        return (self.n, self.n - 1)

    @property
    def shape_v(self) -> tuple[int, int]:
        return (self.n - 1, self.n)

    @property
    def shape_p(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def shape_q(self) -> tuple[int, int]:
        return (self.n - 1, self.n - 1)


def make_grid(n: int) -> StaggeredGrid:
    """Build the staggered grid family for problem size n (n >= 2).

    At n = 1 the aligned axis has no interior node, so nothing is defined.
    """
    if n < 2:
        raise InvalidSizeError(f"problem size must be >= 2, got {n}")
    h = 1.0 / n
    aligned_coords = np.arange(1, n) * h
    shifted_coords = (np.arange(n) + 0.5) * h
    aligned_coords.flags.writeable = False
    shifted_coords.flags.writeable = False
    aligned = GridAxis(ALIGNED, n - 1, aligned_coords)
    shifted = GridAxis(SHIFTED, n, shifted_coords)
    return StaggeredGrid(
        n=n,
        h=h,
        dim_u=n * (n - 1),
        dim_v=(n - 1) * n,
        dim_p=n * n,
        dim_q=(n - 1) * (n - 1),
        aligned=aligned,
        shifted=shifted,
    )


def axis(grid: StaggeredGrid, kind: str) -> GridAxis:
    """Return the aligned or shifted 1D axis of the grid."""
    if kind == ALIGNED:
        return grid.aligned
    if kind == SHIFTED:
        return grid.shifted
    raise ValueError(f"unknown axis kind {kind!r}, expected 'aligned' or 'shifted'")
