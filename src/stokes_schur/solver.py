"""Enclosed-flow saddle-point solver driven by the structured Schur forms.

The discrete system is

    [ A  B^T ] [u]   [f]
    [ B   0  ] [p] = [0]

with A the tangential-Dirichlet or tangential-Neumann vector Laplacian and B
the negative divergence.  Pressure is found first from the Schur equation
S p = B A^{-1} f by projected CG (the constant pressure mode is projected
out of the right-hand side and every iterate, keeping p mean-zero), then
velocity is recovered from A u = f - B^T p through the same sparse LU
factorization.  The zero continuity right-hand side encodes exact
no-penetration walls; nonzero normal data is outside this problem class.

Everything that depends only on (n, mode) -- the operators, the momentum LU
of each BVP family and each preconditioner's structured form -- lives in a
StokesPlan, whose pieces are built on first use and which a small cache
keeps across requests (see PlanCache); the boundary data is the only
per-request input.

Boundary data enters the momentum right-hand side by ghost-node elimination:
a tangential wall value g contributes (2/h^2) g at the wall-adjacent interior
node for Dirichlet data and (1/h) g for Neumann data.  The classic test flow,
a lid sliding over a closed box, is just u = 1 on the top wall.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.sparse.linalg import splu

from .errors import (
    FactorizationError,
    InvalidDataError,
    InvalidSizeError,
    ModeMismatchError,
)
from .grid import StaggeredGrid, make_grid
from .linalg import CgOptions, CgResult, cg_solve
from .operators import BOUNDARY, FULL, OperatorSet, build_operator_set
from .schur import (
    SchurRep,
    build_limiting_inverse,
    build_schur_dirichlet_inverse,
    build_schur_neumann,
)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
BVPS = (DIRICHLET, NEUMANN)

PRECOND_NONE = "none"
PRECOND_PROJECTOR = "neumann-projector"
PRECOND_RANK_R = "dirichlet-rank-r"
PRECOND_LIMITING = "limiting-formula"
PRECONDITIONERS = (
    PRECOND_NONE,
    PRECOND_PROJECTOR,
    PRECOND_RANK_R,
    PRECOND_LIMITING,
)

BoundaryData = Union[None, float, Sequence[float], Callable[[np.ndarray], np.ndarray]]

# Plan cache policy: a plan is kept once its (n, mode) is missed twice within
# the last PLAN_WINDOW misses, and the kept plans hold at most PLAN_CACHE_BYTES.
# Keeping every plan instead fragments the heap on streams that never reuse
# one (evicted SuperLU factors at n = 96 are about 18 MB each).
PLAN_CACHE_BYTES = 32 * 2**20
PLAN_WINDOW = 16
# SuperLU stores a double and an int row index per entry; lu.nnz counts the
# supernodal storage without copying L and U out the way lu.L and lu.U do.
LU_ENTRY_BYTES = 12


@dataclass(frozen=True)
class BvpConfig:
    """Boundary-value problem: BC family, perturbation mode, tangential data.

    Each wall field holds the tangential velocity data on that wall as a
    constant, an array over the aligned wall coordinates, or a callable
    evaluated on them; None means zero.  The u walls are bottom/top, the v
    walls left/right; normal velocities are zero everywhere (enclosed flow).
    The mode is irrelevant for the Neumann family, where A = A_N regardless.
    """

    bvp: str = DIRICHLET
    mode: str = BOUNDARY
    u_bottom: BoundaryData = None
    u_top: BoundaryData = None
    v_left: BoundaryData = None
    v_right: BoundaryData = None

    def __post_init__(self) -> None:
        if self.bvp not in BVPS:
            raise ValueError(f"bvp must be one of {BVPS}, got {self.bvp!r}")
        if self.mode not in (BOUNDARY, FULL):
            raise ValueError(
                f"mode must be {BOUNDARY!r} or {FULL!r}, got {self.mode!r}"
            )


def lid_driven_cavity(bvp: str = DIRICHLET, mode: str = BOUNDARY) -> BvpConfig:
    """Closed box with the top wall sliding at unit speed."""
    return BvpConfig(bvp=bvp, mode=mode, u_top=1.0)


def _segment_values(data: BoundaryData, coords: np.ndarray, wall: str) -> np.ndarray:
    if data is None:
        return np.zeros(coords.size)
    if callable(data):
        vals = np.asarray(data(coords), dtype=float)
    elif np.isscalar(data):
        vals = np.full(coords.size, float(data))
    else:
        vals = np.asarray(data, dtype=float)
    if vals.shape == ():
        vals = np.full(coords.size, float(vals))
    if vals.shape != coords.shape:
        raise InvalidSizeError(
            f"{wall} data has shape {vals.shape}, wall needs {coords.shape}"
        )
    if not np.isfinite(vals).all():
        raise InvalidDataError(f"{wall} data holds NaN or infinite values")
    return vals


def build_rhs(grid: StaggeredGrid, config: BvpConfig) -> np.ndarray:
    """Momentum right-hand side from the tangential wall data.

    Placement is purely geometric (first/last shifted slab of each velocity
    component); the perturbation mode changes the operator, not which nodes
    see boundary data.
    """
    h = grid.h
    scale = 2.0 / (h * h) if config.bvp == DIRICHLET else 1.0 / h
    along = grid.aligned.coordinates
    f = np.zeros(grid.dim_velocity)
    fu = f[: grid.dim_u].reshape(grid.shape_u)
    fu[0, :] += scale * _segment_values(config.u_bottom, along, "u_bottom")
    fu[-1, :] += scale * _segment_values(config.u_top, along, "u_top")
    fv = f[grid.dim_u :].reshape(grid.shape_v)
    fv[:, 0] += scale * _segment_values(config.v_left, along, "v_left")
    fv[:, -1] += scale * _segment_values(config.v_right, along, "v_right")
    return f


def _momentum_rhs(
    grid: StaggeredGrid, config: BvpConfig, f_h: Optional[np.ndarray]
) -> np.ndarray:
    if f_h is None:
        return build_rhs(grid, config)
    f = np.asarray(f_h, dtype=float)
    if f.shape != (grid.dim_velocity,):
        raise InvalidSizeError(
            f"momentum right-hand side has shape {f.shape}, "
            f"expected ({grid.dim_velocity},)"
        )
    if not np.isfinite(f).all():
        raise InvalidDataError("momentum right-hand side holds NaN or infinite values")
    return f


def make_preconditioner(
    name: str, ops: OperatorSet
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Resolve a preconditioner name to an apply callable (None for none).

    The structured form comes from the cached plan built around ops when
    one is resident, and is built for this call otherwise.
    """
    rep = _plan_around(ops).preconditioner(name)
    return None if rep is None else rep.apply


def _build_preconditioner(name: str, ops: OperatorSet) -> Optional[SchurRep]:
    """The structured Schur form behind a preconditioner name.

    The limiting formula needs an identity perturbation, so when ops was
    built in boundary mode the full-mode operators are assembled just for
    the preconditioner; applied to the boundary-mode problem it is only an
    approximate inverse, which is exactly what the iteration study probes.
    """
    if name == PRECOND_NONE:
        return None
    if name == PRECOND_PROJECTOR:
        return build_schur_neumann(ops.grid)
    if name == PRECOND_RANK_R:
        return build_schur_dirichlet_inverse(ops.grid, ops)
    if name == PRECOND_LIMITING:
        limit_ops = ops if ops.r == ops.grid.dim_velocity else None
        return build_limiting_inverse(ops.grid, limit_ops)
    raise ValueError(f"unknown preconditioner {name!r}")


def _rep_arrays(rep: SchurRep) -> list:
    arrays = [rep.base, rep.factor, rep.kernel, rep.pressure_laplacian_pinv]
    if rep.kernel_factor is not None:
        arrays.append(rep.kernel_factor[0])
    return [a for a in arrays if a is not None]


@dataclass(frozen=True)
class SaddleSolution:
    """Velocity/pressure triple with the Schur-CG convergence record.

    u and v are the component vectors in flat (x fastest) order; p is
    mean-zero.  coupled_residual is the larger block residual of the saddle
    system relative to ||f||; divergence_norm is the absolute ||B (u,v)||.
    """

    grid: StaggeredGrid
    bvp: str
    mode: str
    preconditioner: str
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    schur_iters: int
    converged: bool
    final_rel_residual: float
    coupled_residual: float
    divergence_norm: float
    history: list = field(default_factory=list)

    @property
    def velocity(self) -> np.ndarray:
        """Concatenated (u, v) vector."""
        return np.concatenate([self.u, self.v])

    @property
    def u_field(self) -> np.ndarray:
        """x-velocity as a (y, x) array on its staggered nodes."""
        return self.u.reshape(self.grid.shape_u)

    @property
    def v_field(self) -> np.ndarray:
        """y-velocity as a (y, x) array on its staggered nodes."""
        return self.v.reshape(self.grid.shape_v)

    @property
    def p_field(self) -> np.ndarray:
        """Pressure as a (y, x) array on cell centers."""
        return self.p.reshape(self.grid.shape_p)


def _resolve_precond_name(preconditioner: str, bvp: str) -> str:
    if preconditioner != "auto":
        return preconditioner
    return PRECOND_RANK_R if bvp == DIRICHLET else PRECOND_PROJECTOR


@dataclass(frozen=True, eq=False)
class StokesPlan:
    """Everything a solve needs that depends only on (n, mode).

    ops is assembled up front; the momentum LU of each BVP family and the
    structured form of each named preconditioner are built on first use
    and kept.  Pieces are stored only once fully built, so a request that
    raises leaves no half-built piece behind, and every array a plan holds
    is read-only, so one plan serves many requests.  A plan built by a
    PlanCache reports each new piece to it, keeping the cache's byte bound
    as plans grow.
    """

    ops: OperatorSet
    cache: Optional["PlanCache"] = field(default=None, repr=False)
    _pieces: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def grid(self) -> StaggeredGrid:
        return self.ops.grid

    @property
    def nbytes(self) -> int:
        """Bytes of the operators and of every piece built so far.

        Each piece is sized once, when it is built.
        """
        # list() copies the values in one step, safe against a concurrent build
        return self.ops.nbytes + sum(size for _, size in list(self._pieces.values()))

    def _piece(self, key: tuple, build: Callable[[], tuple]):
        entry = self._pieces.get(key)
        if entry is None:
            # two threads may both build; the first stored piece wins
            entry = self._pieces.setdefault(key, build())
            if self.cache is not None:
                self.cache.trim()
        return entry[0]

    def momentum_lu(self, bvp: str):
        """Sparse LU of A_D (Dirichlet) or A_N (Neumann), built once."""

        def build():
            a = self.ops.A_D if bvp == DIRICHLET else self.ops.A_N
            try:
                lu = splu(a.tocsc())
            except RuntimeError as exc:
                raise FactorizationError(
                    f"LU of the momentum block failed: {exc}"
                ) from exc
            return lu, lu.nnz * LU_ENTRY_BYTES

        return self._piece(("lu", bvp), build)

    def preconditioner(self, name: str) -> Optional[SchurRep]:
        """Structured Schur form behind a preconditioner name (None for none)."""

        def build():
            rep = _build_preconditioner(name, self.ops)
            if rep is None:
                return None, 0
            arrays = _rep_arrays(rep)
            for a in arrays:
                a.flags.writeable = False
            return rep, sum(a.nbytes for a in arrays)

        return self._piece(("precond", name), build)

    def solve(
        self,
        config: BvpConfig,
        f_h: Optional[np.ndarray] = None,
        cg_options: Optional[CgOptions] = None,
        preconditioner: str = "auto",
    ) -> SaddleSolution:
        """Solve the enclosed Stokes problem of config on this plan's grid.

        f_h overrides the momentum right-hand side; by default it is built
        from the boundary data in config.
        """
        ops = self.ops
        grid = ops.grid
        if config.mode != ops.mode:
            raise ModeMismatchError(
                f"config mode {config.mode!r} does not match operators {ops.mode!r}"
            )
        f = _momentum_rhs(grid, config, f_h)
        name = _resolve_precond_name(preconditioner, config.bvp)
        rep = self.preconditioner(name)
        lu = self.momentum_lu(config.bvp)
        a = ops.A_D if config.bvp == DIRICHLET else ops.A_N
        b = ops.B
        bt = b.T  # each .T builds a new matrix object; take it once

        e = np.full(grid.dim_p, grid.h)

        def project(x: np.ndarray) -> np.ndarray:
            return x - e * float(e @ x)

        def apply_schur(p: np.ndarray) -> np.ndarray:
            return b @ lu.solve(bt @ p)

        rhs = b @ lu.solve(f)
        result: CgResult = cg_solve(
            apply_schur,
            rhs,
            options=cg_options or CgOptions(),
            project=project,
            precond=None if rep is None else rep.apply,
        )
        p = result.x
        vel = lu.solve(f - bt @ p)

        norm_f = float(np.linalg.norm(f)) or 1.0
        res_mom = float(np.linalg.norm(a @ vel + bt @ p - f))
        res_div = float(np.linalg.norm(b @ vel))
        return SaddleSolution(
            grid=grid,
            bvp=config.bvp,
            mode=config.mode,
            preconditioner=name,
            u=vel[: grid.dim_u],
            v=vel[grid.dim_u :],
            p=p,
            schur_iters=result.iterations,
            converged=result.converged,
            final_rel_residual=result.final_rel_residual,
            coupled_residual=max(res_mom, res_div) / norm_f,
            divergence_norm=res_div,
            history=list(result.history),
        )


class PlanCache:
    """Plans by (n, mode): admitted on a second sighting, LRU bounded in bytes.

    Every miss builds a plan.  The plan is kept only when its key was also
    missed within the last `window` misses, so a stream that never repeats
    a key holds no factorization past its request.  Kept plans form an LRU
    whose summed nbytes stays at or below max_bytes: a plan larger than the
    bound when it would be admitted is not admitted, and a kept plan that
    grows pushes the least recently used plans out, itself last.
    """

    def __init__(self, max_bytes: int = PLAN_CACHE_BYTES, window: int = PLAN_WINDOW):
        self.max_bytes = max_bytes
        self._recent: collections.deque = collections.deque(maxlen=window)
        self._plans: collections.OrderedDict = collections.OrderedDict()
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(("hits", "misses", "admissions", "evictions"), 0)

    def get(self, n: int, mode: str = BOUNDARY) -> StokesPlan:
        """The resident plan of (n, mode), or a new one built now."""
        key = (n, mode)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._counts["hits"] += 1
                return plan
            self._counts["misses"] += 1
            seen = key in self._recent
            self._recent.append(key)
        plan = StokesPlan(build_operator_set(make_grid(n), mode), cache=self)
        if seen:
            with self._lock:
                if key not in self._plans and plan.nbytes <= self.max_bytes:
                    self._plans[key] = plan
                    self._counts["admissions"] += 1
        return plan

    def holding(self, ops: OperatorSet) -> Optional[StokesPlan]:
        """The resident plan built around exactly these operators, if any."""
        with self._lock:
            plan = self._plans.get((ops.grid.n, ops.mode))
        return plan if plan is not None and plan.ops is ops else None

    def _resident_bytes(self) -> int:
        return sum(plan.nbytes for plan in self._plans.values())

    def trim(self) -> None:
        """Evict least recently used plans until the byte bound holds."""
        with self._lock:
            while self._plans and self._resident_bytes() > self.max_bytes:
                self._plans.popitem(last=False)
                self._counts["evictions"] += 1

    def info(self) -> dict:
        """Hits, misses, admissions, evictions, resident plans and bytes."""
        with self._lock:
            return dict(
                self._counts,
                plans=len(self._plans),
                resident_bytes=self._resident_bytes(),
            )

    def clear(self) -> None:
        """Drop every plan and sighting and zero the counters."""
        with self._lock:
            self._plans.clear()
            self._recent.clear()
            self._counts = dict.fromkeys(self._counts, 0)


_PLAN_CACHE = PlanCache()


def plan_for(n: int, mode: str = BOUNDARY) -> StokesPlan:
    """The solve plan of problem size n in the given mode, cached by policy."""
    return _PLAN_CACHE.get(n, mode)


def plan_cache_info() -> dict:
    """Counters and resident bytes of the process-wide plan cache."""
    return _PLAN_CACHE.info()


def plan_cache_clear() -> None:
    """Empty the process-wide plan cache."""
    _PLAN_CACHE.clear()


def _plan_around(ops: OperatorSet) -> StokesPlan:
    return _PLAN_CACHE.holding(ops) or StokesPlan(ops)


def solve_stokes_with_ops(
    ops: OperatorSet,
    config: BvpConfig,
    f_h: Optional[np.ndarray] = None,
    cg_options: Optional[CgOptions] = None,
    preconditioner: str = "auto",
) -> SaddleSolution:
    """Solve on an already assembled operator set (see solve_stokes).

    Reuses the cached plan only when it was built around exactly these
    operators; otherwise the LU and preconditioner are built for this call.
    """
    return _plan_around(ops).solve(config, f_h, cg_options, preconditioner)


def solve_stokes(
    grid: StaggeredGrid,
    config: BvpConfig,
    f_h: Optional[np.ndarray] = None,
    cg_options: Optional[CgOptions] = None,
    preconditioner: str = "auto",
) -> SaddleSolution:
    """Solve the enclosed Stokes problem on the given grid.

    The operators, momentum LU and preconditioner come from the plan of
    (grid.n, config.mode) (see plan_for).  f_h overrides the momentum
    right-hand side; by default it is built from the boundary data in
    config.
    """
    plan = plan_for(grid.n, config.mode)
    return solve_stokes_with_ops(plan.ops, config, f_h, cg_options, preconditioner)


@dataclass(frozen=True)
class StudyRow:
    """One (size, preconditioner) cell of the iteration study."""

    n: int
    bvp: str
    mode: str
    preconditioner: str
    iterations: int
    converged: bool
    final_rel_residual: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "bvp": self.bvp,
            "mode": self.mode,
            "preconditioner": self.preconditioner,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_rel_residual": self.final_rel_residual,
        }


def default_preconditioners(bvp: str) -> tuple[str, ...]:
    """Preconditioners worth comparing for a BC family."""
    if bvp == NEUMANN:
        return (PRECOND_NONE, PRECOND_PROJECTOR)
    return PRECONDITIONERS


def iteration_study(
    ns: Sequence[int],
    config: Optional[BvpConfig] = None,
    preconditioners: Optional[Sequence[str]] = None,
    cg_options: Optional[CgOptions] = None,
) -> list:
    """Iteration counts of Schur CG per grid size and preconditioner.

    The problem is the BVP described by config (lid-driven box by default);
    rows come back in (n, preconditioner) order and are deterministic, the
    right-hand side being fixed by the boundary data.
    """
    cfg = config or lid_driven_cavity()
    names = (
        tuple(preconditioners)
        if preconditioners
        else default_preconditioners(cfg.bvp)
    )
    for name in names:
        if name not in PRECONDITIONERS:
            raise ValueError(f"unknown preconditioner {name!r}")
    rows = []
    for n in ns:
        plan = plan_for(n, cfg.mode)
        for name in names:
            sol = plan.solve(cfg, cg_options=cg_options, preconditioner=name)
            rows.append(
                StudyRow(
                    n=n,
                    bvp=cfg.bvp,
                    mode=cfg.mode,
                    preconditioner=name,
                    iterations=sol.schur_iters,
                    converged=sol.converged,
                    final_rel_residual=sol.final_rel_residual,
                )
            )
    return rows


STUDY_FIELDS = (
    "n",
    "bvp",
    "mode",
    "preconditioner",
    "iterations",
    "converged",
    "final_rel_residual",
)


def format_study_csv(rows: Sequence[StudyRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(STUDY_FIELDS)
    for row in rows:
        d = row.to_dict()
        writer.writerow([d[k] for k in STUDY_FIELDS])
    return out.getvalue()


def format_study_json(rows: Sequence[StudyRow]) -> str:
    payload = {"rows": [row.to_dict() for row in rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def solution_rows(sol: SaddleSolution):
    """Yield (field, i_x, i_y, x, y, value) for every unknown, u then v then p."""
    grid = sol.grid
    aligned = grid.aligned.coordinates
    shifted = grid.shifted.coordinates
    uf = sol.u_field
    for i_y in range(grid.n):
        for i_x in range(grid.n - 1):
            yield ("u", i_x, i_y, aligned[i_x], shifted[i_y], uf[i_y, i_x])
    vf = sol.v_field
    for i_y in range(grid.n - 1):
        for i_x in range(grid.n):
            yield ("v", i_x, i_y, shifted[i_x], aligned[i_y], vf[i_y, i_x])
    pf = sol.p_field
    for i_y in range(grid.n):
        for i_x in range(grid.n):
            yield ("p", i_x, i_y, shifted[i_x], shifted[i_y], pf[i_y, i_x])


def format_solution_csv(sol: SaddleSolution) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["field", "i_x", "i_y", "x", "y", "value"])
    for row in solution_rows(sol):
        writer.writerow(row)
    return out.getvalue()


def format_solution_json(sol: SaddleSolution) -> str:
    payload = {
        "n": sol.grid.n,
        "bvp": sol.bvp,
        "mode": sol.mode,
        "preconditioner": sol.preconditioner,
        "schur_iters": sol.schur_iters,
        "converged": sol.converged,
        "final_rel_residual": sol.final_rel_residual,
        "coupled_residual": sol.coupled_residual,
        "divergence_norm": sol.divergence_norm,
        "fields": {
            "u": sol.u.tolist(),
            "v": sol.v.tolist(),
            "p": sol.p.tolist(),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
