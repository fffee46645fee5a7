"""Boundary data, saddle solves, preconditioner study, output formatting."""

import json
import sys
import threading

import numpy as np
import pytest

from stokes_schur import schur
from stokes_schur import solver as sv
from stokes_schur.errors import InvalidDataError, InvalidSizeError
from stokes_schur.grid import make_grid
from stokes_schur.linalg import CgOptions
from stokes_schur.operators import BOUNDARY, FULL, build_operator_set

from oracles import saddle_dense_solve


def test_bvp_config_validation():
    with pytest.raises(ValueError):
        sv.BvpConfig(bvp="robin")
    with pytest.raises(ValueError):
        sv.BvpConfig(mode="partial")
    cfg = sv.lid_driven_cavity()
    assert cfg.bvp == sv.DIRICHLET
    assert cfg.mode == BOUNDARY
    assert cfg.u_top == 1.0
    assert cfg.u_bottom is None and cfg.v_left is None and cfg.v_right is None


def test_rhs_cavity_n4_exact_values():
    g = make_grid(4)
    f = sv.build_rhs(g, sv.lid_driven_cavity())
    nz = np.flatnonzero(f)
    # unit lid data lands on the three top-slab u nodes, scaled by 2/h^2
    np.testing.assert_array_equal(nz, [9, 10, 11])
    np.testing.assert_array_equal(f[nz], [32.0, 32.0, 32.0])


def test_rhs_neumann_scale():
    g = make_grid(4)
    f = sv.build_rhs(g, sv.BvpConfig(bvp=sv.NEUMANN, u_top=1.0))
    nz = np.flatnonzero(f)
    np.testing.assert_array_equal(nz, [9, 10, 11])
    np.testing.assert_array_equal(f[nz], [4.0, 4.0, 4.0])


def test_rhs_zero_without_data():
    g = make_grid(4)
    np.testing.assert_array_equal(
        sv.build_rhs(g, sv.BvpConfig()), np.zeros(g.dim_velocity)
    )


def test_rhs_opposed_walls_antisymmetric():
    g = make_grid(4)
    f = sv.build_rhs(g, sv.BvpConfig(u_top=1.0, u_bottom=-1.0))
    assert np.count_nonzero(f) == 6
    fu = f[: g.dim_u].reshape(g.shape_u)
    np.testing.assert_array_equal(fu[::-1, :], -fu)


def test_rhs_v_walls_and_callable_data():
    g = make_grid(4)
    f = sv.build_rhs(g, sv.BvpConfig(v_left=lambda y: y, v_right=2.0))
    fv = f[g.dim_u :].reshape(g.shape_v)
    scale = 2.0 / (g.h * g.h)
    np.testing.assert_allclose(fv[:, 0], scale * g.aligned.coordinates)
    np.testing.assert_allclose(fv[:, -1], scale * 2.0)
    assert np.all(fv[:, 1:-1] == 0.0)
    assert np.all(f[: g.dim_u] == 0.0)


def test_rhs_array_data():
    g = make_grid(4)
    vals = np.array([1.0, 2.0, 3.0])
    f = sv.build_rhs(g, sv.BvpConfig(u_top=vals))
    fu = f[: g.dim_u].reshape(g.shape_u)
    np.testing.assert_allclose(fu[-1, :], 32.0 * vals)
    with pytest.raises(InvalidSizeError):
        sv.build_rhs(g, sv.BvpConfig(u_top=np.ones(5)))


def test_rhs_placement_ignores_mode():
    g = make_grid(4)
    f_b = sv.build_rhs(g, sv.lid_driven_cavity(mode=BOUNDARY))
    f_f = sv.build_rhs(g, sv.lid_driven_cavity(mode=FULL))
    np.testing.assert_array_equal(f_b, f_f)


def test_neumann_zero_forcing_gives_zero_solution():
    g = make_grid(4)
    sol = sv.solve_stokes(g, sv.BvpConfig(bvp=sv.NEUMANN))
    assert sol.converged
    assert sol.schur_iters == 0
    np.testing.assert_array_equal(sol.velocity, np.zeros(g.dim_velocity))
    np.testing.assert_array_equal(sol.p, np.zeros(g.dim_p))


@pytest.mark.parametrize("n", [4, 8])
def test_cavity_dirichlet_solve(n):
    g = make_grid(n)
    sol = sv.solve_stokes(g, sv.lid_driven_cavity())
    assert sol.converged
    assert sol.preconditioner == sv.PRECOND_RANK_R
    assert sol.schur_iters <= 3
    assert sol.coupled_residual <= 1e-8
    vel_norm = np.linalg.norm(sol.velocity)
    assert sol.divergence_norm <= 1e-8 * (1.0 / g.h) * vel_norm
    assert abs(sol.p.mean()) <= 1e-12


@pytest.mark.parametrize("bvp", [sv.DIRICHLET, sv.NEUMANN])
def test_cavity_matches_dense_saddle_oracle(bvp):
    g = make_grid(4)
    ops = build_operator_set(g)
    cfg = sv.lid_driven_cavity(bvp=bvp)
    sol = sv.solve_stokes_with_ops(ops, cfg)
    vel_ref, p_ref = saddle_dense_solve(ops, sv.build_rhs(g, cfg), bvp)
    scale = np.linalg.norm(np.concatenate([vel_ref, p_ref]))
    assert np.linalg.norm(sol.velocity - vel_ref) <= 1e-7 * scale
    assert np.linalg.norm(sol.p - p_ref) <= 1e-7 * scale


def test_cavity_neumann_iteration_budget():
    g = make_grid(8)
    sol = sv.solve_stokes(g, sv.lid_driven_cavity(bvp=sv.NEUMANN))
    assert sol.converged
    assert sol.preconditioner == sv.PRECOND_PROJECTOR
    assert sol.schur_iters <= 2


def test_cavity_reflection_symmetry():
    # the lid problem is symmetric under x -> 1 - x: u even, v and p odd
    g = make_grid(4)
    sol = sv.solve_stokes(g, sv.lid_driven_cavity())
    scale = np.linalg.norm(sol.velocity)
    assert np.linalg.norm(sol.u_field[:, ::-1] - sol.u_field) <= 1e-7 * scale
    assert np.linalg.norm(sol.v_field[:, ::-1] + sol.v_field) <= 1e-7 * scale
    assert np.linalg.norm(sol.p_field[:, ::-1] + sol.p_field) <= 1e-7 * np.linalg.norm(sol.p)


def test_pressure_gauge_shift_is_invisible_to_momentum():
    g = make_grid(4)
    ops = build_operator_set(g)
    sol = sv.solve_stokes_with_ops(ops, sv.lid_driven_cavity())
    shifted = ops.B.T @ (sol.p + 5.0)
    assert np.max(np.abs(shifted - ops.B.T @ sol.p)) <= 1e-12


def test_explicit_rhs_matches_config_route():
    g = make_grid(4)
    cfg = sv.lid_driven_cavity()
    a = sv.solve_stokes(g, cfg)
    b = sv.solve_stokes(g, cfg, f_h=sv.build_rhs(g, cfg))
    np.testing.assert_array_equal(a.velocity, b.velocity)
    np.testing.assert_array_equal(a.p, b.p)


def test_rhs_shape_is_checked():
    g = make_grid(4)
    with pytest.raises(InvalidSizeError):
        sv.solve_stokes(g, sv.lid_driven_cavity(), f_h=np.zeros(7))


def test_mode_mismatch_is_rejected():
    g = make_grid(4)
    ops = build_operator_set(g, BOUNDARY)
    with pytest.raises(ValueError):
        sv.solve_stokes_with_ops(ops, sv.lid_driven_cavity(mode=FULL))


def test_solution_residual_fields_are_consistent():
    g = make_grid(4)
    ops = build_operator_set(g)
    cfg = sv.lid_driven_cavity()
    sol = sv.solve_stokes_with_ops(ops, cfg)
    f = sv.build_rhs(g, cfg)
    res_mom = np.linalg.norm(ops.A_D @ sol.velocity + ops.B.T @ sol.p - f)
    res_div = np.linalg.norm(ops.B @ sol.velocity)
    assert sol.divergence_norm == pytest.approx(res_div, abs=1e-15)
    expected = max(res_mom, res_div) / np.linalg.norm(f)
    assert sol.coupled_residual == pytest.approx(expected, rel=1e-12)


def test_non_convergence_is_reported_not_raised():
    g = make_grid(8)
    sol = sv.solve_stokes(
        g,
        sv.lid_driven_cavity(),
        cg_options=CgOptions(rel_tol=1e-30, max_iter=1),
        preconditioner=sv.PRECOND_NONE,
    )
    assert not sol.converged
    assert sol.schur_iters == 1
    assert sol.final_rel_residual > 1e-30


def test_make_preconditioner_names():
    g = make_grid(4)
    ops = build_operator_set(g)
    assert sv.make_preconditioner(sv.PRECOND_NONE, ops) is None
    for name in (sv.PRECOND_PROJECTOR, sv.PRECOND_RANK_R, sv.PRECOND_LIMITING):
        apply = sv.make_preconditioner(name, ops)
        out = apply(np.ones(g.dim_p))
        assert out.shape == (g.dim_p,)
    with pytest.raises(ValueError):
        sv.make_preconditioner("jacobi", ops)


def test_exact_inverse_preconditioner_converges_in_one_iteration():
    for mode in (BOUNDARY, FULL):
        g = make_grid(4)
        cfg = sv.lid_driven_cavity(mode=mode)
        sol = sv.solve_stokes(g, cfg, preconditioner=sv.PRECOND_RANK_R)
        assert sol.converged
        assert sol.schur_iters == 1


def test_limiting_preconditioner_is_exact_in_full_mode():
    g = make_grid(4)
    cfg = sv.lid_driven_cavity(mode=FULL)
    sol = sv.solve_stokes(g, cfg, preconditioner=sv.PRECOND_LIMITING)
    assert sol.converged
    assert sol.schur_iters == 1


def test_limiting_preconditioner_still_converges_in_boundary_mode():
    # only an approximate inverse there; it must converge, just not in one step
    g = make_grid(4)
    sol = sv.solve_stokes(
        g, sv.lid_driven_cavity(), preconditioner=sv.PRECOND_LIMITING
    )
    assert sol.converged
    assert sol.coupled_residual <= 1e-8


def test_default_preconditioners_by_bvp():
    assert sv.default_preconditioners(sv.NEUMANN) == (
        sv.PRECOND_NONE,
        sv.PRECOND_PROJECTOR,
    )
    assert sv.default_preconditioners(sv.DIRICHLET) == sv.PRECONDITIONERS


def test_iteration_study_shape_and_order():
    rows = sv.iteration_study([2, 4])
    names = sv.PRECONDITIONERS
    assert len(rows) == 2 * len(names)
    assert [r.n for r in rows] == [2] * 4 + [4] * 4
    assert [r.preconditioner for r in rows[:4]] == list(names)
    assert all(r.converged for r in rows)
    assert all(r.bvp == sv.DIRICHLET and r.mode == BOUNDARY for r in rows)
    by_name = {(r.n, r.preconditioner): r.iterations for r in rows}
    # the exact rank-r inverse takes one step at every size
    assert by_name[(2, sv.PRECOND_RANK_R)] == 1
    assert by_name[(4, sv.PRECOND_RANK_R)] == 1
    # unpreconditioned counts grow with n
    assert by_name[(2, sv.PRECOND_NONE)] == 2
    assert by_name[(4, sv.PRECOND_NONE)] == 6
    assert by_name[(4, sv.PRECOND_NONE)] > by_name[(4, sv.PRECOND_RANK_R)]


def test_iteration_study_rejects_unknown_preconditioner():
    with pytest.raises(ValueError):
        sv.iteration_study([2], preconditioners=["jacobi"])


def test_iteration_study_neumann_defaults():
    rows = sv.iteration_study([4], config=sv.lid_driven_cavity(bvp=sv.NEUMANN))
    assert [r.preconditioner for r in rows] == [
        sv.PRECOND_NONE,
        sv.PRECOND_PROJECTOR,
    ]
    assert all(r.iterations <= 2 for r in rows)


def test_format_study_csv():
    rows = sv.iteration_study([2], preconditioners=[sv.PRECOND_RANK_R])
    text = sv.format_study_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,bvp,mode,preconditioner,iterations,converged,final_rel_residual"
    assert len(lines) == 2
    assert lines[1].startswith("2,dirichlet,boundary,dirichlet-rank-r,1,True,")
    assert text.endswith("\n")


def test_format_study_json():
    rows = sv.iteration_study([2], preconditioners=[sv.PRECOND_NONE])
    payload = json.loads(sv.format_study_json(rows))
    assert payload["rows"] == [rows[0].to_dict()]


def test_solution_rows_cover_every_unknown():
    g = make_grid(4)
    sol = sv.solve_stokes(g, sv.lid_driven_cavity())
    rows = list(sv.solution_rows(sol))
    assert len(rows) == g.dim_u + g.dim_v + g.dim_p == 40
    assert [r[0] for r in rows] == ["u"] * 12 + ["v"] * 12 + ["p"] * 16
    # u nodes sit on aligned x, shifted y; p on cell centers
    field, i_x, i_y, x, y, value = rows[0]
    assert (field, i_x, i_y) == ("u", 0, 0)
    assert (x, y) == (0.25, 0.125)
    assert value == sol.u_field[0, 0]
    field, i_x, i_y, x, y, value = rows[-1]
    assert (field, i_x, i_y) == ("p", 3, 3)
    assert (x, y) == (0.875, 0.875)
    assert value == sol.p_field[3, 3]


def test_format_solution_csv():
    g = make_grid(4)
    sol = sv.solve_stokes(g, sv.lid_driven_cavity())
    text = sv.format_solution_csv(sol)
    lines = text.splitlines()
    assert lines[0] == "field,i_x,i_y,x,y,value"
    assert len(lines) == 1 + 40
    assert text.endswith("\n")


def test_format_solution_json():
    g = make_grid(4)
    sol = sv.solve_stokes(g, sv.lid_driven_cavity())
    payload = json.loads(sv.format_solution_json(sol))
    assert payload["n"] == 4
    assert payload["bvp"] == "dirichlet"
    assert len(payload["fields"]["u"]) == 12
    assert len(payload["fields"]["v"]) == 12
    assert len(payload["fields"]["p"]) == 16
    np.testing.assert_array_equal(payload["fields"]["p"], sol.p)


def test_field_views_match_flat_vectors():
    g = make_grid(4)
    sol = sv.solve_stokes(g, sv.lid_driven_cavity())
    np.testing.assert_array_equal(sol.u_field.ravel(), sol.u)
    np.testing.assert_array_equal(sol.v_field.ravel(), sol.v)
    np.testing.assert_array_equal(sol.p_field.ravel(), sol.p)
    np.testing.assert_array_equal(
        sol.velocity, np.concatenate([sol.u, sol.v])
    )


# --- solve plans and the plan cache -------------------------------------


@pytest.fixture
def fresh_cache(monkeypatch):
    """Swap the process-wide plan cache for an empty one for one test."""
    cache = sv.PlanCache()
    monkeypatch.setattr(sv, "_PLAN_CACHE", cache)
    return cache


def _walls(n):
    s = np.arange(1, n) / n
    return {
        "u_top": 1.0,
        "u_bottom": np.sin(np.pi * s),
        "v_left": lambda y: y * (1 - y),
    }


def _cold_solve(n, config, preconditioner="auto", f_h=None):
    # a plan built here is never seen by any cache
    plan = sv.StokesPlan(build_operator_set(make_grid(n), config.mode))
    return plan.solve(config, f_h, CgOptions(rel_tol=1e-10), preconditioner)


def _assert_same_solution(a, b):
    for name in ("u", "v", "p"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.schur_iters == b.schur_iters
    assert a.history == b.history


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("mode", [BOUNDARY, FULL])
def test_plan_cache_hit_is_bitwise_a_cold_solve(fresh_cache, n, mode):
    # both BVP families and every preconditioner share one cached plan
    grid = make_grid(n)
    opts = CgOptions(rel_tol=1e-10)
    for bvp in sv.BVPS:
        config = sv.BvpConfig(bvp=bvp, mode=mode, **_walls(n))
        for name in sv.PRECONDITIONERS:
            cold = _cold_solve(n, config, name)
            for _ in range(3):
                sol = sv.solve_stokes(
                    grid, config, cg_options=opts, preconditioner=name
                )
                _assert_same_solution(sol, cold)
            if bvp == sv.DIRICHLET and name == sv.PRECOND_RANK_R:
                assert sol.schur_iters == 1
    info = sv.plan_cache_info()
    # the plan is admitted on the second request and serves every later one
    assert (info["misses"], info["admissions"]) == (2, 1)
    assert info["hits"] == 3 * len(sv.BVPS) * len(sv.PRECONDITIONERS) - 2


def test_non_finite_wall_data_is_a_typed_error():
    g = make_grid(8)
    with pytest.raises(InvalidDataError, match="u_top"):
        sv.build_rhs(g, sv.BvpConfig(u_top=float("nan")))
    with pytest.raises(InvalidDataError):
        sv.solve_stokes(g, sv.BvpConfig(u_top=float("nan")))
    with pytest.raises(InvalidDataError, match="v_right"):
        sv.solve_stokes(g, sv.BvpConfig(bvp=sv.NEUMANN, v_right=float("inf")))
    with pytest.raises(InvalidDataError):
        sv.solve_stokes(g, sv.BvpConfig(v_left=lambda y: np.full_like(y, np.inf)))


def test_non_finite_rhs_is_a_typed_error():
    g = make_grid(8)
    with pytest.raises(InvalidDataError):
        sv.solve_stokes(g, sv.lid_driven_cavity(), f_h=np.full(g.dim_velocity, np.nan))
    ops = build_operator_set(g)
    f = sv.build_rhs(g, sv.lid_driven_cavity())
    f[3] = np.inf
    with pytest.raises(InvalidDataError):
        sv.solve_stokes_with_ops(ops, sv.lid_driven_cavity(), f_h=f)


def test_raising_request_leaves_no_half_built_plan(fresh_cache):
    n = 6
    grid = make_grid(n)
    good = sv.lid_driven_cavity()
    bad = sv.BvpConfig(u_top=float("nan"))
    nan_rhs = np.full(grid.dim_velocity, np.nan)
    cold = _cold_solve(n, good)
    opts = CgOptions(rel_tol=1e-10)
    # the raising request is the second sighting, so it is the one admitted
    sv.solve_stokes(grid, good, cg_options=opts)
    with pytest.raises(InvalidDataError):
        sv.solve_stokes(grid, good, f_h=nan_rhs, cg_options=opts)
    assert sv.plan_cache_info()["admissions"] == 1
    with pytest.raises(InvalidDataError):
        sv.solve_stokes(grid, bad, cg_options=opts)
    _assert_same_solution(sv.solve_stokes(grid, good, cg_options=opts), cold)
    assert sv.plan_cache_info()["hits"] == 2


def test_grid_coordinates_are_read_only():
    g = make_grid(4)
    for coords in (g.aligned.coordinates, g.shifted.coordinates):
        with pytest.raises(ValueError):
            coords[0] = 5.0


def test_cached_plan_arrays_are_read_only(fresh_cache):
    grid = make_grid(4)
    for _ in range(2):
        sol = sv.solve_stokes(grid, sv.lid_driven_cavity())
    plan = sv.plan_for(4, BOUNDARY)
    assert sv.plan_cache_info()["hits"] == 1
    assert sol.grid is plan.grid
    rep = plan.preconditioner(sv.PRECOND_RANK_R)
    arrays = (
        plan.ops.B.data,
        plan.ops.A_D.indices,
        rep.factor,
        rep.kernel,
        rep.kernel_factor[0],
    )
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(ValueError):
        sol.grid.aligned.coordinates[0] = 1.0


def _export_like_keys(count):
    # cavity-export-large's pattern: sizes in a spread order, Neumann
    # requests in full mode and Dirichlet in boundary mode, no key repeating
    sizes = [4 + (7 * i) % count for i in range(count)]
    return [(n, FULL if i % 2 == 0 else BOUNDARY) for i, n in enumerate(sizes)]


def test_distinct_keys_are_never_admitted(fresh_cache):
    keys = _export_like_keys(24)
    assert len(set(keys)) == len(keys)
    for n, mode in keys:
        bvp = sv.NEUMANN if mode == FULL else sv.DIRICHLET
        sv.solve_stokes(make_grid(n), sv.lid_driven_cavity(bvp=bvp, mode=mode))
    info = sv.plan_cache_info()
    assert info["resident_bytes"] == 0
    assert (info["misses"], info["admissions"], info["hits"]) == (24, 0, 0)


def test_key_seen_twice_is_admitted_then_hits(fresh_cache):
    grid = make_grid(5)
    for _ in range(4):
        sv.solve_stokes(grid, sv.lid_driven_cavity())
    info = sv.plan_cache_info()
    assert (info["misses"], info["admissions"], info["hits"]) == (2, 1, 2)
    assert info["plans"] == 1 and info["resident_bytes"] > 0
    sv.plan_cache_clear()
    assert sv.plan_cache_info() == dict.fromkeys(info, 0)


def _built_plan_bytes(n):
    plan = sv.StokesPlan(build_operator_set(make_grid(n)))
    plan.solve(sv.lid_driven_cavity())
    return plan.nbytes


def test_resident_bytes_never_exceed_the_bound(monkeypatch):
    sizes = (4, 5, 6, 7)
    bound = _built_plan_bytes(6) + _built_plan_bytes(7)  # room for two plans
    cache = sv.PlanCache(max_bytes=bound)
    monkeypatch.setattr(sv, "_PLAN_CACHE", cache)
    for i in range(5 * len(sizes)):
        n = sizes[i % len(sizes)]
        sv.solve_stokes(make_grid(n), sv.lid_driven_cavity())
        assert cache.info()["resident_bytes"] <= bound
    info = cache.info()
    assert info["admissions"] > 0 and info["evictions"] > 0


def test_plan_larger_than_the_bound_is_never_admitted(monkeypatch):
    ops_bytes = build_operator_set(make_grid(6)).nbytes
    cache = sv.PlanCache(max_bytes=ops_bytes - 1)
    monkeypatch.setattr(sv, "_PLAN_CACHE", cache)
    for _ in range(3):
        sv.solve_stokes(make_grid(6), sv.lid_driven_cavity())
    info = cache.info()
    assert (info["admissions"], info["hits"], info["resident_bytes"]) == (0, 0, 0)


def test_plan_that_outgrows_the_bound_is_evicted(monkeypatch):
    # admitted with its operators alone, then pushed out by its own LU
    ops_bytes = build_operator_set(make_grid(6)).nbytes
    cache = sv.PlanCache(max_bytes=ops_bytes)
    monkeypatch.setattr(sv, "_PLAN_CACHE", cache)
    for _ in range(2):
        sv.solve_stokes(make_grid(6), sv.lid_driven_cavity())
    info = cache.info()
    assert (info["admissions"], info["evictions"], info["resident_bytes"]) == (1, 1, 0)


def test_cache_bookkeeping_holds_under_threads(fresh_cache):
    sizes = (4, 5, 6)
    cold = {n: _cold_solve(n, sv.lid_driven_cavity()) for n in sizes}
    opts = CgOptions(rel_tol=1e-10)
    errors = []

    def client(k):
        try:
            for i in range(12):
                n = sizes[(i + k) % len(sizes)]
                sol = sv.solve_stokes(
                    make_grid(n), sv.lid_driven_cavity(), cg_options=opts
                )
                _assert_same_solution(sol, cold[n])
        except Exception as exc:  # reported below; a thread cannot fail the test
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    info = sv.plan_cache_info()
    assert info["hits"] + info["misses"] == 4 * 12
    assert info["plans"] == len(sizes)
    assert info["resident_bytes"] <= sv.PLAN_CACHE_BYTES


def test_cold_builds_and_hits_reach_the_traced_layers(fresh_cache, monkeypatch):
    # the benchmark's tracer rebinds these module attributes; a cold build
    # must go through each of them and a cache hit through none
    calls = {}

    def counting(owner, attr):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr, owner.__name__] = calls.get((attr, owner.__name__), 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for owner, attr in (
        (sv, "splu"),
        (sv, "build_operator_set"),
        (sv, "build_schur_dirichlet_inverse"),
        (schur, "splu"),
        (sv, "solve_stokes_with_ops"),
    ):
        counting(owner, attr)
    grid = make_grid(8)
    config = sv.lid_driven_cavity()
    builds = {
        ("splu", sv.__name__): 1,
        ("build_operator_set", sv.__name__): 1,
        ("build_schur_dirichlet_inverse", sv.__name__): 1,
        ("splu", schur.__name__): 1,
        ("solve_stokes_with_ops", sv.__name__): 1,
    }
    for _ in range(2):  # the cold miss, then the admitting miss
        calls.clear()
        sol = sv.solve_stokes(grid, config, preconditioner=sv.PRECOND_RANK_R)
        assert calls == builds
    calls.clear()
    sv.solve_stokes(grid, config, preconditioner=sv.PRECOND_RANK_R)
    assert calls == {("solve_stokes_with_ops", sv.__name__): 1}
    assert sol.schur_iters == 1
