"""The benchmark's own checks: oracle, failure accounting, exact counts, contract.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import stokes_schur
from stokes_schur import checks, solver

from conftest import ROOT
from perfbench import calibrate, oracle, tracing, workloads
from perfbench.worker import Client

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "linalg.cg_iters",
    "solver.lu_fill_nnz",
    "schur.coupling_bytes",
    "solver.csv_bytes",
    "checks.rows",
)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def client_for(name, seed=3):
    return Client(workloads.WORKLOADS[name](seed, tracing.NullTracer()))


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("bvp", ["neumann", "dirichlet"])
def test_oracle_operators_match_the_library(n, bvp):
    ops = stokes_schur.build_operator_set(stokes_schur.make_grid(n), "boundary")
    a, b = oracle.saddle_operators(n, bvp)
    want_a = ops.A_D if bvp == "dirichlet" else ops.A_N
    assert abs(a - want_a).max() < 1e-9 * n * n
    assert abs(b - ops.B).max() == 0.0


@pytest.mark.parametrize("bvp", ["neumann", "dirichlet"])
def test_oracle_rhs_matches_the_library(bvp):
    walls = workloads.wall_data(np.random.default_rng(0), 6)
    config = stokes_schur.BvpConfig(bvp=bvp, **walls)
    want = stokes_schur.build_rhs(stokes_schur.make_grid(6), config)
    np.testing.assert_allclose(oracle.momentum_rhs(6, bvp, walls), want, rtol=1e-14)


def test_spread_order_is_a_permutation_with_even_prefixes():
    values = np.arange(32, 105)
    order = workloads.spread_order(values, 0.37)
    assert sorted(order) == list(values)
    for k in (7, 20, 50):
        assert abs(order[:k].mean() - values.mean()) < 0.1 * np.ptp(values)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_oracle(name):
    client = client_for(name)
    for i in range(3):
        assert client.attempt(i)[1]
    assert (client.attempted, client.failed) == (3, 0)


def test_corrupted_solution_counts_as_failed(monkeypatch):
    real = solver.solve_stokes

    def corrupted(*args, **kwargs):
        sol = real(*args, **kwargs)
        return dataclasses.replace(sol, p=sol.p + 1e-3 * np.linspace(-1, 1, sol.p.size))

    client = client_for("cavity-rankr")
    monkeypatch.setattr(solver, "solve_stokes", corrupted)
    assert client.attempt(0)[1] is False
    assert client.failed == 1


def test_extra_cg_iterations_count_as_failed(monkeypatch):
    real = solver.solve_stokes

    def unpreconditioned(grid, config, preconditioner="auto"):
        return real(grid, config, preconditioner="neumann-projector")

    client = client_for("cavity-rankr")
    monkeypatch.setattr(solver, "solve_stokes", unpreconditioned)
    assert client.attempt(1)[1] is False
    assert client.failed == 1


def test_corrupted_csv_counts_as_failed(monkeypatch):
    real = solver.format_solution_csv

    def corrupted(sol):
        head, first, rest = real(sol).split("\n", 2)
        return "\n".join([head, first.rsplit(",", 1)[0] + ",0.5", rest])

    client = client_for("cavity-export-large")
    monkeypatch.setattr(solver, "format_solution_csv", corrupted)
    assert client.attempt(0)[1] is False
    assert client.failed == 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda row: dataclasses.replace(row, passed=False),
        lambda row: dataclasses.replace(row, measured_error=10 * row.tolerance + 1.0),
    ],
)
def test_corrupted_check_row_counts_as_failed(monkeypatch, corrupt):
    real = checks.checks_for

    def corrupted(*args, **kwargs):
        rows = real(*args, **kwargs)
        return rows[:4] + [corrupt(rows[4])] + rows[5:]

    client = client_for("verify-suite")
    monkeypatch.setattr(checks, "checks_for", corrupted)
    assert client.attempt(0)[1] is False
    assert client.failed == 1


def test_raising_request_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise stokes_schur.FactorizationError("injected")

    client = client_for("cavity-export-large")
    monkeypatch.setattr(solver, "solve_stokes", broken)
    assert client.attempt(0)[1] is False
    assert client.failed == 1


def test_normalise_cancels_host_speed_but_not_program_speed():
    times = [10.0, 40.0, 25.0] * 6
    typical = [calibrate.NOMINAL_MS] * len(times)
    assert calibrate.normalise(times, typical) == pytest.approx(times)
    # the host at half speed: requests and reference both take twice as long
    slow_host = calibrate.normalise([2 * t for t in times], [2 * r for r in typical])
    assert slow_host == pytest.approx(times)
    # a program twice as slow on a host at typical speed reads twice as slow
    assert calibrate.normalise([2 * t for t in times], typical) == pytest.approx(
        [2 * t for t in times]
    )


def test_reference_task_does_not_use_the_library():
    source = (ROOT / "perfbench" / "calibrate.py").read_text()
    code = source.split("from __future__ import annotations", 1)[1]
    assert "stokes_schur" not in code
    assert calibrate.Reference().run() > 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, inner1, inner2 = tracer.spans
    totals = tracer.self_times_ms()
    child_ms = sum(1000 * (s["end"] - s["start"]) for s in (inner1, inner2))
    assert totals["inner"][1] == 2
    assert totals["outer"][0] == pytest.approx(
        1000 * (outer["end"] - outer["start"]) - child_ms
    )
    assert inner1["parent"] == inner2["parent"] == outer["id"]


def test_instrument_restores_the_library():
    before = (solver.splu, solver.cg_solve, stokes_schur.schur.SchurRep.materialize)
    with tracing.instrument(tracing.Tracer()):
        assert solver.splu is not before[0]
    assert (solver.splu, solver.cg_solve, stokes_schur.schur.SchurRep.materialize) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    results = []
    for _ in range(2):
        proc = run_bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in results]
    assert counts[0] == counts[1]
    assert all(r["correct"] and r["failed"] == 0 for r in results)
    assert counts[0]["linalg.cg_iters" if name != "verify-suite" else "checks.rows"] > 0


def test_end_to_end_result_follows_the_contract():
    proc = run_bench("--workload", "cavity-rankr", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_frac" in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = run_bench("--workload", "cavity-rankr", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spec_names_units_and_bounds():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
