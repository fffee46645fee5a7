"""End-to-end CLI runs through a fresh interpreter per invocation."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from stokes_schur import cli
from stokes_schur.errors import InvalidDataError
from stokes_schur.grid import make_grid
from stokes_schur.operators import build_operator_set
from stokes_schur.schur import build_schur_neumann

REPO_ROOT = Path(__file__).resolve().parent.parent

# The fresh interpreters import the package from this checkout, as the test
# process does through `pythonpath` in pyproject.toml.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stokes_schur", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


def test_check_default_passes_and_reports_json():
    proc = run_cli("check")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["all_passed"] is True
    assert payload["ns"] == [2, 3, 4, 8]
    assert payload["modes"] == ["boundary"]
    assert payload["seed"] == 0
    assert len(payload["checks"]) == 44
    assert all(row["passed"] for row in payload["checks"])


def test_check_csv_format():
    proc = run_cli("check", "--n", "2", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "name,statement,n,mode,measured_error,tolerance,passed,error,runtime_ms"
    assert len(lines) == 12


def test_check_stdout_is_byte_identical():
    a = run_cli("check", "--n", "2,4", "--seed", "5")
    b = run_cli("check", "--n", "2,4", "--seed", "5")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_check_out_files_are_byte_identical(tmp_path):
    f1 = tmp_path / "r1.json"
    f2 = tmp_path / "r2.json"
    assert run_cli("check", "--n", "2,4", "--out", str(f1)).returncode == 0
    assert run_cli("check", "--n", "2,4", "--out", str(f2)).returncode == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_check_oversize_grid_exits_nonzero_with_report():
    proc = run_cli("check", "--n", "64")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["all_passed"] is False
    failed = [row for row in payload["checks"] if not row["passed"]]
    assert len(failed) == 7
    assert all("DenseCapError" in row["error"] for row in failed)


def test_check_full_mode_flag():
    proc = run_cli("check", "--n", "2,4", "--mode", "full")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["modes"] == ["full"]
    assert all(row["mode"] == "full" for row in payload["checks"])


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--n", "abc"),
        ("check", "--n", ""),
        ("check", "--tol-scale", "0"),
        ("check", "--tol-scale", "-2"),
        ("check", "--seed", "-1"),
        ("check", "--seed", str(2**64)),
        ("check", "--mode", "partial"),
        ("check", "--format", "yaml"),
        ("check", "--frobnicate",),
        ("frobnicate",),
        (),
    ],
)
def test_usage_errors_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr != ""


def test_export_sparse_operator(tmp_path):
    out = tmp_path / "an.mtx"
    proc = run_cli("export", "--n", "4", "--op", "A_N", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header = out.read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix coordinate real general"
    loaded = scipy.io.mmread(str(out)).tocsr()
    ops = build_operator_set(make_grid(4))
    assert (loaded - ops.A_N).nnz == 0


def test_export_dense_schur_operator(tmp_path):
    out = tmp_path / "sn.mtx"
    proc = run_cli("export", "--n", "4", "--op", "S_N", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header = out.read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix array real general"
    loaded = np.asarray(scipy.io.mmread(str(out)))
    expected = build_schur_neumann(make_grid(4)).materialize()
    np.testing.assert_allclose(loaded, expected, atol=1e-12)


def test_export_requires_op_and_single_n(tmp_path):
    out = tmp_path / "x.mtx"
    assert run_cli("export", "--n", "4", "--out", str(out)).returncode == 2
    proc = run_cli("export", "--n", "2,4", "--op", "B", "--out", str(out))
    assert proc.returncode == 2
    assert run_cli("export", "--n", "4", "--op", "Q", "--out", str(out)).returncode == 2


def test_export_dense_op_above_cap_exits_1(tmp_path):
    out = tmp_path / "sd.mtx"
    proc = run_cli("export", "--n", "64", "--op", "S_D", "--out", str(out))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_export_sparse_op_above_cap_still_works(tmp_path):
    out = tmp_path / "b.mtx"
    proc = run_cli("export", "--n", "64", "--op", "B", "--out", str(out))
    assert proc.returncode == 0
    loaded = scipy.io.mmread(str(out))
    assert loaded.shape == (64 * 64, 2 * 64 * 63)


def test_solve_cavity_csv(tmp_path):
    out = tmp_path / "sol.csv"
    proc = run_cli(
        "solve", "--n", "8", "--bvp", "dirichlet", "--cavity", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    g = make_grid(8)
    assert lines[0] == "field,i_x,i_y,x,y,value"
    assert len(lines) == 1 + g.dim_u + g.dim_v + g.dim_p
    assert len(lines) == 1 + 176


def test_solve_cavity_json():
    proc = run_cli("solve", "--n", "4", "--cavity", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n"] == 4
    assert payload["converged"] is True
    assert payload["coupled_residual"] <= 1e-8
    assert len(payload["fields"]["u"]) == 12
    assert len(payload["fields"]["v"]) == 12
    assert len(payload["fields"]["p"]) == 16


def test_solve_at_rest_is_identically_zero():
    proc = run_cli("solve", "--n", "4", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    for name in ("u", "v", "p"):
        assert payload["fields"][name] == [0.0] * len(payload["fields"][name])


def test_solve_rejects_multiple_sizes():
    assert run_cli("solve", "--n", "4,8", "--cavity").returncode == 2


def test_non_finite_data_exits_2(monkeypatch, capsys):
    # no flag carries wall data yet, so the library error is injected
    def non_finite(grid, config):
        raise InvalidDataError("u_top data holds NaN or infinite values")

    monkeypatch.setattr(cli, "solve_stokes", non_finite)
    assert cli.main(["solve", "--n", "4"]) == 2
    assert capsys.readouterr().err == "error: u_top data holds NaN or infinite values\n"


def test_solve_neumann_cavity():
    proc = run_cli(
        "solve", "--n", "4", "--bvp", "neumann", "--cavity", "--format", "json"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["bvp"] == "neumann"
    assert payload["schur_iters"] <= 2


def test_study_csv():
    proc = run_cli("study", "--n", "2,4")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,bvp,mode,preconditioner,iterations,converged,final_rel_residual"
    assert len(lines) == 1 + 2 * 4


def test_study_json_neumann():
    proc = run_cli("study", "--n", "4", "--bvp", "neumann", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert [row["preconditioner"] for row in payload["rows"]] == [
        "none",
        "neumann-projector",
    ]
    assert all(row["converged"] for row in payload["rows"])


def _install_checkout(home):
    """Install this checkout under `home` with setuptools' `install` command,
    the route pip takes for a source tree when it cannot build a wheel.

    Returns the script directory and the environment that makes the
    installed package importable to a fresh interpreter.
    """
    # 61 is the first setuptools that reads [project] from pyproject.toml.
    pytest.importorskip("setuptools", minversion="61")
    checkout = home / "checkout"
    shutil.copytree(
        REPO_ROOT / "src",
        checkout / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    shutil.copy(REPO_ROOT / "pyproject.toml", checkout)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from setuptools import setup; setup()",
            "install",
            "--home",
            str(home),
            "--single-version-externally-managed",
            "--record",
            str(home / "installed-files.txt"),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    env = {**os.environ, "PYTHONPATH": str(home / "lib" / "python")}
    return home / "bin", env


def test_console_script_is_installed(tmp_path):
    try:
        importlib.metadata.distribution("stokes-schur")
    except importlib.metadata.PackageNotFoundError:
        bin_dir, env = _install_checkout(tmp_path)
        search = str(bin_dir)
    else:
        env = dict(os.environ)
        search = os.pathsep.join(
            [sysconfig.get_path("scripts"), env.get("PATH", "")]
        )
    exe = shutil.which("stokes-schur", path=search)
    assert exe is not None
    proc = subprocess.run(
        [exe, "check", "--n", "2", "--format", "csv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("name,")
