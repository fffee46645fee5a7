"""In-memory spans recorded from the benchmark's side of each layer boundary.

Nothing inside the library is edited.  For a traced run, `instrument`
rebinds the module attributes through which callers reach each layer (for
example `stokes_schur.solver.splu`, the name `solve_stokes_with_ops` calls)
to wrappers that open a span, and restores them afterwards.  A span records
its name, start, end, parent span and request id; a layer's self time is its
duration minus the time covered by its child spans.  Counts are recorded at
the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict


class NullTracer:
    """Tracer used by untraced runs: every span and count is a no-op."""

    request = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


class Tracer:
    """Keeps every span in memory until `write` is called at the end of a run."""

    def __init__(self) -> None:
        self.request = None
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += int(value)

    def wrap(self, name: str, fn, count=None):
        """fn inside a span; count(result) adds to the counters afterwards."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(out).items():
                    self.count(key, value)
            return out

        return traced

    def self_times_ms(self) -> dict:
        """Per span name: summed self time in ms and number of spans."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        totals: dict = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            total = totals[s["name"]]
            total[0] += (s["end"] - s["start"] - child_s[s["id"]]) * 1000.0
            total[1] += 1
        return {name: (ms, calls) for name, (ms, calls) in totals.items()}

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                rec = dict(s, start=s["start"] - t0, end=s["end"] - t0)
                out.write(json.dumps(rec) + "\n")


def _coupling_bytes(rep) -> dict:
    # computed from the shape of W (r x dim_p doubles), not measured traffic
    r, dim_p = rep.factor.shape
    return {"schur.coupling_bytes": r * dim_p * 8}


def _lu_fill(lu) -> dict:
    return {"solver.lu_fill_nnz": lu.L.nnz + lu.U.nnz}


def _cg_iterations(result) -> dict:
    return {"linalg.cg_iters": result.iterations}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the library's layer entry points to traced wrappers."""
    from stokes_schur import checks, schur, solver

    def traced_cg(apply_a, b, options=None, project=None, precond=None, x0=None):
        apply_a = tracer.wrap("solver.schur_operator_apply", apply_a)
        if precond is not None:
            precond = tracer.wrap("schur.apply", precond)
        return cg_solve(apply_a, b, options, project, precond, x0)

    cg_solve = solver.cg_solve
    patches = [
        (checks, "make_grid", "grid.make_grid", None),
        (solver, "build_operator_set", "operators.build_operator_set", None),
        (checks, "build_operator_set", "operators.build_operator_set", None),
        (schur, "build_operator_set", "operators.build_operator_set", None),
        (solver, "build_schur_dirichlet_inverse", "schur.build_dirichlet_inverse", _coupling_bytes),
        (checks, "build_schur_dirichlet_inverse", "schur.build_dirichlet_inverse", _coupling_bytes),
        (schur, "splu", "schur.splu", None),
        (schur.SchurRep, "materialize", "schur.materialize", None),
        (checks, "schur_dense_oracle", "schur.dense_oracle", None),
        (checks, "helmholtz_split", "schur.helmholtz_split", None),
        (solver, "solve_stokes_with_ops", "solver.solve_stokes_with_ops", None),
        (solver, "splu", "solver.splu", _lu_fill),
        (solver, "cg_solve", "linalg.cg_solve", _cg_iterations),
        (checks, "pseudoinverse", "linalg.pseudoinverse", None),
        (schur, "pseudoinverse", "linalg.pseudoinverse", None),
        (checks, "rank_of", "linalg.rank_of", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, count in patches:
            fn = traced_cg if attr == "cg_solve" else getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
