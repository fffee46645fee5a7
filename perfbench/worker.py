"""One benchmark process: set-up, then a timed loop or a fixed request pass.

Started by run.py as `python -m perfbench.worker` with BLAS pinned to one
thread; prints one JSON object as its last line.  Modes:

  setup   set-up only, to sample set-up time
  timed   closed loop until the requests in flight add up to --seconds
  fixed   the first N requests of the sequence, N fixed by the workload and
          --seconds, so per-layer counts repeat exactly; --trace records
          spans and writes them to --spans

After set-up and after every request, with the clock stopped, the worker
runs the reference task of calibrate.py; times are reported both as
measured and normalised to the host's typical speed.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import stokes_schur  # noqa: E402

from perfbench import calibrate, tracing, workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MAX_REPORTED_FAILURES = 5
# reference runs after set-up whose median normalises the set-up time
SETUP_REFERENCE_RUNS = 9


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def blas_version(module) -> str:
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    return {
        "blas_threads": blas_threads(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np),
        "scipy_openblas": blas_version(scipy),
        "python": sys.version.split()[0],
    }


class Client:
    """The single closed-loop client: issues a request, waits, checks it."""

    def __init__(self, workload, reference=None) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.elapsed_ms: list = []
        self.reference_ms: list = []
        self.passed: list = []

    def issue(self, i: int) -> float:
        """Attempt request i, then run the reference task; return seconds in flight."""
        elapsed, passed = self.attempt(i)
        self.elapsed_ms.append(elapsed * 1000.0)
        self.passed.append(passed)
        self.reference_ms.append(self.reference.run())
        return elapsed

    def times(self) -> dict:
        """Request times so far, measured and normalised (see calibrate.py)."""
        norm = calibrate.normalise(self.elapsed_ms, self.reference_ms)
        passed_count = sum(self.passed)
        return {
            "latencies_ms": [t for t, ok in zip(norm, self.passed) if ok],
            "raw_latencies_ms": [t for t, ok in zip(self.elapsed_ms, self.passed) if ok],
            "busy_s": sum(self.elapsed_ms) / 1000.0,
            "throughput_rps": 1000.0 * passed_count / sum(norm),
            "raw_throughput_rps": 1000.0 * passed_count / sum(self.elapsed_ms),
            "reference_ms": statistics.median(self.reference_ms),
            "nominal_ms": calibrate.NOMINAL_MS,
        }

    def attempt(self, i: int):
        """Run request i; return (seconds in flight, passed)."""
        wl = self.workload
        req = wl.make_input(i)
        wl.tracer.request = i
        self.attempted += 1
        start = time.perf_counter()
        try:
            with wl.tracer.span("request"):
                out = wl.call(req)
        except Exception:  # a raising request is a failed one; keep the loop going
            elapsed = time.perf_counter() - start
            return elapsed, self._fail(i, traceback.format_exc())
        elapsed = time.perf_counter() - start
        try:
            problem = wl.check(req, out)
        except Exception:  # a malformed output can break the oracle
            problem = traceback.format_exc()
        if problem is not None:
            return elapsed, self._fail(i, problem)
        return elapsed, True

    def _fail(self, i: int, why: str) -> bool:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"{self.workload.name} request {i} failed: {why}", file=sys.stderr)
        return False


def timed_loop(client: Client, seconds: float) -> dict:
    """Issue requests until their in-flight time adds up to `seconds`.

    Input generation, checking and the reference task happen with the clock
    stopped; the wall guard ends a run whose checking is unexpectedly slow.
    """
    busy = 0.0
    wall_end = time.perf_counter() + 2.0 * seconds + 30.0
    i = 0
    while busy < seconds and time.perf_counter() < wall_end:
        busy += client.issue(i)
        i += 1
    if busy < seconds:
        print(f"wall guard ended the loop after {busy:.1f} s of requests", file=sys.stderr)
    return client.times()


def fixed_pass(client: Client, count: int) -> dict:
    for i in range(count):
        client.issue(i)
    return dict(client.times(), requests=count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "fixed"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(stokes_schur.__file__).resolve().parents:
        print(f"stokes_schur imported from {stokes_schur.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    wl = workloads.WORKLOADS[args.workload](args.seed, tracing.NullTracer())
    wl.warmup()
    setup_s = time.perf_counter() - SETUP_START
    reference = calibrate.Reference()
    reference.run()
    setup_ref = statistics.median(reference.run() for _ in range(SETUP_REFERENCE_RUNS))
    out = {
        "raw_setup_s": setup_s,
        "setup_s": setup_s * calibrate.NOMINAL_MS / setup_ref,
    }
    client = Client(wl, reference)
    if args.mode == "timed":
        out.update(timed_loop(client, args.seconds))
    elif args.mode == "fixed":
        count = wl.traced_requests(args.seconds)
        if args.trace:
            tracer = wl.tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                out.update(fixed_pass(client, count))
            out["layers"] = tracer.self_times_ms()
            out["counts"] = dict(tracer.counts)
            out["spans"] = len(tracer.spans)
            if args.spans:
                Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
                tracer.write(args.spans)
        else:
            out.update(fixed_pass(client, count))
    out["attempted"] = client.attempted
    out["failed"] = client.failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
