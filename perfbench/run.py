"""Benchmark entry point: one workload (or all), one seed, one JSON result.

    python3 perfbench/run.py --workload cavity-rankr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from the `src` directory next to
this one.  Every workload runs in child processes (perfbench/worker.py) with
BLAS and OpenMP pinned to one thread.

--trace 0 prints the end-to-end metrics.  Set-up is sampled SETUP_SAMPLES
times (fresh processes) and reported as the median; the last sample's
process then runs the closed loop for --seconds of request time.  Times are
normalised to the host's typical speed by the reference task of
perfbench/calibrate.py; the summary also prints them as measured.
--trace 1 prints the per-layer metrics from a traced fixed pass, plus the
tracing overhead: the normalised throughput of the same fixed pass untraced
minus traced.  Per-layer times are as measured.  The last stdout line is the
JSON result; the lines before it are a readable summary, including
failed_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """A benchmark process failed; no result may be printed."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_worker(args: list, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    env = dict(os.environ, **PINNED)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left before the deadline")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(common: list, deadline: float) -> tuple[dict, dict, list]:
    setups = [
        run_worker(common + ["--mode", "setup"], deadline) for _ in range(SETUP_SAMPLES - 1)
    ]
    main = run_worker(common + ["--mode", "timed"], deadline)
    setups.append(main)
    lat = sorted(main["latencies_ms"])
    raw = sorted(main["raw_latencies_ms"])
    if not lat:
        raise BenchError("no request passed its check")
    beyond_p90 = len(lat) - math.ceil(0.9 * len(lat))
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "latency_ms_p50": percentile(lat, 0.5),
        "latency_ms_p90": percentile(lat, 0.9),
        "throughput_rps": main["throughput_rps"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = [
        f"closed loop, one client: {main['attempted']} requests in "
        f"{main['busy_s']:.2f} s of request time, {len(lat)} latency samples, "
        f"{beyond_p90} beyond p90; set-up is the median of {len(setups)} processes",
        f"as measured: setup_s {statistics.median(s['raw_setup_s'] for s in setups):.4f}, "
        f"latency_ms_p50 {percentile(raw, 0.5):.3f}, latency_ms_p90 {percentile(raw, 0.9):.3f}, "
        f"throughput_rps {main['raw_throughput_rps']:.4f}; reference task median "
        f"{main['reference_ms']:.3f} ms against {main['nominal_ms']} ms nominal",
    ]
    if beyond_p90 < 10:
        notes.append(f"WARNING: only {beyond_p90} samples beyond p90")
    return values, main, notes


def per_layer(common: list, deadline: float, spans_path: Path) -> tuple[dict, dict, list]:
    plain = run_worker(common + ["--mode", "fixed"], deadline)
    traced = run_worker(
        common + ["--mode", "fixed", "--trace", "--spans", str(spans_path)], deadline
    )
    values = {"trace.overhead_rps": plain["throughput_rps"] - traced["throughput_rps"]}
    for name, (ms, calls) in traced["layers"].items():
        values[f"{name}.ms"] = values[f"{name}.self_ms"] = ms
        values[f"{name}.calls"] = calls
    values.update(traced["counts"])
    merged = dict(traced)
    merged["attempted"] += plain["attempted"]
    merged["failed"] += plain["failed"]
    notes = [
        f"fixed pass of {traced['requests']} requests, traced and untraced: "
        f"{traced['throughput_rps']:.3f} vs {plain['throughput_rps']:.3f} requests/s "
        f"normalised, {traced['raw_throughput_rps']:.3f} vs {plain['raw_throughput_rps']:.3f} "
        "as measured; "
        f"{traced['spans']} spans written to {spans_path.relative_to(ROOT)}"
    ]
    return values, merged, notes


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> tuple:
    """Run one workload; return (result object, summary lines)."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if trace:
        spans = ROOT / "perfbench" / "out" / f"spans-{workload}-seed{seed}.jsonl"
        values, proc, notes = per_layer(common, deadline, spans)
        wanted = spec["per_layer"]
    else:
        values, proc, notes = end_to_end(common, deadline)
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    attempted, failed = proc["attempted"], proc["failed"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    lines = [f"{workload} seed={seed} trace={trace}: " + notes[0], *notes[1:]]
    for name, m in metrics.items():
        lines.append(f"  {name:42s} {m['value']:>16.6f} {m['unit']}")
    lines.append(f"  {'failed_frac':42s} {failed / attempted:>16.6f} ({failed} of {attempted})")
    lines.append("env " + json.dumps(proc["env"], sort_keys=True))
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "stokes_schur" / "__init__.py").is_file():
        print(f"no stokes_schur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in chosen):
        parser.error(f"--workload must be one of {names} or all")
    results = {}
    try:
        for name in chosen:
            results[name], lines = measure(name, args.seed, args.seconds, args.trace, spec)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[chosen[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
