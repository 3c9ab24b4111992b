"""Benchmark runner for lsdeficit.

    python3 perfbench/run.py --workload battery-certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The loop is closed, with one
caller in one thread: each op starts when the previous one has returned.
Whole passes of the workload run until ``--seconds`` of timed work have
elapsed (at least one pass).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced pass for the same time and prints per-layer
metrics per traced pass, plus the tracing overhead.  The last line of
stdout is the result object; the line before it records the environment
and the raw counts, and the same record (with the spans of a traced run)
is written to ``.perfbench-out/`` in the checkout.  Exits 1 without a
result when the checkout has no ``src/lsdeficit``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("battery-certify", "distance-cli", "grid2d-certify")
SETUP_REPEATS = 5
# One BLAS/OpenMP thread; main() sets these before numpy loads, and set-up
# probes inherit them.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Layers reported with calls and self time, per traced pass.
_LAYER_CALLS = (
    "densities.gaussian_convolve",
    "densities.gaussian_convolve_2d",
    "recentering.recenter",
    "recentering.tensorise",
    "quadrature.integrate",
    "quadrature.integrate_values",
    "quadrature.integrate_values_2d",
    "transport.transport_cost",
    "transport.costs_to_standard_gaussian_rows",
    "densities.quantile",
    "specio.load",
    "cli.main",
    "functionals",
    "bounds.evaluate_bound",
)


def import_package():
    """Import lsdeficit from this checkout's ``src``; exit 1 if it is absent."""
    if not (SRC / "lsdeficit" / "__init__.py").is_file():
        raise SystemExit(f"error: no lsdeficit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lsdeficit

    if Path(lsdeficit.__file__).resolve().parent != SRC / "lsdeficit":
        raise SystemExit(f"error: lsdeficit imported from {lsdeficit.__file__}, not {SRC}")
    return lsdeficit


def set_up(name: str, seed: int, workdir: Path):
    """Import the package and build the workload's seeded inputs."""
    start = time.perf_counter()
    import_package()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def probe_setup_s(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, median over SETUP_REPEATS."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def run_passes(workload, tally, seconds: float) -> tuple[int, float]:
    passes, wall = 0, 0.0
    while passes == 0 or wall < seconds:
        start = time.perf_counter()
        workload.run_pass(tally)
        wall += time.perf_counter() - start
        passes += 1
    return passes, wall


def end_to_end_metrics(tally, wall: float, setup_s: float) -> dict:
    # Shares, not counts, because no end-to-end metric may read 0: ok_share is
    # 1 - failed_share, and errbar_held_share is 1 - errbar_violations over
    # the closed-form checks.  The raw counts go to the record line.
    lat_ms = [x * 1e3 for x in tally.latencies]
    ok = tally.attempted - len(tally.failed_ops)
    held = tally.closed_form_checks - tally.errbar_violations
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.attempted / wall, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (ok / tally.attempted, "ratio"),
        "errbar_held_share": (held / tally.closed_form_checks if tally.closed_form_checks else 1.0, "ratio"),
    }


def per_layer_metrics(tracer, passes: int, plain_s: float, traced_s: float) -> dict:
    totals = tracer.layer_totals()
    blank = {"calls": 0, "returned": 0, "self_s": 0.0}
    out = {}
    for layer in _LAYER_CALLS:
        row = totals.get(layer, blank)
        out[f"{layer}.calls"] = (row["calls"] / passes, "count")
        out[f"{layer}.self_s"] = (row["self_s"] / passes, "s")
    table = totals.get("densities.table", blank)
    out["densities.table.builds"] = (table["calls"] / passes, "count")
    out["densities.table.self_s"] = (table["self_s"] / passes, "s")
    out["transport.monotone_plan.calls"] = (totals.get("transport.monotone_plan", blank)["calls"] / passes, "count")
    convolve = totals.get("densities.gaussian_convolve", blank)["calls"]
    out["densities.gaussian_convolve.repeat_ratio"] = (
        tracer.convolve_repeats / convolve if convolve else 0.0, "ratio")
    out["quadrature.n_evals"] = (tracer.n_evals / passes, "count")
    bounds = totals.get("bounds.evaluate_bound", blank)
    out["bounds.cert_yield"] = (bounds["returned"] / bounds["calls"] if bounds["calls"] else 0.0, "ratio")
    out["trace_overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    return out


def environment(lsdeficit, args, passes: int, ops: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lsdeficit": lsdeficit.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "loop": "closed, one caller, one thread",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops": ops,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_THREADS)
    # The CLI honours this variable; the benchmark runs the default policy.
    os.environ.pop("LSD_GRID_POINTS", None)
    if args.setup_probe:
        with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
            print(json.dumps({"setup_s": set_up(args.workload, args.seed, Path(tmp))[1]}))
        return 0
    lsdeficit = import_package()
    setup_s = None if args.trace else probe_setup_s(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        workload, _ = set_up(args.workload, args.seed, Path(tmp))
        import spans
        import workloads

        if args.trace:
            # One tally for both kinds of pass: untraced ops are checked too.
            tracer = spans.Tracer()
            tally = workloads.Tally(tracer)
            passes, plain_s, traced_s = 0, 0.0, 0.0
            while passes == 0 or plain_s + traced_s < args.seconds:
                # Alternate which pass of a pair goes first, so warm-up and
                # drift do not all land on one side of the overhead.
                for traced in (False, True) if passes % 2 == 0 else (True, False):
                    if traced:
                        with tracer:
                            traced_s += run_passes(workload, tally, 0)[1]
                    else:
                        plain_s += run_passes(workload, tally, 0)[1]
                passes += 1
            metrics = per_layer_metrics(tracer, passes, plain_s, traced_s)
        else:
            tally = workloads.Tally()
            passes, wall = run_passes(workload, tally, args.seconds)
            metrics = end_to_end_metrics(tally, wall, setup_s)

    record = {
        "environment": environment(lsdeficit, args, passes, tally.attempted),
        "counts": {
            "attempted": tally.attempted,
            "failed": len(tally.failed_ops),
            "failed_share": len(tally.failed_ops) / tally.attempted,
            "refused": tally.refused,
            "closed_form_checks": tally.closed_form_checks,
            "errbar_violations": tally.errbar_violations,
            "latency_samples": tally.attempted,
        },
        "failures": tally.failures,
        "errbar_examples": tally.errbar_examples,
    }
    print(json.dumps(record, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4], s[5]] for s in tracer.spans]
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record))
    result = {
        "correct": not tally.failed_ops,
        "attempted": tally.attempted,
        "failed": len(tally.failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
