"""trelliskit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each in
turn.

--trace 0 runs one warm-up pass of the library alone, then paired
passes, for about S seconds (at least one pass).  A paired pass runs
every operation on the library and on the frozen reference copy
(perfbench/reference) at the same time, in two threads on one CPU.  It
prints the end-to-end metrics: set-up time (median of fresh interpreters
importing trelliskit), the library's pass time and per-carrier latencies
as ratios to the reference copy's, and the peak RSS of the warm-up pass.
The warm-up pass's absolute wall time, t-norms per second and latency
percentiles are printed and saved as well.  --trace 1
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead (traced minus untraced wall time per
pass).  Either way the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics, and a fuller record (with
the machine facts and, when traced, every span) is written to
perfbench/out/.
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
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0  # 0 only when every operation failed
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup(samples: int) -> float:
    """Median wall time of a fresh interpreter that imports trelliskit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import trelliskit"], env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure(workload, seconds: float) -> list:
    """Paired passes: the library and the reference copy run the same
    operations at the same time, in two threads, with the process pinned
    to one CPU so that the two take turns on it.  Passes repeat while the
    next one, at the median pass time so far, is due to end within
    `seconds`; there is at least one.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        passes, took = [], []
        start = perf_counter()
        while not passes or perf_counter() - start + statistics.median(took) <= seconds:
            began = perf_counter()
            passes.append(workload.run_pass(reference=True))
            took.append(perf_counter() - began)
    finally:
        os.sched_setaffinity(0, cpus)
    return passes


def measure_traced(workload, seconds: float, tracer) -> tuple[list, list]:
    """Alternate untraced and traced passes over the same inputs, so the
    difference between the two series is the tracing overhead."""
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(workload.run_pass())
        tracer.install()
        try:
            traced.append(workload.run_pass(tracer))
        finally:
            tracer.uninstall()
    return untraced, traced


def _carrier_medians(series) -> list[float]:
    # Every pass repeats the same operations on the same inputs, so each
    # carrier's latency is its median over the passes.
    return [statistics.median(ms) for ms in zip(*series)]


def end_to_end(passes, setup_s: float, rss_mb: float) -> dict[str, tuple[float, str]]:
    """The gated metrics: the library against the reference copy, run on
    the same operations at the same time, plus set-up time and memory."""
    carrier_ms = _carrier_medians(p.carrier_ms for p in passes)
    ref_ms = _carrier_medians(p.ref_carrier_ms for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "wall_ratio": (statistics.median(p.latency_s / p.ref_latency_s for p in passes), "x"),
        "carrier_p50_ratio": (
            statistics.median(c / r for c, r in zip(carrier_ms, ref_ms)), "x"),
        "carrier_p99_ratio": (_percentile(carrier_ms, 99) / _percentile(ref_ms, 99), "x"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def figures(warmup) -> dict[str, tuple[float, str]]:
    """The warm-up pass's wall-clock timings of the library running alone.
    They are printed and saved but not gated: on a host whose speed
    drifts they spread more than any bound allows."""
    return {
        "wall_s": (warmup.latency_s, "s"),
        "tnorms_per_s": (warmup.tnorms_per_s, "1/s"),
        "carrier_p50_ms": (_percentile(warmup.carrier_ms, 50), "ms"),
        "carrier_p99_ms": (_percentile(warmup.carrier_ms, 99), "ms"),
    }


def environment(seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "trace": trace,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload; return the record that run.py prints and saves."""
    from tracing import Tracer, layer_metrics
    from workloads import OUT, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, small=small)
    record: dict = {"workload": name, "environment": environment(seed, trace)}
    if not trace:
        setup_s = measure_setup(1 if small else SETUP_SAMPLES)
        warmup = workload.run_pass()
        # The warm-up pass ran the library alone, so this peak is its own.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = measure(workload, seconds)
        metrics = end_to_end(passes, setup_s, rss_mb)
        record["figures"] = {k: {"value": v, "unit": u} for k, (v, u) in figures(warmup).items()}
        record["samples"] = {
            "setup": 1 if small else SETUP_SAMPLES,
            "passes": len(passes),
            "carriers": len(passes[0].carrier_ms),
            "pass_cpu_s": [p.latency_s for p in passes],
            "pass_reference_cpu_s": [p.ref_latency_s for p in passes],
            "pass_carrier_ms": [p.carrier_ms for p in passes],
            "pass_reference_carrier_ms": [p.ref_carrier_ms for p in passes],
        }
        passes = [warmup] + passes
    else:
        tracer = Tracer()
        untraced, passes = measure_traced(workload, seconds, tracer)
        metrics = layer_metrics(tracer, len(passes))
        plain = statistics.median(p.latency_s for p in untraced)
        traced = statistics.median(p.latency_s for p in passes)
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - plain, "s")
        record["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(passes)}
        record["spans"] = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "run_id"],
            "rows": tracer.spans,
        }
        passes = untraced + passes
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + workload.final_check()
    record.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record))
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"{record['workload']}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    samples = {k: v for k, v in record["samples"].items() if not k.startswith("pass_")}
    print("  samples: " + " ".join(f"{k}={v}" for k, v in samples.items()))
    for key, m in {**record["metrics"], **record.get("figures", {})}.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    print(
        f"  {'error_rate':<40} {record['error_rate']:>14.6g} "
        f"({record['failed']} of {record['attempted']} operations)"
    )
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "trelliskit" / "__init__.py").is_file():
        print(f"no trelliskit sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import trelliskit

    if Path(trelliskit.__file__).resolve().parent != SRC / "trelliskit":
        print(f"imported trelliskit from {trelliskit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error(f"--workload must be one of: all, {', '.join(WORKLOADS)}")
    for name in names:
        report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
