"""Smoke test: every workload, at a tiny size, reports every metric that
BENCHMARK.json names, with the unit it names, and checks out correct.
The untraced run also reports the absolute timings it does not gate.

    python3 -m pytest -q perfbench/test_smoke.py

enumerate-shipped runs only its three fastest carriers and search-sweep
30 carriers; verify-paper has no smaller size than one call.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _calls_and_self(*names):
    return [f"{n}.{m}" for n in names for m in ("calls", "self_s")]


# The metrics the benchmark was defined to report; BENCHMARK.json may add more.
REQUIRED = {
    "end_to_end": [
        "setup_s", "wall_ratio", "carrier_p50_ratio", "carrier_p99_ratio", "peak_rss_mb",
    ],
    "per_layer": [
        "cli.main.self_s", "cli.stdout_bytes",
        "fileformat.parse.self_s", "fileformat.document_trellis.self_s",
        "fileformat.export_dot.self_s", "fileformat.export_dot.bytes",
        *_calls_and_self(
            "relation.validate_psoset", "relation.hasse", "relation.transitive_closure",
            "trellis.build_trellis", "enumeration.enumerate_tnorms",
            "enumeration.order_diagram", "tnorms.pointwise_leq", "tnorms.check",
            "tnorms.make_op", "elements.classify", "interior.validate_interior",
            "generators.random_trellis", "bruteforce.bruteforce_tnorms",
        ),
        "enumeration.nodes", "enumeration.associativity_prunes",
        "enumeration.monotone_prunes", "enumeration.final_check_rejects",
        "enumeration.order_pairs", "enumeration.yield",
        "tnorms.check.fail_ratio", "elements.classify.repeat_ratio",
        "generators.accept_ratio", "bruteforce.yield",
        *[f"reproduction.criterion_{k}.s" for k in range(1, 11)],
        "trace.overhead_s",
    ],
}

# Absolute timings, printed and saved with every untraced run.
FIGURES = {
    "wall_s": "s", "tnorms_per_s": "1/s",
    "carrier_p50_ms": "ms", "carrier_p99_ms": "ms",
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_reports_every_metric_with_its_unit(workload, trace, kind, monkeypatch):
    monkeypatch.chdir(ROOT)
    record = run.run_workload(workload, seed=7, seconds=0, trace=trace, small=True)

    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1
    metrics = record["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC[kind])
    assert set(REQUIRED[kind]) <= set(metrics)
    for spec in SPEC[kind]:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(got["value"]), spec["name"]
        if kind == "end_to_end":
            assert got["value"] > 0, spec["name"]
    if kind == "end_to_end":
        for name, unit in FIGURES.items():
            assert record["figures"][name]["unit"] == unit, name
            assert record["figures"][name]["value"] > 0, name
    for key in ("nproc", "python", "numpy", "scipy", "seed", "trace"):
        assert key in record["environment"]
