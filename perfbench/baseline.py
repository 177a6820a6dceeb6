"""Measure the baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload, runs ``run.py`` for ``run_seconds`` (read from
BENCHMARK.json) once per seed 1..SEEDS untraced and once traced (seed
0), then records each end-to-end metric's median and its
quartile spread over the seeds, the per-layer medians with each
function's share of its command's traced time, the generator
parameters and line counts, what each per-layer metric should move, and
the environment.  Takes about (SEEDS + 1) x run_seconds per workload.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, LAYER_FUNCTIONS, ROOT
from workloads import WORKLOADS, generate

SEEDS = 10

# Per-layer metric -> (end-to-end metric it should move, on which workload).
PREDICTIONS = {
    "dsl.parse": "check_s on tall; about 20% of report_json_s on wide",
    "dsl.lines_per_s": "check_s on tall",
    "model.validate_structure": "report_s on every workload by a few percent;"
                                " calls is 3 per report today, so claim on the count",
    "model.diagnostics": "check_s on draft",
    "analysis.score_checklist": "report_s and report_json_s on tall",
    "analysis.build_traceability_matrix": "report_s on wide; nothing on tall",
    "analysis.rank_criticality": "report_s on wide; nothing on tall",
    "analysis.matrix_cells": "report_s on wide; nothing on tall",
    "analysis.matrix_marks": "report_s on wide; nothing on tall",
    "analysis.mark_density": "report_s on wide; nothing on tall",
    "analysis.compute_mcr": "small everywhere; kept so the span tree is complete",
    "report.build_bundle": "small everywhere; kept so the span tree is complete",
    "report.render_matrix_table": "report_s on wide",
    "report.render_summary": "report_s on wide",
    "report.export_json": "report_json_s and report_json_rss_mb on wide",
    "report.output_bytes": "report_json_s and report_json_rss_mb on wide",
    "cli.self_s": "check_s on draft",
    "cli.stderr_lines": "check_s on draft",
    "trace_overhead_s": "nothing; the cost of tracing itself",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: failed invocations\n{out.stderr}")
    print(f"{workload} seed {seed} trace {trace}: ok", flush=True)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "spread": (q3 - q1) / median,
                         "values": values}
    return summary


def shares(layers: dict) -> dict:
    """Each function's self time as a share of its command's traced time."""
    result = {}
    for command, functions in LAYER_FUNCTIONS.items():
        parts = {f: layers[f"{command}.{f}.self_s"] for f in functions}
        parts["cli.main"] = layers[f"{command}.cli.self_s"]
        total = sum(parts.values())
        result[command] = {"traced_s": total,
                           **{f: s / total for f, s in parts.items()}}
    return result


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record = {
        "environment": {"python": platform.python_version(),
                        "nproc": os.cpu_count(), "commit": commit(),
                        "seeds": SEEDS, "seconds": seconds},
        "predictions": PREDICTIONS,
        "workloads": {},
    }
    for name, (params, why) in WORKLOADS.items():
        end_to_end = summarize([run_once(name, seed, seconds, 0)
                                for seed in range(1, SEEDS + 1)])
        layers = run_once(name, 0, seconds, 1)
        record["workloads"][name] = {
            "why": why, "params": params,
            "lines": generate(name, 0)[1].lines,
            "end_to_end": end_to_end, "per_layer": layers,
            "shares": shares(layers),
        }
    path = HERE / "baseline.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
