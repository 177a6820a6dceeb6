"""nfr4 benchmark: time the real CLI on seeded synthetic models.

    python3 perfbench/run.py --workload wide|tall|draft|all --seed N \
        --seconds S --trace 0|1

Run from a checkout that holds ``src/nfr4``.  For each workload the
model is generated from the seed into a temporary directory inside the
checkout, then ``check``, ``report`` and ``report --format json`` run as
fresh ``python -m nfr4.cli`` processes, one at a time, round after round.
The ``--seconds`` budget starts before the model is generated.  An
untraced run makes at least MIN_ROUNDS full rounds and a traced run at
least one; after that a command runs again only if it should end within
the budget.  Every
invocation's exit code, stderr and stdout are checked against the
workload's oracle; stdout must also be byte-identical across repeats.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced invocations with traced ones (``tracer.py``) and reports the
per-layer metrics.  Human-readable lines go first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import check_stderr, check_stdout
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

COMMANDS = {"check": ["check"], "report": ["report"],
            "report_json": ["report", "--format", "json"]}
SETUP_SAMPLES = 7
MIN_ROUNDS = 3
# End-to-end times are reported at a host speed where calibrate.py takes
# REFERENCE_S: each wall time is multiplied by REFERENCE_S over the
# calibration time measured next to it.  The host's speed swings by a
# third from one minute to the next, and wall and CPU time follow it
# alike; the ratio to an interleaved reference does not.
REFERENCE_S = 0.3

END_TO_END = {"setup_s": "s", "check_s": "s", "report_s": "s",
              "report_json_s": "s", "lines_per_s": "1/s",
              "report_rss_mb": "MB", "report_json_rss_mb": "MB"}

_ANALYSIS = ["model.validate_structure", "analysis.score_checklist",
             "analysis.build_traceability_matrix", "analysis.rank_criticality",
             "analysis.compute_mcr", "report.build_bundle"]
# Functions whose spans each command reports; the rest are never called.
LAYER_FUNCTIONS = {
    "check": ["dsl.parse", "model.validate_structure"],
    "report": ["dsl.parse", *_ANALYSIS, "report.render_matrix_table",
               "report.render_summary"],
    "report_json": ["dsl.parse", *_ANALYSIS, "report.export_json"],
}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for command, functions in LAYER_FUNCTIONS.items():
        for function in functions:
            names += [(f"{command}.{function}.self_s", "s"),
                      (f"{command}.{function}.calls", "count")]
        names += [(f"{command}.dsl.lines_per_s", "1/s"),
                  (f"{command}.model.diagnostics", "count")]
        if command != "check":
            names += [(f"{command}.analysis.matrix_cells", "count"),
                      (f"{command}.analysis.matrix_marks", "count"),
                      (f"{command}.analysis.mark_density", "ratio"),
                      (f"{command}.report.output_bytes", "bytes")]
        names += [(f"{command}.cli.self_s", "s"),
                  (f"{command}.cli.stderr_lines", "count")]
    return names + [("trace_overhead_s", "s")]


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def layer_profile(spans: list[list]) -> tuple[dict[str, float], dict[str, int], float]:
    """Self time and call count per span name, and the root span's duration.

    A span's self time is its duration minus the durations of the spans
    it directly caused.
    """
    self_s = [end - start for _, start, end, _ in spans]
    for (_, start, end, parent) in spans:
        if parent is not None:
            self_s[parent] -= end - start
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), value in zip(spans, self_s):
        by_name[name] = by_name.get(name, 0.0) + value
        calls[name] = calls.get(name, 0) + 1
    roots = [end - start for _, start, end, parent in spans if parent is None]
    if len(roots) != 1:
        raise RuntimeError(f"expected one root span, got {len(roots)}")
    return by_name, calls, roots[0]


class Bench:
    """One workload's model, oracle and the invocations made against it."""

    def __init__(self, workdir: Path, name: str, seed: int,
                 params: dict | None = None):
        text, self.expected = generate(name, seed, params)
        self.workdir = workdir
        self.model = workdir / f"{name}.nfr4"
        self.model.write_text(text, encoding="utf-8")
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (
            os.pathsep + path if path else ""))
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self) -> Bench:
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the spawner; it kills a child that is still running."""
        self.spawner.stdin.close()
        self.spawner.terminate()
        self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, argv: list[str]) -> Invocation:
        """Run the interpreter with ``argv`` through the spawner."""
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        for path in (out, err):
            path.unlink(missing_ok=True)
        request = {"argv": [sys.executable, *argv], "stdout": str(out),
                   "stderr": str(err)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(reply)
        return Invocation(reply["wall_s"], reply["rss_mb"], reply["code"],
                          out.read_bytes(), err.read_bytes())

    def import_s(self) -> float:
        """A fresh interpreter importing the CLI, the cost every run pays."""
        run = self.spawn(["-c", "import nfr4.cli"])
        if run.code != 0 or run.stderr:
            raise RuntimeError("cannot import nfr4.cli: "
                               + run.stderr.decode(errors="replace")[-500:])
        return run.wall_s

    def calibration_s(self) -> float:
        run = self.spawn([str(HERE / "calibrate.py")])
        if run.code != 0:
            raise RuntimeError("calibrate.py failed")
        return run.wall_s

    def cli(self, command: str, spans: Path | None = None) -> Invocation:
        """Run one command, untraced or traced, and check its outputs."""
        args = [*COMMANDS[command], str(self.model)]
        if spans is None:
            run = self.spawn(["-m", "nfr4.cli", *args])
        else:
            spans.unlink(missing_ok=True)
            run = self.spawn([str(HERE / "tracer.py"), str(spans), *args])
        self.attempted += 1
        failures = []
        if run.code != self.expected.exit_codes[command]:
            failures.append(f"exit code {run.code}, expected"
                            f" {self.expected.exit_codes[command]}")
        failures += check_stderr(run.stderr, self.expected)
        digest = hashlib.sha256(run.stdout).hexdigest()
        first = self.digests.get(command)
        if first is None:
            self.digests[command] = digest
            failures += check_stdout(command, run.stdout, self.expected)
        elif digest != first:
            failures.append("stdout differs from the first repeat")
        if failures:
            self.failures.append(f"{command}{' (traced)' if spans else ''}: "
                                 + "; ".join(failures))
        return run

    def traced_metrics(self, command: str, run: Invocation, spans: Path) -> dict:
        data = json.loads(spans.read_text(encoding="utf-8"))
        self_s, calls, _ = layer_profile(data["spans"])
        counts = data["counts"]
        metrics = {}
        for function in LAYER_FUNCTIONS[command]:
            metrics[f"{command}.{function}.self_s"] = self_s.get(function, 0.0)
            metrics[f"{command}.{function}.calls"] = calls.get(function, 0)
        parse_s = self_s.get("dsl.parse", 0.0)
        metrics[f"{command}.dsl.lines_per_s"] = (
            self.expected.lines / parse_s if parse_s else 0.0)
        metrics[f"{command}.model.diagnostics"] = counts["model.diagnostics"]
        if command != "check":
            cells, marks = counts["analysis.matrix_cells"], counts["analysis.matrix_marks"]
            metrics[f"{command}.analysis.matrix_cells"] = cells
            metrics[f"{command}.analysis.matrix_marks"] = marks
            metrics[f"{command}.analysis.mark_density"] = marks / cells if cells else 0.0
            metrics[f"{command}.report.output_bytes"] = len(run.stdout)
        metrics[f"{command}.cli.self_s"] = self_s["cli.main"]
        metrics[f"{command}.cli.stderr_lines"] = run.stderr.count(b"\n")
        return metrics


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)  # ceil(p * n / 100), 1-based
        if n - rank >= 10:
            return p, sorted(samples)[rank - 1]
    return None


def _describe(name: str, samples: list[float], value: float, unit: str,
              raw: list[float] | None) -> str:
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]} {tail[1]:.4f}" if tail
                 else "no percentile has ten samples beyond it")
    raw_text = f"; unscaled median {statistics.median(raw):.4f} s" if raw else ""
    return (f"  {name:<20} {value:12.4f} {unit:<4} median of n={len(samples)};"
            f" {tail_text}{raw_text}")


def measure(bench: Bench, deadline: float, trace: bool) -> tuple[dict, list[str]]:
    """Run rounds until ``deadline`` (a perf_counter value) and return the
    metrics and report lines."""
    samples: dict[str, list[float]] = {}
    calibrations: list[float] = []
    timings: list[tuple[str, float, int]] = []  # name, wall, calibration before

    def add_time(name: str, wall_s: float) -> None:
        timings.append((name, wall_s, len(calibrations) - 1))

    if not trace:
        for _ in range(SETUP_SAMPLES):
            calibrations.append(bench.calibration_s())
            add_time("setup_s", bench.import_s())
    spans = bench.workdir / "spans.json"
    rounds = 0
    min_rounds = 1 if trace else MIN_ROUNDS
    took: dict[str, float] = {}  # command -> its last turn's duration
    # After min_rounds, a command takes another turn only if that turn
    # should end before the deadline, so the time left after the last
    # full round still buys samples of the cheaper commands.
    ran = True
    while ran:
        ran = False
        for command in COMMANDS:
            if rounds >= min_rounds and perf_counter() + took[command] > deadline:
                continue
            ran = True
            start = perf_counter()
            calibrations.append(bench.calibration_s())
            run = bench.cli(command)
            if not trace:
                add_time(f"{command}_s", run.wall_s)
                if command != "check":
                    samples.setdefault(f"{command}_rss_mb", []).append(run.rss_mb)
            else:
                traced = bench.cli(command, spans)
                add_time(f"{command}.overhead", traced.wall_s - run.wall_s)
                for key, value in bench.traced_metrics(command, traced, spans).items():
                    samples.setdefault(key, []).append(value)
            took[command] = perf_counter() - start
        rounds += 1

    # Scale each time by the mean of the calibration runs just before and
    # just after it.
    calibrations.append(bench.calibration_s())
    raw: dict[str, list[float]] = {}
    for name, wall_s, before in timings:
        reference = (calibrations[before] + calibrations[before + 1]) / 2
        raw.setdefault(name, []).append(wall_s)
        samples.setdefault(name, []).append(wall_s * REFERENCE_S / reference)

    if trace:
        # Each command's median extra wall time when traced, summed.
        samples["trace_overhead_s"] = [sum(
            statistics.median(samples.pop(f"{command}.overhead"))
            for command in COMMANDS)]
        metrics = {name: (statistics.median(samples[name]), unit)
                   for name, unit in per_layer_names()}
        return metrics, [f"  {name:<58} {value:14.6f} {unit}"
                         for name, (value, unit) in metrics.items()]

    report_s = samples["report_s"]
    samples["lines_per_s"] = [bench.expected.lines / s for s in report_s]
    metrics = {}
    lines = [f"  times scaled to calibrate.py taking {REFERENCE_S} s; here it took"
             f" {statistics.median(calibrations):.4f} s"
             f" (median of n={len(calibrations)})"]
    for name, unit in END_TO_END.items():
        metrics[name] = (statistics.median(samples[name]), unit)
        lines.append(_describe(name, samples[name], metrics[name][0], unit,
                               raw.get(name)))
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Generate, set up and measure one workload within ``seconds``."""
    deadline = perf_counter() + seconds
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP))
    try:
        with Bench(workdir, name, seed) as bench:
            metrics, lines = measure(bench, deadline, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    failed = len(bench.failures)
    print(f"workload {name} (seed {seed}, {bench.expected.lines} lines,"
          f" {'traced' if trace else 'untraced'}): {WORKLOADS[name][1]}")
    print("\n".join(lines))
    print(f"  {'fail_ratio':<20} {failed / bench.attempted:12.4f}      "
          f"{failed} failed of {bench.attempted} invocations")
    for failure in bench.failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    return metrics, bench.attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "nfr4" / "cli.py").is_file():
        print(f"error: no nfr4 sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, tried, bad = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: {"value": value, "unit": unit}
                        for key, (value, unit) in values.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
