"""Self-test of the benchmark at tiny model sizes.

    python3 perfbench/selftest.py

Runs every workload at about n=20 and checks that the oracle agrees with
the CLI (no failed invocation), that the output checks reject corrupted
outputs, that the traced self times add up to the traced total, that
``draft`` never reaches analysis or rendering, that the tracer refuses a
binding it cannot wrap, and that BENCHMARK.json names exactly the
workloads and metrics ``run.py`` reports.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import types
from pathlib import Path

import run
from checks import check_stderr, check_stdout
from workloads import WORKLOADS

TINY = {
    "wide": {"stakeholders": 20, "goals": 20, "subgoals": 40, "nfrs": 20,
             "yes_rate": 0.95},
    "tall": {"stakeholders": 4, "goals": 4, "subgoals": 8, "nfrs": 80,
             "yes_rate": 0.95},
    "draft": {"stakeholders": 20, "goals": 20, "subgoals": 40, "nfrs": 20,
              "answer_rate": 0.5, "bad_ref_rate": 0.1, "barren_rate": 0.1,
              "orphan_checks": 3},
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_workload(workdir: Path, name: str, seed: int) -> None:
    with run.Bench(workdir, name, seed, TINY[name]) as bench:
        check_bench(bench, workdir, name, seed)


def check_bench(bench: run.Bench, workdir: Path, name: str, seed: int) -> None:
    for trace in (False, True):
        metrics, _ = run.measure(bench, 0, trace)
        names = run.per_layer_names() if trace else list(run.END_TO_END.items())
        expect(sorted(metrics) == sorted(n for n, _ in names),
               f"{name}: metric names differ (trace={trace})")
    expect(not bench.failures, f"{name} seed {seed}: {bench.failures[:3]}")
    # MIN_ROUNDS untraced rounds, then one round of untraced and traced.
    expect(bench.attempted == (run.MIN_ROUNDS + 2) * len(run.COMMANDS),
           f"{name}: unexpected invocation count {bench.attempted}")

    spans_path = workdir / "spans.json"
    for command in run.COMMANDS:
        bench.cli(command, spans_path)
        spans = json.loads(spans_path.read_text())["spans"]
        self_s, calls, total = run.layer_profile(spans)
        expect(abs(sum(self_s.values()) - total) <= 1e-9 * max(total, 1.0),
               f"{name} {command}: self times do not add up to the total")
        if name == "draft":
            reached = [f for f in calls if f.startswith(("analysis.", "report."))]
            expect(not reached, f"draft {command} reached {reached}")
    expect(not bench.failures, f"{name} traced: {bench.failures[:3]}")


def check_rejections(workdir: Path) -> None:
    """The checks must notice each kind of wrong output."""
    with run.Bench(workdir, "wide", 8, TINY["wide"]) as bench:
        text = bench.cli("report").stdout
        data = json.loads(bench.cli("report_json").stdout)
        stderr = bench.cli("check").stderr
    expected = bench.expected
    expect(not bench.failures and expected.rule_counts["R4"] > 0,
           "wide tiny seed 8 should pass and carry an R4 warning")
    # A child's peak RSS must not include this process's memory.
    ballast = b"x" * (150 << 20)
    with run.Bench(workdir, "wide", 8, TINY["wide"]) as bench:
        rss = bench.cli("check").rss_mb
    expect(rss < 100 < len(ballast) >> 20, f"check reported {rss:.0f} MB peak RSS")
    del ballast

    def json_fails(mutate) -> bool:
        copy = json.loads(json.dumps(data))
        mutate(copy)
        return bool(check_stdout("report_json", json.dumps(copy).encode(), expected))

    expect(json_fails(lambda d: d["matrix"]["marks"][3].__setitem__(
        5, not d["matrix"]["marks"][3][5])), "flipped matrix cell passed")
    expect(json_fails(lambda d: d["criticality"]["critical"].reverse()),
           "reordered critical set passed")
    expect(json_fails(lambda d: d["mcr"].__setitem__("n_c", d["mcr"]["n_c"] + 1)),
           "wrong n_c passed")
    expect(json_fails(lambda d: d["diagnostics"].pop()), "missing diagnostic passed")
    expect(check_stdout("report", text.replace(b"MCR = ", b"MCR =  "), expected),
           "wrong MCR line passed")
    expect(check_stdout("report", text[:-2] + b"9\n", expected),
           "wrong critical section passed")

    def text_fails(old: bytes, new: bytes, skip: int = 0) -> bool:
        """Replace the (skip+1)-th ``old`` after the Traceability title."""
        at = text.index(b"\nTraceability\n")
        for _ in range(skip + 1):
            at = text.index(old, at + 1)
        return bool(check_stdout("report", text[:at] + new + text[at + len(old):],
                                 expected))

    expect(text_fails(b"X ", b"  ", 4), "dropped matrix X passed")
    expect(text_fails(b"X ", b" X", 2), "shifted matrix X passed")
    expect(text_fails(b"*", b" ", 1), "dropped critical star passed")
    expect(text_fails(b"G3 = ", b"G4 = "), "wrong legend passed")
    validation = text.index(b"\n  n1: ") + len(b"\n  n1: ")
    expect(check_stdout("report", text[:validation] + b"9" + text[validation + 1:],
                        expected), "wrong per-NFR validation line passed")
    diagnostic = text.index(b"(line ")
    expect(check_stdout("report", text[:diagnostic] + b"(line 9" + text[diagnostic + 6:],
                        expected), "wrong diagnostic line passed")
    expect(check_stdout("check", b"x", expected), "stdout on check passed")
    expect(check_stderr(stderr.split(b"\n", 1)[1], expected), "missing warning passed")
    expect(check_stderr(stderr + b"Traceback (most recent call last):\n", expected),
           "traceback passed")


def check_tracer_refuses_hidden_binding() -> None:
    sys.path.insert(0, str(run.SRC))
    import tracer

    probe = types.ModuleType("nfr4.probe")
    probe.table = {"parse": sys.modules["nfr4.dsl"].parse}
    sys.modules["nfr4.probe"] = probe
    try:
        tracer.install(tracer.Tracer())
    except RuntimeError as exc:
        expect("nfr4.probe.table" in str(exc), f"wrong refusal: {exc}")
    else:
        expect(False, "tracer accepted an unwrapped reference")
    finally:
        del sys.modules["nfr4.probe"]


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads differ from run.py")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(),
           "BENCHMARK.json per_layer differs from run.py")


def main() -> int:
    check_benchmark_json()
    run.TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP))
    try:
        for name in WORKLOADS:
            for seed in (0, 1):
                check_workload(workdir, name, seed)
        check_rejections(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.TMP.rmdir()
        except OSError:
            pass
    check_tracer_refuses_hidden_binding()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
