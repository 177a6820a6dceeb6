"""Command behavior, exit codes and stream discipline of the CLI."""

import io
import os
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import nfr4
from nfr4 import cli
from nfr4.analysis import (
    ThresholdMode,
    build_traceability_matrix,
    rank_criticality,
)
from nfr4.dsl import parse, serialize
from nfr4.fixtures import ATM_PATH, LIBRARY_PATH
from nfr4.model import validate_structure
from nfr4.report import (
    build_bundle,
    export_json,
    render_matrix_table,
    render_summary,
)

from support import fuzz_line, mutate, random_model, run_cli, wide_model_text

LIBRARY = str(LIBRARY_PATH)
ATM = str(ATM_PATH)

WARNING_TEXT = """\
system "W"
stakeholder s "S"
goal g "G" for s
goal h "H" for s
subgoal sg "SG" of g
subgoal ss "SS" of h
nfr n "N" on g
"""

ERROR_TEXT = """\
system "E"
stakeholder s "S"
goal g "G" for s
subgoal sg "SG" of g
nfr n "N" on ghost
"""

NO_NFR_TEXT = """\
system "Z"
stakeholder s "S"
goal g "G" for s
subgoal sg "SG" of g
"""

FLAT_TEXT = """\
system "Flat"
stakeholder s "S"
goal a "A" for s
goal b "B" for s
subgoal sa "SA" of a
subgoal sb "SB" of b
nfr x "X" on a, b
nfr y "Y" on a, b
"""

UNICODE_TEXT = """\
system "Caf\u00e9 \u4e2d"
stakeholder s "Stakeholder \u00e9"
goal g "Goal \u4e2d" for s
subgoal sg "Sub-goal \u00e9\u4e2d" of g
nfr n "Usabilit\u00e9 \u4e2d" on sg
check n 1 yes
"""


@pytest.fixture
def model_file(tmp_path):
    def write(text, name="model.nfr4"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return write


# ------------------------------------------------------------------ check


def test_check_clean_fixture_is_silent():
    code, out, err = run_cli(["check", LIBRARY])
    assert (code, out, err) == (0, "", "")


def test_check_passes_warnings_by_default(model_file):
    code, out, err = run_cli(["check", model_file(WARNING_TEXT)])
    assert code == 0
    assert out == ""
    assert "warning R4" in err
    assert "'ss'" in err


def test_check_strict_fails_on_warnings(model_file):
    code, _, err = run_cli(["check", "--strict", model_file(WARNING_TEXT)])
    assert code == 1
    assert "warning" in err


def test_check_strict_on_clean_model_passes():
    assert run_cli(["check", "--strict", ATM])[0] == 0


def test_check_fails_on_error_diagnostics(model_file):
    code, out, err = run_cli(["check", model_file(ERROR_TEXT)])
    assert code == 1
    assert out == ""
    assert "error REF" in err and "ghost" in err


def test_check_reports_diagnostic_location(model_file):
    path = model_file(ERROR_TEXT)
    _, _, err = run_cli(["check", path])
    assert err.splitlines() == [
        f"{path}:4: warning R4: sub-goal 'sg' is not covered by any NFR",
        f"{path}:5: error REF: NFR 'n' references unknown goal 'ghost'",
    ]


def test_check_fails_on_parse_errors(model_file):
    path = model_file('system "T"\ngoal g "G"\n')
    code, out, err = run_cli(["check", path])
    assert code == 1
    assert out == ""
    assert f"{path}:2:" in err and "malformed-line" in err


def test_check_unreadable_file(tmp_path):
    code, _, err = run_cli(["check", str(tmp_path / "missing.nfr4")])
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command, code", [("check", 1), ("report", 2)])
def test_closed_stdin_is_unreadable(monkeypatch, command, code):
    # Python sets sys.stdin to None when fd 0 is closed at launch (`<&-`).
    monkeypatch.setattr(sys, "stdin", None)
    exit_code, out, err = run_cli([command, "-"])
    assert (exit_code, out) == (code, "")
    assert err.startswith("error: cannot read <stdin>: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------- metrics


def test_metrics_library_golden():
    code, out, err = run_cli(["metrics", LIBRARY])
    assert code == 0
    assert out == "MCR = 6 / [6+0] = 1.0000\nvalidation: 8/8 = 1.0000\n"
    assert err == ""


def test_metrics_atm_golden():
    code, out, _ = run_cli(["metrics", ATM])
    assert code == 0
    assert out == "MCR = 5 / [5+0] = 1.0000\nvalidation: 8/8 = 1.0000\n"


def test_metrics_rejects_error_models(model_file):
    code, out, err = run_cli(["metrics", model_file(ERROR_TEXT)])
    assert code == 2
    assert out == ""
    assert "error REF" in err


def test_metrics_rejects_parse_errors(model_file):
    assert run_cli(["metrics", model_file("??")])[0] == 2


def test_metrics_unreadable_file(tmp_path):
    assert run_cli(["metrics", str(tmp_path / "gone.nfr4")])[0] == 2


def no_nfr_run(model_file, command):
    """Run ``command`` on NO_NFR_TEXT; check that stderr opens with the R4
    warning and return (code, stdout, the rest of stderr)."""
    path = model_file(NO_NFR_TEXT)
    code, out, err = run_cli([command, path])
    warning = f"{path}:4: warning R4: sub-goal 'sg' is not covered by any NFR\n"
    assert err.startswith(warning)
    return code, out, err[len(warning):]


def test_metrics_needs_nfrs(model_file):
    assert no_nfr_run(model_file, "metrics") == (
        3, "", "error: model has no NFRs; MCR is undefined\n")


def test_metrics_passes_warnings(model_file):
    code, out, err = run_cli(["metrics", model_file(WARNING_TEXT)])
    assert code == 0
    assert out.startswith("MCR = 0 / [0+1] = 0.0000\n")
    assert "warning R4" in err


# ----------------------------------------------------------------- matrix


def test_matrix_output_matches_renderer(library_model):
    matrix = build_traceability_matrix(library_model)
    expected = render_matrix_table(matrix, rank_criticality(matrix))
    code, out, err = run_cli(["matrix", LIBRARY])
    assert (code, err) == (0, "")
    assert out == expected


def test_matrix_no_legend(atm_model):
    code, out, _ = run_cli(["matrix", "--no-legend", ATM])
    assert code == 0
    assert "G1 =" not in out
    matrix = build_traceability_matrix(atm_model)
    assert out == render_matrix_table(matrix, rank_criticality(matrix),
                                      legend=False)


def test_matrix_mode_changes_stars(atm_model):
    _, top1, _ = run_cli(["matrix", "--mode", "top_k=1", ATM])
    assert top1.splitlines()[1].endswith("*")     # usability
    assert not top1.splitlines()[2].endswith("*")  # performance


def test_matrix_without_nfrs_is_precondition_error(model_file):
    assert no_nfr_run(model_file, "matrix") == (
        3, "", "error: traceability matrix has no rows or no columns\n")


# --------------------------------------------------------------- critical


def test_critical_library_golden():
    code, out, err = run_cli(["critical", LIBRARY])
    assert (code, err) == (0, "")
    assert out == ("usability: 7\n"
                   "performance: 3\n"
                   "security: 1\n"
                   "reliability: 2\n"
                   "safety: 2\n"
                   "flexibility: 1\n"
                   "threshold (mean): 2.6667\n"
                   "critical: usability, performance\n")


def test_critical_atm_golden():
    _, out, _ = run_cli(["critical", ATM])
    assert out.endswith("threshold (mean): 3.4000\n"
                        "critical: usability, performance, security\n")


def test_critical_top_k_mode():
    _, out, _ = run_cli(["critical", "--mode", "top_k=1", ATM])
    assert out.endswith("threshold (top_k(1)): 6.0000\n"
                        "critical: usability\n")


@pytest.mark.parametrize("command", ["critical", "report"])
def test_mean_mode_is_the_default(command):
    assert run_cli([command, "--mode", "mean", ATM]) == run_cli([command, ATM])


def test_critical_absolute_mode():
    _, out, _ = run_cli(["critical", "--mode", "absolute=2", LIBRARY])
    assert out.endswith(
        "critical: usability, performance, reliability, safety\n")


def test_critical_absolute_mode_prints_huge_thresholds():
    code, out, err = run_cli(["critical", "--mode", "absolute=1e30", ATM])
    assert (code, err) == (0, "")
    assert out.endswith(
        "threshold (absolute(1000000000000000000000000000000)):"
        " 1000000000000000000000000000000.0000\n"
        "critical:\n")


def test_critical_empty_set_renders_bare_label(model_file):
    code, out, _ = run_cli(["critical", model_file(FLAT_TEXT)])
    assert code == 0
    assert out.endswith("threshold (mean): 2.0000\ncritical:\n")


def test_critical_without_nfrs_is_precondition_error(model_file):
    assert no_nfr_run(model_file, "critical") == (
        3, "", "error: traceability matrix has no rows or no columns\n")


# ----------------------------------------------------------------- report


def test_report_text_matches_renderer(library_model):
    code, out, _ = run_cli(["report", LIBRARY])
    assert code == 0
    assert out == render_summary(build_bundle(library_model))


def test_report_markdown(atm_model):
    code, out, _ = run_cli(["report", "--format", "markdown", ATM])
    assert code == 0
    assert out == render_summary(build_bundle(atm_model), "markdown")


def test_report_json_equals_library_export(library_model, atm_model):
    for path, model in ((LIBRARY, library_model), (ATM, atm_model)):
        code, out, _ = run_cli(["report", "--format", "json", path])
        assert code == 0
        assert out == export_json(build_bundle(model)) + "\n"


def test_report_json_respects_mode(atm_model):
    _, out, _ = run_cli(["report", "--format", "json", "--mode",
                         "top_k=2", ATM])
    assert out == export_json(
        build_bundle(atm_model, ThresholdMode.top_k(2))) + "\n"


class _RecordingStdout(io.StringIO):
    """A stdout that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_report_and_matrix_stream_their_output(model_file):
    # Each line (each JSON row) is written as it is rendered; none holds
    # more than a sliver of the output.
    path = model_file(wide_model_text(random.Random(1010), 300, 300))
    bundle = build_bundle(parse(Path(path).read_bytes()))
    for argv, expected in (
        (["report"], render_summary(bundle)),
        (["report", "--format", "markdown"], render_summary(bundle, "markdown")),
        (["report", "--format", "json"], export_json(bundle) + "\n"),
        (["matrix"], render_matrix_table(bundle.matrix, bundle.criticality)),
    ):
        out, err = _RecordingStdout(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, path])
        assert (exit_info.value.code, err.getvalue()) == (0, ""), argv
        assert "".join(out.writes) == expected, argv
        assert max(map(len, out.writes)) < 0.05 * len(expected), argv


class _CountingBytesIO(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


def test_stdout_becomes_utf8_and_block_written(model_file, monkeypatch):
    # A stdout as PYTHONIOENCODING=ascii and PYTHONUNBUFFERED=1 set it up.
    for text in (UNICODE_TEXT, wide_model_text(random.Random(3030), 300, 300)):
        path = model_file(text)
        raw = _CountingBytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
            raw, encoding="ascii", write_through=True))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["report", path])
        assert exit_info.value.code == 0
        expected = render_summary(build_bundle(parse(text.encode()))).encode()
        assert raw.getvalue() == expected
        # Blocks of up to the text layer's 8 KiB chunk, not one per line.
        assert raw.writes < expected.count(b"\n") / 10


def test_report_without_nfrs_is_precondition_error(model_file):
    assert no_nfr_run(model_file, "report") == (
        3, "", "error: model has no NFRs; MCR is undefined\n")


def test_report_rejects_error_models(model_file):
    assert run_cli(["report", model_file(ERROR_TEXT)])[0] == 2


# ------------------------------------------------------------------ stdin


def test_check_reads_stdin(library_text):
    code, out, err = run_cli(["check", "-"],
                             stdin_bytes=library_text.encode())
    assert (code, out, err) == (0, "", "")


def test_metrics_from_stdin_matches_file(library_text):
    from_file = run_cli(["metrics", LIBRARY])
    from_stdin = run_cli(["metrics", "-"],
                         stdin_bytes=library_text.encode())
    assert from_stdin == from_file


def test_stdin_errors_are_labeled(model_file):
    code, _, err = run_cli(["check", "-"], stdin_bytes=b"??\n")
    assert code == 1
    assert err.startswith("<stdin>:1:1:")


# ------------------------------------------------------------------ usage


@pytest.mark.parametrize("argv", [
    [],
    ["bogus", "file.nfr4"],
    ["check"],
    ["report", "--format", "yaml", "x.nfr4"],
    ["critical", "--mode", "bogus", "x.nfr4"],
    ["critical", "--mode", "top_k=0", "x.nfr4"],
    ["critical", "--mode", "top_k=x", "x.nfr4"],
    ["critical", "--mode", "absolute=-2", "x.nfr4"],
    ["metrics", "--strict", "x.nfr4"],
    ["critical", "--mode", "absolute=1/0", "x.nfr4"],
])
def test_bad_usage_exits_64(argv):
    code, _, err = run_cli(argv)
    assert code == 64
    assert err != ""


@pytest.mark.parametrize("mode, reason", [
    ("x", "expected mean, top_k=K or absolute=T, got 'x'"),
    ("top_k=abc", "invalid literal for int() with base 10: 'abc'"),
    ("top_k=0", "top_k needs k >= 1, got 0"),
    ("absolute=1/0", "zero denominator in 'absolute=1/0'"),
    ("absolute=nan", "Invalid literal for Fraction: 'nan'"),
    ("absolute=-2", "absolute threshold must be >= 0, got -2"),
    # K and T are ASCII with no blanks or '_', on every Python version.
    *((text, f"expected mean, top_k=K or absolute=T, got {text!r}")
      for text in ("top_k=1_0", "top_k=\u0661", "top_k= 1", "top_k=1\t",
                   "absolute=\u0662/\u0663", "absolute=1 / 2",
                   "absolute=1/2 ", "absolute=1_000")),
])
def test_bad_mode_says_why(mode, reason):
    code, out, err = run_cli(["critical", "--mode", mode, "x.nfr4"])
    assert (code, out) == (64, "")
    assert err.splitlines()[1:] == [
        f"nfr4 critical: error: argument --mode: {reason}"]


def test_usage_error_does_not_touch_the_input(model_file):
    # Usage problems are reported before the file is read.
    code, _, _ = run_cli(["critical", "--mode", "bogus",
                          "/nonexistent/never-read.nfr4"])
    assert code == 64


# ------------------------------------------------------ validation count


@pytest.mark.parametrize("argv", [
    ["report", LIBRARY],
    ["report", "--format", "json", LIBRARY],
    ["matrix", LIBRARY],
    ["critical", LIBRARY],
])
def test_analysis_commands_validate_once(monkeypatch, argv):
    calls = []

    def counted(model):
        calls.append(model)
        return validate_structure(model)

    for name, module in list(sys.modules.items()):
        if (name == "nfr4" or name.startswith("nfr4.")) \
                and getattr(module, "validate_structure", None) \
                is validate_structure:
            monkeypatch.setattr(module, "validate_structure", counted)
    assert run_cli(argv)[0] == 0
    assert len(calls) == 1


# ---------------------------------------------------------- pipeline fuzz

PIPELINE_COMMANDS = (
    ["check"], ["check", "--strict"], ["metrics"], ["matrix"], ["critical"],
    ["report"], ["report", "--format", "markdown"],
    ["report", "--format", "json"],
)


def _mutated_model_text(rng):
    """A random model's text with up to three lines broken by the fuzzer."""
    lines = serialize(random_model(rng, for_serialization=True)).splitlines()
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        position = rng.randrange(len(lines))
        lines[position] = rng.choice((
            " ".join(mutate(rng, lines[position].split(" "))),
            fuzz_line(rng)))
    return "\n".join(lines) + "\n"


def test_fuzzed_files_through_every_command(tmp_path):
    rng = random.Random(808)
    codes = set()
    for number in range(200):
        text = _mutated_model_text(rng)
        path = tmp_path / f"fuzz{number}.nfr4"
        path.write_bytes(text.encode())
        parsed = parse(text)
        for command in PIPELINE_COMMANDS:
            code, out, err = result = run_cli([*command, str(path)])
            assert run_cli([*command, str(path)]) == result, text
            assert code in (0, 1, 2, 3), (command, text)
            assert "Traceback" not in out + err
            if isinstance(parsed, list):
                assert code == (1 if command[0] == "check" else 2)
                assert (out, err) == ("", "".join(
                    f"{path}:{e.line}:{e.column}: {e.kind}: {e.message}\n"
                    for e in parsed))
            codes.add(code)
    # Every outcome must occur, or the check proves little.
    assert codes == {0, 1, 2, 3}


# ------------------------------------------------------- installed script

NFR4_BIN = shutil.which("nfr4")
# The package's own location, so the child imports the code under test.
PACKAGE_ROOT = str(Path(nfr4.__file__).resolve().parent.parent)
LAUNCHERS = [
    pytest.param([NFR4_BIN], id="script",
                 marks=pytest.mark.skipif(NFR4_BIN is None,
                                          reason="console script not on PATH")),
    pytest.param([sys.executable, "-m", "nfr4.cli"], id="module"),
]


def child_env(env=None):
    """The caller's environment with ``env`` entries over it (None unsets
    one) and the package under test first on the import path."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return {name: value for name, value in env.items() if value is not None}


def launch(launcher, argv, env=None, **kwargs):
    """Run the CLI in a child; stdout and stderr are captured unless given.

    ``env`` entries override the caller's environment; None unsets one.
    """
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([*launcher, *argv], env=child_env(env), timeout=30,
                          **kwargs)


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_installed_script_metrics(launcher):
    proc = launch(launcher, ["metrics", LIBRARY], text=True)
    assert proc.returncode == 0
    assert proc.stdout == "MCR = 6 / [6+0] = 1.0000\nvalidation: 8/8 = 1.0000\n"
    assert proc.stderr == ""


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_installed_script_check_stdin(launcher, library_text):
    proc = launch(launcher, ["check", "-"], input=library_text.encode())
    assert proc.returncode == 0
    assert proc.stdout == b""


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_installed_script_usage_error(launcher):
    proc = launch(launcher, ["definitely-not-a-command"])
    assert proc.returncode == 64


BUFFERING_MODES = ({"PYTHONUNBUFFERED": None}, {"PYTHONUNBUFFERED": "1"})


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_closed_stderr_exit_codes(launcher, model_file):
    # A usage error keeps 64; a diagnostic that cannot be written is a
    # reader gone, 141.  Buffered stderr fails at the flush at exit,
    # unbuffered stderr at the write; both must end the same way.
    warnings = model_file(WARNING_TEXT)
    for buffering in BUFFERING_MODES:
        for argv, code in ((["definitely-not-a-command"], 64),
                           (["check", warnings], 141),
                           (["report", warnings], 141),
                           (["check", LIBRARY], 0)):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = launch(launcher, argv, buffering, stderr=write_end)
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stdout) == (code, b""), \
                (argv, buffering)
            # fd 2 closed at launch (`2>&-`) is a reader gone before the
            # start; nothing meant for stderr may reach stdout.
            proc = launch(launcher, argv, buffering,
                          preexec_fn=lambda: os.close(2))
            assert (proc.returncode, proc.stdout) == (code, b""), \
                (argv, buffering)


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_closed_stdout_exits_141_quietly(launcher):
    # Buffered stdout fails at the flush, unbuffered stdout at the write;
    # both must end the same way.
    for buffering in BUFFERING_MODES:
        # As in `nfr4 report big.nfr4 | head`, but the reader is gone
        # before the output is written, so every run hits the closed pipe.
        for argv in (["report", LIBRARY], ["--help"], ["report", "--help"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = launch(launcher, argv, buffering, stdout=write_end)
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stderr) == (141, b""), \
                (argv, buffering)
        # fd 1 closed at launch (`>&-`) is a reader gone before the start;
        # check writes nothing to stdout, so it keeps its own exit code.
        for argv, code in ((["metrics", LIBRARY], 141),
                           (["report", "--format", "json", LIBRARY], 141),
                           (["check", LIBRARY], 0)):
            proc = launch(launcher, argv, buffering,
                          stdout=subprocess.DEVNULL,
                          preexec_fn=lambda: os.close(1))
            assert (proc.returncode, proc.stderr) == (code, b""), \
                (argv, buffering)


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_reader_leaving_mid_output_exits_141_quietly(launcher, model_file):
    # As `nfr4 report big.nfr4 | head -c 4096`: the output is far larger
    # than a pipe's buffer, so the reader leaves while it is written.
    text = wide_model_text(random.Random(2020), 500, 500)
    bundle = build_bundle(parse(text.encode()))
    assert min(len(render_summary(bundle)), len(export_json(bundle)),
               len(render_matrix_table(bundle.matrix, bundle.criticality))) \
        > 2 ** 20
    path = model_file(text)
    for buffering in BUFFERING_MODES:
        for argv in (["report", path], ["report", "--format", "json", path],
                     ["matrix", path]):
            with subprocess.Popen([*launcher, *argv], env=child_env(buffering),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE) as proc:
                try:
                    head = proc.stdout.read(4096)
                    proc.stdout.close()
                    _, err = proc.communicate(timeout=30)
                finally:
                    proc.kill()  # a no-op once the child has exited
            assert len(head) == 4096, (argv, buffering)
            assert (proc.returncode, err) == (141, b""), (argv, buffering)


@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_output_is_utf8_whatever_the_locale(launcher, model_file):
    path = model_file(UNICODE_TEXT)
    for argv in (["report", path], ["report", "--format", "json", path],
                 ["matrix", path]):
        utf8 = launch(launcher, argv, {"PYTHONIOENCODING": "utf-8"})
        assert utf8.returncode == 0
        assert "\u00e9".encode() in utf8.stdout
        assert "\u4e2d".encode() in utf8.stdout
        for encoding in ("ascii", "latin-1"):
            proc = launch(launcher, argv, {"PYTHONIOENCODING": encoding})
            assert (proc.returncode, proc.stdout, proc.stderr) \
                == (0, utf8.stdout, utf8.stderr), (argv, encoding)
