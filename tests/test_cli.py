"""Command behavior, exit codes and stream discipline of the CLI."""

import functools
import os
import random
import shutil
import subprocess
import sys
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

from support import fuzz_line, mutate, random_model, run_cli

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


def test_fuzzed_files_through_every_command(tmp_path, monkeypatch):
    # Building the argparse parser is most of an in-process run; one
    # parser serves every run here.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
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


def launch(launcher, argv, env=None, **kwargs):
    """Run the CLI in a child; stdout and stderr are captured unless given.

    ``env`` entries override the caller's environment; None unsets one.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env = {name: value for name, value in env.items() if value is not None}
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([*launcher, *argv], env=env, timeout=30, **kwargs)


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
