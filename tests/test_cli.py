"""Command behavior, exit codes and stream discipline of the CLI."""

import errno
import io
import json
import os
import random
import re
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
from nfr4.dsl import SerializeError, parse, serialize
from nfr4.fixtures import ATM_PATH, LIBRARY_PATH
from nfr4.model import validate_structure
from nfr4.report import (
    build_bundle,
    export_json,
    iter_json,
    iter_summary,
    render_matrix_table,
    render_summary,
    threshold_line,
)

from support import (
    blank_variant,
    bom_variant,
    brute_force_marks,
    comment_variant,
    crlf_variant,
    fuzz_line,
    moved_check_variant,
    mutate,
    oracle_ranking,
    random_model,
    repeated_check_variant,
    rows_to_marks,
    run_cli,
    wide_model_text,
    written_model,
)

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


def test_read_error_quotes_a_missing_path_as_typed(tmp_path):
    path = f"{tmp_path}/nope//x.nfr4"
    code, out, err = run_cli(["check", path])
    assert (code, out) == (1, "")
    assert err == (f"error: cannot read {path}: [Errno 2] No such file or"
                   f" directory: {path!r}\n")


def test_read_error_quotes_a_directory_as_typed(tmp_path):
    (tmp_path / "d").mkdir()
    path = f"{tmp_path}/d/"
    code, out, err = run_cli(["report", path])
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read {path}: [Errno 21] Is a directory:"
                   f" {path!r}\n")


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
    code, out, err = run_cli([*command, path])
    warning = f"{path}:4: warning R4: sub-goal 'sg' is not covered by any NFR\n"
    assert err.startswith(warning)
    return code, out, err[len(warning):]


@pytest.mark.parametrize("command", [
    ["metrics"], ["matrix"], ["matrix", "--no-legend"], ["critical"],
    ["critical", "--mode", "top_k=1"], ["report"],
    ["report", "--format", "markdown"], ["report", "--format", "json"],
], ids=" ".join)
def test_analysis_commands_need_nfrs(model_file, command):
    # Every analysis command refuses with the same line, before any stdout.
    assert no_nfr_run(model_file, command) == (
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


def test_critical_absolute_mode_takes_a_zero_at_the_exponent_bound():
    # 0e4300 is 0, while 1e4300 needs 4301 digits and exits 64.
    code, out, err = run_cli(["critical", "--mode", "absolute=0e4300", ATM])
    assert (code, err) == (0, "")
    assert "threshold (absolute(0)): 0.0000\n" in out


def test_critical_empty_set_renders_bare_label(model_file):
    code, out, _ = run_cli(["critical", model_file(FLAT_TEXT)])
    assert code == 0
    assert out.endswith("threshold (mean): 2.0000\ncritical:\n")


def test_critical_nfrs_are_read_at_their_matrix_rows():
    # The ranking picks matrix rows: the summary finds each critical
    # NFR's name and score at its row, and `critical` pairs the ids with
    # the scores in row order.  Scores are counted from the dense marks
    # and the rows come from the ranking oracle.
    rng = random.Random(2323)
    modes = {"mean": ThresholdMode.mean(), "top_k=2": ThresholdMode.top_k(2),
             "absolute=5/2": ThresholdMode.absolute("5/2")}
    counts = set()
    for _ in range(200):
        model = random_model(rng, for_serialization=True)
        if not model.nfrs:
            continue
        text = serialize(model).encode()
        for text_mode, mode in modes.items():
            bundle = build_bundle(model, mode)
            matrix, report = bundle.matrix, bundle.criticality
            scores = [sum(row) for row in brute_force_marks(model)]
            rows = oracle_ranking(scores, mode)[1]
            section = render_summary(bundle).rpartition("\nCritical NFRs\n")[2]
            assert section.split("\n") == [
                f"  {threshold_line(report)}",
                *([f"  {matrix.nfr_names[i]} ({scores[i]})"
                   for i in rows] or ["  none"]), ""]
            code, out, _ = run_cli(["critical", "--mode", text_mode, "-"], text)
            assert code == 0
            assert out.split("\n")[:len(matrix.nfr_ids)] == [
                f"{nfr_id}: {score}"
                for nfr_id, score in zip(matrix.nfr_ids, scores)]
            counts.add(len(rows))
    assert 0 in counts and max(counts) > 2


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
    nfr_ids = bundle.matrix.nfr_ids
    scores = [sum(row) for row in rows_to_marks(bundle.matrix.rows,
                                                len(bundle.matrix.goal_ids))]
    critical = ", ".join(nfr_ids[i] for i in oracle_ranking(
        scores, ThresholdMode.mean())[1])
    for argv, expected in (
        (["report"], render_summary(bundle)),
        (["report", "--format", "markdown"], render_summary(bundle, "markdown")),
        (["report", "--format", "json"], export_json(bundle) + "\n"),
        (["matrix"], render_matrix_table(bundle.matrix, bundle.criticality)),
        (["critical"], "".join(
            [*(f"{nfr_id}: {score}\n"
               for nfr_id, score in zip(nfr_ids, scores)),
             f"{threshold_line(bundle.criticality)}\n",
             f"critical: {critical}\n"])),
    ):
        out, err = _RecordingStdout(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, path])
        assert (exit_info.value.code, err.getvalue()) == (0, ""), argv
        assert "".join(out.writes) == expected, argv
        if argv == ["critical"]:
            # Its last line names every critical NFR, a large share of
            # the output; it goes line by line all the same.
            assert out.writes == expected.splitlines(keepends=True)
        else:
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
        # Blocks of up to the text layer's 256 KiB chunk, not one per line.
        assert raw.writes < expected.count(b"\n") / 10


class _CountingRawWriter(io.RawIOBase):
    def __init__(self):
        super().__init__()
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


@pytest.mark.parametrize("stack", ["raw", "buffered"])
def test_stdout_goes_out_in_256_kib_blocks(model_file, monkeypatch, stack):
    # As PYTHONUNBUFFERED=1 sets stdout up, the text layer over the raw
    # file; without it, over a BufferedWriter of its own 8 KiB buffer.
    text = wide_model_text(random.Random(4040), 500, 500)
    bundle = build_bundle(parse(text.encode()))
    path = model_file(text)
    for argv, pieces in ((["report", path], list(iter_summary(bundle))),
                         (["report", "--format", "json", path],
                          [*iter_json(bundle), "\n"])):
        raw = _CountingRawWriter()
        binary = raw if stack == "raw" else io.BufferedWriter(raw)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
            binary, encoding="utf-8", write_through=stack == "raw"))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 0
        expected = "".join(pieces).encode()
        assert len(expected) > 2 ** 20
        assert b"".join(raw.writes) == expected, argv
        # The text layer sends on what it holds before one more piece (a
        # line, a JSON row) would take it past the chunk, so a block falls
        # short of 256 KiB by less than a piece; only the last may be
        # shorter.
        longest = max(len(piece.encode()) for piece in pieces)
        assert min(map(len, raw.writes[:-1])) > 2 ** 18 - longest, argv
        assert max(map(len, raw.writes)) <= 2 ** 18, argv


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
    # Any K but an optional sign and ASCII digits is not an integer.
    *((f"top_k={k}", f"top_k needs an integer k, got {k!r}")
      for k in ("abc", "", "1.5", "+-3")),
    ("top_k=0", "top_k needs k >= 1, got 0"),
    ("absolute=1/0", "absolute needs a number t, got '1/0'"),
    ("absolute=nan", "absolute needs a number t, got 'nan'"),
    ("absolute=-2", "absolute threshold must be >= 0, got -2"),
    # K and T are ASCII with no blanks or '_', on every Python version.
    *((text, f"expected mean, top_k=K or absolute=T, got {text!r}")
      for text in ("top_k=1_0", "top_k=\u0661", "top_k= 1", "top_k=1\t",
                   "absolute=\u0662/\u0663", "absolute=1 / 2",
                   "absolute=1/2 ", "absolute=1_000")),
    # Fraction() would compute 10**exponent, and str() could not print T.
    *((text, "absolute threshold has an exponent above 4300 in magnitude")
      for text in ("absolute=1e5000", "absolute=1e-5000", "absolute=1e99999")),
    *((text, "absolute threshold needs more than 4300 digits to print")
      for text in ("absolute=123e4299", "absolute=1e4300")),
])
def test_bad_mode_says_why(mode, reason):
    code, out, err = run_cli(["critical", "--mode", mode, "x.nfr4"])
    assert (code, out) == (64, "")
    assert err.splitlines()[1:] == [
        f"nfr4 critical: error: argument --mode: {reason}"]


@pytest.mark.parametrize("mode", [
    "top_k=1" + "0" * 4300, "top_k=1" + "0" * 5000, "top_k=" + "9" * 4300,
    "absolute=1e4300", "absolute=1e5000", "absolute=0e4300",
], ids=["top_k=10**4300", "top_k=10**5000", "top_k=10**4300-1",
        "absolute=1e4300", "absolute=1e5000", "absolute=0e4300"])
def test_mode_acceptance_does_not_depend_on_the_int_digit_limit(mode):
    # PYTHONINTMAXSTRDIGITS=0 lifts str()'s limit; the bound on K and T
    # is fixed, so both processes accept or refuse alike.  Only the
    # reason on stderr may differ.
    runs = [launch([sys.executable, "-m", "nfr4.cli"],
                   ["critical", "--mode", mode, LIBRARY],
                   {"PYTHONINTMAXSTRDIGITS": limit})
            for limit in (None, "0")]
    assert runs[1].returncode == runs[0].returncode
    assert runs[1].stdout == runs[0].stdout


LONG_RUNS = [
    ("absolute=" + "1" * 5000, b"absolute threshold", ""),
    ("top_k=" + "1" * 5000, b"top_k's k", "top_k=5000 ones-"),
    ("top_k=" + "0" * 4300 + "3", b"top_k's k", "top_k=4300 zeros and 3-"),
]


@pytest.mark.parametrize("mode, what, limit", [
    pytest.param(mode, what, limit, id=f"{name}{limit}")
    for mode, what, name in LONG_RUNS for limit in (None, "0", "640")])
def test_a_long_run_of_digits_gets_one_short_reason(mode, what, limit):
    # Whether int() reads the digits depends on the digit limit; the mode
    # refuses them first, in every process, without echoing them.
    proc = launch([sys.executable, "-m", "nfr4.cli"],
                  ["critical", "--mode", mode, LIBRARY],
                  {"PYTHONINTMAXSTRDIGITS": limit})
    assert (proc.returncode, proc.stdout) == (64, b"")
    assert proc.stderr.splitlines()[-1] == (
        b"nfr4 critical: error: argument --mode: " + what
        + b" has more than 4300 digits in a row")
    assert len(proc.stderr) < 500


@pytest.mark.parametrize("mode", [
    "absolute=" + ("1" * 4300 + "/") * 20, "x" * 100_000, "top_k=" + "x" * 300,
], ids=["absolute=20 runs of 4300 ones", "100000 x", "top_k=300 x"])
def test_a_refused_mode_is_quoted_short(mode):
    code, out, err = run_cli(["critical", "--mode", mode, LIBRARY])
    assert (code, out) == (64, "")
    assert "..." in err.splitlines()[-1]
    assert len(err.encode()) < 500


@pytest.mark.parametrize("argv, shown", [
    (["report", "--format", "x" * 100_000, LIBRARY],
     "argument --format: invalid choice: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
     " (choose from 'text', 'markdown', 'json')"),
    (["x" * 100_000], "argument command: invalid choice:"
     " 'xxxxxxxxxxxx...xxxxxxxxxxxxx' (choose from 'check', 'metrics',"
     " 'matrix', 'critical', 'report')"),
    (["check", LIBRARY, "x" * 100_000],
     "unrecognized arguments: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    (["check", LIBRARY, "x y " * 25_000],
     "unrecognized arguments: 'x y x y x y ... x y x y x y '"),
], ids=["--format", "command", "extra argument", "extra argument of words"])
def test_argparse_quotes_a_refused_value_short(argv, shown):
    # argparse's own reasons echo the value whole; here it is quoted as
    # nfr4's own reasons quote it.
    code, out, err = run_cli(argv)
    assert (code, out) == (64, "")
    assert err.splitlines()[-1].partition(" error: ")[2] == shown
    assert len(err.encode()) < 500


@pytest.mark.parametrize("argv", [
    ["critical"], ["matrix"], ["report", "--format", "json"],
], ids=" ".join)
def test_a_threshold_this_process_cannot_print_is_refused_up_front(argv):
    # Under a lower int digit limit a T of 1001 digits is refused when the
    # mode is built: no output, not a traceback part way through it.
    proc = launch([sys.executable, "-m", "nfr4.cli"],
                  [*argv, "--mode", "absolute=1e1000", LIBRARY],
                  {"PYTHONINTMAXSTRDIGITS": "640"})
    assert (proc.returncode, proc.stdout) == (64, b"")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("mode, reason", [
    ("top_k=" + "9" * 4300, b"top_k's k has more than 640 digits in a row"),
    ("absolute=" + "9" * 700,
     b"absolute threshold has more than 640 digits in a row"),
    ("absolute=1e1000", b"absolute threshold needs more than 640 digits"
     b" to print"),
], ids=["top_k=4300 nines", "absolute=700 nines", "absolute=1e1000"])
def test_a_lower_int_digit_limit_is_named_in_the_reason(mode, reason):
    # Python's own text would tell a CLI user to call
    # sys.set_int_max_str_digits(); the reason names the variable instead.
    proc = launch([sys.executable, "-m", "nfr4.cli"],
                  ["critical", "--mode", mode, LIBRARY],
                  {"PYTHONINTMAXSTRDIGITS": "640"})
    assert (proc.returncode, proc.stdout) == (64, b"")
    assert proc.stderr.splitlines()[-1] == (
        b"nfr4 critical: error: argument --mode: " + reason
        + b", the PYTHONINTMAXSTRDIGITS limit")


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


def test_crlf_line_ends_and_a_bom_change_no_output():
    # Each relation runs on 200 fuzzed files that parse and 50 that do
    # not, with the model read from stdin so that no path tells them apart.
    rng = random.Random(808)
    relations = (crlf_variant, bom_variant)
    wanted = {(relation, parses): 200 if parses else 50
              for relation in relations for parses in (True, False)}
    codes = set()
    while any(wanted.values()):
        text = _mutated_model_text(rng)
        parses = not isinstance(parse(text), list)
        variants = []
        for relation in relations:
            variant = relation(text)
            if variant is not None and wanted[relation, parses]:
                wanted[relation, parses] -= 1
                variants.append((relation.__name__, variant.encode()))
        if not variants:
            continue
        for command in PIPELINE_COMMANDS:
            result = run_cli([*command, "-"], text.encode())
            for name, variant in variants:
                assert run_cli([*command, "-"], variant) == result, \
                    (name, command, text)
            codes.add(result[0])
    assert codes == {0, 1, 2, 3}


def test_blanks_and_trailing_comments_change_no_parse():
    # Every command's output depends only on the parse result and the
    # input's name, so a relation that keeps repr(parse(text)), line
    # fields included, keeps every command's output.  Each relation runs
    # on 200 fuzzed files that parse; one per relation also goes through
    # every command.
    rng = random.Random(909)
    relations = (blank_variant, comment_variant)
    files = 0
    while files < 200:
        text = _mutated_model_text(rng)
        parsed = parse(text)
        if isinstance(parsed, list):
            continue
        for relation in relations:
            variant = relation(text, rng)
            assert variant != text
            assert repr(parse(variant)) == repr(parsed), \
                (relation.__name__, text, variant)
            if files == 0:
                for command in PIPELINE_COMMANDS:
                    assert run_cli([*command, "-"], variant.encode()) \
                        == run_cli([*command, "-"], text.encode()), \
                        (relation.__name__, command)
        files += 1


def test_a_repeated_check_and_a_round_trip_change_no_parse():
    # A copy of the last answer to a question, put later, answers it the
    # same; put at the end, it moves no line either, so every command's
    # output stays equal (checked once).  A model that serialize accepts
    # reads back equal; once, its commands are run, where only line
    # numbers may differ.  Each relation runs on 200 fuzzed files that
    # parse.
    rng = random.Random(1010)
    repeated = round_trips = 0
    commands_run = set()
    while repeated < 200 or round_trips < 200:
        text = _mutated_model_text(rng)
        parsed = parse(text)
        if isinstance(parsed, list):
            continue
        copied = repeated_check_variant(text, rng,
                                        {nfr.id for nfr in parsed.nfrs})
        if copied is not None:
            variant, at_end = copied
            assert parse(variant) == parsed, (text, variant)
            if at_end:
                assert repr(parse(variant)) == repr(parsed), (text, variant)
                if "repeat" not in commands_run:
                    commands_run.add("repeat")
                    for command in PIPELINE_COMMANDS:
                        assert run_cli([*command, "-"], variant.encode()) \
                            == run_cli([*command, "-"], text.encode()), command
            repeated += 1
        try:
            canonical = serialize(parsed)
        except SerializeError:
            continue
        assert parse(canonical) == parsed, text
        round_trips += 1
        # Once, on a model with warnings that every command analyses.
        diagnostics = validate_structure(parsed)
        if "round trip" in commands_run or not diagnostics \
                or any(d.severity == "error" for d in diagnostics) \
                or not parsed.nfrs or not parsed.goals:
            continue
        commands_run.add("round trip")
        for command in (["metrics"], ["matrix"], ["critical"]):
            code, out, _ = run_cli([*command, "-"], text.encode())
            assert (code, out) == run_cli([*command, "-"],
                                          canonical.encode())[:2], command
        reports = []
        for source in (text, canonical):
            code, out, _ = run_cli(["report", "--format", "json", "-"],
                                   source.encode())
            assert code == 0
            report = json.loads(out)
            for diagnostic in report["diagnostics"]:
                del diagnostic["line"]
            reports.append(report)
        assert reports[0] == reports[1]
    assert commands_run == {"repeat", "round trip"}


def _renumbered(output, renumbered):
    """Stdout or stderr of a run on stdin with each line number, in a
    diagnostic or a parse error, that is a key of ``renumbered`` replaced
    by its value."""
    def new(match):
        number = int(match[2])
        return f"{match[1]}{renumbered.get(number, number)}"
    return re.sub(r'(^<stdin>:|\(line |"line": )(\d+)', new, output,
                  flags=re.M)


def test_a_check_moved_later_changes_only_line_numbers():
    # A check line moved later, after its NFR's declaration and past no
    # other answer to the same question, sets the same answer.  Only the
    # lines it passes, and its own, get new numbers, and every command's
    # output may change in those numbers alone.  It runs on 200 written
    # files, which all parse.
    rng = random.Random(1111)
    files = renumbered_runs = 0
    while files < 200:
        model, lines = written_model(rng)
        moved = moved_check_variant(rng, lines)
        if moved is None:
            continue
        variant, renumbered = moved
        text = "".join(line for _, line in lines)
        assert parse(variant) == model, (text, variant)
        for command in PIPELINE_COMMANDS:
            code, out, err = run_cli([*command, "-"], text.encode())
            expected = (code, _renumbered(out, renumbered),
                        _renumbered(err, renumbered))
            assert run_cli([*command, "-"], variant.encode()) == expected, \
                (command, text, variant)
            renumbered_runs += expected != (code, out, err)
        files += 1
    # The line numbers of the diagnostics did move in some runs.
    assert renumbered_runs > 20


def _renamed(model, fresh):
    """``model`` with every id, and every reference to one, replaced by
    its entry in ``fresh``."""
    def ids(refs):
        return tuple(map(fresh.__getitem__, refs))
    return model._replace(
        stakeholders=tuple(s._replace(id=fresh[s.id])
                           for s in model.stakeholders),
        goals=tuple(g._replace(id=fresh[g.id], owners=ids(g.owners))
                    for g in model.goals),
        subgoals=tuple(s._replace(id=fresh[s.id], parents=ids(s.parents))
                       for s in model.subgoals),
        nfrs=tuple(n._replace(id=fresh[n.id],
                              attached_subgoals=ids(n.attached_subgoals),
                              attached_goals=ids(n.attached_goals))
                   for n in model.nfrs),
        unresolved_checks=tuple(c._replace(nfr_id=fresh[c.nfr_id])
                                for c in model.unresolved_checks))


def _ids_put_back(data, back):
    """A JSON report with each id, and each quoted id in a diagnostic's
    message, replaced by its entry in ``back``; key order is kept."""
    def ids(values):
        return [back[value] for value in values]
    for layer in data["layers"].values():
        layer["ids"] = ids(layer["ids"])
    for diagnostic in data["diagnostics"]:
        diagnostic["subject"] = back[diagnostic["subject"]]
        diagnostic["message"] = re.sub(
            r"'([^']*)'", lambda m: f"'{back[m[1]]}'", diagnostic["message"])
    checklist, matrix = data["checklist"], data["matrix"]
    checklist["per_nfr"] = {back[key]: value
                            for key, value in checklist["per_nfr"].items()}
    matrix["nfr_ids"], matrix["goal_ids"] = (ids(matrix["nfr_ids"]),
                                             ids(matrix["goal_ids"]))
    criticality = data["criticality"]
    criticality["scores"] = {back[key]: value
                             for key, value in criticality["scores"].items()}
    criticality["critical"] = ids(criticality["critical"])
    return data


def test_renaming_every_id_changes_no_report():
    # Ids name elements and nothing else: order, scores, ranking ties and
    # diagnostics follow declaration order.  Each fuzzed model that passes
    # the gate gets fresh ids in reverse lexical order, and its JSON report
    # must equal the original's once the ids are put back.
    rng = random.Random(2626)
    modes = (ThresholdMode.mean(), ThresholdMode.top_k(2),
             ThresholdMode.absolute(2))
    models = 0
    while models < 200:
        model = parse(_mutated_model_text(rng))
        if isinstance(model, list) or not model.nfrs:
            continue
        diagnostics = validate_structure(model)
        if any(d.severity == "error" for d in diagnostics):
            continue
        mode = modes[models % len(modes)]
        originals = sorted({e.id for e in (*model.stakeholders, *model.goals,
                                           *model.subgoals, *model.nfrs)})
        fresh = {old: f"r{len(originals) - k:03d}"
                 for k, old in enumerate(originals)}
        renamed = _renamed(model, fresh)
        expected = export_json(build_bundle(model, mode,
                                            diagnostics=diagnostics))
        actual = json.loads(export_json(build_bundle(renamed, mode)))
        back = {new: old for old, new in fresh.items()}
        assert json.dumps(_ids_put_back(actual, back), indent=2,
                          ensure_ascii=False) == expected
        models += 1


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
    proc = launch(launcher, ["metrics", LIBRARY], encoding="utf-8")
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


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this system")


@needs_dev_full
@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_full_stderr_is_not_written_when_there_is_nothing_to_say(launcher):
    # /dev/full refuses every write, even an empty one; a model with no
    # diagnostic writes nothing to stderr, so it exits as it would anyway.
    for argv in (["check", LIBRARY], ["metrics", LIBRARY],
                 ["matrix", LIBRARY], ["critical", LIBRARY],
                 ["report", LIBRARY]):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        for buffering in BUFFERING_MODES:
            with open("/dev/full", "wb") as full:
                proc = launch(launcher, argv, buffering, stderr=full)
            assert (proc.returncode, proc.stdout) == (0, out.encode()), \
                (argv, buffering)


# /dev/full fails every write with ENOSPC: a write error that is not a
# reader gone.  Buffered streams fail at the flush, unbuffered ones at
# the write; both must end the same way, with no traceback.
ENOSPC_LINE = ("error: cannot write <stdout>:"
               f" [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
EVERY_COMMAND = (["check"], ["check", "--strict"], ["metrics"], ["matrix"],
                 ["critical"], ["report"], ["report", "--format", "json"])


@needs_dev_full
@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_full_stdout_exits_74_with_one_error_line(launcher, model_file):
    # What would have gone to stderr still goes there, then one line.
    warnings, errors = model_file(WARNING_TEXT), model_file(ERROR_TEXT, "e")
    cases = [(["--help"], 74), (["report", "--help"], 74),
             (["definitely-not-a-command"], 64),
             (["report", model_file(NO_NFR_TEXT, "z")], 3)]
    cases += [([*argv, LIBRARY], 0 if argv[0] == "check" else 74)
              for argv in EVERY_COMMAND]
    cases += [([*argv, warnings], 74 if argv[0] != "check" else
               1 if "--strict" in argv else 0) for argv in EVERY_COMMAND]
    cases += [([*argv, errors], 1 if argv[0] == "check" else 2)
              for argv in EVERY_COMMAND]
    for argv, code in cases:
        _, _, err = run_cli(argv)
        if code == 74:
            err += ENOSPC_LINE
        for buffering in BUFFERING_MODES:
            with open("/dev/full", "wb") as full:
                proc = launch(launcher, argv, buffering, stdout=full)
            assert (proc.returncode, proc.stderr.decode()) == (code, err), \
                (argv, buffering)


@needs_dev_full
@pytest.mark.parametrize("launcher", LAUNCHERS)
def test_full_stderr_exits_74_before_any_output(launcher, model_file):
    # A diagnostic or error line that cannot be written ends the run
    # before stdout is written; a usage error keeps 64.
    warnings, errors = model_file(WARNING_TEXT), model_file(ERROR_TEXT, "e")
    no_nfrs, missing = model_file(NO_NFR_TEXT, "z"), model_file("", "gone")
    os.remove(missing)
    cases = [(["--help"], 0), (["report", "--help"], 0),
             (["definitely-not-a-command"], 64),
             (["metrics", no_nfrs], 74), (["report", missing], 74)]
    cases += [([*argv, path], 74)
              for argv in EVERY_COMMAND for path in (warnings, errors)]
    for argv, code in cases:
        out = run_cli(argv)[1] if code == 0 else ""
        for buffering in BUFFERING_MODES:
            with open("/dev/full", "wb") as full:
                proc = launch(launcher, argv, buffering, stderr=full)
            assert (proc.returncode, proc.stdout.decode()) == (code, out), \
                (argv, buffering)


def test_output_does_not_depend_on_the_hash_seed(model_file):
    # Set and dict order of str keys follows the hash seed; no output may.
    wide = model_file(wide_model_text(random.Random(5), 300, 200))
    for argv in (["report"], ["report", "--format", "json"]):
        for path in (LIBRARY, wide):
            runs = [launch([sys.executable, "-m", "nfr4.cli"], [*argv, path],
                           {"PYTHONHASHSEED": seed}) for seed in ("0", "1")]
            assert [proc.returncode for proc in runs] == [0, 0], (argv, path)
            assert runs[0].stdout == runs[1].stdout, (argv, path)


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
                           (["critical", LIBRARY], 141),
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


# Registered before main, so it runs after main's own exit handlers.
FREEZE_PROBE = """\
import atexit, gc, os
atexit.register(lambda: os.write(2, b"frozen: %d\\n" % gc.get_freeze_count()))
from nfr4.cli import main
main()
"""


def test_the_heap_is_frozen_before_the_exit_time_collection(model_file):
    # The collection at interpreter exit skips a frozen heap; every way
    # out of main freezes it first.
    for argv, code in ((["metrics", LIBRARY], 0),
                       (["report", model_file(ERROR_TEXT)], 2),
                       (["report", "--format", "yaml", LIBRARY], 64)):
        proc = launch([sys.executable, "-c", FREEZE_PROBE], argv)
        assert proc.returncode == code, argv
        frozen = proc.stderr.splitlines()[-1]
        assert frozen.startswith(b"frozen: "), argv
        assert int(frozen.removeprefix(b"frozen: ")) > 0, argv


def test_main_freezes_the_heap_once_however_often_it_runs():
    # Tests run main in process hundreds of times.
    probe = FREEZE_PROBE.replace("main()\n", """\
freeze = gc.freeze
gc.freeze = lambda: [freeze(), os.write(2, b"freeze\\n")]
for _ in range(3):
    try:
        main()
    except SystemExit:
        pass
""")
    proc = launch([sys.executable, "-c", probe], ["check", LIBRARY])
    assert proc.returncode == 0
    assert proc.stderr.splitlines().count(b"freeze") == 1


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
    # stderr too: the parse error quotes the input line.
    bad = model_file('system "S"\nstakeholder \u00e9 "x"\n', "bad.nfr4")
    utf8 = launch(launcher, ["check", bad], {"PYTHONIOENCODING": "utf-8"})
    assert utf8.returncode == 1
    assert "\u00e9".encode() in utf8.stderr
    for encoding in ("ascii", "latin-1"):
        proc = launch(launcher, ["check", bad], {"PYTHONIOENCODING": encoding})
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == (1, b"", utf8.stderr), encoding
