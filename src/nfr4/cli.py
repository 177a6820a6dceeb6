"""Command line front end.

Commands: check, metrics, matrix, critical, report.  Human output goes
to stdout; diagnostics and errors go to stderr; both are UTF-8 whatever
the locale.  ``matrix``, ``critical`` and ``report`` render one
``ReportBundle``.  Stdout is written in one place, by ``main``, from the
lines ``_output`` returns once the gate and the analysis have run.
``matrix`` and ``report`` render those lines as they are written, so a
reader that leaves early has received part of it.
Exit codes: 0 success (warnings pass unless --strict), 1 check failed,
2 model invalid for analysis, 3 no NFRs to analyse, 64 bad usage, 141
stdout closed before all the output was written (128 + SIGPIPE, as for
``nfr4 report big.nfr4 | head``) or stderr closed before a diagnostic
was written.  A usage error exits 64 whether or not stderr is open.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import functools
import gc
import io
import os
import re
import reprlib
import sys
from collections.abc import Iterable
from itertools import chain

from .analysis import (
    EmptyModelError,
    ThresholdMode,
    compute_mcr,
    refuse_digit_runs,
    score_checklist,
)
from .dsl import parse
from .model import validate_structure
from .report import (
    build_bundle,
    iter_json,
    iter_matrix_table,
    iter_summary,
    mcr_line,
    threshold_line,
    validation_line,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_MODEL = 2
EXIT_PRECONDITION = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for bad models.
    argparse echoes a refused value whole; here it is quoted short, as
    ``reprlib.repr`` quotes it."""

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments:"
                       f" {reprlib.repr(' '.join(extras))}")
        return args

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, "invalid choice:"
                                         f" {reprlib.repr(value)}"
                                         f" (choose from {choices})")

    def error(self, message):
        # argparse drops a failed write and leaves the text buffered, so
        # the flush at exit fails again; write and flush it here.
        try:
            print(f"{self.format_usage()}{self.prog}: error: {message}",
                  file=sys.stderr, flush=True)
        except BrokenPipeError:
            _discard(sys.stderr)
        sys.exit(EXIT_USAGE)

    def print_help(self, file=None):
        # argparse drops a failed write; help into a closed stdout must
        # exit 141 like any other output.
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


def _discard(*streams) -> None:
    # Point the streams at devnull: the flush at exit must not fail again.
    devnull = os.open(os.devnull, os.O_WRONLY)
    for stream in streams:
        os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _parse_mode(text: str) -> ThresholdMode:
    # int() and Fraction() also take blanks, '_' and non-ASCII digits,
    # each Python version its own set; K and T are plain ASCII here.
    value = text.partition("=")[2]
    plain = value.isascii() and value.isprintable() \
        and " " not in value and "_" not in value
    # argparse prints an ArgumentTypeError's text but drops a ValueError's.
    try:
        if text == "mean":
            return ThresholdMode.mean()
        if text.startswith("top_k=") and plain:
            refuse_digit_runs("top_k's k", value)
            # Any other K is refused by top_k, in nfr4's words.
            k = int(value) if re.fullmatch(r"[+-]?[0-9]+", value) else value
            return ThresholdMode.top_k(k)
        if text.startswith("absolute=") and plain:
            return ThresholdMode.absolute(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"expected mean, top_k=K or absolute=T, got {reprlib.repr(text)}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nfr4",
                     description="Four-layer NFR model analysis")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("input", help="model file, or - for stdin")
        return sub

    def add_mode(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--mode", type=_parse_mode,
                         default=ThresholdMode.mean(),
                         help="critical threshold: mean, top_k=K or absolute=T")

    check = add_command("check", "parse and lint a model")
    check.add_argument("--strict", action="store_true",
                       help="treat warnings as errors")

    add_command("metrics", "print completeness and validation metrics")

    matrix = add_command("matrix", "print the NFR x goal traceability table")
    add_mode(matrix)
    matrix.add_argument("--legend", action=argparse.BooleanOptionalAction,
                        default=True, help="append the goal legend")

    add_mode(add_command("critical", "print NFR scores and the critical set"))

    report = add_command("report", "print the full analysis report")
    report.add_argument("--format", choices=("text", "markdown", "json"),
                        default="text")
    add_mode(report)
    return parser


def _output(args: argparse.Namespace) -> Iterable[str]:
    """Read, parse and lint the input, run the command's analysis and
    return the lines it prints, or exit with the command's failure code.

    Parse errors and diagnostics go to stderr, one write for each gate;
    error-severity diagnostics refuse the model, and ``check --strict``
    refuses it on any diagnostic.  The gate and the analysis finish
    before this returns, so a refusal comes before any stdout.
    """
    failure_code = (EXIT_CHECK_FAILED if args.command == "check"
                    else EXIT_INVALID_MODEL)
    where = "<stdin>" if args.input == "-" else args.input
    # parse raises no OSError, and no local keeps the bytes it decodes.
    try:
        if args.input != "-":
            with open(args.input, "rb") as file:
                model = parse(file.read())
        elif sys.stdin is None:  # fd 0 was closed at launch
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            model = parse(sys.stdin.buffer.read())
    except OSError as exc:
        print(f"error: cannot read {where}: {exc}", file=sys.stderr)
        sys.exit(failure_code)
    if isinstance(model, list):
        sys.stderr.write("".join(
            f"{where}:{e.line}:{e.column}: {e.kind}: {e.message}\n"
            for e in model))
        sys.exit(failure_code)
    diagnostics = validate_structure(model)
    sys.stderr.write("".join(
        f"{where}{f':{d.source_line}' if d.source_line else ''}:"
        f" {d.severity} {d.rule_id}: {d.message}\n" for d in diagnostics))
    if any(d.severity == "error" for d in diagnostics) \
            or diagnostics and args.command == "check" and args.strict:
        sys.exit(failure_code)
    if args.command == "check":
        return ()
    if args.command == "metrics":
        return (f"{mcr_line(compute_mcr(model))}\n",
                f"{validation_line('validation', score_checklist(model))}\n")
    bundle = build_bundle(model, args.mode, diagnostics=diagnostics)
    matrix, criticality = bundle.matrix, bundle.criticality
    if args.command == "matrix":
        return iter_matrix_table(matrix, criticality, legend=args.legend)
    if args.command == "report":
        if args.format == "json":
            return chain(iter_json(bundle), "\n")
        return iter_summary(bundle, args.format)
    critical = ", ".join(matrix.nfr_ids[i] for i in criticality.critical)
    return [*map("{}: {}\n".format, matrix.nfr_ids, map(len, matrix.rows)),
            f"{threshold_line(criticality)}\n",
            f"critical: {critical}".rstrip() + "\n"]


def main(argv: list[str] | None = None) -> None:
    # The collection at interpreter exit walks the whole heap and frees
    # nothing; atexit handlers run first, and a frozen heap is skipped.
    atexit.unregister(gc.freeze)  # once, however often main runs
    atexit.register(gc.freeze)
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            # The fd was closed at launch: act as a pipe whose reader is
            # gone.  Line buffered, so that stderr fails at the write.
            read_end, write_end = os.pipe()
            os.close(read_end)
            setattr(sys, name,
                    open(write_end, "w", buffering=1, encoding="utf-8"))
    if isinstance(sys.stdout, io.TextIOWrapper):
        # Input is always read as UTF-8, so output is written as UTF-8
        # whatever the locale or PYTHONIOENCODING says.  It is written
        # in blocks of 256 KiB even under PYTHONUNBUFFERED: a streamed
        # report is thousands of lines, a wide one's longer than the
        # default 8 KiB block, one write call each otherwise.
        sys.stdout.reconfigure(encoding="utf-8", write_through=False)
        sys.stdout._CHUNK_SIZE = 1 << 18
    if isinstance(sys.stderr, io.TextIOWrapper):
        # UTF-8 as well, with the buffering left as it is.  A path from
        # argv may hold bytes that do not decode; they are escaped.
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    code = EXIT_OK
    try:
        sys.stdout.writelines(_output(build_parser().parse_args(argv)))
        sys.stdout.flush()
    # The gate leaves a goal: test_gated_models_declare_a_goal.
    except EmptyModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PRECONDITION
    except BrokenPipeError:
        # The reader of stdout or of stderr is gone.
        _discard(sys.stdout, sys.stderr)
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
