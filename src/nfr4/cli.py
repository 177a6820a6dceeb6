"""Command line front end.

Commands: check, metrics, matrix, critical, report.  Human output goes
to stdout, in UTF-8 whatever the locale; diagnostics and errors go to
stderr.  ``matrix`` and ``report`` write their output line by line as
it is rendered, so a reader that leaves early has received part of it.
Exit codes: 0 success (warnings pass unless --strict), 1 check failed,
2 model invalid for analysis, 3 analysis precondition violated (e.g. no
NFRs), 64 bad usage, 141 stdout closed before all the output was
written (128 + SIGPIPE, as for ``nfr4 report big.nfr4 | head``) or
stderr closed before a diagnostic was written.  A usage error exits 64
whether or not stderr is open.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path

from .analysis import (
    EmptyMatrixError,
    EmptyModelError,
    ThresholdMode,
    build_traceability_matrix,
    compute_mcr,
    rank_criticality,
    score_checklist,
)
from .dsl import ParseError, parse
from .model import Diagnostic, Model, validate_structure
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
    """argparse exits 2 on usage errors; this tool reserves 2 for bad models."""

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
    # argparse prints an ArgumentTypeError's text but drops a ValueError's.
    try:
        if text == "mean":
            return ThresholdMode.mean()
        if text.startswith("top_k="):
            return ThresholdMode.top_k(int(text[len("top_k="):]))
        if text.startswith("absolute="):
            return ThresholdMode.absolute(Fraction(text[len("absolute="):]))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"zero denominator in {text!r}") from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"expected mean, top_k=K or absolute=T, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nfr4",
                     description="Four-layer NFR model analysis")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str,
                    handler: Callable[[argparse.Namespace], int]
                    ) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("input", help="model file, or - for stdin")
        sub.set_defaults(handler=handler)
        return sub

    def add_mode(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--mode", type=_parse_mode,
                         default=ThresholdMode.mean(),
                         help="critical threshold: mean, top_k=K or absolute=T")

    check = add_command("check", "parse and lint a model", _cmd_check)
    check.add_argument("--strict", action="store_true",
                       help="treat warnings as errors")

    add_command("metrics", "print completeness and validation metrics",
                _cmd_metrics)

    matrix = add_command("matrix", "print the NFR x goal traceability table",
                         _cmd_ranking)
    add_mode(matrix)
    matrix.add_argument("--legend", action=argparse.BooleanOptionalAction,
                        default=True, help="append the goal legend")

    add_mode(add_command("critical", "print NFR scores and the critical set",
                         _cmd_ranking))

    report = add_command("report", "print the full analysis report",
                         _cmd_report)
    report.add_argument("--format", choices=("text", "markdown", "json"),
                        default="text")
    add_mode(report)
    return parser


def _display_path(path: str) -> str:
    return "<stdin>" if path == "-" else path


def _read_input(path: str) -> bytes:
    if path == "-":
        if sys.stdin is None:  # fd 0 was closed at launch
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _print_parse_errors(errors: list[ParseError], path: str) -> None:
    where = _display_path(path)
    for error in errors:
        print(f"{where}:{error.line}:{error.column}:"
              f" {error.kind}: {error.message}", file=sys.stderr)


def _print_diagnostics(diagnostics: list[Diagnostic], path: str) -> None:
    where = _display_path(path)
    for diagnostic in diagnostics:
        location = f"{where}:{diagnostic.source_line}" \
            if diagnostic.source_line else where
        print(f"{location}: {diagnostic.severity} {diagnostic.rule_id}:"
              f" {diagnostic.message}", file=sys.stderr)


def _load_gated(path: str,
                failure_code: int) -> tuple[Model, list[Diagnostic]]:
    """Read, parse and lint the input, or exit with ``failure_code``.

    Diagnostics go to stderr; error-severity ones refuse the model.
    """
    try:
        raw = _read_input(path)
    except OSError as exc:
        print(f"error: cannot read {_display_path(path)}: {exc}",
              file=sys.stderr)
        sys.exit(failure_code)
    model = parse(raw)
    if isinstance(model, list):
        _print_parse_errors(model, path)
        sys.exit(failure_code)
    diagnostics = validate_structure(model)
    _print_diagnostics(diagnostics, path)
    if any(d.severity == "error" for d in diagnostics):
        sys.exit(failure_code)
    return model, diagnostics


def _cmd_check(args: argparse.Namespace) -> int:
    _, diagnostics = _load_gated(args.input, EXIT_CHECK_FAILED)
    return EXIT_CHECK_FAILED if diagnostics and args.strict else EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    model, _ = _load_gated(args.input, EXIT_INVALID_MODEL)
    print(mcr_line(compute_mcr(model)))
    print(validation_line(score_checklist(model)))
    return EXIT_OK


def _cmd_ranking(args: argparse.Namespace) -> int:
    """``matrix`` prints the ranked table, ``critical`` the scores."""
    model, diagnostics = _load_gated(args.input, EXIT_INVALID_MODEL)
    matrix = build_traceability_matrix(model, diagnostics=diagnostics)
    criticality = rank_criticality(matrix, args.mode)
    if args.command == "matrix":
        sys.stdout.writelines(
            iter_matrix_table(matrix, criticality, legend=args.legend))
        return EXIT_OK
    for nfr_id, score in zip(criticality.nfr_ids, criticality.scores):
        print(f"{nfr_id}: {score}")
    print(threshold_line(criticality))
    print(f"critical: {', '.join(criticality.critical)}".rstrip())
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    model, diagnostics = _load_gated(args.input, EXIT_INVALID_MODEL)
    bundle = build_bundle(model, args.mode, diagnostics=diagnostics)
    if args.format == "json":
        sys.stdout.writelines(iter_json(bundle))
        print()
    else:
        sys.stdout.writelines(iter_summary(bundle, args.format))
    return EXIT_OK


def main(argv: list[str] | None = None) -> None:
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
        # in blocks even under PYTHONUNBUFFERED: a streamed report is
        # thousands of short lines, one write call each otherwise.
        sys.stdout.reconfigure(encoding="utf-8", write_through=False)
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()
    except (EmptyModelError, EmptyMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_PRECONDITION
    except BrokenPipeError:
        # The reader of stdout or of stderr is gone.
        _discard(sys.stdout, sys.stderr)
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
