"""Rendering: matrix tables, human summaries and JSON export.

Every renderer is deterministic -- the same bundle yields byte-identical
output -- and text output ends with exactly one trailing newline.  Each
renderer joins the pieces of a generator (``iter_matrix_table``,
``iter_summary``, ``iter_json``) that yields its text one line, or one
JSON row, at a time, so a caller can write a large report without
holding it whole.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, chain
from json.encoder import encode_basestring as _encode

from .analysis import (
    CompletenessResult,
    CriticalityReport,
    ThresholdMode,
    TraceabilityMatrix,
    build_traceability_matrix,
    compute_mcr,
    rank_criticality,
    score_checklist,
)
from .model import (CHECKLIST_SIZE, ChecklistRecord, Diagnostic, Model,
                    record, validate_structure)


def format_ratio(value: Fraction) -> str:
    """Fixed four-decimal rendering of an exact ratio, halves away from 0."""
    numerator, denominator = value.numerator, value.denominator
    scaled = (20000 * abs(numerator) + denominator) // (2 * denominator)
    sign = "-" if numerator < 0 else ""
    return f"{sign}{scaled // 10000}.{scaled % 10000:04d}"


def mcr_line(completeness: CompletenessResult) -> str:
    n_c, n_nv = completeness.n_c, completeness.n_nv
    return f"MCR = {n_c} / [{n_c}+{n_nv}] = {format_ratio(completeness.mcr)}"


def validation_line(label: str, checklist: ChecklistRecord) -> str:
    return (f"{label}: {checklist.yes_count}/{CHECKLIST_SIZE}"
            f" = {format_ratio(checklist.metric)}")


def threshold_line(criticality: CriticalityReport) -> str:
    return (f"threshold ({criticality.threshold_mode}):"
            f" {format_ratio(criticality.threshold_value)}")


class ReportBundle(record("model diagnostics completeness whole_model_score"
                          " matrix criticality")):
    """Everything the report renderers need, computed from one model."""

    __slots__ = ()


def build_bundle(model: Model, mode: ThresholdMode = ThresholdMode.mean(), *,
                 diagnostics: Sequence[Diagnostic] | None = None) -> ReportBundle:
    """Run the full analysis for one model.

    Raises EmptyModelError on a model without NFRs and InvalidModelError
    on one with error-severity diagnostics; warnings ride along in the
    bundle.  ``diagnostics`` is what ``validate_structure(model)``
    returned; the model is validated here only when it is not given.
    """
    if diagnostics is None:
        diagnostics = validate_structure(model)
    completeness = compute_mcr(model)
    matrix = build_traceability_matrix(model, diagnostics=diagnostics)
    return ReportBundle(model, tuple(diagnostics), completeness,
                        score_checklist(model), matrix,
                        rank_criticality(matrix, mode))


def _critical_rows(matrix: TraceabilityMatrix,
                   criticality: CriticalityReport) -> set[int]:
    """The critical rows; refused if one is not a row of ``matrix``."""
    rows = range(len(matrix.rows))
    if not all(i in rows for i in criticality.critical):
        raise ValueError("criticality names a row the matrix does not have")
    return set(criticality.critical)


def iter_matrix_table(matrix: TraceabilityMatrix,
                      criticality: CriticalityReport,
                      legend: bool = True) -> Iterator[str]:
    """``render_matrix_table`` one line at a time, each with its newline.

    An empty matrix, and a criticality that names a row the matrix does
    not have, are refused before the first line.
    """
    if not matrix.nfr_ids or not matrix.goal_ids:
        raise ValueError("cannot render an empty matrix")

    goal_headers = [f"G{j + 1}" for j in range(len(matrix.goal_ids))]
    name_width = max(len("NFR"), max(len(name) for name in matrix.nfr_names))
    score_width = max(len("score"), len(str(max(map(len, matrix.rows)))))
    critical_set = _critical_rows(matrix, criticality)

    def row(cells: list[str]) -> str:
        return "  ".join(cells).rstrip() + "\n"

    yield row(["NFR".ljust(name_width), *goal_headers,
               "score".ljust(score_width), "critical"])
    # The goal cells of an unmarked row, and the offset where each cell
    # starts: a row is a copy of the template with an X stored per mark.
    # Only blanks and Xs go through bytes; names may be non-ASCII.
    template = "  ".join(" " * len(header) for header in goal_headers).encode()
    starts = list(accumulate((len(header) + 2 for header in goal_headers[:-1]),
                             initial=0))
    cross = ord("X")
    for i, (name, marked) in enumerate(zip(matrix.nfr_names, matrix.rows)):
        goal_cells = bytearray(template)
        for j in marked:
            goal_cells[starts[j]] = cross
        yield row([name.ljust(name_width), goal_cells.decode(),
                   str(len(marked)).ljust(score_width),
                   "*" if i in critical_set else ""])

    if legend:
        yield "\n"
        for header, name in zip(goal_headers, matrix.goal_names):
            yield f"{header} = {name}\n"


def render_matrix_table(matrix: TraceabilityMatrix,
                        criticality: CriticalityReport,
                        legend: bool = True) -> str:
    """Fixed-width traceability table.

    Columns are G1..Gm in goal declaration order, marks are ``X``, and
    each row ends with its score and a ``*`` when the NFR is critical.
    The legend maps Gj back to goal display names.
    """
    return "".join(iter_matrix_table(matrix, criticality, legend))


def _diagnostic_line(diagnostic: Diagnostic) -> str:
    where = f" (line {diagnostic.source_line})" if diagnostic.source_line else ""
    return f"{diagnostic.severity} {diagnostic.rule_id}: {diagnostic.message}{where}"


def _trimmed(first: str, rest: Iterator[str]) -> Iterator[str]:
    """``first`` and then ``rest``, with the newlines that end the last
    line cut to one: the summary has always embedded the table with its
    trailing newlines stripped."""
    for line in rest:
        yield first
        first = line
    yield first.rstrip("\n") + "\n"


def iter_summary(bundle: ReportBundle, format: str = "text") -> Iterator[str]:
    """``render_summary`` one line at a time, each with its newline.

    An unknown format, and a matrix that ``iter_matrix_table`` refuses,
    are refused before the first line.
    """
    model = bundle.model
    if format == "text":
        lead, heading, gap, bullet, fence = "", "", "", "  ", ()
    elif format == "markdown":
        lead = f"# {model.system_name}\n\n"
        heading, gap, bullet, fence = "## ", "\n", "- ", ("```\n",)
    else:
        raise ValueError(f"unknown summary format: {format!r}")

    def bulleted(lines: Iterable[str]) -> Iterator[str]:
        return (f"{bullet}{line}\n" for line in lines)

    matrix, criticality = bundle.matrix, bundle.criticality
    table = iter_matrix_table(matrix, criticality)
    sections = (
        ("Model", bulleted([
            f"system: {model.system_name}",
            f"stakeholders: {len(model.stakeholders)}",
            f"goals: {len(model.goals)}",
            f"sub-goals: {len(model.subgoals)}",
            f"NFRs: {len(model.nfrs)}",
        ])),
        ("Diagnostics", bulleted(map(_diagnostic_line, bundle.diagnostics)
                                 if bundle.diagnostics else ["none"])),
        ("Completeness", bulleted([mcr_line(bundle.completeness)])),
        ("Validation", bulleted(chain(
            [validation_line("validation", bundle.whole_model_score)],
            (validation_line(nfr.id, nfr.checklist) for nfr in model.nfrs)))),
        # next() runs the table's checks now, before the first line.
        ("Traceability", chain(fence, _trimmed(next(table), table), fence)),
        ("Critical NFRs", bulleted(chain([threshold_line(criticality)], [
            f"{matrix.nfr_names[i]} ({matrix.row_sum(i)})"
            for i in criticality.critical] or ["none"]))),
    )
    for title, lines in sections:
        yield f"{lead}{heading}{title}\n{gap}"
        yield from lines
        lead = "\n"


def render_summary(bundle: ReportBundle, format: str = "text") -> str:
    """Human summary in text or markdown, same sections either way."""
    return "".join(iter_summary(bundle, format))


def _json_members(members: Iterable[str], indent: str,
                  brackets: str = "[]") -> Iterator[str]:
    """Encoded members as one JSON array (or object, with ``brackets``
    ``"{}"``) whose closing bracket sits at ``indent``, laid out as
    ``json.dumps(..., indent=2)`` lays it out, one member per piece."""
    separator = f"{brackets[0]}\n{indent}  "
    for member in members:
        yield separator + member
        separator = f",\n{indent}  "
    yield f"\n{indent}{brackets[1]}" if separator[0] == "," else brackets


def _json_array(strings: Iterable[str], indent: str) -> str:
    return "".join(_json_members(map(_encode, strings), indent))


def _json_score(checklist: ChecklistRecord, indent: str) -> str:
    return (f'{{\n{indent}  "yes": {checklist.yes_count},\n'
            f'{indent}  "answered": {checklist.answered_count},\n'
            f'{indent}  "metric": "{format_ratio(checklist.metric)}"\n{indent}}}')


def _json_diagnostic(d: Diagnostic) -> str:
    line = "null" if d.source_line is None else d.source_line
    return (f'{{\n      "rule": {_encode(d.rule_id)},\n'
            f'      "severity": {_encode(d.severity)},\n'
            f'      "message": {_encode(d.message)},\n'
            f'      "subject": {_encode(d.subject_id)},\n'
            f'      "line": {line}\n    }}')


def _json_marks_rows(matrix: TraceabilityMatrix) -> Iterator[str]:
    """One dense ``marks`` row per NFR: the slices of one all-``false``
    row text between its marked cells, joined by ``true``."""
    head, comma, false = "[\n        ", ",\n        ", "false"
    text = "".join(_json_members([false] * len(matrix.goal_ids), "      "))
    offset, step, width = len(head), len(comma) + len(false), len(false)
    for marked in matrix.rows:
        pieces, end = [], 0
        for j in marked:
            start = offset + j * step
            pieces.append(text[end:start])
            end = start + width
        pieces.append(text[end:])
        yield "true".join(pieces)


def iter_json(bundle: ReportBundle) -> Iterator[str]:
    """``export_json`` in pieces: one per layer, diagnostic, per-NFR score,
    ``marks`` row and criticality score, with the fixed parts between.
    A criticality that names a row the matrix does not have is refused
    before the first piece."""
    model, matrix, report = bundle.model, bundle.matrix, bundle.criticality
    _critical_rows(matrix, report)
    yield f'{{\n  "system": {_encode(model.system_name)},\n  "layers": '
    yield from _json_members((
        f'"{label}": {{\n      "count": {len(elements)},\n'
        f'      "ids": {_json_array((e.id for e in elements), "      ")}\n    }}'
        for label, elements in (("stakeholders", model.stakeholders),
                                ("goals", model.goals),
                                ("subgoals", model.subgoals),
                                ("nfrs", model.nfrs))), "  ", "{}")
    yield ',\n  "diagnostics": '
    yield from _json_members(map(_json_diagnostic, bundle.diagnostics), "  ")
    completeness = bundle.completeness
    yield (f',\n  "mcr": {{\n    "n_c": {completeness.n_c},\n'
           f'    "n_nv": {completeness.n_nv},\n'
           f'    "value": "{format_ratio(completeness.mcr)}"\n  }},\n'
           f'  "checklist": {{\n'
           f'    "whole_model": {_json_score(bundle.whole_model_score, "    ")},\n'
           f'    "per_nfr": ')
    # As a dict would: the first position of a repeated id, its last NFR.
    per_nfr = {nfr.id: nfr for nfr in model.nfrs}
    yield from _json_members(
        (f"{_encode(nfr_id)}: {_json_score(nfr.checklist, '      ')}"
         for nfr_id, nfr in per_nfr.items()), "    ", "{}")
    yield (f'\n  }},\n  "matrix": {{\n'
           f'    "nfr_ids": {_json_array(matrix.nfr_ids, "    ")},\n'
           f'    "goal_ids": {_json_array(matrix.goal_ids, "    ")},\n'
           f'    "marks": ')
    yield from _json_members(_json_marks_rows(matrix), "    ")
    yield '\n  },\n  "criticality": {\n    "scores": '
    scores = dict(zip(matrix.nfr_ids, map(len, matrix.rows)))
    yield from _json_members(
        (f"{_encode(nfr_id)}: {score}" for nfr_id, score in scores.items()),
        "    ", "{}")
    critical = (matrix.nfr_ids[i] for i in report.critical)
    yield (f',\n    "threshold_mode": {_encode(str(report.threshold_mode))},\n'
           f'    "threshold_value": "{format_ratio(report.threshold_value)}",\n'
           f'    "critical": {_json_array(critical, "    ")}\n  }}\n}}')


def export_json(bundle: ReportBundle) -> str:
    """Machine-readable report; key order is part of the contract."""
    return "".join(iter_json(bundle))
