"""Rendering: matrix tables, human summaries and JSON export.

Every renderer is deterministic -- the same bundle yields byte-identical
output -- and text output ends with exactly one trailing newline.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    ChecklistScore,
    CompletenessResult,
    CriticalityReport,
    ThresholdMode,
    TraceabilityMatrix,
    build_traceability_matrix,
    compute_mcr,
    rank_criticality,
    score_checklist,
    score_nfr,
)
from .model import CHECKLIST_SIZE, Diagnostic, Model, validate_structure


def format_ratio(value: Fraction) -> str:
    """Fixed four-decimal rendering of an exact ratio, halves away from 0."""
    numerator, denominator = value.numerator, value.denominator
    scaled = (20000 * abs(numerator) + denominator) // (2 * denominator)
    sign = "-" if numerator < 0 else ""
    return f"{sign}{scaled // 10000}.{scaled % 10000:04d}"


def mcr_line(completeness: CompletenessResult) -> str:
    n_c, n_nv = completeness.n_c, completeness.n_nv
    return f"MCR = {n_c} / [{n_c}+{n_nv}] = {format_ratio(completeness.mcr)}"


def validation_line(score: ChecklistScore) -> str:
    label = score.subject if score.subject is not None else "validation"
    return (f"{label}: {score.yes_count}/{CHECKLIST_SIZE}"
            f" = {format_ratio(score.metric)}")


def threshold_line(criticality: CriticalityReport) -> str:
    return (f"threshold ({criticality.threshold_mode}):"
            f" {format_ratio(criticality.threshold_value)}")


@dataclass(frozen=True, slots=True)
class ReportBundle:
    """Everything the report renderers need, computed from one model."""

    model: Model
    diagnostics: tuple[Diagnostic, ...]
    completeness: CompletenessResult
    whole_model_score: ChecklistScore
    per_nfr_scores: tuple[ChecklistScore, ...]
    matrix: TraceabilityMatrix
    criticality: CriticalityReport


def build_bundle(model: Model, mode: ThresholdMode | None = None, *,
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
    whole = score_checklist(model)
    per_nfr = tuple(score_nfr(n) for n in model.nfrs)
    matrix = build_traceability_matrix(model, diagnostics=diagnostics)
    criticality = rank_criticality(matrix, mode)
    return ReportBundle(model, tuple(diagnostics), completeness, whole,
                        per_nfr, matrix, criticality)


def render_matrix_table(matrix: TraceabilityMatrix,
                        criticality: CriticalityReport,
                        legend: bool = True) -> str:
    """Fixed-width traceability table.

    Columns are G1..Gm in goal declaration order, marks are ``X``, and
    each row ends with its score and a ``*`` when the NFR is critical.
    The legend maps Gj back to goal display names.
    """
    if not matrix.nfr_ids or not matrix.goal_ids:
        raise ValueError("cannot render an empty matrix")

    goal_headers = [f"G{j + 1}" for j in range(len(matrix.goal_ids))]
    name_width = max(len("NFR"), max(len(name) for name in matrix.nfr_names))
    score_width = max(len("score"), max(len(str(s)) for s in criticality.scores))
    critical_set = set(criticality.critical)

    def row(cells: list[str]) -> str:
        return "  ".join(cells).rstrip()

    lines = [row(["NFR".ljust(name_width), *goal_headers,
                  "score".ljust(score_width), "critical"])]
    blanks = [" " * len(header) for header in goal_headers]
    crosses = ["X".ljust(len(header)) for header in goal_headers]
    for i, (name, marked) in enumerate(zip(matrix.nfr_names, matrix.rows)):
        cells = blanks.copy()
        for j in marked:
            cells[j] = crosses[j]
        lines.append(row([name.ljust(name_width), *cells,
                          str(criticality.scores[i]).ljust(score_width),
                          "*" if matrix.nfr_ids[i] in critical_set else ""]))

    if legend:
        lines.append("")
        for j, name in enumerate(matrix.goal_names):
            lines.append(f"G{j + 1} = {name}")
    return "\n".join(lines) + "\n"


def _diagnostic_line(diagnostic: Diagnostic) -> str:
    where = f" (line {diagnostic.source_line})" if diagnostic.source_line else ""
    return f"{diagnostic.severity} {diagnostic.rule_id}: {diagnostic.message}{where}"


def _critical_lines(bundle: ReportBundle) -> list[str]:
    report = bundle.criticality
    names = dict(zip(bundle.matrix.nfr_ids, bundle.matrix.nfr_names))
    scores = dict(zip(report.nfr_ids, report.scores))
    critical = [f"{names[nfr_id]} ({scores[nfr_id]})"
                for nfr_id in report.critical]
    return [threshold_line(report), *(critical or ["none"])]


def render_summary(bundle: ReportBundle, format: str = "text") -> str:
    """Human summary in text or markdown, same sections either way."""
    model = bundle.model
    if format == "text":
        parts, heading, gap, bullet, fence = [], "", [], "  ", []
    elif format == "markdown":
        parts = [f"# {model.system_name}", ""]
        heading, gap, bullet, fence = "## ", [""], "- ", ["```"]
    else:
        raise ValueError(f"unknown summary format: {format!r}")

    def bulleted(lines: list[str]) -> list[str]:
        return [bullet + line for line in lines]

    table = render_matrix_table(bundle.matrix, bundle.criticality)
    validation_lines = [validation_line(bundle.whole_model_score)]
    validation_lines.extend(validation_line(s) for s in bundle.per_nfr_scores)
    for title, lines in (
        ("Model", bulleted([
            f"system: {model.system_name}",
            f"stakeholders: {len(model.stakeholders)}",
            f"goals: {len(model.goals)}",
            f"sub-goals: {len(model.subgoals)}",
            f"NFRs: {len(model.nfrs)}",
        ])),
        ("Diagnostics", bulleted(
            [_diagnostic_line(d) for d in bundle.diagnostics] or ["none"])),
        ("Completeness", bulleted([mcr_line(bundle.completeness)])),
        ("Validation", bulleted(validation_lines)),
        ("Traceability", [*fence, table.rstrip("\n"), *fence]),
        ("Critical NFRs", bulleted(_critical_lines(bundle))),
    ):
        parts.append(heading + title)
        parts.extend(gap)
        parts.extend(lines)
        parts.append("")
    return "\n".join(parts)


# How ``json.dumps(indent=2)`` ends a document whose last member is a
# "matrix" object whose last member is an empty "marks" list.
_EMPTY_MARKS_END = "[]\n  }\n}"


def _json_marks(matrix: TraceabilityMatrix) -> list[str]:
    """Pieces of the dense "marks" array, laid out as ``json.dumps``
    with ``indent=2`` lays it out inside "matrix".

    Each row is a copy of one all-``false`` template with its marked
    goal indices set to ``true``, joined in one call.
    """
    if not matrix.rows:
        return ["[]"]
    falses = ["false"] * len(matrix.goal_ids)
    pieces = []
    for marked in matrix.rows:
        cells = falses.copy()
        for j in marked:
            cells[j] = "true"
        pieces.append(",\n      ")
        pieces.append("[\n        " + ",\n        ".join(cells) + "\n      ]"
                      if cells else "[]")
    pieces[0] = "[\n      "  # the first separator opens the array
    pieces.append("\n    ]")
    return pieces


def export_json(bundle: ReportBundle) -> str:
    """Machine-readable report; key order is part of the contract."""
    model = bundle.model
    layers = {}
    for label, elements in (
        ("stakeholders", model.stakeholders),
        ("goals", model.goals),
        ("subgoals", model.subgoals),
        ("nfrs", model.nfrs),
    ):
        layers[label] = {"count": len(elements),
                         "ids": [e.id for e in elements]}

    def score_obj(score: ChecklistScore) -> dict:
        return {"yes": score.yes_count, "answered": score.answered_count,
                "metric": format_ratio(score.metric)}

    report = bundle.criticality
    data = {
        "system": model.system_name,
        "layers": layers,
        "diagnostics": [
            {
                "rule": d.rule_id,
                "severity": d.severity,
                "message": d.message,
                "subject": d.subject_id,
                "line": d.source_line,
            }
            for d in bundle.diagnostics
        ],
        "mcr": {
            "n_c": bundle.completeness.n_c,
            "n_nv": bundle.completeness.n_nv,
            "value": format_ratio(bundle.completeness.mcr),
        },
        "checklist": {
            "whole_model": score_obj(bundle.whole_model_score),
            "per_nfr": {s.subject: score_obj(s) for s in bundle.per_nfr_scores},
        },
        "matrix": {
            "nfr_ids": list(bundle.matrix.nfr_ids),
            "goal_ids": list(bundle.matrix.goal_ids),
            "marks": [],
        },
    }
    head = json.dumps(data, indent=2, ensure_ascii=False)
    tail = json.dumps({
        "criticality": {
            "scores": dict(zip(report.nfr_ids, report.scores)),
            "threshold_mode": str(report.threshold_mode),
            "threshold_value": format_ratio(report.threshold_value),
            "critical": list(report.critical),
        },
    }, indent=2, ensure_ascii=False)
    # By key order ``head`` ends with the empty "marks" list and the
    # braces closing "matrix" and the document.  Cut them off by length,
    # never by searching text that holds user strings, and put the dense
    # marks and the "criticality" member of ``tail`` in their place.
    return "".join([head[:-len(_EMPTY_MARKS_END)], *_json_marks(bundle.matrix),
                    "\n  },\n", tail[len("{\n"):]])

