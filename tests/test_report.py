"""Rendering: ratio formatting, tables, summaries and the JSON export."""

import json
import random
import re
from fractions import Fraction

import pytest

from nfr4.analysis import (
    ChecklistScore,
    CompletenessResult,
    EmptyModelError,
    InvalidModelError,
    ThresholdMode,
    build_traceability_matrix,
    rank_criticality,
    score_checklist,
)
from nfr4.model import (
    Goal,
    Model,
    Nfr,
    Stakeholder,
    SubGoal,
    validate_structure,
)
from nfr4.report import (
    build_bundle,
    export_json,
    format_ratio,
    mcr_line,
    render_matrix_table,
    render_summary,
    validation_line,
)

from support import random_model


def table_marks(table, n_rows):
    """Read the X pattern back out of a rendered table.

    Mark cells start at the same character offset as their G-header, so
    the header line gives the column positions.
    """
    lines = table.splitlines()
    offsets = [m.start() for m in re.finditer(r"G\d+", lines[0])]
    marks = []
    for line in lines[1:1 + n_rows]:
        marks.append(tuple(
            offset < len(line) and line[offset] == "X" for offset in offsets))
    return tuple(marks)


# ------------------------------------------------------------ ratio lines


@pytest.mark.parametrize("value, text", [
    (Fraction(1), "1.0000"),
    (Fraction(0), "0.0000"),
    (Fraction(1, 2), "0.5000"),
    (Fraction(2, 3), "0.6667"),
    (Fraction(1, 3), "0.3333"),
    (Fraction(16, 6), "2.6667"),
    (Fraction(17, 5), "3.4000"),
    (Fraction(1, 8), "0.1250"),
    (Fraction(7), "7.0000"),
    (Fraction(10**30), "1000000000000000000000000000000.0000"),
    (Fraction(-1, 20000), "-0.0001"),
])
def test_format_ratio(value, text):
    assert format_ratio(value) == text


def test_format_ratio_rounds_half_up():
    assert format_ratio(Fraction(1, 20000)) == "0.0001"
    assert format_ratio(Fraction(3, 20000)) == "0.0002"
    assert format_ratio(Fraction(5, 20000)) == "0.0003"


def test_mcr_line_uses_bracket_notation():
    assert mcr_line(CompletenessResult(6, 0, Fraction(1))) \
        == "MCR = 6 / [6+0] = 1.0000"
    assert mcr_line(CompletenessResult(4, 2, Fraction(2, 3))) \
        == "MCR = 4 / [4+2] = 0.6667"


def test_validation_line_labels():
    whole = ChecklistScore(None, 8, 8, Fraction(1))
    assert validation_line(whole) == "validation: 8/8 = 1.0000"
    single = ChecklistScore("usability", 4, 6, Fraction(1, 2))
    assert validation_line(single) == "usability: 4/8 = 0.5000"
    blank = ChecklistScore(None, 0, 0, Fraction(0))
    assert validation_line(blank) == "validation: 0/8 = 0.0000"


# ----------------------------------------------------------------- bundle


def test_bundle_snapshot_is_consistent(library_model):
    bundle = build_bundle(library_model)
    assert bundle.model is library_model
    assert bundle.diagnostics == ()
    assert bundle.completeness.n_c == 6
    assert [s.subject for s in bundle.per_nfr_scores] \
        == [n.id for n in library_model.nfrs]
    assert bundle.criticality.critical == ("usability", "performance")


def test_bundle_requires_nfrs():
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),))
    with pytest.raises(EmptyModelError):
        build_bundle(model)


def test_bundle_refuses_error_models():
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
                  (Nfr("n", "N", (), ("ghost",)),))
    with pytest.raises(InvalidModelError):
        build_bundle(model)


def test_bundle_refuses_error_models_with_their_diagnostics():
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
                  (Nfr("n", "N", (), ("ghost",)),))
    diagnostics = validate_structure(model)
    with pytest.raises(InvalidModelError):
        build_bundle(model, diagnostics=diagnostics)
    with pytest.raises(InvalidModelError):
        build_traceability_matrix(model, diagnostics=diagnostics)


def test_bundle_agrees_with_given_diagnostics_and_per_id_scores():
    random_state = random.Random(11)
    for _ in range(200):
        model = random_model(random_state)
        if not model.nfrs:
            continue
        bundle = build_bundle(model)
        assert bundle \
            == build_bundle(model, diagnostics=validate_structure(model))
        assert bundle.per_nfr_scores \
            == tuple(score_checklist(model, n.id) for n in model.nfrs)


def test_bundle_carries_warnings_through():
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
                  (Nfr("n", "N", (), ("g",)), Nfr("loose", "Loose")))
    bundle = build_bundle(model)
    assert [d.severity for d in bundle.diagnostics] == ["warning"]


# ------------------------------------------------------------------ table


def test_matrix_table_round_trips_the_marks(library_model, atm_model):
    for model in (library_model, atm_model):
        matrix = build_traceability_matrix(model)
        table = render_matrix_table(matrix, rank_criticality(matrix))
        assert table_marks(table, len(matrix.nfr_ids)) == matrix.marks


def test_usability_row_marks_g2_through_g8(library_model):
    matrix = build_traceability_matrix(library_model)
    table = render_matrix_table(matrix, rank_criticality(matrix))
    usability = table_marks(table, 1)[0]
    assert usability == (False,) + (True,) * 7 + (False,) * 5


def test_atm_safety_row_is_single_mark_at_g7(atm_model):
    matrix = build_traceability_matrix(atm_model)
    table = render_matrix_table(matrix, rank_criticality(matrix))
    safety = table_marks(table, 5)[4]
    assert safety == tuple(j == 6 for j in range(12))
    safety_line = table.splitlines()[5]
    assert safety_line.startswith("Safety")
    assert not safety_line.endswith("*")


def test_critical_rows_are_starred(library_model):
    matrix = build_traceability_matrix(library_model)
    lines = render_matrix_table(matrix, rank_criticality(matrix)).splitlines()
    starred = [line.split()[0] for line in lines[1:7] if line.endswith("*")]
    assert starred == ["Usability", "Performance"]


def test_legend_maps_columns_to_goal_names(library_model):
    matrix = build_traceability_matrix(library_model)
    criticality = rank_criticality(matrix)
    with_legend = render_matrix_table(matrix, criticality)
    assert "G1 = Login" in with_legend
    assert "G13 = Check reports" in with_legend
    without = render_matrix_table(matrix, criticality, legend=False)
    assert "G1 =" not in without
    assert len(without.splitlines()) == 7


def test_one_by_one_table_golden():
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
                  (Nfr("n", "N", (), ("g",)),))
    matrix = build_traceability_matrix(model)
    table = render_matrix_table(matrix, rank_criticality(matrix))
    assert table == ("NFR  G1  score  critical\n"
                     "N    X   1\n"
                     "\n"
                     "G1 = G\n")


def test_table_refuses_empty_matrix(library_model):
    matrix = build_traceability_matrix(library_model)
    empty = type(matrix)((), (), matrix.goal_ids, matrix.goal_names, ())
    with pytest.raises(ValueError):
        render_matrix_table(empty, rank_criticality(matrix))


# ---------------------------------------------------------------- summary


def test_text_summary_sections_in_order(library_model):
    summary = render_summary(build_bundle(library_model))
    positions = [summary.index(title) for title in
                 ("Model", "Diagnostics", "Completeness", "Validation",
                  "Traceability", "Critical NFRs")]
    assert positions == sorted(positions)
    assert "  system: Library management system" in summary
    assert "  MCR = 6 / [6+0] = 1.0000" in summary
    assert "  validation: 8/8 = 1.0000" in summary
    assert "  usability: 8/8 = 1.0000" in summary
    assert "  none" in summary  # diagnostics section
    assert "  threshold (mean): 2.6667" in summary
    assert "  Usability (7)" in summary
    assert "  Performance (3)" in summary
    assert summary.endswith("\n") and not summary.endswith("\n\n")


def test_text_summary_embeds_the_table(atm_model):
    bundle = build_bundle(atm_model)
    summary = render_summary(bundle)
    table = render_matrix_table(bundle.matrix, bundle.criticality)
    assert table.rstrip("\n") in summary
    assert "MCR = 5 / [5+0] = 1.0000" in summary
    for name in ("Usability (6)", "Performance (4)", "Security (4)"):
        assert f"  {name}" in summary


def test_markdown_summary_structure(library_model):
    summary = render_summary(build_bundle(library_model), format="markdown")
    assert summary.startswith("# Library management system\n")
    for heading in ("## Model", "## Diagnostics", "## Completeness",
                    "## Validation", "## Traceability", "## Critical NFRs"):
        assert heading in summary
    assert summary.count("```") == 2
    assert "- MCR = 6 / [6+0] = 1.0000" in summary
    assert summary.endswith("\n") and not summary.endswith("\n\n")


def test_summary_reports_empty_critical_set():
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
                  (Nfr("n", "N", (), ("g",)),))
    summary = render_summary(build_bundle(model))
    assert "Critical NFRs\n  threshold (mean): 1.0000\n  none\n" in summary


def test_summary_rejects_unknown_format(library_model):
    with pytest.raises(ValueError):
        render_summary(build_bundle(library_model), format="html")


def test_renderers_are_deterministic(library_model):
    first = build_bundle(library_model)
    second = build_bundle(library_model)
    assert render_summary(first) == render_summary(second)
    assert render_summary(first, "markdown") == render_summary(second, "markdown")
    assert export_json(first) == export_json(second)


# ------------------------------------------------------------------- json


def test_json_key_order_is_pinned(library_model):
    data = json.loads(export_json(build_bundle(library_model)))
    assert list(data) == ["system", "layers", "diagnostics", "mcr",
                          "checklist", "matrix", "criticality"]
    assert list(data["layers"]) == ["stakeholders", "goals", "subgoals",
                                    "nfrs"]
    assert list(data["mcr"]) == ["n_c", "n_nv", "value"]
    assert list(data["checklist"]) == ["whole_model", "per_nfr"]
    assert list(data["matrix"]) == ["nfr_ids", "goal_ids", "marks"]
    assert list(data["criticality"]) == ["scores", "threshold_mode",
                                         "threshold_value", "critical"]


def test_json_values_library(library_model):
    text = export_json(build_bundle(library_model))
    assert '"value": "1.0000"' in text
    data = json.loads(text)
    assert data["system"] == "Library management system"
    assert data["layers"]["stakeholders"] == {
        "count": 3, "ids": ["member", "admin", "librarian"]}
    assert data["layers"]["subgoals"]["count"] == 21
    assert data["diagnostics"] == []
    assert data["mcr"] == {"n_c": 6, "n_nv": 0, "value": "1.0000"}
    assert data["checklist"]["whole_model"] == {
        "yes": 8, "answered": 8, "metric": "1.0000"}
    assert list(data["checklist"]["per_nfr"]) == [
        "usability", "performance", "security", "reliability", "safety",
        "flexibility"]
    assert data["criticality"]["scores"] == {
        "usability": 7, "performance": 3, "security": 1,
        "reliability": 2, "safety": 2, "flexibility": 1}
    assert data["criticality"]["threshold_mode"] == "mean"
    assert data["criticality"]["threshold_value"] == "2.6667"
    assert data["criticality"]["critical"] == ["usability", "performance"]


def test_json_marks_reconstruct_the_matrix(library_model, atm_model):
    for model in (library_model, atm_model):
        bundle = build_bundle(model)
        data = json.loads(export_json(bundle))
        assert data["matrix"]["nfr_ids"] == list(bundle.matrix.nfr_ids)
        assert data["matrix"]["goal_ids"] == list(bundle.matrix.goal_ids)
        rebuilt = tuple(tuple(row) for row in data["matrix"]["marks"])
        assert rebuilt == bundle.matrix.marks


def test_json_atm_critical_set(atm_model):
    data = json.loads(export_json(build_bundle(atm_model)))
    assert data["criticality"]["critical"] \
        == ["usability", "performance", "security"]


def test_json_reports_warning_diagnostics():
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
                  (Nfr("n", "N", (), ("g",)), Nfr("loose", "Loose")))
    data = json.loads(export_json(build_bundle(model)))
    assert data["diagnostics"] == [{
        "rule": "R4", "severity": "warning",
        "message": "NFR 'loose' is not attached to any goal or sub-goal",
        "subject": "loose", "line": None,
    }]


def test_json_respects_threshold_mode(atm_model):
    bundle = build_bundle(atm_model, ThresholdMode.top_k(1))
    data = json.loads(export_json(bundle))
    assert data["criticality"]["threshold_mode"] == "top_k(1)"
    assert data["criticality"]["threshold_value"] == "6.0000"
    assert data["criticality"]["critical"] == ["usability"]
