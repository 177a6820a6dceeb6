"""Rendering: ratio formatting, tables, summaries and the JSON export."""

import json
import random
import re
from dataclasses import replace
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
from nfr4.fixtures import load_atm, load_library
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

from support import marks_to_rows, random_model, rows_to_marks


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


def reference_table(matrix, criticality, legend=True):
    """The table rendered cell by cell from dense marks: the oracle that
    ``render_matrix_table`` must match byte for byte."""
    marks = rows_to_marks(matrix.rows, len(matrix.goal_ids))
    goal_headers = [f"G{j + 1}" for j in range(len(matrix.goal_ids))]
    name_width = max(len("NFR"), max(len(name) for name in matrix.nfr_names))
    score_width = max(len("score"), max(len(str(s)) for s in criticality.scores))
    critical_set = set(criticality.critical)

    def row(cells):
        return "  ".join(cells).rstrip()

    lines = [row(["NFR".ljust(name_width), *goal_headers,
                  "score".ljust(score_width), "critical"])]
    for i, name in enumerate(matrix.nfr_names):
        cells = [name.ljust(name_width)]
        for j, header in enumerate(goal_headers):
            cells.append(("X" if marks[i][j] else "").ljust(len(header)))
        cells.append(str(criticality.scores[i]).ljust(score_width))
        cells.append("*" if matrix.nfr_ids[i] in critical_set else "")
        lines.append(row(cells))
    if legend:
        lines.append("")
        for j, name in enumerate(matrix.goal_names):
            lines.append(f"G{j + 1} = {name}")
    return "\n".join(lines) + "\n"


def reference_json(bundle):
    """The whole report as one dict through ``json.dumps``, dense marks
    included: the oracle that ``export_json`` must match byte for byte."""
    model = bundle.model

    def score_obj(score):
        return {"yes": score.yes_count, "answered": score.answered_count,
                "metric": format_ratio(score.metric)}

    report = bundle.criticality
    data = {
        "system": model.system_name,
        "layers": {
            label: {"count": len(elements), "ids": [e.id for e in elements]}
            for label, elements in (("stakeholders", model.stakeholders),
                                    ("goals", model.goals),
                                    ("subgoals", model.subgoals),
                                    ("nfrs", model.nfrs))
        },
        "diagnostics": [
            {"rule": d.rule_id, "severity": d.severity, "message": d.message,
             "subject": d.subject_id, "line": d.source_line}
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
            "marks": [list(row) for row in rows_to_marks(
                bundle.matrix.rows, len(bundle.matrix.goal_ids))],
        },
        "criticality": {
            "scores": dict(zip(report.nfr_ids, report.scores)),
            "threshold_mode": str(report.threshold_mode),
            "threshold_value": format_ratio(report.threshold_value),
            "critical": list(report.critical),
        },
    }
    return json.dumps(data, indent=2, ensure_ascii=False)


def many_goal_model(rng):
    """A clean model with 10 to 14 goals, so header widths differ (G9,
    G10), whose first NFR marks the last column and whose last NFR marks
    nothing."""
    goals = [Goal(f"g{j}", f"Goal {j}", ("s",))
             for j in range(rng.randint(10, 14))]
    subgoals = [SubGoal(f"sg{j}", f"Sub {j}",
                        tuple(rng.sample([g.id for g in goals],
                                         rng.randint(1, 3))) + (goal.id,))
                for j, goal in enumerate(goals)]
    nfrs = [Nfr(f"n{i}", "N" * rng.randrange(12),
                tuple(rng.sample([sg.id for sg in subgoals], rng.randint(0, 2))),
                tuple(rng.sample([g.id for g in goals], rng.randint(0, 4))))
            for i in range(rng.randint(1, 8))]
    nfrs[0] = Nfr("n0", "First", (), (goals[-1].id,))
    nfrs.append(Nfr("loose", "Loose"))
    return Model("S", (Stakeholder("s", "S"),), tuple(goals), tuple(subgoals),
                 tuple(nfrs))


def bundles_for_oracles():
    """Fixtures, 200 random models that pass validation and 50 with many
    goals, each with a few threshold modes."""
    models = [load_library(), load_atm()]
    rng = random.Random(505)
    while len(models) < 202:
        model = random_model(rng, for_serialization=len(models) % 2 == 0)
        if model.nfrs:
            models.append(model)
    models += [many_goal_model(rng) for _ in range(50)]
    for index, model in enumerate(models):
        mode = (ThresholdMode.mean(), ThresholdMode.top_k(2),
                ThresholdMode.absolute(0))[index % 3]
        yield build_bundle(model, mode)


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
        assert marks_to_rows(table_marks(table, len(matrix.nfr_ids))) \
            == matrix.rows


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


def test_table_matches_the_cell_by_cell_reference():
    for bundle in bundles_for_oracles():
        for legend in (True, False):
            assert render_matrix_table(bundle.matrix, bundle.criticality,
                                       legend) \
                == reference_table(bundle.matrix, bundle.criticality, legend)


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
        marks = data["matrix"]["marks"]
        assert {len(row) for row in marks} == {len(bundle.matrix.goal_ids)}
        assert marks_to_rows(marks) == bundle.matrix.rows


def test_json_matches_the_dict_reference():
    for bundle in bundles_for_oracles():
        assert export_json(bundle) == reference_json(bundle)


HOSTILE_TEXT = ('\x00 \u2028\u2029\xa0\t\\ \\" null [] {} marks: []'
                ' "marks": [] ],\n    [ } \u00e9\u4e2d\U0001f600')


def hostile_model(*, flat=False):
    """Names and ids full of JSON punctuation; an NFR is called "marks"
    and one "criticality".  ``flat`` gives every NFR the same score, so
    the mean mode picks nobody."""
    goals = (Goal("g1", HOSTILE_TEXT, ("s",)),
             Goal(f"g2 {HOSTILE_TEXT}", "]\n}", ("s",)))
    subgoals = (SubGoal("sg", HOSTILE_TEXT, ("g1", goals[1].id)),)
    nfrs = (Nfr("marks", HOSTILE_TEXT, ("sg",)),
            Nfr("criticality", '"marks": []', () if flat else ("sg",),
                ("g1",)),
            Nfr(HOSTILE_TEXT, "null", (), (goals[1].id,)),
            Nfr("loose", "[]"))
    if flat:
        nfrs = nfrs[1:3]
    return Model(HOSTILE_TEXT, (Stakeholder("s", HOSTILE_TEXT),), goals,
                 subgoals, nfrs)


@pytest.mark.parametrize("flat", [False, True])
def test_json_splice_survives_hostile_text(flat):
    bundle = build_bundle(hostile_model(flat=flat))
    assert bool(bundle.criticality.critical) is not flat
    text = export_json(bundle)
    assert text == reference_json(bundle)
    data = json.loads(text)
    assert data["system"] == HOSTILE_TEXT
    assert marks_to_rows(data["matrix"]["marks"]) == bundle.matrix.rows
    assert data["criticality"]["critical"] == list(bundle.criticality.critical)


def test_json_degenerate_matrices_match_the_reference(library_model):
    """Bundles the analysis never builds (no NFR rows, or rows over no
    goals) still export as the reference lays them out."""
    bundle = build_bundle(library_model)
    matrix = bundle.matrix
    for degenerate in (
        replace(matrix, nfr_ids=(), nfr_names=(), rows=()),
        replace(matrix, goal_ids=(), goal_names=(),
                rows=((),) * len(matrix.rows)),
    ):
        hand_built = replace(bundle, matrix=degenerate)
        assert export_json(hand_built) == reference_json(hand_built)


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
