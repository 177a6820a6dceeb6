"""Rendering: ratio formatting, tables, summaries and the JSON export."""

import json
import random
import re
from fractions import Fraction

import pytest

from nfr4.analysis import (
    CompletenessResult,
    EmptyMatrixError,
    EmptyModelError,
    InvalidModelError,
    ThresholdMode,
    build_traceability_matrix,
    rank_criticality,
)
from nfr4.dsl import parse
from nfr4.fixtures import ATM_PATH, LIBRARY_PATH
from nfr4.model import (
    ChecklistRecord,
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
    iter_json,
    iter_matrix_table,
    iter_summary,
    mcr_line,
    render_matrix_table,
    render_summary,
    validation_line,
)

from support import (
    marks_to_rows,
    oracle_ranking,
    random_model,
    rows_to_marks,
)


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


def reference_ranking(matrix, mode):
    """Each row's score counted from the dense marks, and the threshold
    and critical rows the ranking oracle picks from those scores.  A
    matrix the analysis refuses to rank has no critical rows."""
    marks = rows_to_marks(matrix.rows, len(matrix.goal_ids))
    scores = [sum(row) for row in marks]
    if not scores or not matrix.goal_ids:
        return marks, scores, None, []
    return marks, scores, *oracle_ranking(scores, mode)


def reference_table(matrix, criticality, legend=True):
    """The table rendered cell by cell from dense marks: the oracle that
    ``render_matrix_table`` must match byte for byte."""
    marks, scores, _, critical = reference_ranking(
        matrix, criticality.threshold_mode)
    goal_headers = [f"G{j + 1}" for j in range(len(matrix.goal_ids))]
    name_width = max(len("NFR"), max(len(name) for name in matrix.nfr_names))
    score_width = max(len("score"), max(len(str(s)) for s in scores))
    critical_set = set(critical)

    def row(cells):
        return "  ".join(cells).rstrip()

    lines = [row(["NFR".ljust(name_width), *goal_headers,
                  "score".ljust(score_width), "critical"])]
    for i, name in enumerate(matrix.nfr_names):
        cells = [name.ljust(name_width)]
        for j, header in enumerate(goal_headers):
            cells.append(("X" if marks[i][j] else "").ljust(len(header)))
        cells.append(str(scores[i]).ljust(score_width))
        cells.append("*" if i in critical_set else "")
        lines.append(row(cells))
    if legend:
        lines.append("")
        for j, name in enumerate(matrix.goal_names):
            lines.append(f"G{j + 1} = {name}")
    return "\n".join(lines) + "\n"


def counted_score(nfr):
    """An NFR's ``"per_nfr"`` entry, its answers counted here: the oracle
    that each NFR's checklist and the renderers are checked against."""
    answers = nfr.checklist.answers
    yes = answers.count("yes")
    return {"yes": yes,
            "answered": sum(answer != "unanswered" for answer in answers),
            "metric": format_ratio(Fraction(yes, 8))}


def reference_json(bundle):
    """The whole report as one dict through ``json.dumps``, dense marks
    included: the oracle that ``export_json`` must match byte for byte."""
    model, whole = bundle.model, bundle.whole_model_score
    matrix, report = bundle.matrix, bundle.criticality
    marks, scores, threshold, critical = reference_ranking(
        matrix, report.threshold_mode)
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
            "whole_model": {"yes": whole.yes_count,
                            "answered": whole.answered_count,
                            "metric": format_ratio(whole.metric)},
            "per_nfr": {nfr.id: counted_score(nfr) for nfr in model.nfrs},
        },
        "matrix": {
            "nfr_ids": list(matrix.nfr_ids),
            "goal_ids": list(matrix.goal_ids),
            "marks": [list(row) for row in marks],
        },
        "criticality": {
            "scores": dict(zip(matrix.nfr_ids, scores)),
            "threshold_mode": str(report.threshold_mode),
            "threshold_value": format_ratio(
                report.threshold_value if threshold is None else threshold),
            "critical": [matrix.nfr_ids[i] for i in critical],
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
    goals, each with one of four threshold modes in turn."""
    models = [parse(LIBRARY_PATH.read_bytes()), parse(ATM_PATH.read_bytes())]
    rng = random.Random(505)
    while len(models) < 202:
        model = random_model(rng, for_serialization=len(models) % 2 == 0)
        if model.nfrs:
            models.append(model)
    models += [many_goal_model(rng) for _ in range(50)]
    for index, model in enumerate(models):
        mode = (ThresholdMode.mean(), ThresholdMode.top_k(2),
                ThresholdMode.absolute(0),
                ThresholdMode.absolute(Fraction(5, 2)))[index % 4]
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
    whole = ChecklistRecord(("yes",) * 8)
    assert validation_line("validation", whole) == "validation: 8/8 = 1.0000"
    single = ChecklistRecord(("yes",) * 4 + ("no",) * 2 + ("unanswered",) * 2)
    assert validation_line("usability", single) == "usability: 4/8 = 0.5000"
    blank = ChecklistRecord()
    assert validation_line("validation", blank) == "validation: 0/8 = 0.0000"


# ----------------------------------------------------------------- bundle


def test_bundle_snapshot_is_consistent(library_model):
    bundle = build_bundle(library_model)
    assert bundle.model is library_model
    assert bundle.diagnostics == ()
    assert bundle.completeness.n_c == 6
    assert list(json.loads(export_json(bundle))["checklist"]["per_nfr"]) \
        == [n.id for n in library_model.nfrs]
    assert bundle.criticality.critical == (0, 1)


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
        # The reference counts the answers, independent of ChecklistRecord.
        expected = [(nfr.id, counted_score(nfr)) for nfr in model.nfrs]
        summary = render_summary(bundle).splitlines()
        start = summary.index("Validation") + 2
        assert summary[start:start + len(expected) + 1] == [
            *(f"  {nfr_id}: {score['yes']}/8 = {score['metric']}"
              for nfr_id, score in expected), ""]
        assert json.loads(export_json(bundle))["checklist"]["per_nfr"] \
            == dict(expected)


def test_bundle_carries_warnings_through():
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
                  (Nfr("n", "N", (), ("g",)), Nfr("loose", "Loose")))
    bundle = build_bundle(model)
    assert [d.severity for d in bundle.diagnostics] == ["warning"]


def test_repeated_ids_are_ranked_and_rendered_by_row():
    """The ranking picks rows, not ids.  With an id repeated (a bundle
    built past the DUP error), every renderer reads each chosen row's
    own name and score: the first ``x`` scores 2, the second 1."""
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g1", "G1", ("s",)), Goal("g2", "G2", ("s",))), (),
                  (Nfr("x", "X first", (), ("g1", "g2")),
                   Nfr("y", "Y", (), ("g1",)),
                   Nfr("x", "X second", (), ("g2",))))
    assert "DUP" in {d.rule_id for d in validate_structure(model)}
    bundle = build_bundle(model, ThresholdMode.top_k(2), diagnostics=[])
    matrix, criticality = bundle.matrix, bundle.criticality
    assert criticality.critical == (0, 1)
    table = render_matrix_table(matrix, criticality).splitlines()[1:4]
    assert [i for i, line in enumerate(table) if line.endswith("*")] \
        == list(criticality.critical)
    assert render_summary(bundle).rpartition("\nCritical NFRs\n")[2] \
        == "  threshold (top_k(2)): 1.0000\n  X first (2)\n  Y (1)\n"
    assert json.loads(export_json(bundle))["criticality"]["critical"] \
        == [matrix.nfr_ids[i] for i in criticality.critical] == ["x", "y"]


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


def test_table_cells_follow_every_header_width():
    """Headers widen at G10, G100 and G1000; a mark must sit at the start
    of its own cell whatever the width of the cells before it."""
    goals = tuple(Goal(f"g{j}", f"Goal {j}", ("s",)) for j in range(1, 1002))
    everything = SubGoal("sg", "All goals", tuple(g.id for g in goals))
    nfrs = (
        Nfr("edges", "Width edges", (),
            tuple(f"g{j}" for j in (9, 10, 99, 100, 999, 1000, 1001))),
        Nfr("none", "Unmarked"),
        Nfr("all", "Every goal", ("sg",)),
        Nfr("umlaut", "Zuverlässigkeit ✓", (), ("g1", "g500", "g1001")),
    )
    model = Model("S", (Stakeholder("s", "S"),), goals, (everything,), nfrs)
    bundle = build_bundle(model)
    assert bundle.matrix.rows[0] == (8, 9, 98, 99, 998, 999, 1000)
    assert len(bundle.matrix.rows[2]) == 1001
    for legend in (True, False):
        expected = reference_table(bundle.matrix, bundle.criticality, legend)
        assert render_matrix_table(bundle.matrix, bundle.criticality,
                                   legend) == expected
        assert "".join(iter_matrix_table(bundle.matrix, bundle.criticality,
                                         legend)) == expected


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


def test_streamed_renderers_refuse_before_their_first_piece(library_model):
    bundle = build_bundle(library_model)
    empty = bundle.matrix._replace(nfr_ids=(), nfr_names=(), rows=())
    for pieces in (iter_summary(bundle, "html"),
                   iter_summary(bundle._replace(matrix=empty)),
                   iter_summary(bundle._replace(matrix=empty), "markdown"),
                   iter_matrix_table(empty, bundle.criticality)):
        with pytest.raises(ValueError):
            next(pieces)


def test_renderers_refuse_critical_rows_the_matrix_lacks(library_model):
    """A hand-built bundle whose criticality names a row its matrix does
    not have is refused before the first piece, not mid-stream."""
    bundle = build_bundle(library_model)
    n = len(bundle.matrix.rows)
    # Past the end, one of two, negative, and an NFR id.
    for critical in ((n,), (0, n), (-1,), (bundle.matrix.nfr_ids[0],)):
        criticality = bundle.criticality._replace(critical=critical)
        stale = bundle._replace(criticality=criticality)
        for pieces in (iter_json(stale), iter_summary(stale),
                       iter_summary(stale, "markdown"),
                       iter_matrix_table(stale.matrix, criticality)):
            with pytest.raises(ValueError, match="row the matrix does not"):
                next(pieces)


def threshold_modes(n_nfrs):
    """Every mode kind: top_k up to one past the NFRs, and top_k and
    absolute parameters up to past the largest that prints, where
    accepted."""
    yield ThresholdMode.mean()
    for k in range(1, n_nfrs + 2):
        yield ThresholdMode.top_k(k)
    for factory in (ThresholdMode.top_k, ThresholdMode.absolute):
        for parameter in (0, 1, 10 ** 4300 - 1, 10 ** 4300, 10 ** 5000):
            try:
                mode = factory(parameter)
            except ValueError:
                continue
            yield mode


def test_streamed_renderers_refuse_first_or_run_to_the_end():
    """For every mode the factories build, each streamed renderer refuses
    before its first piece or runs to the end, so a caller writing the
    pieces as they come never leaves a cut-short document."""
    rng = random.Random(16)
    models = [hostile_model(), hostile_model(flat=True)]
    models += [random_model(rng, for_serialization=i % 2 == 0)
               for i in range(200)]
    cut_short = []
    for index, model in enumerate(models):
        for mode in threshold_modes(len(model.nfrs)):
            try:
                bundle = build_bundle(model, mode)
            except EmptyModelError:
                continue
            for name, pieces in (
                    ("text", iter_summary(bundle)),
                    ("markdown", iter_summary(bundle, "markdown")),
                    ("json", iter_json(bundle)),
                    ("table", iter_matrix_table(bundle.matrix,
                                                bundle.criticality))):
                try:
                    next(pieces)
                except ValueError:
                    continue
                try:
                    for _ in pieces:
                        pass
                except ValueError:
                    cut_short.append((index, mode.kind, name))
    assert cut_short == []


def test_summary_strips_the_newlines_that_end_the_table():
    # Only a hand-built model can end a goal name with a newline.
    model = Model("S", (Stakeholder("s", "S"),),
                  (Goal("g", "G\n\n", ("s",)),),
                  (SubGoal("sg", "SG", ("g",)),), (Nfr("n", "N", ("sg",)),))
    bundle = build_bundle(model)
    table = render_matrix_table(bundle.matrix, bundle.criticality)
    assert table.endswith("G1 = G\n\n\n")
    assert table.rstrip("\n") + "\n\nCritical NFRs\n" in render_summary(bundle)
    assert table.rstrip("\n") + "\n```\n" in render_summary(bundle, "markdown")


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
    assert data["criticality"]["critical"] \
        == [bundle.matrix.nfr_ids[i] for i in bundle.criticality.critical]


def with_matrix(bundle, matrix, **changes):
    """``bundle`` over a hand-built matrix, ranked as the analysis ranks
    it; a matrix it refuses to rank has no critical rows."""
    try:
        criticality = rank_criticality(matrix,
                                       bundle.criticality.threshold_mode)
    except EmptyMatrixError:
        criticality = bundle.criticality._replace(critical=())
    return bundle._replace(matrix=matrix, criticality=criticality, **changes)


def test_json_degenerate_matrices_match_the_reference(library_model):
    """Bundles the analysis never builds (no NFR rows, or rows over no
    goals) still export as the reference lays them out."""
    bundle = build_bundle(library_model)
    matrix = bundle.matrix
    for degenerate in (
        matrix._replace(nfr_ids=(), nfr_names=(), rows=()),
        matrix._replace(goal_ids=(), goal_names=(),
                        rows=((),) * len(matrix.rows)),
    ):
        hand_built = with_matrix(bundle, degenerate)
        assert export_json(hand_built) == reference_json(hand_built)


def marks_pieces(bundle):
    """The pieces ``iter_json`` yields between ``"marks": `` and the
    piece that closes the matrix object."""
    pieces = list(iter_json(bundle))
    start = next(i for i, piece in enumerate(pieces)
                 if piece.endswith('"marks": ')) + 1
    end = next(i for i, piece in enumerate(pieces)
               if piece.startswith('\n  },\n  "criticality"'))
    return pieces[start:end]


@pytest.mark.parametrize("width, rows", [
    # A mark on goal 0, on the last goal, adjacent marks, every goal
    # and no goal, one row each.
    (5, ((0,), (4,), (1, 2), (0, 1, 2, 3, 4), (), (0, 4))),
    (1, ((0,), (), (0,), (), (), (0,))),
    (0, ((),) * 6),
    (2000, ((0,), (1999,), (7, 8, 9), tuple(range(2000)), (),
            tuple(range(0, 2000, 3)))),
], ids=["5 goals", "1 goal", "0 goals", "2000 goals"])
def test_json_marks_rows_match_the_reference(library_model, width, rows):
    bundle = build_bundle(library_model)
    matrix = bundle.matrix._replace(
        goal_ids=tuple(f"g{j}" for j in range(width)),
        goal_names=tuple(f"G{j}" for j in range(width)),
        rows=rows)
    hand_built = with_matrix(bundle, matrix)
    assert export_json(hand_built) == reference_json(hand_built)
    # One piece per NFR row, then the closing bracket.
    pieces = marks_pieces(hand_built)
    assert len(pieces) == len(rows) + 1
    for piece, row in zip(pieces, rows_to_marks(rows, width)):
        assert piece[0] in "[,"
        assert json.loads(piece[1:]) == list(row)
    assert pieces[-1] == "\n    ]"


def test_json_repeated_ids_keep_dict_semantics(library_model):
    """A hand-built bundle may repeat an NFR id in "per_nfr" and in
    "scores": each key keeps its first position and its last value, as
    the reference's dicts do."""
    bundle = build_bundle(library_model)
    first = library_model.nfrs[0]
    unanswered = first._replace(checklist=ChecklistRecord())
    matrix = bundle.matrix
    repeated = with_matrix(
        bundle,
        matrix._replace(nfr_ids=(*matrix.nfr_ids, first.id),
                        nfr_names=(*matrix.nfr_names, "Repeated"),
                        rows=(*matrix.rows, ())),
        model=library_model._replace(
            nfrs=(*library_model.nfrs, unanswered)))
    text = export_json(repeated)
    assert text == reference_json(repeated)
    data = json.loads(text)
    assert list(data["checklist"]["per_nfr"])[0] == first.id
    assert data["checklist"]["per_nfr"][first.id]["answered"] == 0
    # The first row scores 7; the repeated id's last row scores 0.
    assert list(data["criticality"]["scores"])[0] == first.id
    assert data["criticality"]["scores"][first.id] == 0


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
