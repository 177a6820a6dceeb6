"""Completeness metric, checklist scoring, matrix derivation, criticality."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nfr4.analysis import (
    EmptyMatrixError,
    EmptyModelError,
    InvalidModelError,
    NOT_YET_VALIDATED,
    ThresholdMode,
    TraceabilityMatrix,
    VALIDATED_CORRECT,
    build_traceability_matrix,
    compute_mcr,
    derive_status,
    rank_criticality,
    score_checklist,
    score_nfr,
)
from nfr4.model import (
    ANSWERS,
    CHECKLIST_SIZE,
    ChecklistRecord,
    Goal,
    Model,
    Nfr,
    Stakeholder,
    SubGoal,
)

from support import brute_force_marks, marks_to_rows, random_model

ALL_YES = ("yes",) * CHECKLIST_SIZE


def nfr_with(answers, ident="n"):
    return Nfr(ident, ident.upper(), checklist=ChecklistRecord(tuple(answers)))


def model_of(answer_rows):
    """A bare model carrying only NFRs; enough for the metric functions."""
    return Model("S", nfrs=tuple(
        nfr_with(row, f"n{i}") for i, row in enumerate(answer_rows)))


# ----------------------------------------------------------------- status


def test_all_yes_is_validated_correct():
    assert derive_status(nfr_with(ALL_YES)) == VALIDATED_CORRECT


def test_unanswered_slot_blocks_validation():
    assert derive_status(nfr_with(("yes",) * 7 + ("unanswered",))) \
        == NOT_YET_VALIDATED


def test_no_answer_blocks_validation():
    assert derive_status(nfr_with(("yes",) * 7 + ("no",))) \
        == NOT_YET_VALIDATED


def test_blank_checklist_is_not_validated():
    assert derive_status(Nfr("n", "N")) == NOT_YET_VALIDATED


# -------------------------------------------------------------------- mcr


def test_library_mcr_is_complete(library_model):
    result = compute_mcr(library_model)
    assert (result.n_c, result.n_nv) == (6, 0)
    assert result.mcr == Fraction(1)


def test_atm_mcr_is_complete(atm_model):
    result = compute_mcr(atm_model)
    assert (result.n_c, result.n_nv) == (5, 0)
    assert result.mcr == Fraction(1)


def test_partial_completeness(library_model):
    """Deleting two NFRs' answers drops MCR to 4/6."""
    stripped = tuple(
        Nfr(n.id, n.name, n.attached_subgoals, n.attached_goals)
        if n.id in ("safety", "flexibility") else n
        for n in library_model.nfrs)
    model = Model(library_model.system_name, library_model.stakeholders,
                  library_model.goals, library_model.subgoals, stripped)
    result = compute_mcr(model)
    assert (result.n_c, result.n_nv) == (4, 2)
    assert result.mcr == Fraction(2, 3)


def test_mcr_requires_nfrs():
    with pytest.raises(EmptyModelError):
        compute_mcr(Model("S"))


answer_row = st.tuples(*[st.sampled_from(ANSWERS)] * CHECKLIST_SIZE)


@given(st.lists(answer_row, min_size=1, max_size=8))
def test_mcr_equals_direct_count(rows):
    result = compute_mcr(model_of(rows))
    fully_yes = sum(1 for row in rows if row == ALL_YES)
    assert result.n_c == fully_yes
    assert result.n_nv == len(rows) - fully_yes
    assert result.mcr == Fraction(fully_yes, len(rows))
    assert 0 <= result.mcr <= 1
    assert (result.mcr == 1) == (result.n_nv == 0)
    assert (result.mcr == 0) == (result.n_c == 0)


@given(st.lists(answer_row, min_size=1, max_size=8), st.data())
def test_mcr_never_drops_when_a_record_completes(rows, data):
    index = data.draw(st.integers(0, len(rows) - 1))
    before = compute_mcr(model_of(rows)).mcr
    completed = list(rows)
    completed[index] = ALL_YES
    after = compute_mcr(model_of(completed)).mcr
    assert after >= before


# -------------------------------------------------------------- checklist


def test_per_nfr_score(library_model):
    score = score_nfr(next(n for n in library_model.nfrs
                           if n.id == "usability"))
    assert (score.subject, score.yes_count, score.answered_count) \
        == ("usability", 8, 8)
    assert score.metric == Fraction(1)


def test_per_nfr_score_counts_directly():
    score = score_nfr(nfr_with(("yes",) * 4 + ("no",) * 2
                               + ("unanswered",) * 2, "n0"))
    assert score.yes_count == 4
    assert score.answered_count == 6
    assert score.metric == Fraction(1, 2)


def test_whole_model_score_is_conjunction():
    rows = [ALL_YES, ("yes",) + ("unanswered",) * 7]
    score = score_checklist(model_of(rows))
    assert score.subject is None
    assert score.yes_count == 1
    assert score.answered_count == 1
    assert score.metric == Fraction(1, 8)


def test_whole_model_score_on_fixtures(library_model, atm_model):
    for model in (library_model, atm_model):
        score = score_checklist(model)
        assert (score.yes_count, score.answered_count) == (8, 8)
        assert score.metric == Fraction(1)


def test_whole_model_score_vacuous_without_nfrs():
    score = score_checklist(Model("S"))
    assert (score.yes_count, score.answered_count) == (8, 8)


@given(st.lists(answer_row, min_size=1, max_size=6))
def test_whole_model_yes_is_per_question_minimum(rows):
    whole = score_checklist(model_of(rows))
    expected = sum(
        1 for question in range(CHECKLIST_SIZE)
        if all(row[question] == "yes" for row in rows))
    assert whole.yes_count == expected
    assert whole.yes_count <= min(row.count("yes") for row in rows)


# ----------------------------------------------------------------- matrix

LIBRARY_GOAL_ORDER = (
    "login", "search_book", "borrow_book", "return_book", "register_member",
    "add_item", "issue_book", "receive_book", "view_catalog", "reserve_book",
    "pay_fine", "update_database", "check_reports",
)

LIBRARY_MARKED = {
    "usability": {"search_book", "borrow_book", "return_book",
                  "register_member", "add_item", "issue_book",
                  "receive_book"},
    "performance": {"search_book", "borrow_book", "issue_book"},
    "security": {"login"},
    "reliability": {"issue_book", "receive_book"},
    "safety": {"issue_book", "receive_book"},
    "flexibility": {"register_member"},
}

ATM_MARKED = {
    "usability": {"withdraw_money", "check_balance", "transfer_money",
                  "deposit_money", "change_password", "mini_statement"},
    "performance": {"withdraw_money", "check_balance", "transfer_money",
                    "deposit_money"},
    "security": {"withdraw_money", "check_balance", "change_password",
                 "print_receipt"},
    "reliability": {"transfer_money", "deposit_money"},
    "safety": {"print_receipt"},
}


def marked_goals(matrix):
    return {
        nfr_id: {matrix.goal_ids[j] for j in row}
        for nfr_id, row in zip(matrix.nfr_ids, matrix.rows)
    }


def test_library_matrix_pattern(library_model):
    matrix = build_traceability_matrix(library_model)
    assert matrix.goal_ids == LIBRARY_GOAL_ORDER
    assert marked_goals(matrix) == LIBRARY_MARKED
    assert [matrix.row_sum(i) for i in range(6)] == [7, 3, 1, 2, 2, 1]


def test_atm_matrix_pattern(atm_model):
    matrix = build_traceability_matrix(atm_model)
    assert marked_goals(matrix) == ATM_MARKED
    assert [matrix.row_sum(i) for i in range(5)] == [6, 4, 4, 2, 1]


def test_subgoal_attachment_lifts_to_all_parents():
    model = Model(
        "S",
        (Stakeholder("s", "S"),),
        (Goal("g1", "G1", ("s",)), Goal("g2", "G2", ("s",)),
         Goal("g3", "G3", ("s",))),
        (SubGoal("shared", "Shared", ("g1", "g3")),
         SubGoal("leaf", "Leaf", ("g2",))),
        (Nfr("n", "N", ("shared",)), Nfr("m", "M", ("leaf",), ("g3",))),
    )
    matrix = build_traceability_matrix(model)
    assert matrix.rows == (
        (0, 2),
        (1, 2),
    )


def test_goal_reached_twice_is_marked_once():
    model = Model(
        "S",
        (Stakeholder("s", "S"),),
        (Goal("g1", "G1", ("s",)), Goal("g2", "G2", ("s",))),
        (SubGoal("sg", "SG", ("g2",)), SubGoal("other", "Other", ("g1",))),
        (Nfr("n", "N", ("sg",), ("g2",)),),
    )
    matrix = build_traceability_matrix(model)
    assert matrix.rows == ((1,),)
    assert matrix.row_sum(0) == 1
    assert rank_criticality(matrix).scores == (1,)


def test_unattached_nfr_yields_all_false_row():
    model = Model(
        "S",
        (Stakeholder("s", "S"),),
        (Goal("g", "G", ("s",)),),
        (SubGoal("sg", "SG", ("g",)),),
        (Nfr("n", "N", (), ("g",)), Nfr("loose", "Loose")),
    )
    matrix = build_traceability_matrix(model)
    assert matrix.rows[1] == ()
    assert matrix.row_sum(1) == 0


def test_matrix_refuses_broken_models():
    model = Model(
        "S",
        (Stakeholder("s", "S"),),
        (Goal("g", "G", ("s",)),),
        (SubGoal("sg", "SG", ("g",)),),
        (Nfr("n", "N", (), ("ghost",)),),
    )
    with pytest.raises(InvalidModelError) as caught:
        build_traceability_matrix(model)
    assert caught.value.diagnostics
    assert caught.value.diagnostics[0].rule_id == "REF"
    assert "1" in str(caught.value)


def test_matrix_agrees_with_scan_oracle():
    random_state = random.Random(5)
    for _ in range(200):
        model = random_model(random_state)
        assert build_traceability_matrix(model).rows \
            == marks_to_rows(brute_force_marks(model))


# ------------------------------------------------------------- thresholds


def matrix_from_scores(rows):
    """Raw matrix with the requested row sums, one goal per column."""
    width = max(rows) if rows else 1
    return TraceabilityMatrix(
        tuple(f"n{i}" for i in range(len(rows))),
        tuple(f"N{i}" for i in range(len(rows))),
        tuple(f"g{j}" for j in range(width)),
        tuple(f"G{j}" for j in range(width)),
        tuple(tuple(range(row)) for row in rows),
    )


def test_mean_mode_on_library(library_model):
    report = rank_criticality(build_traceability_matrix(library_model))
    assert report.scores == (7, 3, 1, 2, 2, 1)
    assert report.threshold_value == Fraction(16, 6)
    assert report.critical == ("usability", "performance")


def test_mean_mode_on_atm(atm_model):
    report = rank_criticality(build_traceability_matrix(atm_model))
    assert report.scores == (6, 4, 4, 2, 1)
    assert report.threshold_value == Fraction(17, 5)
    assert report.critical == ("usability", "performance", "security")


def test_mean_mode_needs_strict_excess():
    report = rank_criticality(matrix_from_scores([3, 3, 3]))
    assert report.critical == ()


def test_critical_ordering_is_score_then_declaration():
    report = rank_criticality(matrix_from_scores([2, 5, 5, 9]),
                              ThresholdMode.absolute(2))
    assert report.critical == ("n3", "n1", "n2", "n0")


def test_top_k_mode(library_model):
    matrix = build_traceability_matrix(library_model)
    report = rank_criticality(matrix, ThresholdMode.top_k(1))
    assert report.critical == ("usability",)
    assert report.threshold_value == Fraction(7)
    assert rank_criticality(matrix, ThresholdMode.top_k(2)).critical \
        == ("usability", "performance")


def test_top_k_breaks_ties_by_declaration():
    report = rank_criticality(matrix_from_scores([4, 4, 4]),
                              ThresholdMode.top_k(2))
    assert report.critical == ("n0", "n1")


def test_top_k_larger_than_matrix_takes_everything():
    report = rank_criticality(matrix_from_scores([1, 2]),
                              ThresholdMode.top_k(10))
    assert report.critical == ("n1", "n0")
    assert report.threshold_value == Fraction(1)


def test_absolute_mode_is_inclusive(library_model):
    matrix = build_traceability_matrix(library_model)
    report = rank_criticality(matrix, ThresholdMode.absolute(2))
    assert report.critical == ("usability", "performance",
                               "reliability", "safety")
    report = rank_criticality(matrix, ThresholdMode.absolute(Fraction(5, 2)))
    assert report.critical == ("usability", "performance")


def test_threshold_mode_validation():
    with pytest.raises(ValueError, match=r"^top_k needs k >= 1, got 0$"):
        ThresholdMode.top_k(0)
    for k in (2.5, "2", True, False):
        with pytest.raises(ValueError, match="integer"):
            ThresholdMode.top_k(k)
    with pytest.raises(ValueError):
        ThresholdMode.absolute(-1)
    for flag in (True, False):
        with pytest.raises(ValueError,
                           match=rf"^absolute needs a number t, got {flag}$"):
            ThresholdMode.absolute(flag)
    assert str(ThresholdMode.mean()) == "mean"
    assert str(ThresholdMode.top_k(3)) == "top_k(3)"
    assert str(ThresholdMode.absolute(2)) == "absolute(2)"


def test_unknown_threshold_mode_is_refused(library_model):
    matrix = build_traceability_matrix(library_model)
    with pytest.raises(ValueError,
                       match=r"^unknown threshold mode: 'bogus'$"):
        rank_criticality(matrix, ThresholdMode("bogus"))


def test_absolute_accepts_floats_exactly():
    mode = ThresholdMode.absolute(2.5)
    assert mode.parameter == Fraction(5, 2)


def test_empty_matrix_is_refused():
    no_rows = TraceabilityMatrix((), (), ("g",), ("G",), ())
    no_columns = TraceabilityMatrix(("n",), ("N",), (), (), ((),))
    for matrix in (no_rows, no_columns):
        with pytest.raises(EmptyMatrixError):
            rank_criticality(matrix)


def test_row_permutation_permutes_scores_keeps_critical_set():
    random_state = random.Random(17)
    for _ in range(50):
        model = random_model(random_state)
        matrix = build_traceability_matrix(model)
        if not matrix.nfr_ids:
            continue
        order = list(range(len(matrix.nfr_ids)))
        random_state.shuffle(order)
        shuffled = TraceabilityMatrix(
            tuple(matrix.nfr_ids[i] for i in order),
            tuple(matrix.nfr_names[i] for i in order),
            matrix.goal_ids, matrix.goal_names,
            tuple(matrix.rows[i] for i in order),
        )
        base = rank_criticality(matrix)
        permuted = rank_criticality(shuffled)
        assert permuted.scores == tuple(base.scores[i] for i in order)
        assert set(permuted.critical) == set(base.critical)


def test_column_permutation_changes_nothing(library_model):
    matrix = build_traceability_matrix(library_model)
    order = list(range(len(matrix.goal_ids)))[::-1]
    flipped = TraceabilityMatrix(
        matrix.nfr_ids, matrix.nfr_names,
        tuple(matrix.goal_ids[j] for j in order),
        tuple(matrix.goal_names[j] for j in order),
        tuple(tuple(sorted(order.index(j) for j in row))
              for row in matrix.rows),
    )
    assert rank_criticality(flipped).scores == rank_criticality(matrix).scores
    assert rank_criticality(flipped).critical \
        == rank_criticality(matrix).critical


def test_column_doubling_doubles_scores_keeps_critical(library_model):
    matrix = build_traceability_matrix(library_model)
    doubled = TraceabilityMatrix(
        matrix.nfr_ids, matrix.nfr_names,
        matrix.goal_ids + tuple(f"{g}_copy" for g in matrix.goal_ids),
        matrix.goal_names + matrix.goal_names,
        tuple(row + tuple(j + len(matrix.goal_ids) for j in row)
              for row in matrix.rows),
    )
    base = rank_criticality(matrix)
    scaled = rank_criticality(doubled)
    assert scaled.scores == tuple(2 * s for s in base.scores)
    assert scaled.critical == base.critical
