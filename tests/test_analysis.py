"""Completeness metric, checklist scoring, matrix derivation, criticality."""

import random
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from nfr4 import analysis
from nfr4.analysis import (
    EmptyModelError,
    InvalidModelError,
    ThresholdMode,
    TraceabilityMatrix,
    build_traceability_matrix,
    compute_mcr,
    rank_criticality,
    score_checklist,
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

from support import (
    brute_force_marks,
    marked_goals,
    marks_to_rows,
    oracle_ranking,
    random_model,
)

ALL_YES = ("yes",) * CHECKLIST_SIZE


def nfr_with(answers, ident="n"):
    return Nfr(ident, ident.upper(), checklist=ChecklistRecord(tuple(answers)))


def model_of(answer_rows):
    """A bare model carrying only NFRs; enough for the metric functions."""
    return Model("S", nfrs=tuple(
        nfr_with(row, f"n{i}") for i, row in enumerate(answer_rows)))


# -------------------------------------------------------------------- mcr


@pytest.mark.parametrize("answers, counts", [
    (ALL_YES, (1, 0)),
    (("yes",) * 7 + ("unanswered",), (0, 1)),
    (("yes",) * 7 + ("no",), (0, 1)),
    (("unanswered",) * CHECKLIST_SIZE, (0, 1)),
], ids=["all-yes", "one-unanswered", "one-no", "blank"])
def test_only_an_all_yes_checklist_is_validated(answers, counts):
    # An unanswered slot or a single no leaves the NFR not yet validated.
    result = compute_mcr(model_of([answers]))
    assert (result.n_c, result.n_nv) == counts


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
    checklist = next(n for n in library_model.nfrs
                     if n.id == "usability").checklist
    assert (checklist.yes_count, checklist.answered_count) == (8, 8)
    assert checklist.metric == Fraction(1)


def test_per_nfr_score_counts_directly():
    checklist = ChecklistRecord(("yes",) * 4 + ("no",) * 2
                                + ("unanswered",) * 2)
    assert checklist.yes_count == 4
    assert checklist.answered_count == 6
    assert checklist.metric == Fraction(1, 2)


def test_whole_model_score_is_conjunction():
    rows = [ALL_YES, ("yes",) + ("unanswered",) * 7]
    score = score_checklist(model_of(rows))
    assert score == ChecklistRecord(("yes",) + ("unanswered",) * 7)
    assert score.yes_count == 1
    assert score.answered_count == 1
    assert score.metric == Fraction(1, 8)


def test_whole_model_score_on_fixtures(library_model, atm_model):
    for model in (library_model, atm_model):
        score = score_checklist(model)
        assert score == ChecklistRecord(ALL_YES)
        assert (score.yes_count, score.answered_count) == (8, 8)
        assert score.metric == Fraction(1)


def test_whole_model_score_vacuous_without_nfrs():
    score = score_checklist(Model("S"))
    assert score == ChecklistRecord(ALL_YES)
    assert (score.yes_count, score.answered_count) == (8, 8)


@given(st.lists(answer_row, min_size=0, max_size=6))
def test_whole_model_yes_is_per_question_minimum(rows):
    # The verdict is the minimum under unanswered < no < yes.
    whole = score_checklist(model_of(rows))
    questions = range(CHECKLIST_SIZE)
    for question in questions:
        column = [row[question] for row in rows]
        if all(answer == "yes" for answer in column):
            expected = "yes"
        elif "unanswered" in column:
            expected = "unanswered"
        else:
            expected = "no"
        assert whole.answers[question] == expected
    # The counts by their definition, one all() a question.
    assert whole.yes_count == sum(
        all(row[q] == "yes" for row in rows) for q in questions)
    assert whole.answered_count == sum(
        all(row[q] != "unanswered" for row in rows) for q in questions)
    assert whole.metric == Fraction(whole.yes_count, CHECKLIST_SIZE)
    assert whole.yes_count <= min((row.count("yes") for row in rows),
                                  default=CHECKLIST_SIZE)


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


def critical_ids(matrix, report):
    return tuple(matrix.nfr_ids[i] for i in report.critical)


def test_mean_mode_on_library(library_model):
    matrix = build_traceability_matrix(library_model)
    report = rank_criticality(matrix)
    assert tuple(map(len, matrix.rows)) == (7, 3, 1, 2, 2, 1)
    assert report.threshold_value == Fraction(16, 6)
    assert critical_ids(matrix, report) == ("usability", "performance")


def test_mean_mode_on_atm(atm_model):
    matrix = build_traceability_matrix(atm_model)
    report = rank_criticality(matrix)
    assert tuple(map(len, matrix.rows)) == (6, 4, 4, 2, 1)
    assert report.threshold_value == Fraction(17, 5)
    assert critical_ids(matrix, report) \
        == ("usability", "performance", "security")


def test_mean_mode_needs_strict_excess():
    report = rank_criticality(matrix_from_scores([3, 3, 3]))
    assert report.critical == ()


def test_critical_ordering_is_score_then_declaration():
    report = rank_criticality(matrix_from_scores([2, 5, 5, 9]),
                              ThresholdMode.absolute(2))
    assert report.critical == (3, 1, 2, 0)


RANKING_MODES = st.one_of(
    st.just(ThresholdMode.mean()),
    st.integers(1, 25).map(ThresholdMode.top_k),
    st.integers(0, 12).map(ThresholdMode.absolute),
    st.fractions(0, 12).map(ThresholdMode.absolute),
)


@given(st.lists(st.integers(0, 10), min_size=1, max_size=20), RANKING_MODES)
# Integer means: a score equal to the mean is not above it.
@example([3, 3, 3], ThresholdMode.mean())
@example([1, 2, 3], ThresholdMode.mean())
@example([0, 4, 2, 2], ThresholdMode.mean())
@example([2, 3, 2, 3], ThresholdMode.absolute(Fraction(5, 2)))
@example([0, 0], ThresholdMode.absolute(0))
def test_ranking_matches_the_exact_oracle(scores, mode):
    width = max(scores) + 1
    matrix = TraceabilityMatrix(
        tuple(f"n{i}" for i in range(len(scores))),
        tuple(f"N{i}" for i in range(len(scores))),
        tuple(f"g{j}" for j in range(width)),
        tuple(f"G{j}" for j in range(width)),
        tuple(tuple(range(score)) for score in scores),
    )
    report = rank_criticality(matrix, mode)
    threshold, chosen = oracle_ranking(scores, mode)
    assert report.threshold_value == threshold
    assert type(report.threshold_value) is Fraction
    assert report.critical == tuple(chosen)


def test_top_k_mode(library_model):
    matrix = build_traceability_matrix(library_model)
    report = rank_criticality(matrix, ThresholdMode.top_k(1))
    assert critical_ids(matrix, report) == ("usability",)
    assert report.threshold_value == Fraction(7)
    report = rank_criticality(matrix, ThresholdMode.top_k(2))
    assert critical_ids(matrix, report) == ("usability", "performance")


def test_top_k_breaks_ties_by_declaration():
    report = rank_criticality(matrix_from_scores([4, 4, 4]),
                              ThresholdMode.top_k(2))
    assert report.critical == (0, 1)


def test_top_k_larger_than_matrix_takes_everything():
    report = rank_criticality(matrix_from_scores([1, 2]),
                              ThresholdMode.top_k(10))
    assert report.critical == (1, 0)
    assert report.threshold_value == Fraction(1)


def test_absolute_mode_is_inclusive(library_model):
    matrix = build_traceability_matrix(library_model)
    report = rank_criticality(matrix, ThresholdMode.absolute(2))
    assert critical_ids(matrix, report) == ("usability", "performance",
                                            "reliability", "safety")
    report = rank_criticality(matrix, ThresholdMode.absolute(Fraction(5, 2)))
    assert critical_ids(matrix, report) == ("usability", "performance")


def test_threshold_mode_validation():
    with pytest.raises(ValueError, match=r"^top_k needs k >= 1, got 0$"):
        ThresholdMode.top_k(0)
    for k in (2.5, "2", True, False):
        with pytest.raises(ValueError, match="integer"):
            ThresholdMode.top_k(k)
    with pytest.raises(ValueError):
        ThresholdMode.absolute(-1)
    # Every refusal is a ValueError, whatever Fraction() would raise.
    for t in (True, False, None, 1j, Decimal("Infinity"), Decimal("NaN"),
              float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"^absolute needs a number t,"
                           rf" got {re.escape(repr(t))}$"):
            ThresholdMode.absolute(t)
    assert str(ThresholdMode.mean()) == "mean"
    assert str(ThresholdMode.top_k(3)) == "top_k(3)"
    assert str(ThresholdMode.absolute(2)) == "absolute(2)"


def test_absolute_refuses_a_threshold_that_cannot_be_printed():
    # str() prints an int of at most 4300 digits, in every process.
    largest = 10 ** 4300 - 1
    mode = ThresholdMode.absolute(largest)
    assert str(mode) == f"absolute({largest})"
    # The largest exponent that can print is taken.
    assert ThresholdMode.absolute("0e4300").parameter == 0
    for threshold in (10 ** 4300, Fraction(1, 10 ** 4300), -10 ** 5000,
                      "123e4299"):
        with pytest.raises(ValueError, match=r"^absolute threshold needs"
                           r" more than 4300 digits to print$"):
            ThresholdMode.absolute(threshold)


EXPONENT_ABOVE = "absolute threshold has an exponent above 4300 in magnitude"


@pytest.mark.parametrize("threshold, reason", [
    *((text, EXPONENT_ABOVE)
      for text in ("1e3000000", "1E+3_000_000", " 1e3000000 ",
                   "1e\u0663" + "\u0660" * 6, "1.5e-3000000", "0e3000000",
                   "1e10_000_000", "\u20031e-3000000\u2003",
                   Decimal("1e3000000"), Decimal("1E-3000000"),
                   Decimal("-1E+3000000"))),
    ("1/0", "absolute needs a number t, got '1/0'"),
])
def test_absolute_refuses_a_costly_or_undefined_text_fast(threshold, reason):
    # Fraction() would compute 10**exponent first, for seconds.
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{reason}$"):
        ThresholdMode.absolute(threshold)
    assert time.perf_counter() - started < 0.5


def test_absolute_reads_many_long_runs_of_digits_fast():
    # Each run is within the bound; a search for a longer run must not
    # start again at every digit of every run.
    text = ("1" * 4300 + "/") * 30
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"^absolute needs a number t, got"):
        ThresholdMode.absolute(text)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("make, value, reason", [
    (ThresholdMode.top_k, list(range(100_000)),
     "top_k needs an integer k, got [0, 1, 2, 3, 4, 5, ...]"),
    (ThresholdMode.absolute, ("1" * 4300 + "/") * 20,
     "absolute needs a number t, got '111111111111...111111111111/'"),
], ids=["top_k", "absolute"])
def test_a_refused_value_is_quoted_short(make, value, reason):
    with pytest.raises(ValueError) as refused:
        make(value)
    assert str(refused.value) == reason


def test_top_k_refuses_a_k_that_cannot_be_printed():
    # The same fixed bound as absolute's, in every process.
    largest = 10 ** 4300 - 1
    assert ThresholdMode.top_k(largest).parameter == largest
    for k in (10 ** 4300, 10 ** 5000, -10 ** 5000):
        with pytest.raises(ValueError, match=r"^top_k's k needs more than"
                           r" 4300 digits to print$"):
            ThresholdMode.top_k(k)


def test_unknown_threshold_mode_is_refused(library_model):
    matrix = build_traceability_matrix(library_model)
    with pytest.raises(ValueError,
                       match=r"^unknown threshold mode: 'bogus'$"):
        rank_criticality(matrix, ThresholdMode("bogus"))


@pytest.mark.parametrize("threshold", [
    "1" * 4301, "1" * 5000, "0" * 4300 + "1", "1/" + "3" * 4301,
    "1." + "0" * 4301, "1" + "_1" * 4300,
], ids=["4301 ones", "5000 ones", "4300 zeros and 1", "1/(4301 threes)",
        "1.(4301 zeros)", "4301 ones with '_'"])
@pytest.mark.parametrize("limit", [None, 0, 640])
def test_a_long_run_of_digits_gets_one_reason_under_every_digit_limit(
        threshold, limit):
    # Whether int() reads more than 4300 digits in a row depends on the
    # process's digit limit; the text is refused before int() sees it, for
    # one reason under every limit, and is not echoed.
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(ValueError, match=r"^absolute threshold has more"
                           r" than 4300 digits in a row$"):
            ThresholdMode.absolute(threshold)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", [None, 0])
def test_runs_of_4300_digits_are_read(limit):
    saved = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        assert ThresholdMode.absolute("1/" + "9" * 4300).parameter \
            == Fraction(1, 10 ** 4300 - 1)
        assert ThresholdMode.absolute("1." + "0" * 4300).parameter == 1
        assert ThresholdMode.absolute("0" * 4299 + "2").parameter == 2
    finally:
        sys.set_int_max_str_digits(saved)


def test_absolute_accepts_floats_exactly():
    mode = ThresholdMode.absolute(2.5)
    assert mode.parameter == Fraction(5, 2)
    assert ThresholdMode.absolute(Decimal("2.5")) == mode \
        == ThresholdMode.absolute("5/2") \
        == ThresholdMode.absolute(Fraction(5, 2))


def test_modes_are_refused_when_built_if_this_process_cannot_print_them():
    # Under a lower int digit limit the refusal comes from the mode, not
    # from a renderer after output has started.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for build in (ThresholdMode.absolute, ThresholdMode.top_k):
            with pytest.raises(ValueError):
                build(10 ** 1000)
    finally:
        sys.set_int_max_str_digits(limit)


LIMIT = ", the PYTHONINTMAXSTRDIGITS limit"


@pytest.mark.parametrize("build, value, reason", [
    (ThresholdMode.top_k, 10 ** 640,
     "top_k's k needs more than 640 digits to print" + LIMIT),
    (ThresholdMode.absolute, Fraction(1, 10 ** 640),
     "absolute threshold needs more than 640 digits to print" + LIMIT),
    (ThresholdMode.absolute, "1e640",
     "absolute threshold needs more than 640 digits to print" + LIMIT),
    (ThresholdMode.absolute, "9" * 641,
     "absolute threshold has more than 640 digits in a row" + LIMIT),
    (ThresholdMode.absolute, "1." + "0" * 641,
     "absolute threshold has more than 640 digits in a row" + LIMIT),
], ids=["top_k 10**640", "absolute 1/10**640", "absolute 1e640",
        "absolute 641 nines", "absolute 1.(641 zeros)"])
def test_a_lower_int_digit_limit_is_named(build, value, reason):
    # Below 4300 the process's int digit limit bounds K and T as well, and
    # the reason names it.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError) as refused:
            build(value)
        assert str(refused.value) == reason
        assert ThresholdMode.top_k(10 ** 640 - 1).parameter == 10 ** 640 - 1
        assert ThresholdMode.absolute("9" * 640).parameter == 10 ** 640 - 1
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("build, value, reason", [
    (ThresholdMode.top_k, 10 ** 4300,
     "top_k's k needs more than 4300 digits to print"),
    (ThresholdMode.absolute, "1e4300",
     "absolute threshold needs more than 4300 digits to print"),
    (ThresholdMode.absolute, "9" * 4301,
     "absolute threshold has more than 4300 digits in a row"),
], ids=["top_k 10**4300", "absolute 1e4300", "absolute 4301 nines"])
def test_without_an_int_digit_limit_only_the_fixed_bound_applies(
        monkeypatch, build, value, reason):
    # Python 3.10 before 3.10.7 has no int digit limit and no getter for
    # one.  Without the getter nothing reads the lower limit set here: a
    # K within the fixed bound is taken, and no reason names the limit.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with monkeypatch.context() as patch:
            patch.delattr(sys, "get_int_max_str_digits")
            assert list(analysis._digit_bounds()) == [(4300, "")]
            with pytest.raises(ValueError) as refused:
                build(value)
            assert str(refused.value) == reason
            assert ThresholdMode.top_k(10 ** 640).parameter == 10 ** 640
            analysis.refuse_digit_runs("top_k's k", "9" * 4300)
    finally:
        sys.set_int_max_str_digits(saved)


def test_empty_matrix_is_refused():
    no_rows = TraceabilityMatrix((), (), ("g",), ("G",), ())
    no_columns = TraceabilityMatrix(("n",), ("N",), (), (), ((),))
    for matrix in (no_rows, no_columns):
        for mode in (ThresholdMode.mean(), ThresholdMode.top_k(1),
                     ThresholdMode.absolute(0)):
            with pytest.raises(ValueError) as refused:
                rank_criticality(matrix, mode)
            assert str(refused.value) \
                == "traceability matrix has no rows or no columns"


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
        # Row i of the shuffled matrix is row order[i] of the original.
        assert {order[i] for i in permuted.critical} == set(base.critical)
        assert permuted.threshold_value == base.threshold_value


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
    assert rank_criticality(flipped) == rank_criticality(matrix)


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
    assert scaled.threshold_value == 2 * base.threshold_value
    assert scaled.critical == base.critical
