"""Completeness, validation and criticality analysis over a model.

All ratios are computed as exact fractions; rendering to fixed-decimal
text is the report layer's job.
"""

from __future__ import annotations

import math
import re
import reprlib
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .model import (
    CHECKLIST_SIZE,
    ChecklistRecord,
    Diagnostic,
    Model,
    NO,
    UNANSWERED,
    YES,
    record,
    validate_structure,
)

# str() prints, and int() reads, an int of at most this many digits by
# default.  Fixed, so that every process accepts the same thresholds.
MAX_THRESHOLD_DIGITS = 4300


def _digit_bounds() -> Iterator[tuple[int, str]]:
    """The fixed bound on a K's or a T's digits, then this process's int
    digit limit if it is lower, with the words that name it: int() reads
    and str() prints no more.  (3.10 before 3.10.7 has no limit.)"""
    yield MAX_THRESHOLD_DIGITS, ""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if 0 < limit < MAX_THRESHOLD_DIGITS:
        yield limit, ", the PYTHONINTMAXSTRDIGITS limit"


def _refuse_unprintable(what: str, n: Fraction | int) -> None:
    # Refused here, not mid-render.
    for bound, source in _digit_bounds():
        if max(abs(n.numerator), n.denominator) >= 10 ** bound:
            raise ValueError(f"{what} needs more than {bound} digits to"
                             f" print{source}")


def refuse_digit_runs(what: str, text: str) -> None:
    """Refuse a text with a run of more digits than
    ``MAX_THRESHOLD_DIGITS``, or than a lower int digit limit lets int()
    read, before int() reads it."""
    longest = max(map(len, re.findall(r"\d+", text.replace("_", ""))),
                  default=0)
    for bound, source in _digit_bounds():
        if longest > bound:
            raise ValueError(f"{what} has more than {bound} digits in a"
                             f" row{source}")


class EmptyModelError(ValueError):
    """Raised when an analysis needs NFRs and the model has none."""


class EmptyMatrixError(ValueError):
    """Raised when a traceability matrix has no rows or no columns."""


class InvalidModelError(ValueError):
    """Raised when analysis is asked to run on a structurally broken model."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        first = diagnostics[0].message if diagnostics else "invalid model"
        super().__init__(
            f"model has {len(diagnostics)} error-severity diagnostics"
            f" (first: {first})")


class CompletenessResult(record("n_c n_nv mcr")):
    __slots__ = ()


def compute_mcr(model: Model) -> CompletenessResult:
    """Metric for completeness: validated NFRs over all NFRs.

    MCR = n_c / (n_c + n_nv), where n_c counts NFRs whose checklist is
    fully answered yes and n_nv counts the rest: an unanswered slot or a
    single no leaves an NFR not yet validated.
    """
    if not model.nfrs:
        raise EmptyModelError("model has no NFRs; MCR is undefined")
    n_c = sum(1 for n in model.nfrs if n.checklist.yes_count == CHECKLIST_SIZE)
    n_nv = len(model.nfrs) - n_c
    return CompletenessResult(n_c, n_nv, Fraction(n_c, n_c + n_nv))


def score_checklist(model: Model) -> ChecklistRecord:
    """The whole model's eight-question checklist, one verdict a question.

    A question is yes when every NFR answers it yes, unanswered when some
    NFR leaves it unanswered, and no otherwise; with zero NFRs every
    question is yes.  An NFR's own checklist is ``nfr.checklist``.
    """
    answers = [n.checklist.answers for n in model.nfrs]
    return ChecklistRecord(tuple(
        YES if all(a[q] == YES for a in answers)
        else UNANSWERED if any(a[q] == UNANSWERED for a in answers) else NO
        for q in range(CHECKLIST_SIZE)))


class TraceabilityMatrix(record("nfr_ids nfr_names goal_ids goal_names rows")):
    """NFR x goal incidence, rows and columns in declaration order.

    Rows are stored sparse, one per NFR (compressed sparse rows):
    ``rows[i]`` holds the sorted, distinct indices into ``goal_ids`` of
    the goals NFR i marks, so storage and scoring grow with attachments,
    not with NFRs x goals.  Display names ride along for rendering.
    """

    __slots__ = ()

    def row_sum(self, row: int) -> int:
        return len(self.rows[row])


def build_traceability_matrix(model: Model, *,
                              diagnostics: Sequence[Diagnostic] | None = None
                              ) -> TraceabilityMatrix:
    """Derive the NFR x goal matrix.

    A cell is marked when the NFR attaches to the goal directly or to
    any sub-goal that lists the goal as a parent (sub-goal attachments
    lift to every parent); a row lists each marked goal once, however
    many attachments reach it.  Refuses models with error-severity
    diagnostics; warnings (say, an NFR attached to nothing) pass
    through and simply yield empty rows.  ``diagnostics`` is what
    ``validate_structure(model)`` returned; the model is validated here
    only when it is not given.
    """
    if diagnostics is None:
        diagnostics = validate_structure(model)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise InvalidModelError(errors)

    goal_index = {goal.id: j for j, goal in enumerate(model.goals)}
    lifted = {subgoal.id: [goal_index[parent] for parent in subgoal.parents]
              for subgoal in model.subgoals}
    rows: list[tuple[int, ...]] = []
    for nfr in model.nfrs:
        marked = {goal_index[goal_id] for goal_id in nfr.attached_goals}
        for subgoal_id in nfr.attached_subgoals:
            marked.update(lifted[subgoal_id])
        rows.append(tuple(sorted(marked)))
    return TraceabilityMatrix(
        tuple(n.id for n in model.nfrs),
        tuple(n.name for n in model.nfrs),
        tuple(g.id for g in model.goals),
        tuple(g.name for g in model.goals),
        tuple(rows),
    )


class ThresholdMode(record("kind parameter", None)):
    """How the critical cutoff is chosen: mean, top_k or absolute; the
    parameter is top_k's int k or absolute's Fraction t."""

    __slots__ = ()

    @classmethod
    def mean(cls) -> ThresholdMode:
        return cls("mean")

    @classmethod
    def top_k(cls, k: int) -> ThresholdMode:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(
                f"top_k needs an integer k, got {reprlib.repr(k)}")
        _refuse_unprintable("top_k's k", k)
        if k < 1:
            raise ValueError(f"top_k needs k >= 1, got {k}")
        return cls("top_k", k)

    @classmethod
    def absolute(cls, threshold) -> ThresholdMode:
        # An int or a Fraction is taken as it is; any other t, as its text.
        value = threshold
        if type(threshold) not in (int, Fraction):
            # Fraction() computes 10**exponent first, however long that takes.
            # The exponent may hold blanks, a sign, '_' and any decimal digits.
            value = str(threshold)
            exponent = value.lower().partition("e")[2]
            exponent = exponent.strip().lstrip("+-").replace("_", "")
            if exponent.isdecimal() and float(exponent) > MAX_THRESHOLD_DIGITS:
                raise ValueError("absolute threshold has an exponent above"
                                 f" {MAX_THRESHOLD_DIGITS} in magnitude")
            refuse_digit_runs("absolute threshold", value)
        try:
            value = Fraction(value)
        except (ArithmeticError, ValueError):  # '1/0', 'nan', 'None'
            raise ValueError("absolute needs a number t,"
                             f" got {reprlib.repr(threshold)}") from None
        _refuse_unprintable("absolute threshold", value)
        if value < 0:
            raise ValueError(f"absolute threshold must be >= 0, got {value}")
        return cls("absolute", value)

    def __str__(self) -> str:
        if self.kind == "mean":
            return "mean"
        return f"{self.kind}({self.parameter})"


class CriticalityReport(record("threshold_mode threshold_value critical")):
    """The threshold and the matrix rows singled out as critical.

    ``critical`` holds row indices, ordered by descending score, ties by
    row; row i's score is ``matrix.row_sum(i)``.
    """

    __slots__ = ()


def rank_criticality(matrix: TraceabilityMatrix,
                     mode: ThresholdMode = ThresholdMode.mean(),
                     ) -> CriticalityReport:
    """Score each NFR by how many goals it marks and pick the critical set.

    mean (default): critical means strictly above the arithmetic mean
    of the row scores, so a flat matrix has no critical NFRs.
    top_k(k): the k highest scores, ties broken by declaration order.
    absolute(t): every NFR scoring at least t.
    """
    if not matrix.nfr_ids or not matrix.goal_ids:
        raise EmptyMatrixError("traceability matrix has no rows or no columns")

    scores = tuple(map(len, matrix.rows))
    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)

    if mode.kind == "mean":
        threshold = Fraction(sum(scores), len(scores))
        cut = math.floor(threshold)  # an int score > threshold iff > cut
        chosen = [i for i in ranked if scores[i] > cut]
    elif mode.kind == "top_k":
        chosen = ranked[: mode.parameter]
        threshold = Fraction(scores[chosen[-1]])
    elif mode.kind == "absolute":
        threshold = Fraction(mode.parameter)
        cut = math.ceil(threshold)  # an int score >= threshold iff >= cut
        chosen = [i for i in ranked if scores[i] >= cut]
    else:
        raise ValueError(f"unknown threshold mode: {mode.kind!r}")

    return CriticalityReport(mode, threshold, tuple(chosen))
