"""Completeness, validation and criticality analysis over a model.

All ratios are computed as exact fractions; rendering to fixed-decimal
text is the report layer's job.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    CHECKLIST_SIZE,
    Diagnostic,
    Model,
    Nfr,
    UNANSWERED,
    YES,
    validate_structure,
)

VALIDATED_CORRECT = "validated-correct"
NOT_YET_VALIDATED = "not-yet-validated"


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


def derive_status(nfr: Nfr) -> str:
    """An NFR is validated-correct only when all eight answers are yes.

    Anything less -- an unanswered slot or a single no -- leaves it
    not-yet-validated; a "no" marks open work, not a verdict.
    """
    if nfr.checklist.yes_count == CHECKLIST_SIZE:
        return VALIDATED_CORRECT
    return NOT_YET_VALIDATED


@dataclass(frozen=True, slots=True)
class CompletenessResult:
    n_c: int
    n_nv: int
    mcr: Fraction


def compute_mcr(model: Model) -> CompletenessResult:
    """Metric for completeness: validated NFRs over all NFRs.

    MCR = n_c / (n_c + n_nv), where n_c counts NFRs whose checklist is
    fully answered yes and n_nv counts the rest.
    """
    if not model.nfrs:
        raise EmptyModelError("model has no NFRs; MCR is undefined")
    n_c = sum(1 for n in model.nfrs if derive_status(n) == VALIDATED_CORRECT)
    n_nv = len(model.nfrs) - n_c
    return CompletenessResult(n_c, n_nv, Fraction(n_c, n_c + n_nv))


@dataclass(frozen=True, slots=True)
class ChecklistScore:
    """Validation score for one NFR, or for the whole model (subject None)."""

    subject: str | None
    yes_count: int
    answered_count: int
    metric: Fraction


def score_nfr(nfr: Nfr) -> ChecklistScore:
    """Score one NFR's checklist: its yes-count over eight."""
    record = nfr.checklist
    return ChecklistScore(nfr.id, record.yes_count, record.answered_count,
                          Fraction(record.yes_count, CHECKLIST_SIZE))


def score_checklist(model: Model) -> ChecklistScore:
    """Score the whole model's eight-question checklist.

    A question counts as yes only when every NFR answers it yes, and as
    answered only when every NFR answered it; with zero NFRs both hold
    vacuously.  ``score_nfr`` scores one NFR.
    """
    yes = 0
    answered = 0
    for question in range(CHECKLIST_SIZE):
        if all(n.checklist.answers[question] == YES for n in model.nfrs):
            yes += 1
        if all(n.checklist.answers[question] != UNANSWERED for n in model.nfrs):
            answered += 1
    return ChecklistScore(None, yes, answered, Fraction(yes, CHECKLIST_SIZE))


@dataclass(frozen=True, slots=True)
class TraceabilityMatrix:
    """NFR x goal incidence, rows and columns in declaration order.

    Rows are stored sparse, one per NFR (compressed sparse rows):
    ``rows[i]`` holds the sorted, distinct indices into ``goal_ids`` of
    the goals NFR i marks, so storage and scoring grow with attachments,
    not with NFRs x goals.  Display names ride along for rendering.
    """

    nfr_ids: tuple[str, ...]
    nfr_names: tuple[str, ...]
    goal_ids: tuple[str, ...]
    goal_names: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

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


@dataclass(frozen=True, slots=True)
class ThresholdMode:
    """How the critical cutoff is chosen: mean, top_k or absolute."""

    kind: str
    parameter: Fraction | int | None = None

    @classmethod
    def mean(cls) -> ThresholdMode:
        return cls("mean")

    @classmethod
    def top_k(cls, k: int) -> ThresholdMode:
        if not isinstance(k, int) or isinstance(k, bool):
            raise ValueError(f"top_k needs an integer k, got {k!r}")
        if k < 1:
            raise ValueError(f"top_k needs k >= 1, got {k}")
        return cls("top_k", k)

    @classmethod
    def absolute(cls, threshold) -> ThresholdMode:
        if isinstance(threshold, bool):
            raise ValueError(f"absolute needs a number t, got {threshold!r}")
        value = Fraction(str(threshold)) if isinstance(threshold, float) \
            else Fraction(threshold)
        if value < 0:
            raise ValueError(f"absolute threshold must be >= 0, got {threshold}")
        return cls("absolute", value)

    def __str__(self) -> str:
        if self.kind == "mean":
            return "mean"
        return f"{self.kind}({self.parameter})"


@dataclass(frozen=True, slots=True)
class CriticalityReport:
    """Row scores and the NFRs singled out as critical.

    ``critical`` is ordered by descending score, ties by declaration
    order; ``scores`` stays in declaration order.
    """

    nfr_ids: tuple[str, ...]
    scores: tuple[int, ...]
    threshold_mode: ThresholdMode
    threshold_value: Fraction
    critical: tuple[str, ...]


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
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    if mode.kind == "mean":
        threshold = Fraction(sum(scores), len(scores))
        chosen = [i for i in ranked if scores[i] > threshold]
    elif mode.kind == "top_k":
        chosen = ranked[: mode.parameter]
        threshold = Fraction(min(scores[i] for i in chosen))
    elif mode.kind == "absolute":
        threshold = Fraction(mode.parameter)
        chosen = [i for i in ranked if scores[i] >= threshold]
    else:
        raise ValueError(f"unknown threshold mode: {mode.kind!r}")

    return CriticalityReport(
        matrix.nfr_ids, scores, mode, threshold,
        tuple(matrix.nfr_ids[i] for i in chosen),
    )
