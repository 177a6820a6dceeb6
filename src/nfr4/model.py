"""Core model types for four-layer NFR analysis.

A model is a lattice of four ordered layers: stakeholders own goals,
goals decompose into sub-goals, and NFRs attach to sub-goals or
directly to goals.  All types are immutable; construction is permissive
(dangling references, empty edge lists and duplicate ids are allowed)
so that ``validate_structure`` can report problems instead of the
constructors rejecting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

YES = "yes"
NO = "no"
UNANSWERED = "unanswered"
ANSWERS = (YES, NO, UNANSWERED)

CHECKLIST_SIZE = 8

# Rule ids in report order.  Severity is looked up here and nowhere else.
RULE_ORDER = ("R1", "R2", "R3", "R4", "REF", "DUP")
SEVERITY_BY_RULE = {
    "R1": "error",
    "R2": "error",
    "R3": "error",
    "R4": "warning",
    "REF": "error",
    "DUP": "error",
}


class UnknownIdError(ValueError):
    """Raised when an accessor is queried with an id that does not resolve."""


def _as_tuple(value) -> tuple:
    return value if isinstance(value, tuple) else tuple(value)


@dataclass(frozen=True, slots=True)
class Stakeholder:
    id: str
    name: str
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Goal:
    """A goal and the stakeholders that own it (ids, declaration order)."""

    id: str
    name: str
    owners: tuple[str, ...] = ()
    line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "owners", _as_tuple(self.owners))


@dataclass(frozen=True, slots=True)
class SubGoal:
    """A sub-goal and its parent goals (ids, declaration order).

    Sub-goals may have several parents: real systems share steps such
    as "enter pin" across goals.
    """

    id: str
    name: str
    parents: tuple[str, ...] = ()
    line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", _as_tuple(self.parents))


@dataclass(frozen=True, slots=True)
class ChecklistRecord:
    """Answers to the eight validation questions for one NFR.

    ``answers`` always has exactly eight slots, each ``yes``, ``no`` or
    ``unanswered``.
    """

    answers: tuple[str, ...] = (UNANSWERED,) * CHECKLIST_SIZE

    def __post_init__(self) -> None:
        object.__setattr__(self, "answers", _as_tuple(self.answers))
        if len(self.answers) != CHECKLIST_SIZE:
            raise ValueError(f"checklist must have {CHECKLIST_SIZE} answers")
        for answer in self.answers:
            if answer not in ANSWERS:
                raise ValueError(f"bad checklist answer: {answer!r}")

    def with_answer(self, index: int, answer: str) -> ChecklistRecord:
        """Return a copy with question ``index`` (1-based) set to ``answer``."""
        if not 1 <= index <= CHECKLIST_SIZE:
            raise ValueError(f"checklist index out of range: {index}")
        answers = list(self.answers)
        answers[index - 1] = answer
        return ChecklistRecord(tuple(answers))

    @property
    def yes_count(self) -> int:
        return self.answers.count(YES)

    @property
    def answered_count(self) -> int:
        return CHECKLIST_SIZE - self.answers.count(UNANSWERED)


@dataclass(frozen=True, slots=True)
class Nfr:
    """A non-functional requirement and what it constrains.

    Attachments are split by target layer; goal-level attachment is the
    explicit shortcut for constraints that apply to a whole goal rather
    than one of its sub-goals.
    """

    id: str
    name: str
    attached_subgoals: tuple[str, ...] = ()
    attached_goals: tuple[str, ...] = ()
    checklist: ChecklistRecord = ChecklistRecord()
    line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "attached_subgoals", _as_tuple(self.attached_subgoals))
        object.__setattr__(self, "attached_goals", _as_tuple(self.attached_goals))


@dataclass(frozen=True, slots=True)
class UnresolvedCheck:
    """A checklist statement whose NFR id did not resolve at parse time.

    Kept on the model so reference validation can report it.
    """

    nfr_id: str
    index: int
    answer: str
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Model:
    """One analyzed system: the four layers plus provenance.

    Layer tuples preserve declaration order; every derived artifact
    (diagnostics, matrices, reports) follows that order.
    """

    system_name: str
    stakeholders: tuple[Stakeholder, ...] = ()
    goals: tuple[Goal, ...] = ()
    subgoals: tuple[SubGoal, ...] = ()
    nfrs: tuple[Nfr, ...] = ()
    unresolved_checks: tuple[UnresolvedCheck, ...] = ()
    source_path: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name in ("stakeholders", "goals", "subgoals", "nfrs", "unresolved_checks"):
            object.__setattr__(self, name, _as_tuple(getattr(self, name)))

    def stakeholder_ids(self) -> set[str]:
        return {s.id for s in self.stakeholders}

    def goal_ids(self) -> set[str]:
        return {g.id for g in self.goals}

    def subgoal_ids(self) -> set[str]:
        return {s.id for s in self.subgoals}

    def nfr_ids(self) -> set[str]:
        return {n.id for n in self.nfrs}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One structural finding from ``validate_structure``."""

    rule_id: str
    severity: str
    message: str
    subject_id: str
    source_line: int | None = None


def _diag(rule: str, message: str, subject: str, line: int | None) -> Diagnostic:
    return Diagnostic(rule, SEVERITY_BY_RULE[rule], message, subject, line)


def validate_structure(model: Model) -> list[Diagnostic]:
    """Check every structural rule and return all findings.

    Rules:
      R1   the model declares at least one stakeholder
      R2   every stakeholder owns a goal; every goal has an owner
      R3   every goal has a sub-goal; every sub-goal has a parent
      R4   every NFR is attached; every sub-goal is covered by an NFR
           (warning severity; a sub-goal counts as covered when an NFR
           attaches to it directly or to one of its parent goals)
      REF  every referenced id resolves in the adjacent layer
      DUP  ids are unique across all layers

    References may be dangling; this reports them rather than assuming
    resolution.  The empty list means the model is well-formed under
    every rule.  Findings are ordered by the subject's declaration
    position (layer by layer), then rule id.
    """
    found: list[tuple[tuple, Diagnostic]] = []

    def add(rank: int, index: int, rule: str, message: str, subject: str,
            line: int | None) -> None:
        key = (rank, index, RULE_ORDER.index(rule), len(found))
        found.append((key, _diag(rule, message, subject, line)))

    stakeholder_ids = model.stakeholder_ids()
    goal_ids = model.goal_ids()
    subgoal_ids = model.subgoal_ids()
    nfr_ids = model.nfr_ids()

    if not model.stakeholders:
        add(-1, 0, "R1", "model declares no stakeholders", "", None)

    owned = {owner for g in model.goals for owner in g.owners}
    parented = {parent for s in model.subgoals for parent in s.parents}
    goals_with_nfr = {gid for n in model.nfrs for gid in n.attached_goals}
    subgoals_with_nfr = {sid for n in model.nfrs for sid in n.attached_subgoals}

    seen: set[str] = set()
    layers = (model.stakeholders, model.goals, model.subgoals, model.nfrs)
    for rank, elements in enumerate(layers):
        for index, element in enumerate(elements):
            if element.id in seen:
                add(rank, index, "DUP",
                    f"duplicate identifier '{element.id}'", element.id,
                    element.line)
            seen.add(element.id)

    for index, stakeholder in enumerate(model.stakeholders):
        if stakeholder.id not in owned:
            add(0, index, "R2",
                f"stakeholder '{stakeholder.id}' owns no goals",
                stakeholder.id, stakeholder.line)

    for index, goal in enumerate(model.goals):
        if not goal.owners:
            add(1, index, "R2", f"goal '{goal.id}' has no owners",
                goal.id, goal.line)
        if goal.id not in parented:
            add(1, index, "R3", f"goal '{goal.id}' has no sub-goals",
                goal.id, goal.line)
        for owner in goal.owners:
            if owner not in stakeholder_ids:
                add(1, index, "REF",
                    f"goal '{goal.id}' references unknown stakeholder '{owner}'",
                    goal.id, goal.line)

    for index, subgoal in enumerate(model.subgoals):
        if not subgoal.parents:
            add(2, index, "R3", f"sub-goal '{subgoal.id}' has no parent goals",
                subgoal.id, subgoal.line)
        covered = subgoal.id in subgoals_with_nfr or any(
            parent in goals_with_nfr for parent in subgoal.parents
        )
        if not covered:
            add(2, index, "R4",
                f"sub-goal '{subgoal.id}' is not covered by any NFR",
                subgoal.id, subgoal.line)
        for parent in subgoal.parents:
            if parent not in goal_ids:
                add(2, index, "REF",
                    f"sub-goal '{subgoal.id}' references unknown goal '{parent}'",
                    subgoal.id, subgoal.line)

    for index, nfr in enumerate(model.nfrs):
        if not nfr.attached_subgoals and not nfr.attached_goals:
            add(3, index, "R4",
                f"NFR '{nfr.id}' is not attached to any goal or sub-goal",
                nfr.id, nfr.line)
        for target in nfr.attached_goals:
            if target not in goal_ids:
                add(3, index, "REF",
                    f"NFR '{nfr.id}' references unknown goal '{target}'",
                    nfr.id, nfr.line)
        for target in nfr.attached_subgoals:
            if target not in subgoal_ids:
                add(3, index, "REF",
                    f"NFR '{nfr.id}' references unknown sub-goal '{target}'",
                    nfr.id, nfr.line)

    for index, check in enumerate(model.unresolved_checks):
        if check.nfr_id not in nfr_ids:
            add(4, index, "REF",
                f"checklist answer references unknown NFR '{check.nfr_id}'",
                check.nfr_id, check.line)

    found.sort(key=lambda pair: pair[0])
    return [diag for _, diag in found]


def goals_of_stakeholder(model: Model, stakeholder_id: str) -> list[Goal]:
    """Goals owned by the stakeholder, in declaration order."""
    if stakeholder_id not in model.stakeholder_ids():
        raise UnknownIdError(f"unknown stakeholder id: {stakeholder_id!r}")
    return [g for g in model.goals if stakeholder_id in g.owners]


def subgoals_of_goal(model: Model, goal_id: str) -> list[SubGoal]:
    """Sub-goals that list the goal as a parent, in declaration order."""
    if goal_id not in model.goal_ids():
        raise UnknownIdError(f"unknown goal id: {goal_id!r}")
    return [s for s in model.subgoals if goal_id in s.parents]


def nfrs_of_subgoal(model: Model, subgoal_id: str) -> list[Nfr]:
    """NFRs attached directly to the sub-goal, in declaration order."""
    if subgoal_id not in model.subgoal_ids():
        raise UnknownIdError(f"unknown sub-goal id: {subgoal_id!r}")
    return [n for n in model.nfrs if subgoal_id in n.attached_subgoals]
