"""Core model types for four-layer NFR analysis.

A model is a lattice of four ordered layers: stakeholders own goals,
goals decompose into sub-goals, and NFRs attach to sub-goals or
directly to goals.  All types are immutable and hashable.  Layer and
edge fields (``owners``, ``parents``, ``attached_goals``,
``attached_subgoals``, ``answers``) take tuples; lists are not converted.
Construction is permissive (dangling references, empty edges and
duplicate ids are allowed) so that ``validate_structure`` can report
problems instead of the constructors rejecting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

YES = "yes"
NO = "no"
UNANSWERED = "unanswered"
ANSWERS = (YES, NO, UNANSWERED)

CHECKLIST_SIZE = 8

# Severity is looked up here and nowhere else.
SEVERITY_BY_RULE = {
    "R1": "error",
    "R2": "error",
    "R3": "error",
    "R4": "warning",
    "REF": "error",
    "DUP": "error",
}


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


@dataclass(frozen=True, slots=True)
class ChecklistRecord:
    """Answers to the eight validation questions for one NFR.

    ``answers`` always has exactly eight slots, each ``yes``, ``no`` or
    ``unanswered``.
    """

    answers: tuple[str, ...] = (UNANSWERED,) * CHECKLIST_SIZE

    def __post_init__(self) -> None:
        if len(self.answers) != CHECKLIST_SIZE:
            raise ValueError(f"checklist must have {CHECKLIST_SIZE} answers")
        for answer in self.answers:
            if answer not in ANSWERS:
                raise ValueError(f"bad checklist answer: {answer!r}")

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


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One structural finding from ``validate_structure``."""

    rule_id: str
    severity: str
    message: str
    subject_id: str
    source_line: int | None = None


def validate_structure(model: Model) -> list[Diagnostic]:
    """Check every structural rule and return all findings.

    Rules, in the order each element reports them:
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
    every rule.  Findings come out in one pass over the layers: R1,
    then each element in declaration order (stakeholders, goals,
    sub-goals, NFRs) with its findings in the rule order above, then
    the checklist answers whose NFR id is unknown.
    """
    stakeholder_ids = {s.id for s in model.stakeholders}
    goal_ids = {g.id for g in model.goals}
    subgoal_ids = {s.id for s in model.subgoals}
    nfr_ids = {n.id for n in model.nfrs}
    owned = {owner for g in model.goals for owner in g.owners}
    parented = {parent for s in model.subgoals for parent in s.parents}
    goals_with_nfr = {gid for n in model.nfrs for gid in n.attached_goals}
    subgoals_with_nfr = {sid for n in model.nfrs for sid in n.attached_subgoals}

    found: list[Diagnostic] = []
    seen: set[str] = set()

    def add(rule: str, message: str, subject: str, line: int | None) -> None:
        found.append(
            Diagnostic(rule, SEVERITY_BY_RULE[rule], message, subject, line))

    def add_dup(element) -> None:
        if element.id in seen:
            add("DUP", f"duplicate identifier '{element.id}'", element.id,
                element.line)
        seen.add(element.id)

    if not model.stakeholders:
        add("R1", "model declares no stakeholders", "", None)

    for stakeholder in model.stakeholders:
        if stakeholder.id not in owned:
            add("R2", f"stakeholder '{stakeholder.id}' owns no goals",
                stakeholder.id, stakeholder.line)
        add_dup(stakeholder)

    for goal in model.goals:
        if not goal.owners:
            add("R2", f"goal '{goal.id}' has no owners", goal.id, goal.line)
        if goal.id not in parented:
            add("R3", f"goal '{goal.id}' has no sub-goals", goal.id, goal.line)
        for owner in goal.owners:
            if owner not in stakeholder_ids:
                add("REF",
                    f"goal '{goal.id}' references unknown stakeholder '{owner}'",
                    goal.id, goal.line)
        add_dup(goal)

    for subgoal in model.subgoals:
        if not subgoal.parents:
            add("R3", f"sub-goal '{subgoal.id}' has no parent goals",
                subgoal.id, subgoal.line)
        covered = subgoal.id in subgoals_with_nfr or any(
            parent in goals_with_nfr for parent in subgoal.parents
        )
        if not covered:
            add("R4", f"sub-goal '{subgoal.id}' is not covered by any NFR",
                subgoal.id, subgoal.line)
        for parent in subgoal.parents:
            if parent not in goal_ids:
                add("REF",
                    f"sub-goal '{subgoal.id}' references unknown goal '{parent}'",
                    subgoal.id, subgoal.line)
        add_dup(subgoal)

    for nfr in model.nfrs:
        if not nfr.attached_subgoals and not nfr.attached_goals:
            add("R4", f"NFR '{nfr.id}' is not attached to any goal or sub-goal",
                nfr.id, nfr.line)
        for target in nfr.attached_goals:
            if target not in goal_ids:
                add("REF", f"NFR '{nfr.id}' references unknown goal '{target}'",
                    nfr.id, nfr.line)
        for target in nfr.attached_subgoals:
            if target not in subgoal_ids:
                add("REF",
                    f"NFR '{nfr.id}' references unknown sub-goal '{target}'",
                    nfr.id, nfr.line)
        add_dup(nfr)

    for check in model.unresolved_checks:
        if check.nfr_id not in nfr_ids:
            add("REF", f"checklist answer references unknown NFR '{check.nfr_id}'",
                check.nfr_id, check.line)

    return found

