"""Core model types for four-layer NFR analysis.

A model is a lattice of four ordered layers: stakeholders own goals,
goals decompose into sub-goals, and NFRs attach to sub-goals or
directly to goals.  All types are immutable, hashable records built on
``collections.namedtuple``: they iterate and have a ``len`` like any
tuple, but equal only a record of their own class and have no order.
``line`` is the source line, provenance that equality and hashing
ignore.  ``record._replace(...)`` makes a changed copy; a
``ChecklistRecord`` is checked again.  Layer and edge fields
(``owners``, ``parents``, ``attached_goals``, ``attached_subgoals``,
``answers``) take tuples; lists are not converted.  Construction is
permissive (dangling references, empty edges and duplicate ids are
allowed) so that ``validate_structure`` can report problems instead of
the constructors rejecting them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

YES = "yes"
NO = "no"
UNANSWERED = "unanswered"
ANSWERS = (YES, NO, UNANSWERED)

CHECKLIST_SIZE = 8
# The metric of a checklist with k yes answers, built once.
_EIGHTHS = tuple(Fraction(k, CHECKLIST_SIZE) for k in range(CHECKLIST_SIZE + 1))

# Severity is looked up here and nowhere else.
SEVERITY_BY_RULE = {
    "R1": "error",
    "R2": "error",
    "R3": "error",
    "R4": "warning",
    "REF": "error",
    "DUP": "error",
}


def record(fields: str, *defaults, line: bool = False) -> type:
    """A namedtuple class to subclass, with ``__slots__ = ()``, as a record.

    A record equals only a record of its own class, never a plain tuple,
    and has no order.  With ``line``, its last field is the source line:
    provenance that ``==``, ``!=`` and ``hash`` ignore.
    """
    cls = namedtuple("record", fields, defaults=defaults)
    end = -1 if line else None

    def __eq__(self, other):
        if type(other) is type(self):
            return self[:end] == other[:end]
        return False if isinstance(other, tuple) else NotImplemented

    cls.__eq__ = __eq__
    cls.__hash__ = lambda self: hash(self[:end])
    # object's, not tuple's: != inverts __eq__, and there is no order.
    for name in ("__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        setattr(cls, name, getattr(object, name))
    return cls


class Stakeholder(record("id name line", None, line=True)):
    __slots__ = ()


class Goal(record("id name owners line", (), None, line=True)):
    """A goal and the stakeholders that own it (ids, declaration order)."""

    __slots__ = ()


class SubGoal(record("id name parents line", (), None, line=True)):
    """A sub-goal and its parent goals (ids, declaration order).

    Sub-goals may have several parents: real systems share steps such
    as "enter pin" across goals.
    """

    __slots__ = ()


class ChecklistRecord(record("answers")):
    """Answers to the eight validation questions for one NFR, or the
    whole model's verdicts from ``analysis.score_checklist``.

    ``answers`` always has exactly eight slots, each ``yes``, ``no`` or
    ``unanswered``; ``_make`` and ``_replace`` check it too.
    """

    __slots__ = ()

    def __new__(cls, answers=(UNANSWERED,) * CHECKLIST_SIZE):
        if len(answers) != CHECKLIST_SIZE:
            raise ValueError(f"checklist must have {CHECKLIST_SIZE} answers")
        for answer in answers:
            if answer not in ANSWERS:
                raise ValueError(f"bad checklist answer: {answer!r}")
        return tuple.__new__(cls, (answers,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def yes_count(self) -> int:
        return self.answers.count(YES)

    @property
    def answered_count(self) -> int:
        return CHECKLIST_SIZE - self.answers.count(UNANSWERED)

    @property
    def metric(self) -> Fraction:
        return _EIGHTHS[self.answers.count(YES)]


class Nfr(record("id name attached_subgoals attached_goals checklist line",
                 (), (), ChecklistRecord(), None, line=True)):
    """A non-functional requirement and what it constrains.

    Attachments are split by target layer; goal-level attachment is the
    explicit shortcut for constraints that apply to a whole goal rather
    than one of its sub-goals.
    """

    __slots__ = ()


class UnresolvedCheck(record("nfr_id index answer line", None, line=True)):
    """A checklist statement whose NFR id did not resolve at parse time.

    Kept on the model so reference validation can report it.
    """

    __slots__ = ()


class Model(record("system_name stakeholders goals subgoals nfrs"
                   " unresolved_checks", (), (), (), (), ())):
    """One analyzed system: the four layers plus unresolved checks.

    Layer tuples preserve declaration order; every derived artifact
    (diagnostics, matrices, reports) follows that order.
    """

    __slots__ = ()


class Diagnostic(record("rule_id severity message subject_id source_line",
                        None)):
    """One structural finding from ``validate_structure``."""

    __slots__ = ()


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

    def add_refs(kind, element, targets, known, layer) -> None:
        for target in targets:
            if target not in known:
                add("REF", f"{kind} '{element.id}' references unknown"
                    f" {layer} '{target}'", element.id, element.line)

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
        add_refs("goal", goal, goal.owners, stakeholder_ids, "stakeholder")
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
        add_refs("sub-goal", subgoal, subgoal.parents, goal_ids, "goal")
        add_dup(subgoal)

    for nfr in model.nfrs:
        if not nfr.attached_subgoals and not nfr.attached_goals:
            add("R4", f"NFR '{nfr.id}' is not attached to any goal or sub-goal",
                nfr.id, nfr.line)
        add_refs("NFR", nfr, nfr.attached_goals, goal_ids, "goal")
        add_refs("NFR", nfr, nfr.attached_subgoals, subgoal_ids, "sub-goal")
        add_dup(nfr)

    for check in model.unresolved_checks:
        if check.nfr_id not in nfr_ids:
            add("REF", f"checklist answer references unknown NFR '{check.nfr_id}'",
                check.nfr_id, check.line)

    return found

