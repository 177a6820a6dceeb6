"""Shared test helpers.

The model generator builds structurally clean models by construction,
the matrix oracle recomputes marks by direct scanning, and the CLI
runner drives the real entry point in-process.  None of them reuse the
library's own derivation logic, so they can serve as oracles for it.
"""

from __future__ import annotations

import io
import string
import sys
from contextlib import redirect_stderr, redirect_stdout

from nfr4 import cli
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

_ID_CHARS = string.ascii_lowercase + string.digits + "_"
# Everything a quoted display name may legally hold except plain letters:
# spaces, tabs, comment and list punctuation, and some non-ASCII.
_NAME_CHARS = _ID_CHARS + string.ascii_uppercase + " \t#,()'=-/.:;!?"


def _fresh_id(rng, used: set[str]) -> str:
    while True:
        ident = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(_ID_CHARS) for _ in range(rng.randrange(8)))
        if ident not in used:
            used.add(ident)
            return ident


def random_model(rng, for_serialization: bool = False) -> Model:
    """A random model with no error-severity findings, by construction.

    Every stakeholder owns a goal, every goal has an owner and a child,
    every sub-goal has a parent, ids are unique and all references
    resolve.  Coverage gaps (warning severity) are left in on purpose.
    With ``for_serialization=True`` the model additionally stays inside
    what the DSL can express: every NFR gets at least one attachment
    and display names roam over the full quotable character set.
    """
    used: set[str] = set()

    def ident() -> str:
        return _fresh_id(rng, used)

    def name() -> str:
        if for_serialization:
            return "".join(rng.choice(_NAME_CHARS)
                           for _ in range(rng.randrange(12)))
        return f"Element {rng.randrange(1000)}"

    stakeholder_ids = [ident() for _ in range(rng.randint(1, 6))]

    goal_rows: list[tuple[str, list[str]]] = []
    for _ in range(rng.randint(1, 6)):
        owners = rng.sample(stakeholder_ids,
                            rng.randint(1, len(stakeholder_ids)))
        goal_rows.append((ident(), owners))
    owned = {owner for _, owners in goal_rows for owner in owners}
    for sid in stakeholder_ids:
        if sid not in owned:
            rng.choice(goal_rows)[1].append(sid)

    goal_ids = [gid for gid, _ in goal_rows]
    sub_rows: list[tuple[str, list[str]]] = []
    for _ in range(rng.randint(1, 6)):
        parents = rng.sample(goal_ids, rng.randint(1, len(goal_ids)))
        sub_rows.append((ident(), parents))
    parented = {parent for _, parents in sub_rows for parent in parents}
    for gid in goal_ids:
        if gid not in parented:
            rng.choice(sub_rows)[1].append(gid)

    subgoal_ids = [sid for sid, _ in sub_rows]
    nfrs = []
    for _ in range(rng.randint(0, 6)):
        att_goals = rng.sample(goal_ids, rng.randint(0, len(goal_ids)))
        att_subs = rng.sample(subgoal_ids, rng.randint(0, len(subgoal_ids)))
        if for_serialization and not att_goals and not att_subs:
            att_goals = [rng.choice(goal_ids)]
        checklist = ChecklistRecord(tuple(
            rng.choice(ANSWERS) for _ in range(CHECKLIST_SIZE)))
        nfrs.append(Nfr(ident(), name(), tuple(att_subs), tuple(att_goals),
                        checklist))

    return Model(
        name() if for_serialization else f"System {rng.randrange(1000)}",
        tuple(Stakeholder(sid, name()) for sid in stakeholder_ids),
        tuple(Goal(gid, name(), tuple(owners)) for gid, owners in goal_rows),
        tuple(SubGoal(sid, name(), tuple(parents))
              for sid, parents in sub_rows),
        tuple(nfrs),
    )


def brute_force_marks(model: Model) -> tuple[tuple[bool, ...], ...]:
    """Independent matrix oracle: direct scan, no index structures.

    NFR i marks goal j when it attaches to j itself, or to any sub-goal
    listing j as a parent.
    """
    marks = []
    for nfr in model.nfrs:
        row = []
        for goal in model.goals:
            hit = goal.id in nfr.attached_goals
            if not hit:
                for subgoal in model.subgoals:
                    if subgoal.id in nfr.attached_subgoals \
                            and goal.id in subgoal.parents:
                        hit = True
                        break
            row.append(hit)
        marks.append(tuple(row))
    return tuple(marks)


def marks_to_rows(marks) -> tuple[tuple[int, ...], ...]:
    """Dense boolean rows to sparse rows of marked column indices."""
    return tuple(tuple(j for j, hit in enumerate(row) if hit) for row in marks)


def rows_to_marks(rows, width: int) -> tuple[tuple[bool, ...], ...]:
    """Sparse rows of marked column indices to dense boolean rows."""
    return tuple(tuple(j in row for j in range(width)) for row in rows)


def run_cli(argv, stdin_bytes: bytes | None = None) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_bytes is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if exc.code is not None else 0
            else:
                code = 0
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()
