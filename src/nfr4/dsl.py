"""Line-oriented DSL for four-layer NFR models.

Grammar, one statement per line:

    system "<display name>"
    stakeholder <id> "<display name>"
    goal <id> "<display name>" for <id>[, <id>...]
    subgoal <id> "<display name>" of <id>[, <id>...]
    nfr <id> "<display name>" on <id>[, <id>...]
    check <nfr-id> <n> <yes|no>          # n in 1..8

``system`` must appear exactly once, before any element.  Identifiers
are lowercase letters, digits and underscores, starting with a letter.
Display names are double-quoted with no escape sequences and may
contain any character except ``"`` and newline.  ``#`` starts a comment
anywhere outside a quoted name; blank lines are ignored.  Input accepts
LF or CRLF line endings; serialized output is LF only.

``nfr`` targets may name goals or sub-goals; they are resolved after
the whole file is scanned, against goals first.  Unresolvable
references are not parse errors -- they surface as REF diagnostics
from ``validate_structure``.

A well-formed line is read with one match of the statement regex.  Every
other line goes to the token walker, which finds its error (or that it
is blank); the walker is the only source of parse errors and the
reference the statement regex is tested against.  In the walker ``check``
has its own path; every other keyword reads an id (none for ``system``), a
quoted name and, for ``goal``/``subgoal``/``nfr``, its connective and ids.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    CHECKLIST_SIZE,
    ChecklistRecord,
    Goal,
    Model,
    Nfr,
    NO,
    Stakeholder,
    SubGoal,
    UNANSWERED,
    UnresolvedCheck,
    YES,
)

_ID = r"[a-z][a-z0-9_]*"
_ID_RE = re.compile(_ID + r"\Z")
# ASCII only: str.isdigit() also accepts digits such as "²" that int() rejects.
_INDEX_RE = re.compile(r"[0-9]+\Z")
_KEYWORDS = ("system", "stakeholder", "goal", "subgoal", "nfr", "check")
_CONNECTIVE = {"goal": "for", "subgoal": "of", "nfr": "on"}

# One token: a comma, a quoted name, a bare word, the ``#`` that starts a
# comment, or a quote that opens no name.  Only spaces and tabs fall
# between matches.
_TOKEN_RE = re.compile(
    r'(?P<comma>,)|"(?P<string>[^"]*)"|(?P<word>[^ \t,"#]+)|(?P<comment>#)|"')

# Well-formed statements.  A line fullmatches this regex, with the
# connective its keyword takes (``_match_statement`` checks that), exactly
# when ``_parse_line`` accepts it, with the same fields; every other line
# goes to ``_parse_line``.  Groups: check id, index and answer; element
# keyword (None for system), id, name, connective and refs.
_STATEMENT_RE = re.compile(
    rf"[ \t]*(?:check[ \t]+({_ID})[ \t]+0*([1-{CHECKLIST_SIZE}])"
    rf"[ \t]+({YES}|{NO})"
    rf"|(?:system|(stakeholder|goal|subgoal|nfr)[ \t]+({_ID}))"
    rf'[ \t]*"([^"]*)"'
    rf"(?:[ \t]*(for|of|on)[ \t]+({_ID}(?:[ \t]*,[ \t]*{_ID})*))?"
    rf")[ \t]*(?:#.*)?")
_REF_SEPARATOR_RE = re.compile(r"[ \t]*,[ \t]*")


@dataclass(frozen=True, slots=True)
class ParseError:
    """One parse problem at a 1-based line and column."""

    kind: str
    line: int
    column: int
    message: str


class SerializeError(ValueError):
    """Raised when a model cannot be expressed in the DSL."""


class _Token(NamedTuple):
    kind: str  # word | string | comma
    text: str
    column: int
    end: int  # column just past the token, closing quote included


class _Statement(NamedTuple):
    keyword: str
    line: int
    id: str = ""
    name: str = ""
    refs: tuple[str, ...] = ()
    index: int = 0
    answer: str = ""


def _match_statement(text: str, lineno: int) -> _Statement | None:
    """The statement on a well-formed line, or None for any other line."""
    match = _STATEMENT_RE.fullmatch(text)
    if match is None:
        return None
    check_id, index, answer, keyword, ident, name, connective, refs \
        = match.groups()
    # Statements take shared keyword strings, and checks (most lines of a
    # large model) the shared answer constants, instead of the new
    # strings a match returns; the model keeps every answer.
    if check_id is not None:
        return _Statement("check", lineno, check_id, index=int(index),
                          answer=YES if answer == YES else NO)
    keyword = sys.intern(keyword or "system")
    if connective != _CONNECTIVE.get(keyword):
        return None
    return _Statement(keyword, lineno, ident or "", name,
                      tuple(_REF_SEPARATOR_RE.split(refs)) if refs else ())


def _parse_line(text: str, lineno: int) -> _Statement | ParseError | None:
    """Parse one line; None for blank/comment-only lines.

    ``check`` has its own path; the other keywords share the one the
    module docstring describes.  At most one error is reported per line
    (the first problem found), so fixing a line removes exactly its error.
    """
    def error(kind: str, message: str, column: int) -> ParseError:
        return ParseError(kind, lineno, column, message)

    # Split the line into tokens; ``#`` outside a string ends it.
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "comment":
            break
        if kind is None:
            return error("unterminated-string", "unterminated display name",
                         match.start() + 1)
        tokens.append(_Token(kind, match[kind], match.start() + 1,
                             match.end() + 1))
    if not tokens:
        return None

    def missing(message: str) -> ParseError:
        return error("malformed-line", message, tokens[-1].end)

    head = tokens[0]
    if head.kind != "word" or head.text not in _KEYWORDS:
        return error("unknown-keyword", f"unknown keyword '{head.text}'", head.column)
    keyword = head.text

    if keyword == "check":
        if len(tokens) < 4:
            return missing("check needs an NFR id, a question number and yes/no")
        ident, index_tok, answer_tok = tokens[1], tokens[2], tokens[3]
        if ident.kind != "word" or not _ID_RE.match(ident.text):
            return error("bad-identifier",
                         f"bad identifier '{ident.text}'", ident.column)
        if index_tok.kind != "word" or not _INDEX_RE.match(index_tok.text) \
                or not 1 <= int(index_tok.text) <= CHECKLIST_SIZE:
            return error("bad-checklist-index",
                         f"checklist question number must be 1..{CHECKLIST_SIZE},"
                         f" got '{index_tok.text}'",
                         index_tok.column)
        if answer_tok.kind != "word" or answer_tok.text not in (YES, NO):
            return error("bad-checklist-answer",
                         f"checklist answer must be yes or no, got"
                         f" '{answer_tok.text}'",
                         answer_tok.column)
        if len(tokens) > 4:
            return error("malformed-line",
                         f"unexpected '{tokens[4].text}' after answer",
                         tokens[4].column)
        return _Statement("check", lineno, id=ident.text,
                          index=int(index_tok.text), answer=answer_tok.text)

    ident, rest = "", tokens[1:]
    if keyword != "system":
        if not rest:
            return missing(f"{keyword} needs an identifier")
        token, *rest = rest
        if token.kind != "word":
            return error("malformed-line",
                         f"expected identifier, got '{token.text}'", token.column)
        if not _ID_RE.match(token.text):
            return error("bad-identifier", f"bad identifier '{token.text}'",
                         token.column)
        ident = token.text
    if not rest:
        return missing(f"{keyword} needs a quoted display name")
    token, *rest = rest
    if token.kind != "string":
        return error("malformed-line",
                     f"expected quoted display name, got '{token.text}'",
                     token.column)
    name = token.text
    connective = _CONNECTIVE.get(keyword)
    if connective is None:
        if rest:
            return error("malformed-line",
                         f"unexpected '{rest[0].text}' after display name",
                         rest[0].column)
        return _Statement(keyword, lineno, ident, name)
    if not rest:
        return missing(f"{keyword} needs '{connective}' and at least one id")
    if rest[0].kind != "word" or rest[0].text != connective:
        return error("malformed-line",
                     f"expected '{connective}', got '{rest[0].text}'",
                     rest[0].column)

    # Ids at even positions, commas at odd ones.
    refs = rest[1:]
    for position, token in enumerate(refs):
        if position % 2:
            if token.kind != "comma":
                return error("malformed-line",
                             f"expected ',' between ids, got '{token.text}'",
                             token.column)
        elif token.kind != "word":
            return error("malformed-line",
                         f"expected an id, got '{token.text}'", token.column)
        elif not _ID_RE.match(token.text):
            return error("bad-identifier",
                         f"bad identifier '{token.text}'", token.column)
    if len(refs) % 2 == 0:
        return missing(f"{keyword} needs at least one id after '{connective}'"
                       if not refs else "trailing ',' without an id")
    return _Statement(keyword, lineno, ident, name,
                      tuple(token.text for token in refs[::2]))


def parse(source: str | bytes) -> Model | list[ParseError]:
    """Parse DSL text into a Model, or return every error found.

    Never raises on malformed input: all problems in one pass come back
    as the error list.  Bytes are decoded as UTF-8 with replacement; one
    leading byte order mark is dropped.
    """
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8", errors="replace")
    source = source.removeprefix("\ufeff")

    errors: list[ParseError] = []
    # Statements by keyword, each list in line order.
    statements: dict[str, list[_Statement]] = {k: [] for k in _KEYWORDS}
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        result = _match_statement(line, lineno) or _parse_line(line, lineno)
        if isinstance(result, ParseError):
            errors.append(result)
        elif result is not None:
            statements[result.keyword].append(result)

    systems = statements["system"]
    first_element_line = min((group[0].line for keyword, group
                              in statements.items()
                              if keyword != "system" and group), default=None)
    if systems:
        if first_element_line is not None \
                and first_element_line < systems[0].line:
            errors.append(ParseError(
                "missing-system", first_element_line, 1,
                "element declared before the system statement"))
        for statement in systems[1:]:
            errors.append(ParseError("duplicate-system", statement.line, 1,
                                     "system is already declared"))
    elif not errors:
        # A failed system line already carries its own error; only a file
        # with nothing else wrong gets the generic complaint.
        errors.append(ParseError("missing-system", 1, 1,
                                 "no system declaration"))

    if errors:
        errors.sort(key=lambda e: (e.line, e.column))
        return errors

    stakeholders = [Stakeholder(s.id, s.name, line=s.line)
                    for s in statements["stakeholder"]]
    goals = [Goal(s.id, s.name, s.refs, line=s.line)
             for s in statements["goal"]]
    subgoals = [SubGoal(s.id, s.name, s.refs, line=s.line)
                for s in statements["subgoal"]]
    nfr_statements = statements["nfr"]

    # Every check answers the first NFR declared with its id; the last
    # answer to a question wins.  Each Nfr is built once, answers and all.
    answers = {statement.id: [UNANSWERED] * CHECKLIST_SIZE
               for statement in nfr_statements}
    unresolved: list[UnresolvedCheck] = []
    for statement in statements["check"]:
        slots = answers.get(statement.id)
        if slots is None:
            unresolved.append(UnresolvedCheck(statement.id, statement.index,
                                              statement.answer,
                                              line=statement.line))
        else:
            slots[statement.index - 1] = statement.answer

    goal_ids = {g.id for g in goals}
    subgoal_ids = {s.id for s in subgoals}
    nfrs: list[Nfr] = []
    for statement in nfr_statements:
        attached_goals: list[str] = []
        attached_subgoals: list[str] = []
        for ref in statement.refs:
            if ref in goal_ids:
                attached_goals.append(ref)
            elif ref in subgoal_ids:
                attached_subgoals.append(ref)
            else:
                attached_goals.append(ref)  # dangling; REF diagnostic later
        slots = answers.pop(statement.id, None)
        checklist = ChecklistRecord() if slots is None \
            else ChecklistRecord(tuple(slots))
        nfrs.append(Nfr(statement.id, statement.name,
                        tuple(attached_subgoals), tuple(attached_goals),
                        checklist, line=statement.line))

    return Model(systems[0].name, tuple(stakeholders), tuple(goals),
                 tuple(subgoals), tuple(nfrs), tuple(unresolved))


def _check_name(kind: str, ident: str, name: str) -> None:
    if not _ID_RE.match(ident):
        raise SerializeError(f"{kind} id {ident!r} is not a valid identifier")
    if '"' in name or "\n" in name:
        raise SerializeError(
            f"{kind} '{ident}' display name contains a quote or newline")


def serialize(model: Model) -> str:
    """Render a model as canonical DSL text.

    Statements come out grouped (system, stakeholders, goals, sub-goals,
    NFRs, checks), each group in declaration order; NFR targets list
    goal attachments before sub-goal attachments; unanswered checklist
    slots are omitted.  Refuses models the grammar cannot express:
    dangling or unapplied references, empty edge lists, invalid
    identifiers or display names, ids shared between the goal and
    sub-goal layers (the ``on`` list could not tell them apart), and
    checklist answers on an NFR whose id an earlier NFR already has
    (``parse`` gives every ``check`` line to the first NFR with its id).
    """
    if '"' in model.system_name or "\n" in model.system_name:
        raise SerializeError("system display name contains a quote or newline")

    stakeholder_ids = {s.id for s in model.stakeholders}
    goal_ids = {g.id for g in model.goals}
    subgoal_ids = {s.id for s in model.subgoals}
    for shared in sorted(goal_ids & subgoal_ids):
        raise SerializeError(f"id '{shared}' names both a goal and a sub-goal")

    lines = [f'system "{model.system_name}"']
    for stakeholder in model.stakeholders:
        _check_name("stakeholder", stakeholder.id, stakeholder.name)
        lines.append(f'stakeholder {stakeholder.id} "{stakeholder.name}"')
    for goal in model.goals:
        _check_name("goal", goal.id, goal.name)
        if not goal.owners:
            raise SerializeError(f"goal '{goal.id}' has no owners")
        for owner in goal.owners:
            if owner not in stakeholder_ids:
                raise SerializeError(
                    f"goal '{goal.id}' references unknown stakeholder '{owner}'")
        lines.append(f'goal {goal.id} "{goal.name}" for {", ".join(goal.owners)}')
    for subgoal in model.subgoals:
        _check_name("sub-goal", subgoal.id, subgoal.name)
        if not subgoal.parents:
            raise SerializeError(f"sub-goal '{subgoal.id}' has no parents")
        for parent in subgoal.parents:
            if parent not in goal_ids:
                raise SerializeError(
                    f"sub-goal '{subgoal.id}' references unknown goal '{parent}'")
        lines.append(f'subgoal {subgoal.id} "{subgoal.name}"'
                     f' of {", ".join(subgoal.parents)}')
    nfr_ids: set[str] = set()
    for nfr in model.nfrs:
        _check_name("NFR", nfr.id, nfr.name)
        if nfr.id in nfr_ids and nfr.checklist.answered_count:
            raise SerializeError(
                f"NFR '{nfr.id}' is declared again with checklist answers")
        nfr_ids.add(nfr.id)
        targets = list(nfr.attached_goals) + list(nfr.attached_subgoals)
        if not targets:
            raise SerializeError(f"NFR '{nfr.id}' has no attachments")
        for target in nfr.attached_goals:
            if target not in goal_ids:
                raise SerializeError(
                    f"NFR '{nfr.id}' references unknown goal '{target}'")
        for target in nfr.attached_subgoals:
            if target not in subgoal_ids:
                raise SerializeError(
                    f"NFR '{nfr.id}' references unknown sub-goal '{target}'")
        lines.append(f'nfr {nfr.id} "{nfr.name}" on {", ".join(targets)}')
    for check in model.unresolved_checks:
        raise SerializeError(
            f"unresolved checklist answer for '{check.nfr_id}'")
    for nfr in model.nfrs:
        for index, answer in enumerate(nfr.checklist.answers, start=1):
            if answer in (YES, NO):
                lines.append(f"check {nfr.id} {index} {answer}")
    return "\n".join(lines) + "\n"
