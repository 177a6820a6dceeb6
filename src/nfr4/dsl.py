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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    CHECKLIST_SIZE,
    Goal,
    Model,
    Nfr,
    NO,
    Stakeholder,
    SubGoal,
    UnresolvedCheck,
    YES,
)

_ID_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
# ASCII only: str.isdigit() also accepts digits such as "²" that int() rejects.
_INDEX_RE = re.compile(r"[0-9]+\Z")
_KEYWORDS = ("system", "stakeholder", "goal", "subgoal", "nfr", "check")
_CONNECTIVE = {"goal": "for", "subgoal": "of", "nfr": "on"}


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """1-based line and column of a source location."""

    line: int
    column: int


@dataclass(frozen=True, slots=True)
class ParseError:
    kind: str
    span: SourceSpan
    message: str


class SerializeError(ValueError):
    """Raised when a model cannot be expressed in the DSL."""


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # word | string | comma
    text: str
    column: int


@dataclass(frozen=True, slots=True)
class _Statement:
    keyword: str
    line: int
    id: str = ""
    name: str = ""
    refs: tuple[str, ...] = ()
    index: int = 0
    answer: str = ""


def _tokenize(text: str, lineno: int) -> list[_Token] | ParseError:
    """Split one line into tokens; ``#`` outside a string ends the line."""
    tokens: list[_Token] = []
    pos = 0
    length = len(text)
    while pos < length:
        char = text[pos]
        if char in " \t":
            pos += 1
        elif char == "#":
            break
        elif char == ",":
            tokens.append(_Token("comma", ",", pos + 1))
            pos += 1
        elif char == '"':
            end = text.find('"', pos + 1)
            if end < 0:
                return ParseError(
                    "unterminated-string",
                    SourceSpan(lineno, pos + 1),
                    "unterminated display name",
                )
            tokens.append(_Token("string", text[pos + 1:end], pos + 1))
            pos = end + 1
        else:
            start = pos
            while pos < length and text[pos] not in ' \t,"#':
                pos += 1
            tokens.append(_Token("word", text[start:pos], start + 1))
    return tokens


def _end_column(tokens: list[_Token], line_length: int) -> int:
    if not tokens:
        return 1
    return min(tokens[-1].column + len(tokens[-1].text), line_length + 1)


def _parse_line(text: str, lineno: int) -> _Statement | ParseError | None:
    """Parse one line; None for blank/comment-only lines.

    At most one error is reported per line (the first problem found),
    so fixing a line removes exactly its error.
    """
    tokens = _tokenize(text, lineno)
    if isinstance(tokens, ParseError):
        return tokens
    if not tokens:
        return None

    def error(kind: str, message: str, column: int) -> ParseError:
        return ParseError(kind, SourceSpan(lineno, column), message)

    def missing(message: str) -> ParseError:
        return error("malformed-line", message, _end_column(tokens, len(text)))

    head = tokens[0]
    if head.kind != "word" or head.text not in _KEYWORDS:
        return error("unknown-keyword", f"unknown keyword '{head.text}'", head.column)
    keyword = head.text

    if keyword == "system":
        if len(tokens) < 2:
            return missing("system needs a quoted display name")
        if tokens[1].kind != "string":
            return error("malformed-line",
                         f"expected quoted display name, got '{tokens[1].text}'",
                         tokens[1].column)
        if len(tokens) > 2:
            return error("malformed-line",
                         f"unexpected '{tokens[2].text}' after display name",
                         tokens[2].column)
        return _Statement("system", lineno, name=tokens[1].text)

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

    # stakeholder / goal / subgoal / nfr
    if len(tokens) < 2:
        return missing(f"{keyword} needs an identifier")
    ident = tokens[1]
    if ident.kind != "word":
        return error("malformed-line",
                     f"expected identifier, got '{ident.text}'", ident.column)
    if not _ID_RE.match(ident.text):
        return error("bad-identifier", f"bad identifier '{ident.text}'",
                     ident.column)
    if len(tokens) < 3:
        return missing(f"{keyword} needs a quoted display name")
    if tokens[2].kind != "string":
        return error("malformed-line",
                     f"expected quoted display name, got '{tokens[2].text}'",
                     tokens[2].column)
    name = tokens[2].text

    if keyword == "stakeholder":
        if len(tokens) > 3:
            return error("malformed-line",
                         f"unexpected '{tokens[3].text}' after display name",
                         tokens[3].column)
        return _Statement("stakeholder", lineno, id=ident.text, name=name)

    connective = _CONNECTIVE[keyword]
    if len(tokens) < 4:
        return missing(f"{keyword} needs '{connective}' and at least one id")
    if tokens[3].kind != "word" or tokens[3].text != connective:
        return error("malformed-line",
                     f"expected '{connective}', got '{tokens[3].text}'",
                     tokens[3].column)

    refs: list[str] = []
    expect_id = True
    for token in tokens[4:]:
        if expect_id:
            if token.kind == "comma":
                return error("malformed-line", "expected an id, got ','",
                             token.column)
            if token.kind != "word":
                return error("malformed-line",
                             f"expected an id, got '{token.text}'", token.column)
            if not _ID_RE.match(token.text):
                return error("bad-identifier",
                             f"bad identifier '{token.text}'", token.column)
            refs.append(token.text)
            expect_id = False
        else:
            if token.kind != "comma":
                return error("malformed-line",
                             f"expected ',' between ids, got '{token.text}'",
                             token.column)
            expect_id = True
    if expect_id:
        return missing(f"{keyword} needs at least one id after '{connective}'"
                       if not refs else "trailing ',' without an id")
    return _Statement(keyword, lineno, id=ident.text, name=name,
                      refs=tuple(refs))


def parse(source: str | bytes, *, source_path: str | None = None) -> Model | list[ParseError]:
    """Parse DSL text into a Model, or return every error found.

    Never raises on malformed input: all problems in one pass come back
    as the error list.  Bytes are decoded as UTF-8 with replacement; one
    leading byte order mark is dropped.
    """
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8", errors="replace")
    source = source.removeprefix("\ufeff")

    errors: list[ParseError] = []
    statements: list[_Statement] = []
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        result = _parse_line(line, lineno)
        if result is None:
            continue
        if isinstance(result, ParseError):
            errors.append(result)
        else:
            statements.append(result)

    system_name: str | None = None
    first_element_line: int | None = None
    for statement in statements:
        if statement.keyword == "system":
            if system_name is None:
                system_name = statement.name
                if first_element_line is not None:
                    errors.append(ParseError(
                        "missing-system",
                        SourceSpan(first_element_line, 1),
                        "element declared before the system statement",
                    ))
            else:
                errors.append(ParseError(
                    "duplicate-system",
                    SourceSpan(statement.line, 1),
                    "system is already declared",
                ))
        elif first_element_line is None:
            first_element_line = statement.line
    if system_name is None and not errors:
        # A failed system line already carries its own error; only a file
        # with nothing else wrong gets the generic complaint.
        errors.append(ParseError(
            "missing-system", SourceSpan(1, 1), "no system declaration"))

    if errors:
        errors.sort(key=lambda e: (e.span.line, e.span.column))
        return errors

    stakeholders: list[Stakeholder] = []
    goals: list[Goal] = []
    subgoals: list[SubGoal] = []
    nfr_statements: list[_Statement] = []
    check_statements: list[_Statement] = []
    for statement in statements:
        if statement.keyword == "stakeholder":
            stakeholders.append(Stakeholder(statement.id, statement.name,
                                            line=statement.line))
        elif statement.keyword == "goal":
            goals.append(Goal(statement.id, statement.name, statement.refs,
                              line=statement.line))
        elif statement.keyword == "subgoal":
            subgoals.append(SubGoal(statement.id, statement.name,
                                    statement.refs, line=statement.line))
        elif statement.keyword == "nfr":
            nfr_statements.append(statement)
        elif statement.keyword == "check":
            check_statements.append(statement)

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
        nfrs.append(Nfr(statement.id, statement.name,
                        tuple(attached_subgoals), tuple(attached_goals),
                        line=statement.line))

    by_id = {n.id: i for i, n in reversed(list(enumerate(nfrs)))}
    unresolved: list[UnresolvedCheck] = []
    for statement in check_statements:
        position = by_id.get(statement.id)
        if position is None:
            unresolved.append(UnresolvedCheck(statement.id, statement.index,
                                              statement.answer,
                                              line=statement.line))
            continue
        nfr = nfrs[position]
        record = nfr.checklist.with_answer(statement.index, statement.answer)
        nfrs[position] = Nfr(nfr.id, nfr.name, nfr.attached_subgoals,
                             nfr.attached_goals, record, line=nfr.line)

    return Model(system_name, tuple(stakeholders), tuple(goals),
                 tuple(subgoals), tuple(nfrs), tuple(unresolved),
                 source_path=source_path)


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
    identifiers or display names, and ids shared between the goal and
    sub-goal layers (the ``on`` list could not tell them apart).
    """
    if '"' in model.system_name or "\n" in model.system_name:
        raise SerializeError("system display name contains a quote or newline")

    stakeholder_ids = model.stakeholder_ids()
    goal_ids = model.goal_ids()
    subgoal_ids = model.subgoal_ids()
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
    for nfr in model.nfrs:
        _check_name("NFR", nfr.id, nfr.name)
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
