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

The whole text is read with one scan of a compiled regex, one match per
line.  A well-formed statement matches its first branch; every other line
falls to its catch-all branch and goes to the token walker, which finds
its error (or that it is blank).  The walker is the only source of parse
errors and the reference the scanner is tested against.  In the walker
``check`` has its own path; every other keyword reads an id (none for
``system``), a quoted name and, for ``goal``/``subgoal``/``nfr``, its
connective and ids.
"""

from __future__ import annotations

import re
from collections import namedtuple

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
    record,
    validate_structure,
)

_ID = r"[a-z][a-z0-9_]*"
_ID_RE = re.compile(_ID + r"\Z")
_KEYWORDS = ("system", "stakeholder", "goal", "subgoal", "nfr", "check")
_CONNECTIVE = {"goal": "for", "subgoal": "of", "nfr": "on"}
_SLOT = {str(n): n - 1 for n in range(1, CHECKLIST_SIZE + 1)}

# One token: a comma, a quoted name, a bare word, the ``#`` that starts a
# comment, or a quote that opens no name.  Only spaces and tabs fall
# between matches.
_TOKEN_RE = re.compile(
    r'(?P<comma>,)|"(?P<string>[^"]*)"|(?P<word>[^ \t,"#]+)|(?P<comment>#)|"')

# The whole-file scanner.  Every match is one line, as ``str.split("\n")``
# cuts them, and ends at its newline or the end of the text, so the line
# number is the match count.  A line matches the first branch, with the
# connective its keyword takes (``parse`` checks that), exactly when
# ``_parse_line`` accepts it, with the same fields; every other line falls
# to the catch-all branch.  Groups: check id, index (no leading zeros) and
# answer; element keyword (None for system), id, name, connective and refs;
# the empty catch-all marker.
_SCANNER = re.compile(
    rf"[ \t]*(?:check[ \t]+({_ID})[ \t]+0*([1-{CHECKLIST_SIZE}])"
    rf"[ \t]+({YES}|{NO})"
    rf"|(?:system|(stakeholder|goal|subgoal|nfr)[ \t]+({_ID}))"
    rf'[ \t]*"([^"\n]*)"'
    rf"(?:[ \t]*(for|of|on)[ \t]+({_ID}(?:[ \t]*,[ \t]*{_ID})*))?"
    rf")[ \t]*(?:#[^\n]*)?\r?(?:\n|\Z)"
    r"|^()[^\n]*(?:\n|\Z)", re.MULTILINE)


class ParseError(record("kind line column message")):
    """One parse problem at a 1-based line and column."""

    __slots__ = ()


class SerializeError(ValueError):
    """Raised when a model cannot be expressed in the DSL."""


_Token = namedtuple("_Token", (
    "kind",  # word | string | comma
    "text",
    "column",
    "end"))  # column just past the token, closing quote included


def _parse_line(text: str, lineno: int) -> tuple | ParseError | None:
    """Parse one line; None for blank/comment-only lines.

    A statement comes back as the fields of a scanner match, refs as a
    tuple: check id, index, answer, keyword, id, name, refs; None if unused.
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
        if index_tok.kind != "word" or index_tok.text.lstrip("0") not in _SLOT:
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
        return (ident.text, index_tok.text.lstrip("0"), answer_tok.text,
                None, None, None, None)

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
        return None, None, None, keyword, ident, name, None
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
    return (None, None, None, keyword, ident, name,
            tuple(token.text for token in refs[::2]))


def parse(source: str | bytes) -> Model | list[ParseError]:
    """Parse DSL text into a Model, or return every error found.

    Never raises on malformed input: all problems in one pass come back
    as the error list.  Bytes are decoded as UTF-8 with replacement; one
    leading byte order mark is dropped.  An attachment to a declared goal
    or sub-goal is that element's own ``id`` string.  NFRs with equal
    answers share one ``ChecklistRecord`` (``a.checklist is b.checklist``
    can hold); records are immutable, so that changes no result.
    """
    if isinstance(source, (bytes, bytearray)):
        source = source.decode("utf-8", errors="replace")
    source = source.removeprefix("\ufeff")

    errors: list[ParseError] = []
    systems: list[tuple[str, int]] = []
    stakeholders: list[Stakeholder] = []
    goals: list[Goal] = []
    subgoals: list[SubGoal] = []
    nfr_rows: list[tuple] = []  # id, name, refs, line, answer slots
    # Every check answers the first NFR declared with its id; the last
    # answer to a question wins.  Checks that come before any NFR with
    # their id wait in ``early`` until one is declared; the rest are
    # unresolved.
    answers: dict[str, list[str]] = {}
    early: dict[str, list[UnresolvedCheck]] = {}
    first_element_line = 0  # none yet
    for lineno, match in enumerate(_SCANNER.finditer(source), start=1):
        check_id, index, answer, keyword, ident, name, connective, refs, \
            other = match.groups()
        if check_id is None:
            if other is None and connective == _CONNECTIVE.get(keyword):
                # A ref list holds ids, commas and blanks only.
                refs = refs and tuple(
                    refs.replace(" ", "").replace("\t", "").split(","))
            else:
                fields = _parse_line(
                    match[0].removesuffix("\n").removesuffix("\r"), lineno)
                if type(fields) is not tuple:  # None, or a ParseError
                    if fields is not None:
                        errors.append(fields)
                    continue
                check_id, index, answer, keyword, ident, name, refs = fields
        if check_id is not None:
            # The shared answer constants, not a new string per line.
            answer = YES if answer == YES else NO
            slots = answers.get(check_id)
            if slots is not None:
                slots[_SLOT[index]] = answer
                continue
            early.setdefault(check_id, []).append(
                UnresolvedCheck(check_id, int(index), answer, line=lineno))
        elif keyword == "nfr":
            # A repeated id gets unanswered slots: the first took its checks.
            slots = [UNANSWERED] * CHECKLIST_SIZE
            answers.setdefault(ident, slots)
            for check in early.pop(ident, ()):
                slots[check.index - 1] = check.answer
            nfr_rows.append((ident, name, refs, lineno, slots))
        elif keyword == "stakeholder":
            stakeholders.append(Stakeholder(ident, name, line=lineno))
        elif keyword == "goal":
            goals.append(Goal(ident, name, refs, line=lineno))
        elif keyword == "subgoal":
            subgoals.append(SubGoal(ident, name, refs, line=lineno))
        else:  # system: None from the scanner, "system" from the walker
            systems.append((name, lineno))
            continue
        first_element_line = first_element_line or lineno

    if systems:
        if 0 < first_element_line < systems[0][1]:
            errors.append(ParseError(
                "missing-system", first_element_line, 1,
                "element declared before the system statement"))
        for _, line in systems[1:]:
            errors.append(ParseError("duplicate-system", line, 1,
                                     "system is already declared"))
    elif not errors:
        # A failed system line already carries its own error; only a file
        # with nothing else wrong gets the generic complaint.
        errors.append(ParseError("missing-system", 1, 1,
                                 "no system declaration"))

    if errors:
        errors.sort(key=lambda e: (e.line, e.column))
        return errors

    # Goals first.  A row goes once filed, and its split targets with it.
    goal_ids = {g.id: g.id for g in goals}
    subgoal_ids = {s.id: s.id for s in subgoals if s.id not in goal_ids}
    checklists: dict[tuple[str, ...], ChecklistRecord] = {}
    nfrs: list[Nfr] = []
    for index, (ident, name, refs, lineno, slots) in enumerate(nfr_rows):
        nfr_rows[index] = None
        attached_goals: list[str] = []
        attached_subgoals: list[str] = []
        for ref in refs:
            if ref in subgoal_ids:
                attached_subgoals.append(subgoal_ids[ref])
            else:
                attached_goals.append(goal_ids.get(ref, ref))
        slots = tuple(slots)
        if (checklist := checklists.get(slots)) is None:
            checklist = checklists[slots] = ChecklistRecord(slots)
        nfrs.append(Nfr(ident, name, tuple(attached_subgoals),
                        tuple(attached_goals), checklist, line=lineno))
    unresolved = sorted((check for group in early.values() for check in group),
                        key=lambda check: check.line)

    return Model(systems[0][0], tuple(stakeholders), tuple(goals),
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
    unresolved checklist answers, any model with a REF diagnostic from
    ``validate_structure`` (raising that diagnostic's message; an NFR
    target filed in the wrong layer counts, since ``parse`` would file
    it in the other), empty edge lists, invalid identifiers or display
    names, ids shared between the goal and sub-goal layers (the ``on``
    list could not tell them apart), and checklist answers on an NFR
    whose id an earlier NFR already has (``parse`` gives every ``check``
    line to the first NFR with its id).  A model with several of these
    problems is refused for one of them.
    """
    if '"' in model.system_name or "\n" in model.system_name:
        raise SerializeError("system display name contains a quote or newline")
    goal_ids = {g.id for g in model.goals}
    for shared in sorted(goal_ids.intersection(s.id for s in model.subgoals)):
        raise SerializeError(f"id '{shared}' names both a goal and a sub-goal")
    for check in model.unresolved_checks:
        raise SerializeError(
            f"unresolved checklist answer for '{check.nfr_id}'")
    for diagnostic in validate_structure(model):
        if diagnostic.rule_id == "REF":
            raise SerializeError(diagnostic.message)

    lines = [f'system "{model.system_name}"']
    for stakeholder in model.stakeholders:
        _check_name("stakeholder", stakeholder.id, stakeholder.name)
        lines.append(f'stakeholder {stakeholder.id} "{stakeholder.name}"')
    for goal in model.goals:
        _check_name("goal", goal.id, goal.name)
        if not goal.owners:
            raise SerializeError(f"goal '{goal.id}' has no owners")
        lines.append(f'goal {goal.id} "{goal.name}" for {", ".join(goal.owners)}')
    for subgoal in model.subgoals:
        _check_name("sub-goal", subgoal.id, subgoal.name)
        if not subgoal.parents:
            raise SerializeError(f"sub-goal '{subgoal.id}' has no parents")
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
        lines.append(f'nfr {nfr.id} "{nfr.name}" on {", ".join(targets)}')
    for nfr in model.nfrs:
        for index, answer in enumerate(nfr.checklist.answers, start=1):
            if answer in (YES, NO):
                lines.append(f"check {nfr.id} {index} {answer}")
    return "\n".join(lines) + "\n"
