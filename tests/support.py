"""Shared test helpers.

The model generator builds structurally clean models by construction,
the matrix oracle recomputes marks by direct scanning, the ranking
oracle picks the critical rows by the definition, and the CLI runner
drives the real entry point in-process.  None of them reuse the
library's own derivation logic, so they can serve as oracles for it.

The grammar fuzzer derives well-formed statements from the grammar token
by token and then mutates them token by token, in the style of Zeller et
al., *The Fuzzing Book*, chapters "Grammars" and "Grammar Fuzzing".
"""

from __future__ import annotations

import io
import re
import string
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from nfr4 import cli, dsl
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


def wide_model_text(rng, nfrs: int, goals: int) -> str:
    """Model text with ``nfrs`` NFRs over ``goals`` goals and no finding,
    warnings included, so its report grows with NFRs x goals.

    Every goal has one sub-goal, which NFR ``i mod goals`` covers; each
    NFR also marks up to three random goals and answers a random part of
    its checklist.  Needs ``nfrs >= goals``.
    """
    lines = ['system "Wide"', 'stakeholder s "S"']
    lines += [f'goal g{j} "Goal {j}" for s' for j in range(goals)]
    lines += [f'subgoal sg{j} "Sub {j}" of g{j}' for j in range(goals)]
    for i in range(nfrs):
        targets = [f"sg{i % goals}"] + [
            f"g{j}" for j in rng.sample(range(goals), rng.randint(0, 3))]
        lines.append(f'nfr n{i} "NFR {i}" on {", ".join(targets)}')
        lines += [f"check n{i} {question} {rng.choice(('yes', 'no'))}"
                  for question in rng.sample(range(1, CHECKLIST_SIZE + 1),
                                             rng.randint(0, CHECKLIST_SIZE))]
    return "\n".join(lines) + "\n"


_FUZZ_IDS = ("a", "n", "g1", "sg_2", "x9")
_FUZZ_NAMES = ("", "N", "a, b", "x # y", "tab\there", "٣ ²")
_FUZZ_NOISE = ("²", "٣", '"', ",", "#", "\t", "\r", "\ufeff", " ", "",
               "0", "08", "9", "00", "yes", "no", "maybe", "for", "of", "on",
               "A", "check", "goal", "system", '"x"', '"a # b"', "#c", "é")


def _grammar_statement(rng, keywords):
    """A well-formed statement as a list of tokens."""
    keyword = rng.choice(keywords)
    ident = rng.choice(_FUZZ_IDS)
    name = '"' + rng.choice(_FUZZ_NAMES) + '"'
    if keyword == "system":
        return [keyword, name]
    if keyword == "stakeholder":
        return [keyword, ident, name]
    if keyword == "check":
        return [keyword, ident, rng.choice(("1", "8", "08", "003")),
                rng.choice(("yes", "no"))]
    refs = [rng.choice(_FUZZ_IDS)]
    for _ in range(rng.randrange(3)):
        refs += [",", rng.choice(_FUZZ_IDS)]
    return [keyword, ident, name, dsl._CONNECTIVE[keyword], *refs]


def mutate(rng, tokens):
    """Replace, insert, drop or corrupt up to three tokens."""
    tokens = list(tokens)
    for _ in range(rng.randrange(4)):
        position = rng.randrange(len(tokens) + 1)
        noise = rng.choice(_FUZZ_NOISE)
        operation = rng.randrange(4)
        if operation == 0 or position == len(tokens):
            tokens.insert(position, noise)
        elif operation == 1:
            tokens[position] = noise
        elif operation == 2:
            del tokens[position]
        else:
            token = tokens[position]
            cut = rng.randrange(len(token) + 1)
            tokens[position] = token[:cut] + noise + token[cut:]
    return tokens


def fuzz_line(rng, mutation_rate=0.7, keywords=dsl._KEYWORDS):
    """One statement line, mutated with probability ``mutation_rate``."""
    tokens = _grammar_statement(rng, keywords)
    mutated = rng.random() < mutation_rate
    if mutated:
        tokens = mutate(rng, tokens)
    # Words need a space or tab between them; other tokens may touch.  A
    # mutated line may also run words together or end in a stray CR.
    gaps = (" ", " ", "\t", "  \t", "") if mutated else (" ", "\t", "  \t")
    line = rng.choice(("", "", " ", "\t "))
    for token in tokens:
        line += token + rng.choice(gaps)
    return line + rng.choice(("", "", "# note", " #", "\r" if mutated else ""))


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


def oracle_ranking(scores, mode):
    """Threshold and critical indices by the definition: order by
    (-score, index), compare each score with the exact Fraction."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    if mode.kind == "mean":
        threshold = Fraction(sum(scores), len(scores))
        return threshold, [i for i in order if Fraction(scores[i]) > threshold]
    if mode.kind == "top_k":
        chosen = order[:mode.parameter]
        return Fraction(min(scores[i] for i in chosen)), chosen
    threshold = Fraction(mode.parameter)
    return threshold, [i for i in order if Fraction(scores[i]) >= threshold]


def marked_goals(matrix) -> dict[str, set[str]]:
    """Each NFR id with the ids of the goals its matrix row marks."""
    return {
        nfr_id: {matrix.goal_ids[j] for j in row}
        for nfr_id, row in zip(matrix.nfr_ids, matrix.rows)
    }


# Metamorphic relations (Chen, Cheung and Yiu, HKUST-CS98-01, 1998): each
# transform gives a text that every command must treat exactly as it
# treats ``text``, or None when the relation does not hold for ``text``.

def crlf_variant(text: str) -> str | None:
    """``text`` with CRLF line ends; None if it holds a CR already, since
    a CR before a LF would become CR CR LF."""
    return None if "\r" in text else text.replace("\n", "\r\n")


def bom_variant(text: str) -> str | None:
    """``text`` after a byte order mark; None if it starts with one
    already, since ``parse`` drops only one."""
    return None if text.startswith("\ufeff") else "\ufeff" + text


# One piece of a line: a quoted name, a comma, a run of blanks, a comment
# to the end of the line, a run of other characters, or a stray quote.
_PIECE_RE = re.compile(r'"[^"]*"|,|[ \t]+|#.*|[^ \t,"#]+|"')
_BLANKS = ("", " ", "\t", "  ", " \t ")
_COMMENTS = ("# c", '# "c"', "#c, d on e")


def _line_variants(text: str, rng, transform) -> str:
    """``text`` with ``transform(rng, body)`` applied to every line's body,
    the line less one CR that ends it; a leading BOM stays in front."""
    bom = "\ufeff" if text.startswith("\ufeff") else ""
    lines = []
    for line in text[len(bom):].split("\n"):
        body = line.removesuffix("\r")
        lines.append(transform(rng, body) + line[len(body):])
    return bom + "\n".join(lines)


def _spread(rng, body: str) -> str:
    pieces = _PIECE_RE.findall(body)
    assert "".join(pieces) == body
    spread = rng.choice(_BLANKS)
    for piece in pieces:
        spread += piece
        if not piece.startswith("#"):
            spread += rng.choice(_BLANKS)
    return spread


def blank_variant(text: str, rng) -> str:
    """``text`` with random runs of blanks and tabs before, between and
    after the tokens of every line, outside quoted names and comments."""
    return _line_variants(text, rng, _spread)


def comment_variant(text: str, rng) -> str:
    """``text`` with a comment, maybe after a blank or a tab, at the end
    of every line; it holds a quote or a comma on some lines."""
    return _line_variants(text, rng, lambda rng, body: body + rng.choice(
        ("", " ", "\t")) + rng.choice(_COMMENTS))


def repeated_check_variant(text: str, rng, nfr_ids) -> tuple[str, bool] | None:
    """``text`` with the last ``check`` line for one (NFR id, question)
    whose id is in ``nfr_ids`` copied to a random later line, and whether
    the copy went to the end of the file; None if ``text`` has no such
    line.  Lines are read by the parser's token walker, so every check
    line counts however it is spelled; ``text`` must end with a LF."""
    assert text.endswith("\n")
    lines = text.split("\n")
    last = {}
    for number, line in enumerate(lines, start=1):
        fields = dsl._parse_line(line.removesuffix("\r"), number)
        if type(fields) is tuple and fields[0] in nfr_ids:
            last[fields[:2]] = number - 1
    if not last:
        return None
    source = rng.choice(sorted(last.values()))
    # Half of the copies go to the end, past the text's last LF.
    end = len(lines) - 1
    target = rng.choice((end, rng.randint(source + 1, end)))
    lines.insert(target, lines[source])
    return "\n".join(lines), target == end


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
