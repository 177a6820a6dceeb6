"""Shared test helpers.

The model generator builds structurally clean models by construction,
the matrix oracle recomputes marks by direct scanning, the ranking
oracle picks the critical rows by the definition, and the CLI runner
drives the real entry point in-process.  None of them reuse the
library's own derivation logic, so they can serve as oracles for it.
The model writer lays a random model out as text without ``serialize``,
so the model it started from is the oracle for ``parse``.

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
    NO,
    Nfr,
    Stakeholder,
    SubGoal,
    UNANSWERED,
    YES,
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


def _merged(rng, *sequences):
    """The items of ``sequences`` in one random order that keeps the order
    within each sequence."""
    pending = [list(reversed(sequence)) for sequence in sequences if sequence]
    merged = []
    while pending:
        source = rng.choice(pending)
        merged.append(source.pop())
        if not source:
            pending.remove(source)
    return merged


def _repeated(rng, ids: tuple[str, ...]) -> tuple[str, ...]:
    """``ids``, some of them written a second time at a random place."""
    ids = list(ids)
    for _ in range(rng.choice((0, 0, 1, 2))):
        if ids:
            ids.insert(rng.randrange(len(ids) + 1), rng.choice(ids))
    return tuple(ids)


_GAPS = (" ", "\t", "  ", " \t ")  # where a blank is needed
_TOUCH = ("",) + _GAPS  # where the grammar lets tokens touch
_LINE_COMMENTS = ("#", "# c", '# "x", y', "#check a 1 yes", " \t# nfr a")


def written_model(rng) -> tuple[Model, list[tuple[tuple, str]]]:
    """A random model with repeated references, and its text written in a
    random legal layout without ``serialize``.

    The layers are interleaved, each in its declaration order; an NFR's
    goal and sub-goal targets are interleaved on its ``on`` list.  Every
    answer is set by a ``check`` line anywhere after ``system``, before
    or after its NFR, and may follow earlier lines for the same question
    that it overrides.  Blanks and tabs fall wherever the grammar allows
    them, comment and blank lines anywhere, each line ends with LF or
    CRLF, and half of the texts start with a BOM.  The model is the
    oracle: ``parse`` of the text must equal it.

    The text is the join of the returned lines, each with its end.  Each
    line comes with its statement's key: ``("nfr", id)`` for an NFR,
    ``("check", id, question)`` for a check, and ``()`` otherwise.
    """
    base = random_model(rng, for_serialization=True)
    model = base._replace(
        goals=tuple(g._replace(owners=_repeated(rng, g.owners))
                    for g in base.goals),
        subgoals=tuple(s._replace(parents=_repeated(rng, s.parents))
                       for s in base.subgoals),
        nfrs=tuple(n._replace(attached_goals=_repeated(rng, n.attached_goals),
                              attached_subgoals=_repeated(
                                  rng, n.attached_subgoals))
                   for n in base.nfrs))

    def gap() -> str:
        return rng.choice(_GAPS)

    def touch() -> str:
        return rng.choice(_TOUCH)

    def named(keyword, element, connective="", refs=()) -> str:
        line = f'{touch()}{keyword}{gap()}{element.id}{touch()}"{element.name}"'
        if connective:
            line += f"{touch()}{connective}{gap()}{refs[0]}"
            line += "".join(f"{touch()},{touch()}{ref}" for ref in refs[1:])
        return line

    elements = _merged(
        rng,
        [((), named("stakeholder", s)) for s in model.stakeholders],
        [((), named("goal", g, "for", g.owners)) for g in model.goals],
        [((), named("subgoal", s, "of", s.parents)) for s in model.subgoals],
        [(("nfr", n.id), named("nfr", n, "on", _merged(
            rng, n.attached_goals, n.attached_subgoals))) for n in model.nfrs])
    # Each statement's place: system at 0, the elements at 1, 2, ...; the
    # checks for one question at sorted random places after system, the
    # last one with the model's answer.
    placed = [(0.0, (), f'{touch()}system{touch()}"{model.system_name}"')]
    placed += [(float(k), *element)
               for k, element in enumerate(elements, start=1)]
    for nfr in model.nfrs:
        for question, answer in enumerate(nfr.checklist.answers, start=1):
            if answer == UNANSWERED:
                continue
            count = rng.choice((1, 1, 1, 2, 3))
            places = sorted(rng.uniform(0.5, len(elements) + 1)
                            for _ in range(count))
            answers = [rng.choice((YES, NO)) for _ in places[1:]] + [answer]
            placed += [(place, ("check", nfr.id, question),
                        f"{touch()}check{gap()}{nfr.id}{gap()}"
                        f"{rng.choice(('', '', '0', '00'))}{question}{gap()}"
                        f"{given}")
                       for place, given in zip(places, answers)]
    placed.sort(key=lambda item: item[0])

    lines = []
    for _, key, line in placed:
        while rng.random() < 0.2:
            lines.append(((), rng.choice(("", touch(),
                                          *_LINE_COMMENTS))))
        if rng.random() < 0.3:
            line += touch() + rng.choice(_LINE_COMMENTS)
        lines.append((key, line + touch()))
    lines = [(key, line + rng.choice(("\n", "\r\n"))) for key, line in lines]
    if rng.random() < 0.5:
        key, line = lines[0]
        lines[0] = key, "\ufeff" + line
    return model, lines


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


def moved_check_variant(rng, lines) -> tuple[str, dict[int, int]] | None:
    """The text of ``written_model``'s ``lines`` with one ``check`` line
    moved later, after its NFR's declaration and past no other answer to
    the same question, and each old line number that changed with its
    new one; None if no check line can move so."""
    keys = [key for key, _ in lines]
    moves = []
    for source, key in enumerate(keys):
        if key[:1] != ("check",):
            continue
        declared = keys.index(("nfr", key[1]))
        for target in range(source + 1, len(keys)):
            if keys[target] == key:
                break
            if target >= declared:
                moves.append((source, target))
    if not moves:
        return None
    # The line at ``source`` goes just after the line at ``target``.
    source, target = rng.choice(moves)
    texts = [line for _, line in lines]
    texts.insert(target, texts.pop(source))
    renumbered = {number: number - 1
                  for number in range(source + 2, target + 2)}
    renumbered[source + 1] = target + 1
    return "".join(texts), renumbered


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
