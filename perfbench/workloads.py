"""Seeded synthetic `.nfr4` models and the oracle that goes with each.

Every workload is generated from ``random.Random(seed)``.  The generator
keeps the structure it wrote (ids, references, checklist answers, line
numbers) and derives the expected results from that structure alone,
following the rules stated in the README: it never imports ``nfr4``, so
it can act as an oracle for the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

CHECKLIST_SIZE = 8
RULE_ORDER = ("R1", "R2", "R3", "R4", "REF", "DUP")
SEVERITY = {"R1": "error", "R2": "error", "R3": "error", "R4": "warning",
            "REF": "error", "DUP": "error"}
EXIT_OK, EXIT_CHECK_FAILED, EXIT_INVALID_MODEL = 0, 1, 2

# name -> (generator parameters at benchmark size, why the workload exists)
WORKLOADS = {
    "wide": (
        {"stakeholders": 2000, "goals": 2000, "subgoals": 4000, "nfrs": 2000,
         "yes_rate": 0.95},
        "ROADMAP baseline n=2000: 4M matrix cells under 1% marked, so dense"
        " table rendering and JSON export dominate report time",
    ),
    "tall": (
        {"stakeholders": 40, "goals": 40, "subgoals": 80, "nfrs": 8000,
         "yes_rate": 0.95},
        "8000 NFRs on 40 goals: parsing dominates check and the per-NFR"
        " checklist search grows with NFRs squared; matrix work is small",
    ),
    "draft": (
        {"stakeholders": 4000, "goals": 4000, "subgoals": 8000, "nfrs": 4000,
         "answer_rate": 0.5, "bad_ref_rate": 0.1, "barren_rate": 0.05,
         "orphan_checks": 400},
        "in-progress model with dangling ids and missing answers: check fails"
        " and report is refused, so analysis and rendering never run",
    ),
}


@dataclass
class Expected:
    """What the CLI must print for one generated model."""

    lines: int
    exit_codes: dict[str, int]           # command -> exit code
    rule_counts: dict[str, int]          # rule -> diagnostics on stderr
    diagnostics: list[tuple[str, str, str, int]]  # rule, severity, subject, line
    system: str
    layer_ids: dict[str, list[str]]
    nfr_names: list[str]
    goal_names: list[str]
    yes_counts: list[int]
    answered_counts: list[int]
    marked_goals: list[set[int]]         # per NFR, goal indices
    # None when the model is refused before analysis.
    n_c: int | None = None
    whole_yes: int | None = None
    whole_answered: int | None = None
    threshold: Fraction | None = None
    critical: list[int] | None = None    # NFR indices, descending score


def ratio4(value: Fraction) -> str:
    """Round half up to four decimals (values here are never negative)."""
    scaled = (value.numerator * 20000 + value.denominator) // (2 * value.denominator)
    return f"{scaled // 10000}.{scaled % 10000:04d}"


def generate(name: str, seed: int, params: dict | None = None) -> tuple[str, Expected]:
    """Return the model text and its oracle for workload ``name``."""
    params = dict(WORKLOADS[name][0] if params is None else params)
    rng = random.Random(seed)
    if name == "draft":
        return _draft(rng, seed, **params)
    return _clean(rng, name, seed, **params)


class _Writer:
    def __init__(self, system: str):
        self.lines = [f'system "{system}"']

    def add(self, text: str) -> int:
        self.lines.append(text)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _pairs(rng, count: int, pool: list[str], first) -> list[list[str]]:
    """``count`` rows of two distinct entries; row i starts with first(i)."""
    rows = []
    for i in range(count):
        head = first(i)
        other = head
        while other == head:
            other = rng.choice(pool)
        rows.append([head, other])
    return rows


def _clean(rng, name, seed, stakeholders, goals, subgoals, nfrs, yes_rate):
    """A model with no error diagnostics: every id resolves, every layer links."""
    system = f"Benchmark {name} seed {seed}"
    sids = [f"s{i}" for i in range(stakeholders)]
    gids = [f"g{i}" for i in range(goals)]
    subids = [f"sg{i}" for i in range(subgoals)]
    nids = [f"n{i}" for i in range(nfrs)]
    owners = _pairs(rng, goals, sids, lambda i: sids[i % stakeholders])
    parents = _pairs(rng, subgoals, gids, lambda i: gids[i % goals])
    nfr_goals = [rng.sample(gids, 2) for _ in nids]
    nfr_subs = [rng.sample(subids, 3) for _ in nids]
    answers = [["yes" if rng.random() < yes_rate else "no"
                for _ in range(CHECKLIST_SIZE)] for _ in nids]
    checks = [(i, q, answers[i][q]) for i in range(nfrs)
              for q in range(CHECKLIST_SIZE)]
    return _write(system, sids, gids, owners, subids, parents, nids,
                  nfr_goals, nfr_subs, checks, orphans=[])


def _draft(rng, seed, stakeholders, goals, subgoals, nfrs, answer_rate,
           bad_ref_rate, barren_rate, orphan_checks):
    """A half-finished model: dangling ids, barren goals, missing answers."""
    system = f"Benchmark draft seed {seed}"
    sids = [f"s{i}" for i in range(stakeholders)]
    gids = [f"g{i}" for i in range(goals)]
    subids = [f"sg{i}" for i in range(subgoals)]
    nids = [f"n{i}" for i in range(nfrs)]
    ghosts = iter(range(10**9))

    def ghost(kind: str) -> str:
        return f"x{kind}{next(ghosts)}"

    owners = _pairs(rng, goals, sids, lambda i: sids[i % stakeholders])
    for row in owners:
        if rng.random() < bad_ref_rate:
            row[1] = ghost("s")
    barren = set(rng.sample(range(goals), int(goals * barren_rate)))
    fertile = [g for i, g in enumerate(gids) if i not in barren]
    parents = _pairs(rng, subgoals, fertile,
                     lambda i: fertile[i % len(fertile)])
    for row in parents:
        if rng.random() < bad_ref_rate:
            row[1] = ghost("g")
    nfr_goals = [rng.sample(gids, 2) for _ in nids]
    nfr_subs = [rng.sample(subids, 3) for _ in nids]
    for row in nfr_goals:
        if rng.random() < bad_ref_rate:
            row[0] = ghost("t")
    checks = [(i, q, rng.choice(("yes", "no"))) for i in range(nfrs)
              for q in range(CHECKLIST_SIZE) if rng.random() < answer_rate]
    orphans = [(ghost("n"), rng.randrange(CHECKLIST_SIZE), rng.choice(("yes", "no")))
               for _ in range(orphan_checks)]
    return _write(system, sids, gids, owners, subids, parents, nids,
                  nfr_goals, nfr_subs, checks, orphans, rng)


def _write(system, sids, gids, owners, subids, parents, nids, nfr_goals,
           nfr_subs, checks, orphans, rng=None):
    out = _Writer(system)
    s_line = [out.add(f'stakeholder {s} "Stakeholder {s}"') for s in sids]
    goal_names = [f"Goal {g}" for g in gids]
    g_line = [out.add(f'goal {g} "{label}" for {", ".join(row)}')
              for g, label, row in zip(gids, goal_names, owners)]
    sub_line = [out.add(f'subgoal {s} "Step {s}" of {", ".join(row)}')
                for s, row in zip(subids, parents)]
    nfr_names = [f"Quality {n}" for n in nids]
    n_line = [out.add(f'nfr {n} "{label}" on {", ".join(gs + ss)}')
              for n, label, gs, ss in zip(nids, nfr_names, nfr_goals, nfr_subs)]

    statements = [(f"check {nids[i]} {q + 1} {a}", i, q, a) for i, q, a in checks]
    for nfr_id, q, a in orphans:
        statements.insert(rng.randrange(len(statements) + 1),
                          (f"check {nfr_id} {q + 1} {a}", None, q, a))
    answers = [["unanswered"] * CHECKLIST_SIZE for _ in nids]
    orphan_lines = []
    for text, i, q, a in statements:
        line = out.add(text)
        if i is None:
            orphan_lines.append((text.split()[1], line))
        else:
            answers[i][q] = a

    expected = _oracle(len(out.lines), system, sids, s_line, gids, g_line,
                       owners, subids, sub_line, parents, nids, n_line,
                       nfr_names, goal_names, nfr_goals, nfr_subs, answers,
                       orphan_lines)
    return out.text(), expected


def _oracle(lines, system, sids, s_line, gids, g_line, owners, subids,
            sub_line, parents, nids, n_line, nfr_names, goal_names, nfr_goals,
            nfr_subs, answers, orphan_lines) -> Expected:
    goal_set, sub_set, stake_set = set(gids), set(subids), set(sids)
    # An `on` target names a goal if one has that id, else a sub-goal, else
    # it dangles and is reported as an unknown goal.
    attached_goals = [[r for r in gs + ss if r in goal_set or r not in sub_set]
                      for gs, ss in zip(nfr_goals, nfr_subs)]
    attached_subs = [[r for r in gs + ss if r not in goal_set and r in sub_set]
                     for gs, ss in zip(nfr_goals, nfr_subs)]

    found = []  # (layer rank, index, rule rank, seq) -> diagnostic

    def add(rank, index, rule, subject, line):
        found.append(((rank, index, RULE_ORDER.index(rule), len(found)),
                      (rule, SEVERITY[rule], subject, line)))

    owned = {o for row in owners for o in row}
    parented = {p for row in parents for p in row}
    goals_with_nfr = {g for row in attached_goals for g in row}
    subs_with_nfr = {s for row in attached_subs for s in row}
    for i, s in enumerate(sids):
        if s not in owned:
            add(0, i, "R2", s, s_line[i])
    for i, g in enumerate(gids):
        if g not in parented:
            add(1, i, "R3", g, g_line[i])
        for o in owners[i]:
            if o not in stake_set:
                add(1, i, "REF", g, g_line[i])
    for i, s in enumerate(subids):
        if s not in subs_with_nfr and not any(p in goals_with_nfr for p in parents[i]):
            add(2, i, "R4", s, sub_line[i])
        for p in parents[i]:
            if p not in goal_set:
                add(2, i, "REF", s, sub_line[i])
    for i, n in enumerate(nids):
        for target in attached_goals[i]:
            if target not in goal_set:
                add(3, i, "REF", n, n_line[i])
    for i, (nfr_id, line) in enumerate(orphan_lines):
        add(4, i, "REF", nfr_id, line)
    found.sort(key=lambda pair: pair[0])
    diagnostics = [d for _, d in found]

    rule_counts = {rule: 0 for rule in RULE_ORDER}
    for rule, *_ in diagnostics:
        rule_counts[rule] += 1
    invalid = any(severity == "error" for _, severity, _, _ in diagnostics)

    goal_index = {g: j for j, g in enumerate(gids)}
    sub_parents = dict(zip(subids, parents))
    marked = []
    for gs, ss in zip(attached_goals, attached_subs):
        cells = {goal_index[g] for g in gs if g in goal_index}
        cells.update(goal_index[p] for s in ss for p in sub_parents[s]
                     if p in goal_index)
        marked.append(cells)

    expected = Expected(
        lines=lines,
        exit_codes={"check": EXIT_CHECK_FAILED if invalid else EXIT_OK,
                    "report": EXIT_INVALID_MODEL if invalid else EXIT_OK,
                    "report_json": EXIT_INVALID_MODEL if invalid else EXIT_OK},
        rule_counts=rule_counts,
        diagnostics=diagnostics,
        system=system,
        layer_ids={"stakeholders": sids, "goals": gids, "subgoals": subids,
                   "nfrs": nids},
        nfr_names=nfr_names,
        goal_names=goal_names,
        yes_counts=[row.count("yes") for row in answers],
        answered_counts=[CHECKLIST_SIZE - row.count("unanswered") for row in answers],
        marked_goals=marked,
    )
    if invalid:
        return expected

    expected.n_c = sum(1 for row in answers if row.count("yes") == CHECKLIST_SIZE)
    expected.whole_yes = sum(1 for q in range(CHECKLIST_SIZE)
                             if all(row[q] == "yes" for row in answers))
    expected.whole_answered = sum(1 for q in range(CHECKLIST_SIZE)
                                  if all(row[q] != "unanswered" for row in answers))
    scores = [len(cells) for cells in marked]
    expected.threshold = Fraction(sum(scores), len(scores))
    expected.critical = sorted((i for i, s in enumerate(scores)
                                if s > expected.threshold),
                               key=lambda i: (-scores[i], i))
    return expected
