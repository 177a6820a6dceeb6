"""Acceptance gate: nine end-to-end criteria, one test function each.

Each criterion prints a single PASS or FAIL line (visible with -s, or in
captured output), and the pytest verdict per test mirrors it.  Expected
values are computed here independently wherever they are derived rather
than quoted: the decimal oracle for MCR strings, the scan oracle for
matrix marks, and hand-listed goal sets for the fixture patterns.
"""

import itertools
import random
import time
from contextlib import contextmanager
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction

from nfr4.analysis import (
    build_traceability_matrix,
    compute_mcr,
    rank_criticality,
)
from nfr4.dsl import parse, serialize
from nfr4.model import (
    Goal,
    Model,
    Nfr,
    Stakeholder,
    SubGoal,
    validate_structure,
)
from nfr4.fixtures import LIBRARY_PATH, ATM_PATH
from nfr4.report import format_ratio

from support import (
    brute_force_marks,
    marked_goals,
    marks_to_rows,
    random_model,
    run_cli,
)

LIBRARY = str(LIBRARY_PATH)
ATM = str(ATM_PATH)

LIBRARY_SCORES = {"usability": 7, "performance": 3, "security": 1,
                  "reliability": 2, "safety": 2, "flexibility": 1}
ATM_SCORES = {"usability": 6, "performance": 4, "security": 4,
              "reliability": 2, "safety": 1}

LIBRARY_MARKED = {
    "usability": {"search_book", "borrow_book", "return_book",
                  "register_member", "add_item", "issue_book",
                  "receive_book"},
    "performance": {"search_book", "borrow_book", "issue_book"},
    "security": {"login"},
    "reliability": {"issue_book", "receive_book"},
    "safety": {"issue_book", "receive_book"},
    "flexibility": {"register_member"},
}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{number} FAIL - {description}")
        raise
    print(f"ACCEPTANCE C{number} PASS - {description}")


def cli_scores(stdout):
    """Read the per-NFR score lines off `critical` output."""
    scores = {}
    for line in stdout.splitlines():
        if line.startswith("threshold"):
            break
        ident, _, value = line.partition(": ")
        scores[ident] = int(value)
    return scores


def test_c1_library_fixture_golden(library_model):
    with criterion(1, "library fixture counts, marks and exact metrics"):
        assert len(library_model.stakeholders) == 3
        assert len(library_model.goals) >= 11
        assert len(library_model.subgoals) == 21
        assert len(library_model.nfrs) == 6
        assert validate_structure(library_model) == []
        assert marked_goals(build_traceability_matrix(library_model)) \
            == LIBRARY_MARKED
        for nfr in library_model.nfrs:
            assert nfr.checklist.answers == ("yes",) * 8

        started = time.perf_counter()
        code, out, err = run_cli(["metrics", LIBRARY])
        elapsed = time.perf_counter() - started
        assert (code, err) == (0, "")
        assert out == "MCR = 6 / [6+0] = 1.0000\nvalidation: 8/8 = 1.0000\n"
        assert elapsed < 1.0

        result = compute_mcr(library_model)
        assert (result.n_c, result.n_nv, result.mcr) == (6, 0, Fraction(1))


def test_c2_library_criticality():
    with criterion(2, "library row sums and default critical set"):
        code, out, err = run_cli(["critical", LIBRARY])
        assert (code, err) == (0, "")
        assert cli_scores(out) == LIBRARY_SCORES
        last = out.splitlines()[-1]
        assert last.startswith("critical: ")
        named = set(last.removeprefix("critical: ").split(", "))
        assert named == {"usability", "performance"}


def test_c3_atm_fixture_golden(atm_model):
    with criterion(3, "ATM fixture exact metrics"):
        code, out, err = run_cli(["metrics", ATM])
        assert (code, err) == (0, "")
        assert out == "MCR = 5 / [5+0] = 1.0000\nvalidation: 8/8 = 1.0000\n"
        result = compute_mcr(atm_model)
        assert (result.n_c, result.n_nv, result.mcr) == (5, 0, Fraction(1))


def test_c4_atm_criticality():
    with criterion(4, "ATM row sums and default critical set"):
        code, out, err = run_cli(["critical", ATM])
        assert (code, err) == (0, "")
        assert cli_scores(out) == ATM_SCORES
        named = set(out.splitlines()[-1].removeprefix("critical: ")
                    .split(", "))
        assert named == {"usability", "performance", "security"}


def test_c5_mcr_partial_completeness(library_model):
    """MCR over every subset of cleared checklists, against a decimal
    oracle computed here with stdlib Decimal arithmetic."""
    with criterion(5, "MCR equals (6-|S|)/6 for all 64 checklist subsets"):
        ids = [n.id for n in library_model.nfrs]
        started = time.perf_counter()
        checked = 0
        for size in range(len(ids) + 1):
            for subset in itertools.combinations(ids, size):
                cleared = frozenset(subset)
                nfrs = tuple(
                    Nfr(n.id, n.name, n.attached_subgoals, n.attached_goals)
                    if n.id in cleared else n
                    for n in library_model.nfrs)
                model = Model(library_model.system_name,
                              library_model.stakeholders,
                              library_model.goals, library_model.subgoals,
                              nfrs)
                result = compute_mcr(model)
                assert result.mcr == Fraction(6 - size, 6)
                oracle = (Decimal(6 - size) / Decimal(6)).quantize(
                    Decimal("0.0001"), rounding=ROUND_HALF_UP)
                assert format_ratio(result.mcr) == str(oracle)
                checked += 1
        assert checked == 64
        assert time.perf_counter() - started < 5.0


def test_c6_matrix_oracle_equivalence():
    with criterion(6, "matrix equals scan oracle on 1000 random models"):
        rng = random.Random(60006)
        mismatches = 0
        for _ in range(1000):
            model = random_model(rng)
            if build_traceability_matrix(model).rows \
                    != marks_to_rows(brute_force_marks(model)):
                mismatches += 1
        assert mismatches == 0


def test_c7_round_trip_and_fuzz(library_text):
    with criterion(7, "1000 round-trips plus 10000 fuzz inputs"):
        rng = random.Random(70007)
        for _ in range(1000):
            model = random_model(rng, for_serialization=True)
            assert parse(serialize(model)) == model

        fixture = library_text.encode()
        soup = ("system", "stakeholder", "goal", "subgoal", "nfr", "check",
                "for", "of", "on", ",", '"', "#", "yes", "no", "0", "9",
                "abc", "A", "_x", "\t", "\r\n", "\n", " ")
        survived = 0
        for i in range(10000):
            style = i % 3
            if style == 0:
                blob = rng.randbytes(rng.randrange(300))
            elif style == 1:
                blob = "".join(rng.choice(soup)
                               for _ in range(rng.randrange(60)))
            else:
                mutated = bytearray(fixture)
                for _ in range(rng.randrange(1, 16)):
                    position = rng.randrange(len(mutated))
                    action = rng.randrange(3)
                    if action == 0:
                        mutated[position] = rng.randrange(256)
                    elif action == 1:
                        del mutated[position]
                    else:
                        mutated.insert(position, rng.randrange(256))
                blob = bytes(mutated)
            result = parse(blob)
            assert isinstance(result, (Model, list))
            survived += 1
        assert survived == 10000


def test_c8_structural_rule_table():
    """Twelve minimal violating models, each expecting an exact
    diagnostic list of (rule, severity, subject)."""
    s = Stakeholder("s", "S")
    cases = [
        ("no stakeholders",
         Model("M"),
         [("R1", "error", "")]),
        ("goalless stakeholder",
         Model("M", (s, Stakeholder("idle", "Idle")),
               (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
               (Nfr("n", "N", (), ("g",)),)),
         [("R2", "error", "idle")]),
        ("ownerless goal",
         Model("M", (s,), (Goal("g", "G", ("s",)), Goal("h", "H")),
               (SubGoal("sg", "SG", ("g", "h")),),
               (Nfr("n", "N", (), ("g",)),)),
         [("R2", "error", "h")]),
        ("childless goal",
         Model("M", (s,), (Goal("g", "G", ("s",)), Goal("h", "H", ("s",))),
               (SubGoal("sg", "SG", ("g",)),), (Nfr("n", "N", (), ("g",)),)),
         [("R3", "error", "h")]),
        ("parentless sub-goal",
         Model("M", (s,), (Goal("g", "G", ("s",)),),
               (SubGoal("sg", "SG", ("g",)), SubGoal("ss", "SS")),
               (Nfr("n", "N", ("ss",), ("g",)),)),
         [("R3", "error", "ss")]),
        ("unattached NFR",
         Model("M", (s,), (Goal("g", "G", ("s",)),),
               (SubGoal("sg", "SG", ("g",)),),
               (Nfr("n", "N", (), ("g",)), Nfr("m", "M"))),
         [("R4", "warning", "m")]),
        ("uncovered sub-goal",
         Model("M", (s,), (Goal("g", "G", ("s",)), Goal("h", "H", ("s",))),
               (SubGoal("sg", "SG", ("g",)), SubGoal("ss", "SS", ("h",))),
               (Nfr("n", "N", (), ("g",)),)),
         [("R4", "warning", "ss")]),
        ("goal referencing unknown stakeholder",
         Model("M", (s,), (Goal("g", "G", ("s", "ghost")),),
               (SubGoal("sg", "SG", ("g",)),), (Nfr("n", "N", (), ("g",)),)),
         [("REF", "error", "g")]),
        ("sub-goal referencing unknown goal",
         Model("M", (s,), (Goal("g", "G", ("s",)),),
               (SubGoal("sg", "SG", ("g", "ghost")),),
               (Nfr("n", "N", (), ("g",)),)),
         [("REF", "error", "sg")]),
        ("NFR referencing unknown target",
         Model("M", (s,), (Goal("g", "G", ("s",)),),
               (SubGoal("sg", "SG", ("g",)),),
               (Nfr("n", "N", (), ("g", "ghost")),)),
         [("REF", "error", "n")]),
        ("duplicate id within a layer",
         Model("M", (s, Stakeholder("s", "Again")),
               (Goal("g", "G", ("s",)),), (SubGoal("sg", "SG", ("g",)),),
               (Nfr("n", "N", (), ("g",)),)),
         [("DUP", "error", "s")]),
        ("duplicate id across layers",
         Model("M", (s,), (Goal("g", "G", ("s",)),),
               (SubGoal("sg", "SG", ("g",)), SubGoal("g", "Clash", ("g",))),
               (Nfr("n", "N", (), ("g",)),)),
         [("DUP", "error", "g")]),
    ]
    with criterion(8, "12 minimal violating models hit exact diagnostics"):
        assert len(cases) == 12
        for label, model, expected in cases:
            got = [(d.rule_id, d.severity, d.subject_id)
                   for d in validate_structure(model)]
            assert got == expected, label


def test_c9_determinism(library_text):
    with criterion(9, "byte-identical JSON and permutation-stable critical set"):
        for path in (LIBRARY, ATM):
            first = run_cli(["report", "--format", "json", path])
            second = run_cli(["report", "--format", "json", path])
            assert first == second
            assert first[0] == 0

        lines = library_text.splitlines()
        nfr_positions = [i for i, line in enumerate(lines)
                         if line.startswith("nfr ")]
        assert len(nfr_positions) == 6
        rng = random.Random(90009)
        for _ in range(10):
            order = nfr_positions[:]
            rng.shuffle(order)
            permuted = lines[:]
            for target, source in zip(nfr_positions, order):
                permuted[target] = lines[source]
            model = parse("\n".join(permuted) + "\n")
            assert isinstance(model, Model)
            matrix = build_traceability_matrix(model)
            report = rank_criticality(matrix)
            assert {matrix.nfr_ids[i] for i in report.critical} \
                == {"usability", "performance"}
            assert dict(zip(matrix.nfr_ids, map(len, matrix.rows))) \
                == LIBRARY_SCORES
