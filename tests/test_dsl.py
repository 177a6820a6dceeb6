"""Parsing, error reporting and canonical serialization of the DSL."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from nfr4 import dsl
from nfr4.dsl import ParseError, SerializeError, parse, serialize
from nfr4.model import (
    ChecklistRecord,
    Goal,
    Model,
    Nfr,
    Stakeholder,
    SubGoal,
    UnresolvedCheck,
    validate_structure,
)

from support import fuzz_line, random_model, written_model

CANONICAL = """\
system "Tiny"
stakeholder s "S"
goal g "G" for s
subgoal sg "SG" of g
nfr n "N" on g
check n 1 yes
"""


def parsed(text):
    result = parse(text)
    assert isinstance(result, Model), result
    return result


def errors_of(text):
    result = parse(text)
    assert isinstance(result, list), "expected parse errors"
    return result


# ---------------------------------------------------------------- parsing


def test_parse_minimal_example():
    model = parsed('system "ATM System"\n'
                   'stakeholder customer "Customer"\n'
                   'goal withdraw "Withdraw money" for customer\n')
    assert model.system_name == "ATM System"
    assert len(model.stakeholders) == 1
    assert len(model.goals) == 1
    assert model.goals[0] == Goal("withdraw", "Withdraw money", ("customer",))


def test_parse_canonical_text():
    model = parsed(CANONICAL)
    assert model.nfrs[0].attached_goals == ("g",)
    assert model.nfrs[0].checklist.answers[0] == "yes"
    assert validate_structure(model) == []


def test_parse_records_source_lines():
    model = parsed(CANONICAL)
    assert model.stakeholders[0].line == 2
    assert model.goals[0].line == 3
    assert model.nfrs[0].line == 5


def test_blank_lines_and_comments_ignored():
    model = parsed('\n# header\nsystem "T"   # trailing\n\n'
                   '   stakeholder s "S"\n\t\n')
    assert model.system_name == "T"
    assert model.stakeholders[0].id == "s"


def test_hash_inside_display_name_is_literal():
    model = parsed('system "a # b"\nstakeholder s "see #4"\n')
    assert model.system_name == "a # b"
    assert model.stakeholders[0].name == "see #4"


def test_crlf_input_equals_lf_input():
    lf = parsed(CANONICAL)
    crlf = parsed(CANONICAL.replace("\n", "\r\n"))
    assert lf == crlf


def test_byte_order_mark_is_ignored(library_model, library_text):
    assert parse(("\ufeff" + library_text).encode()) == library_model


def test_parse_accepts_bytes():
    assert parsed(CANONICAL.encode()) == parsed(CANONICAL)


def test_parse_replaces_undecodable_bytes():
    result = parse(b'\xff\xfe garbage\n')
    assert isinstance(result, list)
    assert all(isinstance(e, ParseError) for e in result)


def test_parse_is_pure():
    assert parse(CANONICAL) == parse(CANONICAL)
    assert parse("nonsense") == parse("nonsense")


def test_multi_target_attachments_split_by_layer():
    model = parsed('system "T"\nstakeholder s "S"\n'
                   'goal g "G" for s\nsubgoal sg "SG" of g\n'
                   'nfr n "N" on sg, g\n')
    assert model.nfrs[0].attached_goals == ("g",)
    assert model.nfrs[0].attached_subgoals == ("sg",)


def test_nfr_targets_resolve_after_whole_file():
    # Forward reference: the target goal is declared after the nfr line.
    model = parsed('system "T"\nstakeholder s "S"\n'
                   'nfr n "N" on g\n'
                   'goal g "G" for s\nsubgoal sg "SG" of g\n')
    assert model.nfrs[0].attached_goals == ("g",)


def test_nfr_target_prefers_goal_on_cross_layer_clash():
    # A duplicated id is a lint problem (DUP), not a parse error; the
    # target resolves against the goal layer first.
    model = parsed('system "T"\nstakeholder s "S"\n'
                   'goal dup "G" for s\nsubgoal dup "SG" of dup\n'
                   'nfr n "N" on dup\n')
    assert model.nfrs[0].attached_goals == ("dup",)
    assert model.nfrs[0].attached_subgoals == ()
    assert [d.rule_id for d in validate_structure(model)] == ["DUP"]


def test_unresolvable_nfr_target_is_not_a_parse_error():
    model = parsed('system "T"\nstakeholder s "S"\n'
                   'goal g "G" for s\nsubgoal sg "SG" of g\n'
                   'nfr n "N" on ghost\n')
    assert model.nfrs[0].attached_goals == ("ghost",)
    assert any(d.rule_id == "REF" for d in validate_structure(model))


# ------------------------------------------------- shared ids and records

# An id that is both a goal and a sub-goal, declared sub-goal first and
# after the NFR that names it.
CLASH = ('system "T"\nstakeholder s "S"\n'
         'nfr n "N" on dup, sg\n'
         'subgoal dup "SG" of goal_b\ngoal goal_b "G" for s\n'
         'subgoal sg "SG2" of dup\ngoal dup "G2" for s\n'
         'check n 2 yes\n')
# Dangling targets, repeated, beside declared ones; an unresolved check.
DANGLING = ('system "T"\nstakeholder s "S"\n'
            'goal goal_a "G" for s\nsubgoal sub_a "SG" of goal_a\n'
            'nfr n "N" on ghost_x, sub_a, goal_a, ghost_x\n'
            'nfr m "M" on goal_a\n'
            'check m 1 no\ncheck typo 3 yes\n')
# A goal id and an NFR id each declared twice.
REPEATED = ('system "T"\nstakeholder s "S"\n'
            'goal goal_a "G" for s\ngoal goal_a "Again" for s\n'
            'subgoal sub_a "SG" of goal_a\n'
            'nfr n "N" on goal_a, sub_a, goal_a\n'
            'nfr n "N2" on sub_a\n'
            'check n 8 yes\n')
# Every REF and DUP shape at once.
REF_AND_DUP = ('system "D"\nstakeholder s "S"\nstakeholder s "S2"\n'
               'goal s "G" for s, x\ngoal h "H" for s\n'
               'subgoal h "SG" of g, q\nsubgoal k "K" of s\n'
               'nfr h "N" on nope\nnfr k "K" on k\ncheck zz 1 yes\n')


def _answers(**given):
    """Eight answers, ``q<n>=...`` setting question n."""
    return ChecklistRecord(tuple(given.get(f"q{n}", "unanswered")
                                 for n in range(1, 9)))


def assert_ids_and_checklists_shared(model):
    """Every attachment that names a declared goal or sub-goal is that
    element's own id string, and NFRs with equal answers share one
    ``ChecklistRecord``."""
    goal_ids = {id(goal.id) for goal in model.goals}
    subgoal_ids = {id(subgoal.id) for subgoal in model.subgoals}
    declared = {goal.id for goal in model.goals} \
        | {subgoal.id for subgoal in model.subgoals}
    checklists = {}
    for nfr in model.nfrs:
        for target in nfr.attached_goals:
            assert target not in declared or id(target) in goal_ids, target
        for target in nfr.attached_subgoals:
            assert id(target) in subgoal_ids, target
        shared = checklists.setdefault(nfr.checklist.answers, nfr.checklist)
        assert nfr.checklist is shared, nfr.id


def test_attachments_and_equal_checklists_are_shared(library_model,
                                                     atm_model):
    # The written texts hold forward references, repeated targets, and
    # early and overridden answers.
    for model in (library_model, atm_model):
        assert_ids_and_checklists_shared(model)
    rng = random.Random(2929)
    for _ in range(500):
        model, lines = written_model(rng)
        parsed = parse("".join(line for _, line in lines))
        assert parsed == model
        assert_ids_and_checklists_shared(parsed)


def test_an_id_in_both_layers_is_filed_as_a_goal():
    model = parsed(CLASH)
    assert_ids_and_checklists_shared(model)
    (nfr,) = model.nfrs
    assert nfr.attached_goals == ("dup",)
    assert nfr.attached_goals[0] is model.goals[1].id
    assert nfr.attached_subgoals == ("sg",)
    assert [d.rule_id for d in validate_structure(model)] == ["R4", "DUP"]


def test_a_dangling_target_keeps_its_own_text():
    model = parsed(DANGLING)
    assert_ids_and_checklists_shared(model)
    assert model.nfrs[0].attached_goals == ("ghost_x", "goal_a", "ghost_x")
    assert [(d.rule_id, d.subject_id, d.message)
            for d in validate_structure(model)] == [
        ("REF", "n", "NFR 'n' references unknown goal 'ghost_x'"),
        ("REF", "n", "NFR 'n' references unknown goal 'ghost_x'"),
        ("REF", "typo", "checklist answer references unknown NFR 'typo'")]


def test_a_repeated_goal_id_resolves_to_one_declaration():
    model = parsed(REPEATED)
    assert_ids_and_checklists_shared(model)
    first = model.nfrs[0]
    assert first.attached_goals == ("goal_a", "goal_a")
    assert first.attached_goals[0] is first.attached_goals[1]
    assert [(d.rule_id, d.subject_id) for d in validate_structure(model)] \
        == [("DUP", "goal_a"), ("DUP", "n")]


@pytest.mark.parametrize("text, expected", [
    (CLASH, Model(
        "T", (Stakeholder("s", "S", 2),),
        (Goal("goal_b", "G", ("s",), 5), Goal("dup", "G2", ("s",), 7)),
        (SubGoal("dup", "SG", ("goal_b",), 4),
         SubGoal("sg", "SG2", ("dup",), 6)),
        (Nfr("n", "N", ("sg",), ("dup",), _answers(q2="yes"), 3),))),
    (DANGLING, Model(
        "T", (Stakeholder("s", "S", 2),), (Goal("goal_a", "G", ("s",), 3),),
        (SubGoal("sub_a", "SG", ("goal_a",), 4),),
        (Nfr("n", "N", ("sub_a",), ("ghost_x", "goal_a", "ghost_x"),
             _answers(), 5),
         Nfr("m", "M", (), ("goal_a",), _answers(q1="no"), 6)),
        (UnresolvedCheck("typo", 3, "yes", 8),))),
    (REPEATED, Model(
        "T", (Stakeholder("s", "S", 2),),
        (Goal("goal_a", "G", ("s",), 3), Goal("goal_a", "Again", ("s",), 4)),
        (SubGoal("sub_a", "SG", ("goal_a",), 5),),
        (Nfr("n", "N", ("sub_a",), ("goal_a", "goal_a"), _answers(q8="yes"),
             6),
         Nfr("n", "N2", ("sub_a",), (), _answers(), 7)))),
    (REF_AND_DUP, Model(
        "D", (Stakeholder("s", "S", 2), Stakeholder("s", "S2", 3)),
        (Goal("s", "G", ("s", "x"), 4), Goal("h", "H", ("s",), 5)),
        (SubGoal("h", "SG", ("g", "q"), 6), SubGoal("k", "K", ("s",), 7)),
        (Nfr("h", "N", (), ("nope",), _answers(), 8),
         Nfr("k", "K", ("k",), (), _answers(), 9)),
        (UnresolvedCheck("zz", 1, "yes", 10),))),
], ids=["clash", "dangling", "repeated", "ref-and-dup"])
def test_resolution_edge_cases_repr_golden(text, expected):
    # The repr shows every field, lines included, in declaration order.
    assert repr(parse(text)) == repr(expected)


# ----------------------------------------------------------------- checks


def test_check_applies_to_one_based_slot():
    model = parsed(CANONICAL + "check n 8 no\n")
    answers = model.nfrs[0].checklist.answers
    assert answers[0] == "yes"
    assert answers[7] == "no"
    assert answers[1:7] == ("unanswered",) * 6


def test_duplicate_check_last_one_wins():
    model = parsed(CANONICAL + "check n 1 no\n")
    assert model.nfrs[0].checklist.answers[0] == "no"
    # So also among the answers that wait for their NFR to be declared.
    model = parsed('system "T"\ncheck n 1 no\ncheck n 1 yes\nnfr n "N" on g\n')
    assert model.nfrs[0].checklist.answers[0] == "yes"


def test_check_may_precede_its_nfr():
    model = parsed('system "T"\nstakeholder s "S"\n'
                   'check n 5 yes\n'
                   'goal g "G" for s\nsubgoal sg "SG" of g\n'
                   'nfr n "N" on g\n')
    assert model.nfrs[0].checklist.answers[4] == "yes"
    assert model.unresolved_checks == ()


def test_checks_answer_the_first_nfr_with_their_id():
    # A duplicated NFR id is a DUP diagnostic, not a parse error.
    model = parsed(CANONICAL + 'nfr n "Again" on g\ncheck n 2 no\n')
    first, second = model.nfrs
    assert first.checklist.answers[:2] == ("yes", "no")
    assert second.checklist.answers == ("unanswered",) * 8
    assert model.unresolved_checks == ()
    assert parse(serialize(model)) == model


def test_check_with_unknown_nfr_is_kept_unresolved():
    model = parsed(CANONICAL + "check typo 2 no\n")
    assert model.unresolved_checks == (UnresolvedCheck("typo", 2, "no"),)
    assert any(d.rule_id == "REF" and d.subject_id == "typo"
               for d in validate_structure(model))


def test_unresolved_checks_keep_line_order():
    model = parsed('system "T"\ncheck b 1 yes\ncheck a 2 no\n'
                   'check n 3 yes\nnfr n "N" on g\ncheck b 4 no\n')
    assert [(c.nfr_id, c.index, c.line) for c in model.unresolved_checks] \
        == [("b", 1, 2), ("a", 2, 3), ("b", 4, 6)]
    assert model.nfrs[0].checklist.answers[2] == "yes"


def test_check_before_the_system_line_counts_as_an_element():
    assert errors_of('check x 1 yes\nsystem "T"\n') == [ParseError(
        "missing-system", 1, 1, "element declared before the system statement")]


# ----------------------------------------------------------------- errors


def test_empty_input_needs_a_system():
    errors = errors_of("")
    assert [(e.kind, e.line, e.column) for e in errors] \
        == [("missing-system", 1, 1)]


def test_comment_only_input_needs_a_system():
    assert errors_of("# nothing here\n\n")[0].kind == "missing-system"


def test_element_before_system_is_one_error():
    errors = errors_of('stakeholder s "S"\nsystem "T"\n')
    assert [(e.kind, e.line, e.column) for e in errors] \
        == [("missing-system", 1, 1)]


def test_second_system_is_duplicate():
    errors = errors_of('system "A"\nsystem "B"\n')
    assert [(e.kind, e.line) for e in errors] == [("duplicate-system", 2)]


def test_unknown_keyword():
    errors = errors_of('system "T"\nstakehodler s "S"\n')
    assert errors[0].kind == "unknown-keyword"
    assert (errors[0].line, errors[0].column) == (2, 1)
    assert "stakehodler" in errors[0].message


def test_bad_identifier_and_column():
    errors = errors_of('system "T"\nstakeholder Bad "B"\n')
    assert errors[0].kind == "bad-identifier"
    assert (errors[0].line, errors[0].column) == (2, 13)


def test_unterminated_string_points_at_quote():
    errors = errors_of('system "oops\n')
    assert errors[0].kind == "unterminated-string"
    assert (errors[0].line, errors[0].column) == (1, 8)


_T = 'system "T"\n'

# One malformed input per parse-error message, every per-keyword variant
# included.  Kind, line, column and message are what ``check`` prints on
# stderr, so each must stay exactly as it is.
PARSE_ERROR_GOLDEN = [
    (_T + 'stakeholder s "S', "unterminated-string", 2, 15,
     "unterminated display name"),
    (_T + 'stakehodler s "S"', "unknown-keyword", 2, 1,
     "unknown keyword 'stakehodler'"),
    (_T + ', a', "unknown-keyword", 2, 1, "unknown keyword ','"),
    # system
    (_T + 'system', "malformed-line", 2, 7,
     "system needs a quoted display name"),
    (_T + 'system x', "malformed-line", 2, 8,
     "expected quoted display name, got 'x'"),
    (_T + 'system "A" "B"', "malformed-line", 2, 12,
     "unexpected 'B' after display name"),
    # check
    (_T + 'check n 1', "malformed-line", 2, 10,
     "check needs an NFR id, a question number and yes/no"),
    (_T + 'check N 1 yes', "bad-identifier", 2, 7, "bad identifier 'N'"),
    (_T + 'check n 9 yes', "bad-checklist-index", 2, 9,
     "checklist question number must be 1..8, got '9'"),
    (_T + 'check n 1 maybe', "bad-checklist-answer", 2, 11,
     "checklist answer must be yes or no, got 'maybe'"),
    (_T + 'check n 1 yes no', "malformed-line", 2, 15,
     "unexpected 'no' after answer"),
    # the element id
    (_T + 'stakeholder', "malformed-line", 2, 12,
     "stakeholder needs an identifier"),
    (_T + 'goal', "malformed-line", 2, 5, "goal needs an identifier"),
    (_T + 'subgoal', "malformed-line", 2, 8, "subgoal needs an identifier"),
    (_T + 'nfr', "malformed-line", 2, 4, "nfr needs an identifier"),
    (_T + 'goal "G" for s', "malformed-line", 2, 6,
     "expected identifier, got 'G'"),
    (_T + 'stakeholder Bad "B"', "bad-identifier", 2, 13,
     "bad identifier 'Bad'"),
    # the element name
    (_T + 'stakeholder s', "malformed-line", 2, 14,
     "stakeholder needs a quoted display name"),
    (_T + 'goal g', "malformed-line", 2, 7,
     "goal needs a quoted display name"),
    (_T + 'subgoal sg', "malformed-line", 2, 11,
     "subgoal needs a quoted display name"),
    (_T + 'nfr n', "malformed-line", 2, 6, "nfr needs a quoted display name"),
    (_T + 'goal g x for s', "malformed-line", 2, 8,
     "expected quoted display name, got 'x'"),
    (_T + 'stakeholder s "S" extra', "malformed-line", 2, 19,
     "unexpected 'extra' after display name"),
    # the connective
    (_T + 'goal g "G"', "malformed-line", 2, 11,
     "goal needs 'for' and at least one id"),
    (_T + 'goal g1 "Goal"', "malformed-line", 2, 15,
     "goal needs 'for' and at least one id"),
    (_T + 'subgoal sg "SG"', "malformed-line", 2, 16,
     "subgoal needs 'of' and at least one id"),
    (_T + 'nfr n "N"', "malformed-line", 2, 10,
     "nfr needs 'on' and at least one id"),
    (_T + 'goal g "G" of s', "malformed-line", 2, 12,
     "expected 'for', got 'of'"),
    (_T + 'subgoal sg "SG" on g', "malformed-line", 2, 17,
     "expected 'of', got 'on'"),
    (_T + 'nfr n "N" for a', "malformed-line", 2, 11,
     "expected 'on', got 'for'"),
    # the ids after it
    (_T + 'nfr n "N" on a,, b', "malformed-line", 2, 16,
     "expected an id, got ','"),
    (_T + 'nfr n "N" on , a', "malformed-line", 2, 14,
     "expected an id, got ','"),
    (_T + 'nfr n "N" on "x"', "malformed-line", 2, 14,
     "expected an id, got 'x'"),
    (_T + 'goal g "G" for S', "bad-identifier", 2, 16, "bad identifier 'S'"),
    (_T + 'goal g "G" for a b', "malformed-line", 2, 18,
     "expected ',' between ids, got 'b'"),
    (_T + 'goal g "G" for', "malformed-line", 2, 15,
     "goal needs at least one id after 'for'"),
    (_T + 'subgoal sg "SG" of', "malformed-line", 2, 19,
     "subgoal needs at least one id after 'of'"),
    (_T + 'nfr n "N" on', "malformed-line", 2, 13,
     "nfr needs at least one id after 'on'"),
    (_T + 'subgoal sg "SG" of a,', "malformed-line", 2, 22,
     "trailing ',' without an id"),
    # the whole file
    ('', "missing-system", 1, 1, "no system declaration"),
    ('stakeholder s "S"\nsystem "T"', "missing-system", 1, 1,
     "element declared before the system statement"),
    (_T + 'system "B"', "duplicate-system", 2, 1,
     "system is already declared"),
]


@pytest.mark.parametrize("text, kind, line, column, message",
                         PARSE_ERROR_GOLDEN)
def test_parse_error_message_golden(text, kind, line, column, message):
    assert errors_of(text + "\n") == [ParseError(kind, line, column, message)]


def test_malformed_statement_shapes():
    # A missing part is reported just past the last token; after a quoted
    # name that is one past the closing quote.
    missing = [(text, column)
               for text, kind, _, column, message in PARSE_ERROR_GOLDEN
               if kind == "malformed-line"
               and ("needs" in message or message.startswith("trailing"))]
    assert len(missing) == 18
    for text, column in missing:
        assert column == len(text.rsplit("\n", 1)[-1]) + 1, text


def test_checklist_index_bounds():
    for bad in ("0", "9", "x", "12", "²", "٣", "00", "+1", "-1", "1_0", "١"):
        errors = errors_of(f'system "T"\ncheck n {bad} yes\n')
        assert [e.kind for e in errors] == ["bad-checklist-index"], bad
    assert errors_of('system "T"\ncheck n 9 yes\n')[0].column == 9


def test_checklist_answer_must_be_yes_or_no():
    errors = errors_of('system "T"\ncheck n 1 maybe\n')
    assert [e.kind for e in errors] == ["bad-checklist-answer"]
    assert (errors[0].line, errors[0].column) == (2, 11)


def test_errors_accumulate_one_per_bad_line():
    text = ('system "T"\n'
            'stakeholder s "S"\n'
            'goal g "G" forr s\n'      # bad line 3
            'subgoal sg "SG" of g\n'
            'nfr Nn "N" on g\n'        # bad line 5
            'check n 1 maybe\n')       # bad line 6
    errors = errors_of(text)
    assert [(e.line, e.kind) for e in errors] == [
        (3, "malformed-line"),
        (5, "bad-identifier"),
        (6, "bad-checklist-answer"),
    ]


def test_fixing_one_line_removes_exactly_its_error():
    lines = ['system "T"', 'stakeholder s "S"', 'goal g "G" forr s',
             'subgoal sg "SG" of g', 'nfr Nn "N" on g']
    before = errors_of("\n".join(lines) + "\n")
    lines[2] = 'goal g "G" for s'
    after = errors_of("\n".join(lines) + "\n")
    assert [(e.line, e.kind) for e in before] == [
        (3, "malformed-line"), (5, "bad-identifier")]
    assert [(e.line, e.kind) for e in after] == [(5, "bad-identifier")]


def test_errors_sorted_by_position():
    errors = errors_of('??\nsystem "T"\n??\n')
    assert [e.line for e in errors] == sorted(e.line for e in errors)


def test_line_permutation_within_group_permutes_declarations():
    header = ['system "T"']
    group = ['stakeholder a "A"', 'stakeholder b "B"', 'stakeholder c "C"']
    rest = ['goal g "G" for a, b, c', 'subgoal sg "SG" of g',
            'nfr n "N" on g']
    base = parsed("\n".join(header + group + rest) + "\n")
    shuffled = parsed("\n".join(header + group[::-1] + rest) + "\n")
    assert [s.id for s in shuffled.stakeholders] == ["c", "b", "a"]
    assert shuffled.goals == base.goals
    assert shuffled.nfrs == base.nfrs


# -------------------------------------------------------------- serialize


def test_serialize_canonical_round_trip():
    assert serialize(parsed(CANONICAL)) == CANONICAL


def test_serialize_groups_interleaved_statements():
    text = ('system "Tiny"\n'
            'stakeholder s "S"\n'
            'nfr n "N" on g\n'
            'check n 1 yes\n'
            'goal g "G" for s\n'
            'subgoal sg "SG" of g\n')
    assert serialize(parsed(text)) == CANONICAL


def test_serialize_lists_goal_targets_before_subgoals():
    text = ('system "T"\nstakeholder s "S"\ngoal g "G" for s\n'
            'subgoal sg "SG" of g\nnfr n "N" on sg, g\n')
    assert 'nfr n "N" on g, sg' in serialize(parsed(text)).splitlines()


def test_serialize_minimal_model():
    text = serialize(Model("S", (Stakeholder("s", "Solo"),)))
    assert text == 'system "S"\nstakeholder s "Solo"\n'


def test_serialize_omits_unanswered_slots():
    model = parsed(CANONICAL + "check n 4 no\n")
    check_lines = [line for line in serialize(model).splitlines()
                   if line.startswith("check")]
    assert check_lines == ["check n 1 yes", "check n 4 no"]


def test_fixture_round_trips(library_model, atm_model):
    for model in (library_model, atm_model):
        assert parse(serialize(model)) == model


def test_round_trip_keeps_repeated_references():
    model = parsed('system "T"\nstakeholder s "S"\ngoal g "G" for s, s\n'
                   'subgoal sg "SG" of g, g\nnfr n "N" on g, sg, g, sg\n')
    assert model.goals[0].owners == ("s", "s")
    assert parse(serialize(model)) == model


def test_atm_serialization_contains_goal_level_attachment(atm_model):
    assert 'nfr safety "Safety" on print_receipt' \
        in serialize(atm_model).splitlines()


@pytest.mark.parametrize("broken, wording", [
    (dict(stakeholders=(Stakeholder("Bad", "B"),),
          goals=(Goal("g", "G", ("Bad",)),)), "Bad"),
    (dict(stakeholders=(Stakeholder("s", 'say "hi"'),)), "quote"),
    (dict(system_name="two\nlines"), "newline"),
    (dict(goals=(Goal("g", "G"),)), "no owners"),
    (dict(subgoals=(SubGoal("sg", "SG"),)), "no parents"),
    (dict(nfrs=(Nfr("n", "N"),)), "no attachments"),
    (dict(goals=(Goal("g", "G", ("ghost",)),)), "ghost"),
    (dict(nfrs=(Nfr("n", "N", (), ("ghost",)),)), "ghost"),
    (dict(unresolved_checks=(UnresolvedCheck("typo", 1, "yes"),)), "typo"),
    (dict(subgoals=(SubGoal("g", "Clash", ("g",)),)), "both"),
    # parse would give the second NFR's answers to the first.
    (dict(nfrs=(Nfr("n", "A", (), ("g",)),
                Nfr("n", "B", (), ("g",), ChecklistRecord(("yes",) * 8)))),
     "declared again"),
    # Dangling references; the wording is the whole message.
    (dict(subgoals=(SubGoal("sg", "SG", ("ghost",)),)),
     "sub-goal 'sg' references unknown goal 'ghost'"),
    (dict(nfrs=(Nfr("n", "N", ("ghost",)),)),
     "NFR 'n' references unknown sub-goal 'ghost'"),
    # A target filed in the wrong layer would parse back into the other.
    (dict(nfrs=(Nfr("n", "N", (), ("sg",)),)),
     "NFR 'n' references unknown goal 'sg'"),
    (dict(nfrs=(Nfr("n", "N", ("g",)),)),
     "NFR 'n' references unknown sub-goal 'g'"),
])
def test_serialize_refuses_inexpressible_models(broken, wording):
    parts = dict(
        system_name="T",
        stakeholders=(Stakeholder("s", "S"),),
        goals=(Goal("g", "G", ("s",)),),
        subgoals=(SubGoal("sg", "SG", ("g",)),),
        nfrs=(Nfr("n", "N", (), ("g",)),),
    )
    parts.update(broken)
    with pytest.raises(SerializeError) as caught:
        serialize(Model(**parts))
    message = str(caught.value)
    assert message == wording if wording.endswith("'") else wording in message


def test_seeded_round_trip_loop():
    random_state = random.Random(2024)
    for _ in range(250):
        model = random_model(random_state, for_serialization=True)
        assert parse(serialize(model)) == model


def test_written_models_parse_back_and_round_trip():
    # The writer lays a model out as no serialize output is: layers
    # interleaved, checks anywhere after system and overridden, targets
    # interleaved and repeated, and blanks, comments, CRLF and a BOM.  The
    # model it wrote is the oracle for parse; the round trip over it is
    # not circular, since the text was not written by serialize.
    rng = random.Random(2828)
    for _ in range(500):
        model, lines = written_model(rng)
        text = "".join(line for _, line in lines)
        parsed = parse(text)
        assert parsed == model, text
        declared = {key: number
                    for number, (key, _) in enumerate(lines, start=1)}
        assert [nfr.line for nfr in parsed.nfrs] \
            == [declared["nfr", nfr.id] for nfr in model.nfrs]
        assert parse(serialize(parsed)) == parsed, text


name_text = st.text(
    alphabet=st.characters(blacklist_characters='"\n',
                           blacklist_categories=("Cs",)),
    max_size=25,
)


@given(name_text, name_text, name_text)
def test_round_trip_arbitrary_display_names(system_name, goal_name, nfr_name):
    model = Model(
        system_name,
        (Stakeholder("s", "S"),),
        (Goal("g", goal_name, ("s",)),),
        (SubGoal("sg", "SG", ("g",)),),
        (Nfr("n", nfr_name, (), ("g",)),),
    )
    assert parse(serialize(model)) == model


# ------------------------------------------------------------------- fuzz


def test_parse_survives_random_bytes():
    random_state = random.Random(99)
    for _ in range(300):
        blob = random_state.randbytes(random_state.randrange(200))
        result = parse(blob)
        assert isinstance(result, (Model, list))


def test_parse_survives_mutated_fixture(library_text):
    random_state = random.Random(100)
    raw = library_text.encode()
    for _ in range(100):
        blob = bytearray(raw)
        for _ in range(random_state.randrange(1, 12)):
            position = random_state.randrange(len(blob))
            blob[position] = random_state.randrange(256)
        result = parse(bytes(blob))
        assert isinstance(result, (Model, list))


# --------------------------------------------------------- grammar fuzz
#
# Valid statements are derived from the grammar token by token and then
# mutated token by token (``support.fuzz_line``).  The token walker
# ``_parse_line`` is the reference for the scanner: with the scanner's
# statement branch switched off, every line goes to the walker.


def _located(result):
    """A parse result with the source line of every element spelled out.

    Model equality ignores ``line``; these tests must not.
    """
    if isinstance(result, list):
        return result
    layers = (result.stakeholders, result.goals, result.subgoals,
              result.nfrs, result.unresolved_checks)
    return result, [[item.line for item in layer] for layer in layers]


def _scanner_off(patch):
    """Switch off the scanner's statement branch; its catch-all stays.

    The scanner is ``statement|catch-all``, so a failing lookahead in
    front of it can only fail the statement branch.
    """
    scanner = dsl._SCANNER
    patch.setattr(dsl, "_SCANNER",
                  re.compile("(?!)" + scanner.pattern, scanner.flags))


def _walker_only(text, monkeypatch):
    with monkeypatch.context() as patch:
        _scanner_off(patch)
        return _located(parse(text))


def _split_lines(text):
    """The lines of a file, numbered, as the walker must receive them."""
    return [(number, line.removesuffix("\r")) for number, line
            in enumerate(text.removeprefix("\ufeff").split("\n"), start=1)]


@pytest.fixture
def walker_calls(monkeypatch):
    """Every (line number, text) that ``parse`` hands to the walker."""
    calls = []
    walker = dsl._parse_line

    def counted(text, lineno):
        calls.append((lineno, text))
        return walker(text, lineno)

    monkeypatch.setattr(dsl, "_parse_line", counted)
    return calls


@pytest.mark.parametrize("line, expected", [
    ('goal g "Name"for a', Model("T", goals=(Goal("g", "Name", ("a",)),))),
    ('check n 08 yes',
     Model("T", unresolved_checks=(UnresolvedCheck("n", 8, "yes"),))),
    ('\tnfr n\t"N, #1"\ton a ,b,\tc # note',
     Model("T", nfrs=(Nfr("n", "N, #1", (), ("a", "b", "c")),))),
    ('system"S"#', Model("S")),
    ('stakeholder s "S"\t', Model("T", (Stakeholder("s", "S"),))),
])
def test_statement_regex_examples(line, expected, walker_calls, monkeypatch):
    text = line if line.startswith("system") else 'system "T"\n' + line
    result = parse(text)
    assert walker_calls == []  # the scanner read every line
    assert result == expected
    assert _walker_only(text, monkeypatch) == _located(result)


@pytest.mark.parametrize("line", [
    'goal g "G" for a b', 'check n 0 yes', 'check n ² yes', 'check n 1 yes,',
    'nfr n "N" on a,', 'stakeholder s "S"\r', 'system "S" x',
    '\ufeffsystem "S"', 'subgoal sg "SG" of', 'goal g "G" fora',
    'stakeholder sA "S"', '',
    # The connective must be the one its keyword takes, and present.
    'goal g "G" on a', 'nfr n "N" for a', 'subgoal sg "SG" on g',
    'stakeholder s "S" for a', 'system "S" of a', 'goal g "G"',
])
def test_statement_regex_rejects_what_the_token_walker_rejects(line,
                                                              walker_calls):
    # The CRLF is the line's end, so the walker sees the line itself; the
    # empty line after the last newline goes to the walker too.
    parse('system "T"\n' + line + "\r\n")
    assert walker_calls == [(2, line), (3, "")]
    assert type(dsl._parse_line(line, 2)) is not tuple


def test_statement_regexes_agree_with_token_walker(walker_calls, monkeypatch):
    rng = random.Random(303)
    cases = []
    accepted = 0
    for _ in range(6000):
        line = fuzz_line(rng)
        end = rng.choice(("\n", "\r\n", ""))
        text = 'system "T"\n' + line + end
        seen = (line + end).removesuffix("\n").removesuffix("\r")
        walker_calls.clear()
        result = _located(parse(text))
        # The scanner reads exactly the lines the walker accepts.
        scanned = walker_calls[:1] != [(2, seen)]
        assert scanned == (type(dsl._parse_line(seen, 2)) is tuple), \
            repr(line)
        accepted += scanned
        cases.append((text, result))
    # Both outcomes must be well represented, or the check proves little.
    assert 1500 < accepted < 4500
    _scanner_off(monkeypatch)
    for text, result in cases:
        assert _located(parse(text)) == result, repr(text)


def test_fuzzed_files_parse_the_same_through_the_token_walker(walker_calls,
                                                             monkeypatch):
    rng = random.Random(304)
    files = []
    for _ in range(400):
        # Mostly intact element lines, so that many files are models.
        lines = [fuzz_line(rng, 0.1, dsl._KEYWORDS[1:])
                 for _ in range(rng.randrange(1, 12))]
        position = rng.choice((0, 0, 0, rng.randrange(len(lines) + 1), None))
        if position is not None:
            lines.insert(position, 'system "T"')
        newline = rng.choice(("\n", "\r\n"))
        files.append(rng.choice(("", "\ufeff")) + newline.join(lines))
    fast = [_located(parse(text)) for text in files]
    models = sum(isinstance(result, tuple) for result in fast)
    assert 100 < models < 300
    _scanner_off(monkeypatch)
    for text, result in zip(files, fast):
        walker_calls.clear()
        assert _located(parse(text)) == result, repr(text)
        # Every line went to the walker, cut and numbered as str.split does.
        assert walker_calls == _split_lines(text), repr(text)


_S = 'system "T"\n'


@pytest.mark.parametrize("text, expected", [
    # One CR is stripped from a line's end, and only one.
    (_S + "x\r\r\n", [("unknown-keyword", 2, 1)]),
    (_S + 'stakeholder s "S"\r\r\n', [("malformed-line", 2, 18)]),
    # A CR inside a line is part of it.
    (_S + 'stakeholder s "a\rb"\n', ("a\rb", 2)),
    # A quoted name does not run on into the next line.
    (_S + 'stakeholder s "open\nclose"\n',
     [("unterminated-string", 2, 15), ("unterminated-string", 3, 6)]),
    # The last line, with or without its line end.
    (_S + 'stakeholder s "S"', ("S", 2)),
    ('system "T"\r\nstakeholder s "S"\r\n', ("S", 2)),
    (_S + 'stakeholder s "S"\r', ("S", 2)),
    ("", [("missing-system", 1, 1)]),
    ("\ufeff", [("missing-system", 1, 1)]),
    ("\n\n", [("missing-system", 1, 1)]),
    (_S + '\nstakeholder s "S"\nbogus', [("unknown-keyword", 4, 1)]),
    (_S + '\nstakeholder s "S"\nbogus\r\n', [("unknown-keyword", 4, 1)]),
    (_S + '\n\nstakeholder s "S"\n', ("S", 4)),
    # A comment runs to the line's end, CRs included.
    (_S + 'stakeholder s "S" # note\r\r\n', ("S", 2)),
    ('system "T" #\r', None),
])
def test_scanner_line_edges(text, expected, walker_calls, monkeypatch):
    result = parse(text)
    if isinstance(expected, list):
        assert [(e.kind, e.line, e.column) for e in result] == expected
    elif expected is None:
        assert result == Model("T")
    else:
        name, line = expected
        assert result == Model("T", (Stakeholder("s", name),))
        assert result.stakeholders[0].line == line
    walker_calls.clear()
    assert _walker_only(text, monkeypatch) == _located(result)
    assert walker_calls == _split_lines(text)


def test_well_formed_lines_take_the_scanner(library_text, atm_text,
                                            library_model, atm_model,
                                            walker_calls):
    rng = random.Random(305)
    models = [library_model, atm_model] + [
        random_model(rng, for_serialization=True) for _ in range(50)]
    texts = [library_text, atm_text] + [serialize(m) for m in models]
    for text in texts:
        walker_calls.clear()
        assert isinstance(parse(text), Model)
        # Only blank and comment lines reach the walker; the empty line
        # after the last newline is one.
        assert walker_calls, "the counter must see the walker's calls"
        for _, line in walker_calls:
            assert line.strip(" \t") == "" \
                or line.lstrip(" \t").startswith("#"), repr(line)
