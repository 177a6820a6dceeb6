"""Parsing, error reporting and canonical serialization of the DSL."""

import random

import pytest
from hypothesis import given, strategies as st

from nfr4.dsl import ParseError, SerializeError, SourceSpan, parse, serialize
from nfr4.model import (
    Goal,
    Model,
    Nfr,
    Stakeholder,
    SubGoal,
    UnresolvedCheck,
    validate_structure,
)

from support import random_model

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


def test_parse_keeps_source_path():
    model = parse(CANONICAL, source_path="tiny.nfr4")
    assert model.source_path == "tiny.nfr4"


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


def test_check_may_precede_its_nfr():
    model = parsed('system "T"\nstakeholder s "S"\n'
                   'check n 5 yes\n'
                   'goal g "G" for s\nsubgoal sg "SG" of g\n'
                   'nfr n "N" on g\n')
    assert model.nfrs[0].checklist.answers[4] == "yes"
    assert model.unresolved_checks == ()


def test_check_with_unknown_nfr_is_kept_unresolved():
    model = parsed(CANONICAL + "check typo 2 no\n")
    assert model.unresolved_checks == (UnresolvedCheck("typo", 2, "no"),)
    assert any(d.rule_id == "REF" and d.subject_id == "typo"
               for d in validate_structure(model))


# ----------------------------------------------------------------- errors


def test_empty_input_needs_a_system():
    errors = errors_of("")
    assert [(e.kind, e.span.line, e.span.column) for e in errors] \
        == [("missing-system", 1, 1)]


def test_comment_only_input_needs_a_system():
    assert errors_of("# nothing here\n\n")[0].kind == "missing-system"


def test_element_before_system_is_one_error():
    errors = errors_of('stakeholder s "S"\nsystem "T"\n')
    assert [(e.kind, e.span.line, e.span.column) for e in errors] \
        == [("missing-system", 1, 1)]


def test_second_system_is_duplicate():
    errors = errors_of('system "A"\nsystem "B"\n')
    assert [(e.kind, e.span.line) for e in errors] == [("duplicate-system", 2)]


def test_unknown_keyword():
    errors = errors_of('system "T"\nstakehodler s "S"\n')
    assert errors[0].kind == "unknown-keyword"
    assert errors[0].span == SourceSpan(2, 1)
    assert "stakehodler" in errors[0].message


def test_bad_identifier_and_column():
    errors = errors_of('system "T"\nstakeholder Bad "B"\n')
    assert errors[0].kind == "bad-identifier"
    assert (errors[0].span.line, errors[0].span.column) == (2, 13)


def test_unterminated_string_points_at_quote():
    errors = errors_of('system "oops\n')
    assert errors[0].kind == "unterminated-string"
    assert (errors[0].span.line, errors[0].span.column) == (1, 8)


def test_malformed_statement_shapes():
    bad_lines = (
        'goal g "G"',                 # missing connective
        'goal g "G" of s',            # wrong connective
        'subgoal sg "SG" of',         # no ids after connective
        'subgoal sg "SG" of a,',      # trailing comma
        'nfr n "N" on a,, b',         # doubled comma
        'stakeholder s "S" extra',    # trailing junk
        'stakeholder s',              # missing display name
        'system "A" "B"',             # too many names
    )
    for line in bad_lines:
        errors = errors_of('system "T"\n' + line + "\n")
        assert len(errors) == 1, line
        assert errors[0].kind == "malformed-line", line
        assert errors[0].span.line == 2


def test_checklist_index_bounds():
    for bad in ("0", "9", "x", "12", "²", "٣"):
        errors = errors_of(f'system "T"\ncheck n {bad} yes\n')
        assert [e.kind for e in errors] == ["bad-checklist-index"], bad
    assert errors_of('system "T"\ncheck n 9 yes\n')[0].span.column == 9


def test_checklist_answer_must_be_yes_or_no():
    errors = errors_of('system "T"\ncheck n 1 maybe\n')
    assert [e.kind for e in errors] == ["bad-checklist-answer"]
    assert (errors[0].span.line, errors[0].span.column) == (2, 11)


def test_errors_accumulate_one_per_bad_line():
    text = ('system "T"\n'
            'stakeholder s "S"\n'
            'goal g "G" forr s\n'      # bad line 3
            'subgoal sg "SG" of g\n'
            'nfr Nn "N" on g\n'        # bad line 5
            'check n 1 maybe\n')       # bad line 6
    errors = errors_of(text)
    assert [(e.span.line, e.kind) for e in errors] == [
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
    assert [(e.span.line, e.kind) for e in before] == [
        (3, "malformed-line"), (5, "bad-identifier")]
    assert [(e.span.line, e.kind) for e in after] == [(5, "bad-identifier")]


def test_errors_sorted_by_position():
    errors = errors_of('??\nsystem "T"\n??\n')
    assert [e.span.line for e in errors] == sorted(e.span.line for e in errors)


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
    assert wording in str(caught.value)


def test_seeded_round_trip_loop():
    random_state = random.Random(2024)
    for _ in range(250):
        model = random_model(random_state, for_serialization=True)
        assert parse(serialize(model)) == model


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
