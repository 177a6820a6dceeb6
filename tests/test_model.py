"""Core model types and structural lint rules."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nfr4 import analysis, dsl, model, report
from nfr4.analysis import ThresholdMode
from nfr4.dsl import ParseError, parse, serialize
from nfr4.model import (
    ChecklistRecord,
    Diagnostic,
    Goal,
    Model,
    Nfr,
    SEVERITY_BY_RULE,
    Stakeholder,
    SubGoal,
    UnresolvedCheck,
    record,
    validate_structure,
)
from nfr4.report import build_bundle

from support import random_model, wide_model_text, written_model


def tiny_model(**overrides):
    """One element per layer, fully linked: zero diagnostics."""
    parts = dict(
        system_name="Tiny",
        stakeholders=(Stakeholder("s", "S"),),
        goals=(Goal("g", "G", ("s",)),),
        subgoals=(SubGoal("sg", "SG", ("g",)),),
        nfrs=(Nfr("n", "N", (), ("g",)),),
    )
    parts.update(overrides)
    return Model(**parts)


def findings(model):
    return [(d.rule_id, d.severity, d.subject_id)
            for d in validate_structure(model)]


# ---------------------------------------------------------------- fixtures


def test_library_fixture_is_clean(library_model):
    assert validate_structure(library_model) == []


def test_atm_fixture_is_clean(atm_model):
    assert validate_structure(atm_model) == []


def test_tiny_model_is_clean():
    assert validate_structure(tiny_model()) == []


# ------------------------------------------------------------------ rules


def test_no_stakeholders_is_r1():
    model = Model("Empty")
    assert findings(model) == [("R1", "error", "")]


def test_stakeholder_without_goals_is_r2():
    model = tiny_model(stakeholders=(Stakeholder("s", "S"),
                                     Stakeholder("idle", "Idle")))
    assert findings(model) == [("R2", "error", "idle")]
    message = validate_structure(model)[0].message
    assert "idle" in message and "owns no goals" in message


def test_goal_without_owners_is_r2():
    model = tiny_model(
        goals=(Goal("g", "G", ("s",)), Goal("h", "H")),
        subgoals=(SubGoal("sg", "SG", ("g", "h")),),
    )
    assert findings(model) == [("R2", "error", "h")]


def test_gated_models_declare_a_goal(library_model, atm_model):
    """A model with no error-severity finding declares a goal: R1 asks
    for a stakeholder and R2 for a goal it owns.  So analysis of a gated
    model without NFRs stops at compute_mcr's EmptyModelError, never at
    rank_criticality's empty matrix, and the CLI catches only the first.
    Each written model is also parsed with about a third of its lines
    left out, so that some candidates fail the gate or lose every goal."""
    rng = random.Random(30)
    candidates = [library_model, atm_model, parse('system "S"\n'),
                  parse('system "S"\nstakeholder s "S"\n')]
    for _ in range(500):
        model, lines = written_model(rng)
        candidates += [model, parse("".join(
            line for _, line in lines if rng.random() < 0.7))]
    for _ in range(20):
        goals = rng.randint(3, 8)
        candidates.append(parse(wide_model_text(
            rng, rng.randint(goals, 30), goals)))
    models = [m for m in candidates if isinstance(m, Model)]
    gated = [m for m in models if all(
        d.severity != "error" for d in validate_structure(m))]
    assert len(gated) >= 100
    assert sum(not m.goals for m in models) >= 10
    assert all(m.goals for m in gated)


def test_goal_without_subgoals_is_r3():
    model = tiny_model(goals=(Goal("g", "G", ("s",)), Goal("h", "H", ("s",))))
    assert findings(model) == [("R3", "error", "h")]


def test_subgoal_without_parents_is_r3():
    model = tiny_model(
        subgoals=(SubGoal("sg", "SG", ("g",)), SubGoal("ss", "SS")),
        nfrs=(Nfr("n", "N", ("ss",), ("g",)),),
    )
    assert findings(model) == [("R3", "error", "ss")]


def test_unattached_nfr_is_r4_warning():
    model = tiny_model(nfrs=(Nfr("n", "N", (), ("g",)), Nfr("m", "M")))
    assert findings(model) == [("R4", "warning", "m")]


def test_uncovered_subgoal_is_r4_warning():
    model = tiny_model(
        goals=(Goal("g", "G", ("s",)), Goal("h", "H", ("s",))),
        subgoals=(SubGoal("sg", "SG", ("g",)), SubGoal("ss", "SS", ("h",))),
    )
    assert findings(model) == [("R4", "warning", "ss")]


def test_coverage_reaches_through_parent_goals():
    # The NFR sits on the goal; its sub-goal counts as covered.
    assert findings(tiny_model()) == []


def test_direct_subgoal_attachment_covers():
    model = tiny_model(nfrs=(Nfr("n", "N", ("sg",)),))
    assert findings(model) == []


def test_goal_with_unknown_owner_is_ref():
    model = tiny_model(goals=(Goal("g", "G", ("s", "ghost")),))
    assert findings(model) == [("REF", "error", "g")]
    assert "ghost" in validate_structure(model)[0].message


def test_subgoal_with_unknown_parent_is_ref():
    model = tiny_model(subgoals=(SubGoal("sg", "SG", ("g", "ghost")),))
    assert findings(model) == [("REF", "error", "sg")]


def test_subgoal_parent_typo_names_both_ids():
    # A misspelled parent produces one REF naming the sub-goal and the
    # unresolvable id.
    model = tiny_model(
        goals=(Goal("borrow_book", "Borrow book", ("s",)),),
        subgoals=(SubGoal("get_book", "Get book", ("borow_book",)),),
        nfrs=(Nfr("n", "N", ("get_book",)),),
    )
    diagnostics = validate_structure(model)
    assert [(d.rule_id, d.subject_id) for d in diagnostics] == [
        ("R3", "borrow_book"), ("REF", "get_book")]
    ref = diagnostics[1]
    assert "get_book" in ref.message and "borow_book" in ref.message


def test_nfr_with_unknown_goal_target_is_ref():
    model = tiny_model(nfrs=(Nfr("n", "N", (), ("g", "ghost")),))
    assert findings(model) == [("REF", "error", "n")]


def test_nfr_with_unknown_subgoal_target_is_ref():
    model = tiny_model(nfrs=(Nfr("n", "N", ("sg", "ghost"), ("g",)),))
    assert findings(model) == [("REF", "error", "n")]
    assert "sub-goal" in validate_structure(model)[0].message


def test_unresolved_check_is_ref():
    model = tiny_model(
        unresolved_checks=(UnresolvedCheck("typo", 1, "yes"),))
    assert findings(model) == [("REF", "error", "typo")]


@pytest.mark.parametrize("broken, finding", [
    (dict(goals=(Goal("g", "G", ("s", "ghost"), 3),)),
     ("REF", "error", "g", 3,
      "goal 'g' references unknown stakeholder 'ghost'")),
    (dict(subgoals=(SubGoal("sg", "SG", ("g", "ghost"), 4),)),
     ("REF", "error", "sg", 4,
      "sub-goal 'sg' references unknown goal 'ghost'")),
    (dict(nfrs=(Nfr("n", "N", (), ("g", "ghost"), line=5),)),
     ("REF", "error", "n", 5, "NFR 'n' references unknown goal 'ghost'")),
    (dict(nfrs=(Nfr("n", "N", ("sg", "ghost"), ("g",), line=5),)),
     ("REF", "error", "n", 5, "NFR 'n' references unknown sub-goal 'ghost'")),
    (dict(unresolved_checks=(UnresolvedCheck("typo", 1, "yes", 6),)),
     ("REF", "error", "typo", 6,
      "checklist answer references unknown NFR 'typo'")),
], ids=["goal-owner", "subgoal-parent", "nfr-goal", "nfr-subgoal", "check"])
def test_ref_message_golden(broken, finding):
    # One case per REF template; serialize raises these messages too.
    assert [(d.rule_id, d.severity, d.subject_id, d.source_line, d.message)
            for d in validate_structure(tiny_model(**broken))] == [finding]


def test_duplicate_id_within_layer_is_dup():
    model = tiny_model(stakeholders=(Stakeholder("s", "First"),
                                     Stakeholder("s", "Second")))
    assert findings(model) == [("DUP", "error", "s")]


def test_duplicate_id_across_layers_is_dup():
    model = tiny_model(
        subgoals=(SubGoal("sg", "SG", ("g",)), SubGoal("g", "Clash", ("g",))))
    assert findings(model) == [("DUP", "error", "g")]


def test_severity_always_matches_rule_table():
    random_state = random.Random(7)
    models = [random_model(random_state) for _ in range(25)]
    models.append(tiny_model(goals=(Goal("g", "G"),),
                             stakeholders=(), nfrs=()))
    for model in models:
        for diagnostic in validate_structure(model):
            assert diagnostic.severity == SEVERITY_BY_RULE[diagnostic.rule_id]


# --------------------------------------------------------------- ordering


def test_diagnostics_follow_declaration_order():
    model = tiny_model(
        goals=(Goal("g", "G", ("s",)), Goal("a", "A", ("s",)),
               Goal("b", "B", ("s",))),
        subgoals=(SubGoal("sg", "SG", ("g",)),),
    )
    # Two childless goals report in declaration order, not id order.
    assert findings(model) == [("R3", "error", "a"), ("R3", "error", "b")]


def test_rule_order_breaks_ties_on_one_subject():
    model = tiny_model(goals=(Goal("g", "G", ("s",)), Goal("h", "H")))
    assert [(d.rule_id, d.subject_id) for d in validate_structure(model)] \
        == [("R2", "h"), ("R3", "h")]


def test_dup_is_each_elements_last_finding():
    model = parse(
        'system "D"\n'
        'stakeholder s "S"\n'
        'stakeholder s "S2"\n'
        'goal s "G" for s, x\n'
        'goal h "H" for s\n'
        'subgoal h "SG" of g, q\n'
        'subgoal k "K" of s\n'
        'nfr h "N" on nope\n'
        'nfr k "K" on k\n'
        'check zz 1 yes\n')
    assert [(d.rule_id, d.subject_id, d.source_line)
            for d in validate_structure(model)] == [
        ("DUP", "s", 3), ("REF", "s", 4), ("DUP", "s", 4),
        ("R3", "h", 5),
        ("R4", "h", 6), ("REF", "h", 6), ("REF", "h", 6), ("DUP", "h", 6),
        ("REF", "h", 8), ("DUP", "h", 8),
        ("DUP", "k", 9),
        ("REF", "zz", 10),
    ]


def test_r1_sorts_before_everything():
    model = Model("S", goals=(Goal("g", "G"),))
    rules = [d.rule_id for d in validate_structure(model)]
    assert rules[0] == "R1"
    assert set(rules[1:]) == {"R2", "R3"}


def test_validation_is_pure_and_deterministic():
    model = tiny_model(goals=(Goal("g", "G", ("s",)), Goal("h", "H")))
    first = validate_structure(model)
    second = validate_structure(model)
    assert first == second
    assert model == tiny_model(goals=(Goal("g", "G", ("s",)), Goal("h", "H")))


def test_lint_locality_on_extension():
    """Adding new, validly linked elements never implicates old ones."""
    base = tiny_model()
    extended = Model(
        base.system_name,
        base.stakeholders,
        base.goals + (Goal("g2", "G2", ("s",)),),
        base.subgoals + (SubGoal("sg2", "SG2", ("g2",)),),
        base.nfrs,
    )
    assert validate_structure(base) == []
    subjects = {d.subject_id for d in validate_structure(extended)}
    assert subjects <= {"g2", "sg2"}


def _rename(model, fn):
    return Model(
        model.system_name,
        tuple(Stakeholder(fn(s.id), s.name) for s in model.stakeholders),
        tuple(Goal(fn(g.id), g.name, tuple(fn(o) for o in g.owners))
              for g in model.goals),
        tuple(SubGoal(fn(s.id), s.name, tuple(fn(p) for p in s.parents))
              for s in model.subgoals),
        tuple(Nfr(fn(n.id), n.name,
                  tuple(fn(t) for t in n.attached_subgoals),
                  tuple(fn(t) for t in n.attached_goals), n.checklist)
              for n in model.nfrs),
        tuple(UnresolvedCheck(fn(c.nfr_id), c.index, c.answer)
              for c in model.unresolved_checks),
    )


def test_diagnostics_commute_with_id_renaming():
    random_state = random.Random(11)
    dirty = [
        tiny_model(goals=(Goal("g", "G", ("s",)), Goal("h", "H"))),
        tiny_model(nfrs=(Nfr("n", "N", (), ("ghost",)),)),
        tiny_model(stakeholders=(Stakeholder("s", "A"),
                                 Stakeholder("s", "B"))),
    ]
    for model in dirty + [random_model(random_state) for _ in range(20)]:
        renamed = _rename(model, lambda ident: "x_" + ident)
        before = [(d.rule_id, d.severity, d.subject_id)
                  for d in validate_structure(model)]
        after = [(d.rule_id, d.severity, d.subject_id)
                 for d in validate_structure(renamed)]
        assert after == [(rule, sev, "x_" + subj if subj else subj)
                         for rule, sev, subj in before]


@given(st.text(max_size=30), st.text(max_size=30))
def test_diagnostics_ignore_display_names(goal_name, nfr_name):
    base = tiny_model(goals=(Goal("g", "G", ("s",)), Goal("h", "H")))
    variant = tiny_model(
        goals=(Goal("g", goal_name, ("s",)), Goal("h", "H")),
        nfrs=(Nfr("n", nfr_name, (), ("g",)),),
    )
    assert validate_structure(variant) == validate_structure(base)


# -------------------------------------------------------------- checklist


def test_checklist_defaults_unanswered():
    record = ChecklistRecord()
    assert record.yes_count == 0
    assert record.answered_count == 0
    assert record.metric == 0
    mixed = ChecklistRecord(("yes",) + ("unanswered",) * 6 + ("no",))
    assert (mixed.yes_count, mixed.answered_count) == (1, 2)
    assert mixed.metric == Fraction(1, 8)


def test_checklist_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ChecklistRecord(("yes",) * 7)
    with pytest.raises(ValueError):
        ChecklistRecord(("maybe",) + ("yes",) * 7)


def test_equality_ignores_source_provenance():
    assert Stakeholder("s", "S", line=3) == Stakeholder("s", "S", line=99)
    assert tiny_model() == Model(
        "Tiny",
        (Stakeholder("s", "S", line=2),),
        (Goal("g", "G", ("s",), line=3),),
        (SubGoal("sg", "SG", ("g",), line=4),),
        (Nfr("n", "N", (), ("g",), line=5),),
    )


# -------------------------------------------------------- record contract


# The records whose last field, ``line``, is provenance.
WITH_LINE = {Stakeholder, Goal, SubGoal, Nfr, UnresolvedCheck}


def record_samples():
    """One record of every record class, every field set."""
    checklist = ChecklistRecord(("yes",) * 7 + ("no",))
    bundle = build_bundle(tiny_model(), ThresholdMode.top_k(1))
    return [
        Stakeholder("s", "S", line=2), Goal("g", "G", ("s",), line=3),
        SubGoal("sg", "SG", ("g",), line=4), checklist,
        Nfr("n", "N", ("sg",), ("g",), checklist, line=5),
        UnresolvedCheck("x", 2, "no", line=9), tiny_model(),
        Diagnostic("R4", "warning", "m", "sg", 4),
        ParseError("malformed-line", 2, 5, "m"), bundle.completeness,
        bundle.matrix, bundle.criticality.threshold_mode, bundle.criticality,
        bundle,
    ]


RECORDS = pytest.mark.parametrize("rec", record_samples(),
                                  ids=lambda rec: type(rec).__name__)


def test_every_record_class_has_a_sample():
    classes = {cls for module in (model, dsl, analysis, report)
               for name, cls in vars(module).items()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and cls.__module__ == module.__name__
               and not name.startswith("_")}
    assert len(classes) == 14
    assert {type(rec) for rec in record_samples()} == classes


@RECORDS
def test_records_compare_every_field_but_line(rec):
    for field in rec._fields:
        # Never equal to what the field held, and still a valid record.
        other = ("no",) * 8 if field == "answers" else object()
        changed = rec._replace(**{field: other})
        if field == "line" and type(rec) in WITH_LINE:
            assert changed == rec and not changed != rec
            assert hash(changed) == hash(rec)
        else:
            assert changed != rec and not changed == rec, field
            assert hash(changed) != hash(rec), field


@RECORDS
def test_records_equal_no_plain_tuple_or_other_class(rec):
    twin = record(" ".join(rec._fields), line=type(rec) in WITH_LINE)
    for other in (tuple(rec), twin._make(rec)):
        assert tuple(other) == tuple(rec)
        assert not rec == other and not other == rec
        assert rec != other and other != rec


@RECORDS
def test_records_have_no_order(rec):
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(rec, rec)


@RECORDS
def test_records_are_immutable_and_have_no_dict(rec):
    for name in (*rec._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert not hasattr(rec, "__dict__")
    assert all("__slots__" in vars(cls) for cls in type(rec).__mro__[:-2])


def test_records_iterate_and_repr_every_field():
    goal = Goal("g", "G", ("s",), line=3)
    assert (len(goal), tuple(goal)) == (4, ("g", "G", ("s",), 3))
    assert repr(goal) == "Goal(id='g', name='G', owners=('s',), line=3)"
    assert repr(ThresholdMode.top_k(2)) \
        == "ThresholdMode(kind='top_k', parameter=2)"


def test_checklist_checks_its_changed_copies():
    empty = ChecklistRecord()
    for bad in (("maybe",) * 8, ("yes",) * 7):
        with pytest.raises(ValueError):
            empty._replace(answers=bad)
        with pytest.raises(ValueError):
            ChecklistRecord._make([bad])
    assert empty._replace(answers=("yes",) * 8).yes_count == 8


# ----------------------------------------------------------- tuple fields


def assert_tuples_all_the_way_down(model):
    """Every layer and edge field is a tuple, so the model hashes."""
    layers = (model.stakeholders, model.goals, model.subgoals, model.nfrs,
              model.unresolved_checks)
    assert all(type(layer) is tuple for layer in layers)
    edges = [goal.owners for goal in model.goals]
    edges += [subgoal.parents for subgoal in model.subgoals]
    for nfr in model.nfrs:
        edges += [nfr.attached_goals, nfr.attached_subgoals,
                  nfr.checklist.answers]
    assert all(type(edge) is tuple for edge in edges)
    hash(model)


def test_parsed_models_hold_tuples_and_hash(library_model, atm_model):
    assert_tuples_all_the_way_down(library_model)
    assert_tuples_all_the_way_down(atm_model)
    rng = random.Random(6)
    for _ in range(200):
        model = parse(serialize(random_model(rng, for_serialization=True)))
        assert_tuples_all_the_way_down(model)
