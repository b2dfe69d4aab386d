"""TBox/ABox model: declarations, axioms, assertions, validation."""

from __future__ import annotations

import copy
import gc
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleweave.errors import (
    DisjointnessError,
    DomainRangeError,
    IriError,
    OntologyError,
    SubclassCycleError,
    UndeclaredError,
    UnsafeRuleError,
)
from ruleweave.ontology import (
    ABox,
    Asserted,
    ClassAtom,
    Inferred,
    Iri,
    PropertyAtom,
    SwrlRule,
    TBox,
    Variable,
    truncate_justification,
)
from ruleweave.pipeline import restore_abox, snapshot_abox

from .oracles import random_instance

H_STATEMENT = Iri("h", "Statement")
H_HEARSAY = Iri("h", "Hearsay")
H_OOC = Iri("h", "OutOfCourtStatement")


def make_tbox() -> TBox:
    tbox = TBox({"h": "http://example.org/hearsay#"})
    for cls in (H_STATEMENT, H_HEARSAY, H_OOC):
        tbox.declare_class(cls)
    return tbox


# -- Iri and Variable ---------------------------------------------------------


def test_iri_parse_round_trip():
    iri = Iri.parse("h:Statement")
    assert iri == H_STATEMENT
    assert str(iri) == "h:Statement"


@pytest.mark.parametrize(
    "text", ["h:", ":Statement", "noseparator", "h:9bad", "h:has space", "9h:x"]
)
def test_iri_rejects_malformed(text):
    with pytest.raises(IriError):
        Iri.parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a:b:c", "bad local name in 'a':'b:c'"),
        (":x", "bad prefix in '':'x'"),
        ("x:", "bad local name in 'x':''"),
        ("x", "expected prefix:Local, got 'x'"),
    ],
)
def test_iri_parse_error_names_the_bad_part(text, message):
    with pytest.raises(IriError) as raised:
        Iri.parse(text)
    assert str(raised.value) == message


def test_iri_equality_is_case_sensitive():
    assert Iri("h", "statement") != Iri("h", "Statement")


def test_iri_hash_is_the_string_hash_and_is_cached():
    iri = Iri("h", "Statement")
    assert type(iri) is str and iri == "h:Statement"
    assert hash(iri) == hash("h:Statement")
    assert hash(iri) == hash(Iri.parse("h:Statement"))
    assert iri.partition(":") == ("h", ":", "Statement")
    with pytest.raises(IriError, match="bad local name"):
        Iri("h", "9bad")
    with pytest.raises(IriError, match="bad prefix"):
        Iri.parse("9h:Statement")


def test_iri_equality_ordering_and_repr_ignore_the_cached_hash():
    hashed, fresh = Iri("h", "b"), Iri("h", "b")
    hash(hashed)
    assert hashed == fresh and not hashed != fresh
    assert Iri("h", "a") < hashed < Iri("h", "c") < Iri("i", "a")
    assert sorted([Iri("i", "a"), hashed, Iri("h", "a")]) == [Iri("h", "a"), fresh, Iri("i", "a")]
    assert repr(hashed) == repr(fresh) == "'h:b'"
    assert len({hashed, fresh}) == 1


def test_a_name_is_an_exact_interned_str():
    iri = Iri("h", "x")
    assert type(iri) is str and iri is Iri.parse("h:x")
    assert Iri.parse("".join(["h:", "x"])) is iri
    assert not isinstance(iri, Iri)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(iri, protocol)) == iri
    assert copy.copy(iri) is iri and copy.deepcopy(iri) is iri


def test_names_and_tuples_of_names_are_not_tracked_by_the_collector():
    a, b = Iri("h", "x"), Iri.parse("i:y")
    assert not gc.is_tracked(a) and not gc.is_tracked(b)
    row = tuple([a, b])
    assert gc.is_tracked(row)  # a new tuple starts tracked
    gc.collect()
    assert not gc.is_tracked(row)


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)


@st.composite
def _prefix_pairs(draw):
    """Two prefixes; half the time the second extends the first, so the
    pairs that order differently as strings and as tuples come up."""
    first = draw(_NAMES)
    if draw(st.booleans()):
        return first, first + draw(st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True))
    return first, draw(_NAMES)


def _digit_case(p1: str, p2: str) -> bool:
    """One prefix properly extends the other with a digit next."""
    short, long = sorted((p1, p2), key=len)
    return long != short and long.startswith(short) and long[len(short)].isdigit()


@settings(derandomize=True, database=None, max_examples=200)
@given(_prefix_pairs(), _NAMES, _NAMES)
def test_iri_is_its_prefix_local_string(prefixes, l1, l2):
    p1, p2 = prefixes
    iri, parsed = Iri(p1, l1), Iri.parse(f"{p1}:{l1}")
    assert parsed is iri and type(parsed) is str
    assert iri.partition(":")[::2] == (p1, l1)
    assert json.dumps(iri) == f'"{p1}:{l1}"'
    other = Iri(p2, l2)
    if _digit_case(p1, p2):
        assert (iri < other) == ((p1, l1) > (p2, l2))
    else:
        assert (iri < other) == ((p1, l1) < (p2, l2))


def test_variable_name_validation():
    assert str(Variable("s")) == "?s"
    with pytest.raises(UnsafeRuleError):
        Variable("S")
    with pytest.raises(UnsafeRuleError):
        Variable("")


# -- TBox declarations and axioms --------------------------------------------


def test_declare_class_smallest():
    tbox = TBox()
    tbox.declare_class(H_STATEMENT)
    assert tbox.classes == {H_STATEMENT}


def test_declare_class_idempotent():
    tbox = make_tbox()
    before = set(tbox.classes)
    tbox.declare_class(H_STATEMENT)
    assert tbox.classes == before


@pytest.mark.parametrize("bad", ["h:", "not a name", "h:x:y", 42, None, ("h", "x")])
def test_declare_refuses_anything_but_a_well_formed_name(bad):
    tbox = make_tbox()
    with pytest.raises(IriError, match="expected prefix:Local"):
        tbox.declare_class(bad)
    with pytest.raises(IriError, match="expected prefix:Local"):
        tbox.declare_property(bad)
    assert tbox.classes == {H_STATEMENT, H_HEARSAY, H_OOC} and tbox.properties == {}


def test_declare_accepts_a_well_formed_plain_string():
    tbox = TBox()
    tbox.declare_class("h:Plain")
    tbox.declare_property("h:plain", domain="h:Plain")
    assert tbox.classes == {Iri("h", "Plain")}
    assert tbox.properties[Iri("h", "plain")].domain == Iri.parse("h:Plain")


def test_subclass_accepted():
    tbox = make_tbox()
    tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    assert (H_HEARSAY, H_STATEMENT) in tbox.subclass_axioms
    assert tbox.closure[H_HEARSAY] == {H_HEARSAY, H_STATEMENT}


def test_subclass_requires_declared_classes():
    tbox = make_tbox()
    with pytest.raises(UndeclaredError):
        tbox.add_subclass(H_HEARSAY, Iri("h", "Nope"))


def test_repeated_subclass_axiom_is_a_no_op():
    tbox = make_tbox()
    tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    axioms, closure = list(tbox.subclass_axioms), tbox.closure
    tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    assert tbox.subclass_axioms == axioms == [(H_HEARSAY, H_STATEMENT)]
    assert tbox.closure is closure


def test_subclass_rejects_self_loop():
    tbox = make_tbox()
    with pytest.raises(SubclassCycleError):
        tbox.add_subclass(H_STATEMENT, H_STATEMENT)


def test_subclass_rejects_cycle():
    tbox = make_tbox()
    tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    with pytest.raises(SubclassCycleError):
        tbox.add_subclass(H_STATEMENT, H_HEARSAY)


def test_disjoint_accepted():
    tbox = make_tbox()
    tbox.add_disjoint(H_OOC, Iri("h", "Hearsay"))
    assert len(tbox.disjoint_axioms) == 1


def test_disjoint_requires_declared_classes():
    tbox = make_tbox()
    with pytest.raises(UndeclaredError, match="undeclared class h:Nope"):
        tbox.add_disjoint(H_OOC, Iri("h", "Nope"))
    assert tbox.disjoint_axioms == []


def test_disjoint_rejects_self():
    tbox = make_tbox()
    with pytest.raises(DisjointnessError):
        tbox.add_disjoint(H_OOC, H_OOC)


def test_disjoint_rejects_ancestor():
    tbox = make_tbox()
    tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    with pytest.raises(DisjointnessError):
        tbox.add_disjoint(H_HEARSAY, H_STATEMENT)
    assert tbox.disjoint_axioms == []


def test_subclass_that_contradicts_disjoint_is_rolled_back():
    tbox = make_tbox()
    tbox.add_disjoint(H_HEARSAY, H_STATEMENT)
    closure = tbox.closure
    before = tbox.closure[H_HEARSAY]
    with pytest.raises(DisjointnessError):
        tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    assert (H_HEARSAY, H_STATEMENT) not in tbox.subclass_axioms
    # The rejected axiom never reached the published map: it is not rebuilt.
    assert tbox.closure is closure
    assert tbox.closure[H_HEARSAY] == before == {H_HEARSAY}


def test_declare_property_checks_domain_declared():
    tbox = make_tbox()
    with pytest.raises(UndeclaredError):
        tbox.declare_property(Iri("h", "hasAssertion"), domain=Iri("h", "Missing"))


# -- rules --------------------------------------------------------------------


def test_rule_safety_checked_at_construction():
    with pytest.raises(UnsafeRuleError):
        SwrlRule(
            "bad",
            (ClassAtom(H_STATEMENT, Variable("s")),),
            ClassAtom(H_HEARSAY, Variable("t")),
        )


def test_rule_requires_nonempty_antecedent():
    with pytest.raises(UnsafeRuleError):
        SwrlRule("empty", (), ClassAtom(H_HEARSAY, Variable("s")))


def test_rule_requires_a_name():
    with pytest.raises(UnsafeRuleError, match="rule name must be non-empty"):
        SwrlRule("", (ClassAtom(H_STATEMENT, Variable("s")),), ClassAtom(H_HEARSAY, Variable("s")))


def test_add_rule_rejects_undeclared_class():
    tbox = make_tbox()
    rule = SwrlRule(
        "r",
        (ClassAtom(Iri("h", "Unknown"), Variable("s")),),
        ClassAtom(H_HEARSAY, Variable("s")),
    )
    with pytest.raises(UndeclaredError):
        tbox.add_rule(rule)


def test_add_rule_rejects_undeclared_property():
    tbox = make_tbox()
    rule = SwrlRule(
        "r",
        (PropertyAtom(Iri("h", "nope"), Variable("s"), Variable("o")),),
        ClassAtom(H_HEARSAY, Variable("s")),
    )
    with pytest.raises(UndeclaredError):
        tbox.add_rule(rule)


def test_rule_renders_readably():
    rule = SwrlRule(
        "r",
        (
            ClassAtom(H_STATEMENT, Variable("s")),
            PropertyAtom(Iri("h", "hasAssertion"), Variable("s"), Variable("a")),
        ),
        ClassAtom(H_HEARSAY, Variable("s")),
    )
    assert str(rule) == "h:Statement(?s) ^ h:hasAssertion(?s, ?a) -> h:Hearsay(?s)"


# -- ABox assertions ----------------------------------------------------------


def test_assert_class_records_origin():
    tbox = make_tbox()
    abox = ABox(tbox)
    s1 = Iri("inst", "s1")
    abox.assert_class(s1, H_OOC, "told his brother")
    assert abox.class_assertions[(s1, H_OOC)] == Asserted("told his brother")
    assert s1 in abox.individuals


def test_assert_class_rejects_undeclared():
    abox = ABox(make_tbox())
    with pytest.raises(UndeclaredError):
        abox.assert_class(Iri("inst", "s1"), Iri("h", "Unknown"), "x")


@pytest.mark.parametrize("bad", ["not a name", "i:", 42, None])
def test_asserting_refuses_a_malformed_name_and_changes_nothing(bad):
    tbox = make_tbox()
    knows = Iri("h", "knows")
    tbox.declare_property(knows)
    abox = ABox(tbox)
    s1 = Iri("i", "s1")
    abox.assert_class(s1, H_OOC, "j")
    abox.assert_property(s1, knows, s1, "j")
    before = abox.copy()
    calls = [
        lambda: abox.assert_class(bad, H_OOC, "j"),
        lambda: abox.assert_property(bad, knows, s1, "j"),
        lambda: abox.assert_property(s1, knows, bad, "j"),
    ]
    for call in calls:
        with pytest.raises(IriError, match="expected prefix:Local"):
            call()
    assert abox == before
    assert abox.direct_classes == before.direct_classes
    assert abox.by_subject == before.by_subject and abox.by_object == before.by_object


def test_duplicate_assertion_keeps_first():
    tbox = make_tbox()
    abox = ABox(tbox)
    s1 = Iri("inst", "s1")
    abox.assert_class(s1, H_OOC, "first")
    abox.assert_class(s1, H_OOC, "second")
    assert len(abox.class_assertions) == 1
    assert abox.class_assertions[(s1, H_OOC)].justification == "first"


def test_raw_inserts_report_a_duplicate_and_keep_the_first_origin():
    tbox = make_tbox()
    knows = Iri("h", "knows")
    tbox.declare_property(knows)
    abox = ABox(tbox)
    a, b = Iri("i", "a"), Iri("i", "b")
    first, second = Asserted("first"), Inferred("rule")
    assert abox._insert_class(a, H_OOC, first) is True
    assert abox._insert_class(a, H_OOC, second) is False
    assert abox._insert_property(a, knows, b, first) is True
    assert abox._insert_property(a, knows, b, second) is False
    assert abox.class_assertions == {(a, H_OOC): first}
    assert abox.property_assertions == {(a, knows, b): first}
    assert abox.direct_classes == {a: {H_OOC: first}}
    assert abox.by_subject == {knows: {a: {b: first}}}
    assert abox.by_object == {knows: {b: {a}}}
    assert abox.individuals == {a, b}


def test_assert_property_rejects_undeclared():
    abox = ABox(make_tbox())
    with pytest.raises(UndeclaredError):
        abox.assert_property(Iri("i", "s1"), Iri("h", "hasAssertion"), Iri("i", "a1"), "x")


def test_domain_range_validated_eagerly():
    tbox = make_tbox()
    assertion_cls = Iri("h", "Assertion")
    tbox.declare_class(assertion_cls)
    prop = Iri("h", "hasAssertion")
    tbox.declare_property(prop, domain=H_STATEMENT, range=assertion_cls)
    abox = ABox(tbox)
    s1, a1 = Iri("i", "s1"), Iri("i", "a1")

    with pytest.raises(DomainRangeError):
        abox.assert_property(s1, prop, a1, "no classes yet")

    abox.assert_class(s1, H_STATEMENT, "is a statement")
    with pytest.raises(DomainRangeError):
        abox.assert_property(s1, prop, a1, "range still missing")

    abox.assert_class(a1, assertion_cls, "is an assertion")
    abox.assert_property(s1, prop, a1, "now fine")
    assert (s1, prop, a1) in abox.property_assertions


def test_domain_satisfied_through_subclass_closure():
    tbox = make_tbox()
    tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    prop = Iri("h", "about")
    tbox.declare_property(prop, domain=H_STATEMENT)
    abox = ABox(tbox)
    s1 = Iri("i", "s1")
    abox.assert_class(s1, H_HEARSAY, "hearsay is a statement")
    abox.assert_property(s1, prop, Iri("i", "z"), "domain via closure")


def test_is_member_sees_subclass_axiom_added_after_the_fact():
    tbox = make_tbox()
    abox = ABox(tbox)
    s1 = Iri("i", "s1")
    abox.assert_class(s1, H_HEARSAY, "recorded before the axiom")
    assert not abox.is_member(s1, H_STATEMENT)
    tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    assert abox.is_member(s1, H_STATEMENT)


def test_justification_must_be_nonempty():
    with pytest.raises(OntologyError):
        Asserted("")


def test_justification_truncated_at_4k():
    long = "x" * 5000
    capped = truncate_justification(long)
    assert len(capped.encode("utf-8")) <= 4096
    assert capped.endswith("...[truncated]")
    assert truncate_justification("short") == "short"
    accented = "café, señor" * 10  # non-ASCII, 130 bytes
    assert truncate_justification(accented) is accented


def test_justification_truncation_at_the_byte_limit():
    assert truncate_justification("x" * 4096) == "x" * 4096
    assert truncate_justification("x" * 4097) == "x" * 4082 + "...[truncated]"
    # 1,100 four-byte characters are 4,400 bytes: 4,082 bytes keep 1,020 whole ones
    assert truncate_justification("\U0001F600" * 1100) == "\U0001F600" * 1020 + "...[truncated]"
    with pytest.raises(UnicodeEncodeError):
        truncate_justification("\ud800")


def test_abox_copy_is_independent():
    tbox = make_tbox()
    abox = ABox(tbox)
    abox.assert_class(Iri("i", "s1"), H_OOC, "j")
    dup = abox.copy()
    dup.assert_class(Iri("i", "s2"), H_OOC, "j2")
    assert len(abox.class_assertions) == 1
    assert len(dup.class_assertions) == 2
    assert dup.tbox is tbox
    assert abox.is_member(Iri("i", "s1"), H_OOC) and dup.is_member(Iri("i", "s1"), H_OOC)
    assert not abox.is_member(Iri("i", "s2"), H_OOC)
    assert dup.is_member(Iri("i", "s2"), H_OOC)


def test_abox_is_unequal_to_another_type_and_reprs_its_sizes():
    abox = ABox(make_tbox())
    abox.assert_class(Iri("i", "s1"), H_OOC, "j")
    assert abox.__eq__("i:s1") is NotImplemented and abox != "i:s1"
    assert repr(abox) == "ABox(individuals=1, classes=1, properties=0)"


def test_pair_maps_index_both_directions_and_copy_independently():
    tbox = make_tbox()
    knows = Iri("h", "knows")
    tbox.declare_property(knows)
    a, b, c = Iri("i", "a"), Iri("i", "b"), Iri("i", "c")
    abox = ABox(tbox)
    abox.assert_property(a, knows, b, "j")
    abox.assert_property(a, knows, c, "j")
    abox.assert_property(a, knows, b, "again")
    j = Asserted("j")
    assert abox.by_subject == {knows: {a: {b: j, c: j}}}
    assert abox.by_object == {knows: {b: {a}, c: {a}}}
    dup = abox.copy()
    dup.assert_property(c, knows, b, "j")
    assert abox.by_subject == {knows: {a: {b: j, c: j}}}
    assert abox.by_object == {knows: {b: {a}, c: {a}}}
    assert dup.by_subject == {knows: {a: {b: j, c: j}, c: {b: j}}}
    assert dup.by_object == {knows: {b: {a, c}, c: {a}}}


@pytest.mark.parametrize("seed", [5, 11, 23, 42])
def test_views_match_the_inserted_facts_and_survive_copy_and_snapshot(seed):
    rng = random.Random(seed)
    tbox, _ = random_instance(rng)
    classes, properties = sorted(tbox.classes), sorted(tbox.properties)
    people = [Iri("i", f"x{k}") for k in range(6)]
    facts = [(rng.choice(people), rng.choice(classes)) for _ in range(12)]
    facts += [(rng.choice(people), rng.choice(properties), rng.choice(people)) for _ in range(12 * bool(properties))]
    facts += facts[:1] + facts[-1:]  # each again, under a second origin
    abox, class_ref, property_ref, individual_ref = ABox(tbox), {}, {}, set()
    for index, fact in enumerate(facts):
        origin = Asserted(f"fact {index}") if index % 2 else Inferred(f"r{index}")
        is_class = len(fact) == 2
        reference = class_ref if is_class else property_ref
        new = abox._insert_class(*fact, origin) if is_class else abox._insert_property(*fact, origin)
        assert new is (fact not in reference)
        reference.setdefault(fact, origin)
        individual_ref.update(fact[::2])  # the individual, or the subject and the object
    assert abox.class_assertions == class_ref
    assert abox.property_assertions == property_ref
    assert abox.individuals == individual_ref

    dup = abox.copy()
    assert dup == abox and dup.tbox is tbox
    first, only = facts[0][0], Asserted("only in the copy")
    if properties:  # an object that is nowhere else, so only by_object holds it
        dup._insert_property(first, properties[0], Iri("i", "fresh"), only)
        assert dup != abox and dup.individuals == individual_ref | {Iri("i", "fresh")}
    tbox.declare_class(Iri("t", "Fresh"))
    dup._insert_class(first, Iri("t", "Fresh"), only)
    assert dup != abox
    assert abox.class_assertions == class_ref and abox.property_assertions == property_ref
    assert abox.individuals == individual_ref
    assert restore_abox(tbox, snapshot_abox(abox)) == abox


def test_inferred_origin_carries_rule_name():
    assert Inferred("hearsay_801").rule_name == "hearsay_801"
