"""TBox/ABox model: declarations, axioms, assertions, validation."""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ruleweave
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
    assert isinstance(iri, str) and iri == "h:Statement"
    assert hash(iri) == hash("h:Statement")
    assert hash(iri) == hash(Iri.parse("h:Statement"))
    assert (iri.prefix, iri.local) == ("h", "Statement")
    assert not hasattr(iri, "__dict__")
    with pytest.raises(AttributeError):
        iri.prefix = "i"
    with pytest.raises(AttributeError):
        iri.extra = "i"
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
    assert repr(hashed) == repr(fresh) == "Iri(prefix='h', local='b')"
    assert len({hashed, fresh}) == 1


def test_iri_pickle_and_copy_carry_no_cached_hash():
    iri = Iri("h", "Statement")
    hash(iri)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(iri, protocol)
        loaded = pickle.loads(data)
        assert type(loaded) is Iri and not hasattr(loaded, "__dict__")
        assert loaded == iri and hash(loaded) == hash(iri)
        if protocol >= 2:
            # Rebuilt through Iri.__new__, so a tampered name is refused.
            with pytest.raises(IriError):
                pickle.loads(data.replace(b"Statement", b"9tatement"))
    for dup in (copy.copy(iri), copy.deepcopy(iri)):
        assert type(dup) is Iri and dup == iri and hash(dup) == hash(iri)
        with pytest.raises(AttributeError):
            dup.local = "Hearsay"


def test_iri_pickles_at_every_protocol_check_names():
    iri = Iri("h", "Statement")
    assert not hasattr(Iri, "_make") and not hasattr(Iri, "_replace")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(iri, protocol)
        assert pickle.loads(data) == iri
        with pytest.raises(IriError, match="bad local name"):
            pickle.loads(data.replace(b"Statement", b"9tatement"))


def test_iri_unpickled_under_another_hash_seed_hashes_by_that_seed():
    iri = Iri("h", "Statement")
    script = (
        "import pickle, sys\n"
        "from ruleweave.ontology import Iri\n"
        "iri = pickle.loads(sys.stdin.buffer.read())\n"
        "assert type(iri) is Iri\n"
        "assert hash(iri) == hash('h:Statement') != int(sys.argv[1])\n"
        "assert iri in {Iri('h', 'Statement')}\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    source_root = os.path.dirname(os.path.dirname(ruleweave.__file__))
    subprocess.run(
        [sys.executable, "-c", script, str(hash(iri))],
        input=pickle.dumps(iri),
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": source_root},
        check=True,
    )


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
    assert parsed == iri and type(parsed) is Iri
    assert (iri.prefix, iri.local) == (p1, l1)
    assert json.dumps(iri) == f'"{p1}:{l1}"'
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(iri, protocol))
        assert type(loaded) is Iri and loaded == iri
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


def test_subclass_accepted():
    tbox = make_tbox()
    tbox.add_subclass(H_HEARSAY, H_STATEMENT)
    assert (H_HEARSAY, H_STATEMENT) in tbox.subclass_axioms
    assert tbox.closure[H_HEARSAY] == {H_HEARSAY, H_STATEMENT}


def test_subclass_requires_declared_classes():
    tbox = make_tbox()
    with pytest.raises(UndeclaredError):
        tbox.add_subclass(H_HEARSAY, Iri("h", "Nope"))


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
    assert abox.direct_classes == {a: {H_OOC}}
    assert abox.by_subject == {knows: {a: {b}}}
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


def test_pair_maps_index_both_directions_and_copy_independently():
    tbox = make_tbox()
    knows = Iri("h", "knows")
    tbox.declare_property(knows)
    a, b, c = Iri("i", "a"), Iri("i", "b"), Iri("i", "c")
    abox = ABox(tbox)
    abox.assert_property(a, knows, b, "j")
    abox.assert_property(a, knows, c, "j")
    abox.assert_property(a, knows, b, "again")
    assert abox.by_subject == {knows: {a: {b, c}}}
    assert abox.by_object == {knows: {b: {a}, c: {a}}}
    dup = abox.copy()
    dup.assert_property(c, knows, b, "j")
    assert abox.by_subject == {knows: {a: {b, c}}}
    assert abox.by_object == {knows: {b: {a}, c: {a}}}
    assert dup.by_subject == {knows: {a: {b, c}, c: {b}}}
    assert dup.by_object == {knows: {b: {a, c}, c: {a}}}


def test_inferred_origin_carries_rule_name():
    assert Inferred("hearsay_801").rule_name == "hearsay_801"
