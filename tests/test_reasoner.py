"""Forward chaining: fixpoint correctness, ordering, consistency checking."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import ruleweave

from ruleweave import reasoner
from ruleweave.ontology import (
    ABox,
    ClassAtom,
    Inferred,
    Iri,
    PropertyAtom,
    SwrlRule,
    TBox,
    Variable,
)
from ruleweave.reasoner import (
    check_consistency,
    classify,
    forward_chain,
    subclass_closure,
)

from ruleweave.pipeline import snapshot_abox

from .oracles import assert_engine_matches_oracle, oracle_closure, random_instance, run_equivalence_batch

S = Iri("h", "Statement")
OOC = Iri("h", "OutOfCourtStatement")
HEARSAY = Iri("h", "Hearsay")
LEGAL_ISSUE = Iri("h", "LegalIssue")
ASSERTION = Iri("h", "Assertion")
HAS_ASSERTION = Iri("h", "hasAssertion")
INTRODUCED_FOR = Iri("h", "introducedForLegalIssue")
PROVES_TRUTH = Iri("h", "provesTruthOfAssertion")

S1, A1, L1 = Iri("i", "s1"), Iri("i", "a1"), Iri("i", "l1")


def hearsay_tbox() -> TBox:
    tbox = TBox({"h": "http://example.org/hearsay#", "i": "http://example.org/i#"})
    for cls in (S, OOC, HEARSAY, LEGAL_ISSUE, ASSERTION):
        tbox.declare_class(cls)
    tbox.add_subclass(HEARSAY, S)
    for prop in (HAS_ASSERTION, INTRODUCED_FOR, PROVES_TRUTH):
        tbox.declare_property(prop)
    s, a, l = Variable("s"), Variable("a"), Variable("l")
    tbox.add_rule(
        SwrlRule(
            "hearsay_801",
            (
                ClassAtom(S, s),
                ClassAtom(OOC, s),
                PropertyAtom(HAS_ASSERTION, s, a),
                PropertyAtom(INTRODUCED_FOR, s, l),
                PropertyAtom(PROVES_TRUTH, s, l),
            ),
            ClassAtom(HEARSAY, s),
        )
    )
    return tbox


def full_hearsay_abox(tbox: TBox) -> ABox:
    abox = ABox(tbox)
    abox.assert_class(S1, S, "witness recounted a remark")
    abox.assert_class(S1, OOC, "made outside the courtroom")
    abox.assert_property(S1, HAS_ASSERTION, A1, "the package came Monday")
    abox.assert_property(S1, INTRODUCED_FOR, L1, "delivery date is disputed")
    abox.assert_property(S1, PROVES_TRUTH, L1, "offered to prove the date")
    return abox


# -- subclass closure ---------------------------------------------------------


def test_closure_single_axiom():
    tbox = hearsay_tbox()
    closure = subclass_closure(tbox)
    assert closure[HEARSAY] == {HEARSAY, S}


def test_closure_reflexive_on_empty_tbox():
    tbox = TBox()
    for cls in (S, OOC):
        tbox.declare_class(cls)
    closure = subclass_closure(tbox)
    assert closure == {S: {S}, OOC: {OOC}}


def test_closure_chain_transitive():
    tbox = TBox()
    a, b, c = Iri("t", "A"), Iri("t", "B"), Iri("t", "C")
    for cls in (a, b, c):
        tbox.declare_class(cls)
    tbox.add_subclass(a, b)
    tbox.add_subclass(b, c)
    assert subclass_closure(tbox)[a] == {a, b, c}


def test_closure_matches_oracle_on_random_dags():
    rng = random.Random(42)
    for _ in range(100):
        tbox = TBox()
        classes = [Iri("t", f"C{k}") for k in range(rng.randint(1, 6))]
        for cls in classes:
            tbox.declare_class(cls)
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if rng.random() < 0.3:
                    tbox.add_subclass(classes[i], classes[j])
        assert subclass_closure(tbox) == oracle_closure(tbox)


# -- forward chaining on the five-atom rule ------------------------------------


def test_full_antecedent_infers_hearsay():
    tbox = hearsay_tbox()
    result = forward_chain(tbox, full_hearsay_abox(tbox))
    assert (S1, HEARSAY) in result.abox.class_assertions
    assert result.abox.class_assertions[(S1, HEARSAY)] == Inferred("hearsay_801")
    assert result.consistent
    assert result.fired == [("hearsay_801", {"s": S1, "a": A1, "l": L1})]


def test_missing_one_fact_blocks_inference():
    tbox = hearsay_tbox()
    abox = ABox(tbox)
    abox.assert_class(S1, S, "j")
    abox.assert_class(S1, OOC, "j")
    abox.assert_property(S1, HAS_ASSERTION, A1, "j")
    abox.assert_property(S1, INTRODUCED_FOR, L1, "j")
    # provesTruthOfAssertion deliberately absent
    result = forward_chain(tbox, abox)
    assert (S1, HEARSAY) not in result.abox.class_assertions
    assert result.consistent
    assert result.fired == []


def test_empty_abox_vacuous_fixpoint():
    tbox = hearsay_tbox()
    result = forward_chain(tbox, ABox(tbox))
    assert result.fired == []
    assert result.abox.class_assertions == {}
    assert result.consistent


def test_input_abox_is_not_mutated():
    tbox = hearsay_tbox()
    abox = full_hearsay_abox(tbox)
    before = abox.copy()
    forward_chain(tbox, abox)
    assert abox == before


def test_chained_rules_need_two_rounds():
    tbox = TBox()
    a, b, c = Iri("t", "A"), Iri("t", "B"), Iri("t", "C")
    for cls in (a, b, c):
        tbox.declare_class(cls)
    x = Variable("x")
    tbox.add_rule(SwrlRule("ab", (ClassAtom(a, x),), ClassAtom(b, x)))
    tbox.add_rule(SwrlRule("bc", (ClassAtom(b, x),), ClassAtom(c, x)))
    abox = ABox(tbox)
    ind = Iri("i", "k")
    abox.assert_class(ind, a, "seed")
    result = forward_chain(tbox, abox)
    assert (ind, b) in result.abox.class_assertions
    assert (ind, c) in result.abox.class_assertions
    assert result.fired == [("ab", {"x": ind}), ("bc", {"x": ind})]


def test_property_consequent_is_supported():
    tbox = TBox()
    a = Iri("t", "A")
    tbox.declare_class(a)
    p, q = Iri("t", "p"), Iri("t", "q")
    tbox.declare_property(p)
    tbox.declare_property(q)
    x, y = Variable("x"), Variable("y")
    tbox.add_rule(
        SwrlRule("pq", (ClassAtom(a, x), PropertyAtom(p, x, y)), PropertyAtom(q, x, y))
    )
    abox = ABox(tbox)
    i1, i2 = Iri("i", "m"), Iri("i", "n")
    abox.assert_class(i1, a, "j")
    abox.assert_property(i1, p, i2, "j")
    result = forward_chain(tbox, abox)
    assert (i1, q, i2) in result.abox.property_assertions
    assert result.abox.property_assertions[(i1, q, i2)] == Inferred("pq")


def test_class_atom_matches_through_subclass_closure():
    tbox = hearsay_tbox()
    marked = Iri("h", "Marked")
    tbox.declare_class(marked)
    tbox.add_rule(
        SwrlRule("mark", (ClassAtom(S, Variable("s")),), ClassAtom(marked, Variable("s")))
    )
    abox = ABox(tbox)
    abox.assert_class(S1, HEARSAY, "only the subclass is recorded")
    result = forward_chain(tbox, abox)
    assert (S1, marked) in result.abox.class_assertions


def test_absent_fact_never_matches():
    # Open-world: no rule can react to a *missing* assertion, so an instance
    # with no facts at all derives nothing even when rules exist.
    tbox = hearsay_tbox()
    abox = ABox(tbox)
    abox.assert_class(S1, OOC, "only one fact")
    result = forward_chain(tbox, abox)
    assert set(result.abox.class_assertions) == {(S1, OOC)}


def test_determinism_two_runs_identical():
    tbox = hearsay_tbox()
    first = forward_chain(tbox, full_hearsay_abox(tbox))
    second = forward_chain(tbox, full_hearsay_abox(tbox))
    assert first.fired == second.fired
    assert first.abox == second.abox
    assert first.violations == second.violations


def test_fact_insertion_order_does_not_change_the_result():
    rng = random.Random(23)
    for _ in range(200):
        tbox, abox = random_instance(rng)
        shuffled = ABox(tbox)
        classes = list(abox.class_assertions.items())
        properties = list(abox.property_assertions.items())
        rng.shuffle(classes)
        rng.shuffle(properties)
        for (individual, cls), origin in classes:
            shuffled._insert_class(individual, cls, origin)
        for (subject, prop, obj), origin in properties:
            shuffled._insert_property(subject, prop, obj, origin)
        first, second = forward_chain(tbox, abox), forward_chain(tbox, shuffled)
        assert [(name, list(b.items())) for name, b in first.fired] == [
            (name, list(b.items())) for name, b in second.fired
        ]
        assert first.violations == second.violations
        assert snapshot_abox(first.abox) == snapshot_abox(second.abox)


def chain_instance(edges: int) -> tuple[TBox, ABox]:
    """A transitive chain n0 -> ... -> n<edges>: `edge` links, `reach` its
    closure, and a rule that makes the start node an End too, so the
    disjoint Start/End pair yields a violation."""
    tbox = TBox({"c": "http://example.org/chain#", "i": "http://example.org/i#"})
    node, start, end = Iri("c", "Node"), Iri("c", "Start"), Iri("c", "End")
    for cls in (node, start, end):
        tbox.declare_class(cls)
    tbox.add_subclass(start, node)
    tbox.add_subclass(end, node)
    tbox.add_disjoint(start, end)
    edge, reach = Iri("c", "edge"), Iri("c", "reach")
    tbox.declare_property(edge, node, node)
    tbox.declare_property(reach)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    tbox.add_rule(SwrlRule("edge_reach", (PropertyAtom(edge, x, y),), PropertyAtom(reach, x, y)))
    tbox.add_rule(
        SwrlRule(
            "reach_step",
            (PropertyAtom(reach, x, y), PropertyAtom(edge, y, z)),
            PropertyAtom(reach, x, z),
        )
    )
    tbox.add_rule(
        SwrlRule(
            "reaches_end",
            (ClassAtom(start, x), PropertyAtom(reach, x, y), ClassAtom(end, y)),
            ClassAtom(end, x),
        )
    )
    abox = ABox(tbox)
    nodes = [Iri("i", f"n{k}") for k in range(edges + 1)]
    abox.assert_class(nodes[0], start, "chain start")
    abox.assert_class(nodes[-1], end, "chain end")
    for k in range(1, edges):
        abox.assert_class(nodes[k], node, "chain node")
    for a, b in zip(nodes, nodes[1:]):
        abox.assert_property(a, edge, b, "chain link")
    return tbox, abox


# SHA-256 over `fired` (binding key order included), `violations` and
# `snapshot_abox` of 500 random instances plus a 30-edge chain. It pins the
# chainer's observable output byte for byte across any change to how
# matches are enumerated or indexed.
FIRED_DIGEST = "a4a5aa53a53cbefe31361c5d0cf21ae45162da5d1510af41f37c748b31d53d0d"


def test_fired_order_matches_the_pinned_digest():
    digest = hashlib.sha256()
    rng = random.Random(4242)
    cases = [random_instance(rng) for _ in range(500)] + [chain_instance(30)]
    for tbox, abox in cases:
        result = forward_chain(tbox, abox)
        record = {
            "fired": [[name, [[k, str(v)] for k, v in b.items()]] for name, b in result.fired],
            "violations": [[str(term) for term in v] for v in result.violations],
            "snapshot": snapshot_abox(result.abox),
        }
        digest.update(json.dumps(record).encode("utf-8"))
    assert digest.hexdigest() == FIRED_DIGEST


def test_fired_digest_does_not_depend_on_the_hash_seed():
    # The fact index's sets iterate in an order that follows the names'
    # string hashes, which PYTHONHASHSEED changes; the sort of complete
    # matches alone must fix `fired`.
    script = (
        "from tests.test_reasoner import test_fired_order_matches_the_pinned_digest\n"
        "test_fired_order_matches_the_pinned_digest()\n"
    )
    source_root = os.path.dirname(os.path.dirname(ruleweave.__file__))
    tests_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([source_root, tests_root])
    for seed in ("1", "777"):
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            check=True,
        )


def test_every_inferred_fact_names_a_fired_rule():
    rng = random.Random(7)
    for _ in range(50):
        tbox, abox = random_instance(rng)
        result = forward_chain(tbox, abox)
        fired_names = {name for name, _ in result.fired}
        for key, origin in result.abox.class_assertions.items():
            if isinstance(origin, Inferred):
                assert origin.rule_name in fired_names
        for key, origin in result.abox.property_assertions.items():
            if isinstance(origin, Inferred):
                assert origin.rule_name in fired_names


def test_monotone_adding_facts_never_removes_inferences():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        tbox, abox = random_instance(rng)
        if not tbox.classes:
            continue
        base = forward_chain(tbox, abox)
        extended = abox.copy()
        cls = sorted(tbox.classes)[0]
        extra = Iri("i", "extra")
        extended.assert_class(extra, cls, "added fact")
        grown = forward_chain(tbox, extended)
        assert set(base.abox.class_assertions) <= set(grown.abox.class_assertions)
        assert set(base.abox.property_assertions) <= set(grown.abox.property_assertions)
        checked += 1


def test_engine_equals_naive_oracle_on_random_instances():
    run_equivalence_batch(seed=99, cases=150)


# -- pivot shapes in later rounds -----------------------------------------------

T_C, T_D, T_E = Iri("t", "C"), Iri("t", "D"), Iri("t", "E")
T_P, T_Q = Iri("t", "p"), Iri("t", "q")
IA, IB, IC = Iri("i", "a"), Iri("i", "b"), Iri("i", "c")
X, Y = Variable("x"), Variable("y")


@pytest.mark.parametrize(
    "antecedent, consequent, facts, fired",
    [
        # a constant object: the pivot q(?x, i:b) filters the delta by object
        (
            (PropertyAtom(T_Q, X, IB), ClassAtom(T_E, X)),
            ClassAtom(T_C, X),
            [(IA, IB), (IC, IB), (IA, IC)],
            [{"x": IA}],
        ),
        # a constant subject
        ((PropertyAtom(T_Q, IA, Y),), ClassAtom(T_C, Y), [(IA, IB), (IA, IC), (IB, IC)], [{"y": IB}, {"y": IC}]),
        # the same variable on both ends
        ((PropertyAtom(T_Q, X, X),), ClassAtom(T_C, X), [(IA, IA), (IA, IB), (IC, IC)], [{"x": IA}, {"x": IC}]),
        # a class atom with a constant, whose fact `mark` derives in round 1
        (
            (ClassAtom(T_D, IA), PropertyAtom(T_P, X, Y)),
            PropertyAtom(T_Q, Y, X),
            [(IA, IB), (IB, IC)],
            [{"x": IA, "y": IB}, {"x": IB, "y": IC}],
        ),
    ],
    ids=["constant-object", "constant-subject", "same-variable", "class-constant"],
)
def test_later_round_pivot_shapes_fire_and_match_the_oracle(antecedent, consequent, facts, fired):
    # `copy` derives every q fact and `mark` every D fact in round 1, so the
    # rule under test can match only from round 2, through a pivot on q or D
    # that reads that round's delta.
    tbox = TBox({"t": "http://example.org/t#", "i": "http://example.org/i#"})
    for cls in (T_C, T_D, T_E):
        tbox.declare_class(cls)
    for prop in (T_P, T_Q):
        tbox.declare_property(prop)
    tbox.add_rule(SwrlRule("copy", (PropertyAtom(T_P, X, Y),), PropertyAtom(T_Q, X, Y)))
    tbox.add_rule(SwrlRule("mark", (ClassAtom(T_E, X),), ClassAtom(T_D, X)))
    tbox.add_rule(SwrlRule("shape", antecedent, consequent))
    abox = ABox(tbox)
    abox.assert_class(IA, T_E, "seed")
    for subject, obj in facts:
        abox.assert_property(subject, T_P, obj, "seed")
    result = forward_chain(tbox, abox)
    names = [name for name, _ in result.fired]
    assert names == sorted(names, key=lambda name: name == "shape")  # later rounds only
    assert [list(b.items()) for name, b in result.fired if name == "shape"] == [list(b.items()) for b in fired]
    assert_engine_matches_oracle(tbox, abox)


def test_bindings_of_every_arity_keep_their_key_order():
    # A ground rule (no variables), rules of 4 and 5 variables along a p-chain
    # a -> b -> c -> d -> e, and one whose match only its second pivot finds:
    # D(b) is derived in round 1, so round 2 reads it from the D delta.
    tbox = TBox({"t": "http://example.org/t#", "i": "http://example.org/i#"})
    t_r = Iri("t", "r")
    for cls in (T_C, T_D, T_E):
        tbox.declare_class(cls)
    for prop in (T_P, T_Q, t_r):
        tbox.declare_property(prop)
    z, w = Variable("z"), Variable("w")
    v, k, s, e, b = (Variable(name) for name in ("v", "k", "s", "e", "b"))
    tbox.add_rule(SwrlRule("ground", (ClassAtom(T_E, IA),), ClassAtom(T_D, IB)))
    tbox.add_rule(SwrlRule(
        "four", (PropertyAtom(T_P, X, Y), PropertyAtom(T_P, Y, z), PropertyAtom(T_P, z, w)), PropertyAtom(T_Q, X, w)
    ))
    tbox.add_rule(SwrlRule(
        "five",
        (PropertyAtom(T_P, v, k), PropertyAtom(T_P, k, s), PropertyAtom(T_P, s, e), PropertyAtom(T_P, e, b)),
        PropertyAtom(t_r, v, b),
    ))
    tbox.add_rule(SwrlRule("second", (PropertyAtom(T_P, X, Y), ClassAtom(T_D, Y)), ClassAtom(T_C, X)))
    i_d, i_e = Iri("i", "d"), Iri("i", "e")
    abox = ABox(tbox)
    abox.assert_class(IA, T_E, "seed")
    for subject, obj in ((IA, IB), (IB, IC), (IC, i_d), (i_d, i_e)):
        abox.assert_property(subject, T_P, obj, "seed")
    result = forward_chain(tbox, abox)
    assert [(name, list(binding.items())) for name, binding in result.fired] == [
        ("ground", []),
        ("four", [("x", IA), ("y", IB), ("z", IC), ("w", i_d)]),
        ("four", [("x", IB), ("y", IC), ("z", i_d), ("w", i_e)]),
        ("five", [("v", IA), ("k", IB), ("s", IC), ("e", i_d), ("b", i_e)]),
        ("second", [("y", IB), ("x", IA)]),
    ]
    assert_engine_matches_oracle(tbox, abox)


def test_a_tbox_compiles_its_rules_once_until_a_rule_is_added(monkeypatch):
    # More rules than the 256 a process-wide memo of compiled rules once held.
    tbox = TBox({"t": "http://example.org/t#"})
    chain = [Iri("t", f"C{index}") for index in range(262)]
    for cls in chain:
        tbox.declare_class(cls)
    for index in range(260):
        tbox.add_rule(SwrlRule(f"r{index}", (ClassAtom(chain[index], X),), ClassAtom(chain[index + 1], X)))
    abox = ABox(tbox)
    abox.assert_class(IA, chain[0], "seed")
    compiled = []
    compile_rule = reasoner._compile
    monkeypatch.setattr(reasoner, "_compile", lambda rule: compiled.append(rule) or compile_rule(rule))
    first = forward_chain(tbox, abox)
    assert len(compiled) == 260
    second = forward_chain(tbox, abox)
    assert len(compiled) == 260  # the second call compiles nothing
    assert second.abox == first.abox and second.fired == first.fired
    assert_engine_matches_oracle(tbox, abox)
    tbox.add_rule(SwrlRule("r260", (ClassAtom(chain[260], X),), ClassAtom(chain[261], X)))
    assert (IA, chain[261]) in forward_chain(tbox, abox).abox.class_assertions
    assert len(compiled) == 521


# -- consistency ---------------------------------------------------------------


def eligibility_tbox() -> TBox:
    tbox = TBox({"e": "http://example.org/elig#"})
    es, ent, con = Iri("e", "EligibilityStatement"), Iri("e", "Entailment"), Iri("e", "Contradiction")
    for cls in (es, ent, con):
        tbox.declare_class(cls)
    tbox.add_subclass(ent, es)
    tbox.add_subclass(con, es)
    tbox.add_disjoint(ent, con)
    return tbox


def test_disjoint_membership_is_one_violation():
    tbox = eligibility_tbox()
    ent, con = Iri("e", "Entailment"), Iri("e", "Contradiction")
    abox = ABox(tbox)
    x = Iri("i", "x")
    abox.assert_class(x, ent, "follows")
    abox.assert_class(x, con, "conflicts")
    violations = check_consistency(tbox, abox)
    assert violations == [(x, con, ent)] or violations == [(x, ent, con)]
    result = forward_chain(tbox, abox)
    assert not result.consistent
    assert result.violations == violations


def test_no_disjoint_axioms_means_always_consistent():
    tbox = hearsay_tbox()
    assert check_consistency(tbox, full_hearsay_abox(tbox)) == []


def test_disjointness_is_per_individual():
    tbox = TBox()
    method, task = Iri("m", "Method"), Iri("m", "ScientificTask")
    tbox.declare_class(method)
    tbox.declare_class(task)
    tbox.add_disjoint(method, task)
    abox = ABox(tbox)
    abox.assert_class(Iri("i", "m1"), method, "a method")
    abox.assert_class(Iri("i", "t1"), task, "a task")
    assert check_consistency(tbox, abox) == []


def test_violation_found_through_closure():
    tbox = eligibility_tbox()
    sub = Iri("e", "StrongEntailment")
    tbox.declare_class(sub)
    tbox.add_subclass(sub, Iri("e", "Entailment"))
    abox = ABox(tbox)
    x = Iri("i", "x")
    abox.assert_class(x, sub, "via subclass")
    abox.assert_class(x, Iri("e", "Contradiction"), "direct")
    assert len(check_consistency(tbox, abox)) == 1


def test_inconsistency_does_not_halt_chaining():
    tbox = eligibility_tbox()
    flagged = Iri("e", "Flagged")
    tbox.declare_class(flagged)
    x_var = Variable("x")
    tbox.add_rule(
        SwrlRule("flag", (ClassAtom(Iri("e", "Entailment"), x_var),), ClassAtom(flagged, x_var))
    )
    abox = ABox(tbox)
    x = Iri("i", "x")
    abox.assert_class(x, Iri("e", "Entailment"), "j")
    abox.assert_class(x, Iri("e", "Contradiction"), "j")
    result = forward_chain(tbox, abox)
    assert not result.consistent
    assert (x, flagged) in result.abox.class_assertions


# -- classify -------------------------------------------------------------------


def test_classify_after_full_chain():
    tbox = hearsay_tbox()
    result = forward_chain(tbox, full_hearsay_abox(tbox))
    assert classify(result, S1, HEARSAY) is True


def test_classify_uses_closure():
    tbox = hearsay_tbox()
    abox = ABox(tbox)
    abox.assert_class(S1, HEARSAY, "direct hearsay")
    result = forward_chain(tbox, abox)
    assert classify(result, S1, S) is True


def test_classify_unknown_individual_warns_and_returns_false(caplog):
    tbox = hearsay_tbox()
    result = forward_chain(tbox, ABox(tbox))
    with caplog.at_level("WARNING", logger="ruleweave.reasoner"):
        assert classify(result, Iri("i", "ghost"), HEARSAY) is False
    assert any("ghost" in message for message in caplog.messages)
