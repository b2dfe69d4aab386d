"""Condition orchestration, traces, and reasoning replay."""

from __future__ import annotations

import json
import random
from collections import Counter
from types import MappingProxyType
from importlib import resources

import pytest

from ruleweave.backends import ScriptedBackend
from ruleweave.cli import main
from ruleweave.errors import ConfigError, DatasetError, DomainRangeError, IriError, UndeclaredError
from ruleweave.evaluation import builtin_dataset, run_condition
from ruleweave.ontology import ABox, Asserted, Iri, TBox
from ruleweave.pipeline import (
    Condition,
    dump_traces,
    evaluate_instance,
    load_traces,
    parse_condition,
    populate_abox,
    restore_abox,
    restore_instances,
    snapshot_abox,
)
from ruleweave.query import execute, format_tsv, parse_query
from ruleweave.extraction import (
    mint_individual,
    parse_assertion_response,
    parse_entity_response,
)
from ruleweave.reasoner import classify, forward_chain
from ruleweave.tasklib import (
    BELONGS_TO_CASE,
    BUILTIN_TASK_IDS,
    NEGATIVE_LABEL,
    POSITIVE_LABEL,
    builtin_task,
    parse_rule,
)

from .oracles import brute_force_query, random_instance, reference_restore_abox
from .test_cli import _JUNK
from .test_extraction import SAMPLE_TEXT, assertion_reply, entity_reply


@pytest.fixture(scope="module")
def hearsay():
    return builtin_task("hearsay")


@pytest.fixture(scope="module")
def eligibility():
    return builtin_task("clinical_eligibility")


def hearsay_backend(
    instance_id="t1",
    proves=True,
    out_of_court=True,
    in_court=None,
    direct_answer="Yes",
    entity_text=None,
):
    """Scripted responses for one hearsay instance, all steps."""
    plain = {
        "IsOutOfCourt": out_of_court,
        "HasAssertion": True,
        "IntroducedForLegalIssue": True,
        "ProvesTruthOfAssertion": proves,
    }
    comp = dict(plain)
    comp["IsInCourt"] = (not out_of_court) if in_court is None else in_court
    return ScriptedBackend(
        {
            (instance_id, "entity"): entity_text or entity_reply(),
            (instance_id, "assertion"): assertion_reply(plain),
            (instance_id, "assertion_comp"): assertion_reply(comp),
            (instance_id, "direct"): json.dumps({"answer": direct_answer}),
            (instance_id, "direct_comp"): json.dumps({"answer": direct_answer}),
            (instance_id, "fs"): json.dumps({"answer": direct_answer}),
            (instance_id, "cot"): json.dumps({"reasoning": "steps", "answer": direct_answer}),
        }
    )


# -- conditions -----------------------------------------------------------------


def test_condition_aliases():
    assert parse_condition("sd") is Condition.SD
    assert parse_condition("SD-C") is Condition.SD_COMP
    assert parse_condition("sd_comp") is Condition.SD_COMP
    assert parse_condition("SD-Direct-C") is Condition.SD_DIRECT_COMP
    assert parse_condition("CoT") is Condition.COT
    with pytest.raises(ConfigError, match="unknown condition"):
        parse_condition("few-shot")


def test_condition_flags():
    assert Condition.SD.uses_reasoner and Condition.SD_COMP.uses_reasoner
    assert not Condition.SD_DIRECT.uses_reasoner
    assert Condition.SD_COMP.complementary and Condition.SD_DIRECT_COMP.complementary
    assert not Condition.SD.complementary


# -- SD -------------------------------------------------------------------------


def test_run_sd_positive(hearsay):
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.SD, hearsay_backend(), exemplars=[]
    )
    assert trace.prediction == "Yes"
    assert trace.outcome == "Ok"
    assert trace.error is None
    assert trace.fired and trace.fired[0]["rule"] == "hearsay_definition"
    assert any(t["origin"] == "inferred:hearsay_definition" for t in trace.abox_snapshot)
    assert trace.entity_extraction["records"][0]["individual"] == "inst:t1_Statement"
    assert len(trace.raw_exchanges) == 2


def test_run_sd_blocked_antecedent(hearsay):
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "No", Condition.SD, hearsay_backend(proves=False), exemplars=[]
    )
    assert trace.prediction == "No"
    assert trace.outcome == "Ok"
    assert trace.fired == []


def test_run_sd_out_of_court_false(hearsay):
    trace = evaluate_instance(
        hearsay,
        "t1",
        SAMPLE_TEXT,
        "No",
        Condition.SD,
        hearsay_backend(out_of_court=False),
        exemplars=[],
    )
    assert (trace.prediction, trace.outcome) == ("No", "Ok")


def test_run_sd_complementary_contradiction_is_inconsistent(eligibility):
    backend = ScriptedBackend(
        {
            ("n1", "entity"): json.dumps(
                {
                    "entities": [
                        {
                            "name": "Statement",
                            "found": True,
                            "span": "the patient is excluded",
                            "individual": "s",
                            "explanation": "candidate statement",
                        },
                        {
                            "name": "Criteria",
                            "found": True,
                            "span": "adults with prior treatment",
                            "individual": "c",
                            "explanation": "premise",
                        },
                    ]
                }
            ),
            ("n1", "assertion_comp"): assertion_reply(
                {"FollowsFromPremise": True, "StatementConflictsWithPremise": True}
            ),
        }
    )
    trace = evaluate_instance(
        eligibility,
        "n1",
        "some premise and statement",
        "No",
        Condition.SD_COMP,
        backend,
        exemplars=[],
    )
    assert trace.outcome == "Inconsistent"
    assert trace.prediction == "No"
    assert "disjoint" in trace.error
    assert trace.abox_snapshot is not None


def test_run_sd_not_extractable(hearsay):
    backend = ScriptedBackend({("t1", "entity"): entity_reply(statement=False)})
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "No", Condition.SD, backend, exemplars=[]
    )
    assert trace.outcome == "NotExtractable"
    assert trace.prediction == "No"
    assert "Statement" in trace.error
    assert trace.assertion_extraction is None
    assert trace.abox_snapshot is None


def test_run_sd_error_outcome(hearsay):
    backend = ScriptedBackend({("t1", "entity"): "garbage with no braces"})
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.SD, backend, exemplars=[]
    )
    assert trace.outcome == "Error"
    assert trace.prediction is None
    assert len(trace.raw_exchanges) == 2


def test_run_sd_repair_recovers(hearsay):
    mapping = {
        ("t1", "entity"): "hold on",
        ("t1", "entity_repair"): entity_reply(),
        ("t1", "assertion"): assertion_reply(
            {
                "IsOutOfCourt": True,
                "HasAssertion": True,
                "IntroducedForLegalIssue": True,
                "ProvesTruthOfAssertion": True,
            }
        ),
    }
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.SD, ScriptedBackend(mapping), exemplars=[]
    )
    assert trace.outcome == "Ok"
    assert trace.prediction == "Yes"
    assert len(trace.raw_exchanges) == 3


def test_not_extractable_trace_shows_which_entity_was_missing(hearsay):
    backend = ScriptedBackend({("t1", "entity"): entity_reply(statement=False)})
    trace = evaluate_instance(hearsay, "t1", SAMPLE_TEXT, "No", Condition.SD, backend, exemplars=[])
    found = {r["name"]: r["found"] for r in trace.entity_extraction["records"]}
    assert found == {"Statement": False, "Assertion": True, "LegalIssue": True}


# -- SD-Direct ------------------------------------------------------------------


def test_sd_direct_diverges_from_reasoner_only_at_the_final_call(hearsay):
    backend = hearsay_backend(direct_answer="No")
    sd = evaluate_instance(hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.SD, backend, exemplars=[])
    direct = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.SD_DIRECT, backend, exemplars=[]
    )
    assert sd.prediction == "Yes"
    assert direct.prediction == "No"
    assert direct.entity_extraction == sd.entity_extraction
    assert direct.assertion_extraction == sd.assertion_extraction
    assert direct.abox_snapshot is None and direct.fired is None
    assert direct.outcome == "Ok"


def test_sd_and_sd_direct_share_extraction_prompts(hearsay):
    class Spy:
        def __init__(self, inner):
            self.inner = inner
            self.requests = []

        def complete(self, request):
            self.requests.append(request)
            return self.inner.complete(request)

    for complementary in (False, True):
        spy_sd = Spy(hearsay_backend())
        spy_direct = Spy(hearsay_backend())
        sd, direct = (
            (Condition.SD_COMP, Condition.SD_DIRECT_COMP)
            if complementary
            else (Condition.SD, Condition.SD_DIRECT)
        )
        evaluate_instance(hearsay, "t1", SAMPLE_TEXT, "Yes", sd, spy_sd, exemplars=[])
        evaluate_instance(hearsay, "t1", SAMPLE_TEXT, "Yes", direct, spy_direct, exemplars=[])
        assert spy_sd.requests == spy_direct.requests[:2]
        assert len(spy_direct.requests) == 3


def test_sd_direct_not_extractable(hearsay):
    backend = ScriptedBackend({("t1", "entity"): entity_reply(statement=False)})
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "No", Condition.SD_DIRECT, backend, exemplars=[]
    )
    assert trace.outcome == "NotExtractable"
    assert trace.prediction == "No"


def test_sd_direct_malformed_final_call_is_an_error(hearsay):
    backend = hearsay_backend()
    mapping = dict(backend._responses)
    mapping[("t1", "direct")] = "I think yes?"
    trace = evaluate_instance(
        hearsay,
        "t1",
        SAMPLE_TEXT,
        "Yes",
        Condition.SD_DIRECT,
        ScriptedBackend(mapping),
        exemplars=[],
    )
    assert trace.outcome == "Error"
    assert trace.prediction is None
    assert trace.assertion_extraction is not None


# -- baselines ------------------------------------------------------------------


def test_run_baseline_fs(hearsay):
    exemplars = [(f"scenario {i}", "Yes") for i in range(5)]
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.FS, hearsay_backend(), exemplars=exemplars
    )
    assert trace.prediction == "Yes"
    assert trace.condition == "FS"
    assert trace.entity_extraction is None
    assert trace.abox_snapshot is None
    assert len(trace.raw_exchanges) == 1


def test_run_baseline_cot_repair(hearsay):
    mapping = {
        ("t1", "cot"): json.dumps({"answer": "No"}),
        ("t1", "cot_repair"): json.dumps({"reasoning": "because", "answer": "No"}),
    }
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "No", Condition.COT, ScriptedBackend(mapping), exemplars=[]
    )
    assert trace.prediction == "No"
    assert len(trace.raw_exchanges) == 2


def test_evaluate_instance_dispatch(hearsay):
    backend = hearsay_backend()
    for condition, has_snapshot in [
        (Condition.FS, False),
        (Condition.COT, False),
        (Condition.SD, True),
        (Condition.SD_COMP, True),
        (Condition.SD_DIRECT, False),
        (Condition.SD_DIRECT_COMP, False),
    ]:
        trace = evaluate_instance(
            hearsay, "t1", SAMPLE_TEXT, "Yes", condition, backend, exemplars=[]
        )
        assert trace.condition == condition.value
        assert (trace.abox_snapshot is not None) == has_snapshot, condition
        assert trace.prediction == "Yes"


# -- fault matrix -------------------------------------------------------------------
#
# Every condition against every fault a scripted reply can carry. An expected
# row is (outcome, prediction, error substring, number of raw exchanges, the
# trace fields that are not null): E entity_extraction, A assertion_extraction,
# S abox_snapshot, F fired. A garbage reply costs two exchanges (the reply and
# its repair); a missing replay entry costs none, since the backend raises
# before anything comes back.

_FIELDS = {
    "E": "entity_extraction",
    "A": "assertion_extraction",
    "S": "abox_snapshot",
    "F": "fired",
}

_CLEAN = {
    Condition.FS: ("Ok", "Yes", None, 1, ""),
    Condition.COT: ("Ok", "Yes", None, 1, ""),
    Condition.SD: ("Ok", "Yes", None, 2, "EASF"),
    Condition.SD_COMP: ("Ok", "Yes", None, 2, "EASF"),
    Condition.SD_DIRECT: ("Ok", "Yes", None, 3, "EA"),
    Condition.SD_DIRECT_COMP: ("Ok", "Yes", None, 3, "EA"),
}

_GARBAGE = "after repair"
_MISSING = "no scripted response"
_DECOMPOSED = (Condition.SD, Condition.SD_COMP, Condition.SD_DIRECT, Condition.SD_DIRECT_COMP)

# Only the conditions a fault reaches are listed; every other condition never
# issues the faulty step and yields its _CLEAN row.
_FAULT_MATRIX = {
    "ok": {},
    "entity garbage": {c: ("Error", None, _GARBAGE, 2, "") for c in _DECOMPOSED},
    "entity missing": {c: ("Error", None, _MISSING, 0, "") for c in _DECOMPOSED},
    "entity not found": {c: ("NotExtractable", "No", "Statement", 1, "E") for c in _DECOMPOSED},
    "assertion garbage": {
        Condition.SD: ("Error", None, _GARBAGE, 3, "E"),
        Condition.SD_DIRECT: ("Error", None, _GARBAGE, 3, "E"),
    },
    "assertion_comp garbage": {
        Condition.SD_COMP: ("Error", None, _GARBAGE, 3, "E"),
        Condition.SD_DIRECT_COMP: ("Error", None, _GARBAGE, 3, "E"),
    },
    "direct garbage": {Condition.SD_DIRECT: ("Error", None, _GARBAGE, 4, "EA")},
    "direct_comp garbage": {Condition.SD_DIRECT_COMP: ("Error", None, _GARBAGE, 4, "EA")},
    "fs garbage": {Condition.FS: ("Error", None, _GARBAGE, 2, "")},
    "cot garbage": {Condition.COT: ("Error", None, _GARBAGE, 2, "")},
    "assertion missing": {
        Condition.SD: ("Error", None, _MISSING, 1, "E"),
        Condition.SD_DIRECT: ("Error", None, _MISSING, 1, "E"),
    },
    "assertion_comp missing": {
        Condition.SD_COMP: ("Error", None, _MISSING, 1, "E"),
        Condition.SD_DIRECT_COMP: ("Error", None, _MISSING, 1, "E"),
    },
    "direct missing": {Condition.SD_DIRECT: ("Error", None, _MISSING, 2, "EA")},
    "direct_comp missing": {Condition.SD_DIRECT_COMP: ("Error", None, _MISSING, 2, "EA")},
    "fs missing": {Condition.FS: ("Error", None, _MISSING, 0, "")},
    "cot missing": {Condition.COT: ("Error", None, _MISSING, 0, "")},
}


def faulty_backend(fault: str) -> ScriptedBackend:
    mapping = dict(hearsay_backend()._responses)
    if fault == "entity not found":
        mapping[("t1", "entity")] = entity_reply(statement=False)
    elif fault != "ok":
        step, kind = fault.split()
        if kind == "garbage":
            mapping[("t1", step)] = "garbage with no braces"
        else:
            del mapping[("t1", step)]
    return ScriptedBackend(mapping)


@pytest.mark.parametrize("condition", list(Condition), ids=lambda c: c.value)
@pytest.mark.parametrize("fault", list(_FAULT_MATRIX))
def test_fault_matrix(hearsay, fault, condition):
    outcome, prediction, error, exchanges, present = _FAULT_MATRIX[fault].get(
        condition, _CLEAN[condition]
    )
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "Yes", condition, faulty_backend(fault), exemplars=[]
    )
    assert (trace.outcome, trace.prediction) == (outcome, prediction)
    if error is None:
        assert trace.error is None
    else:
        assert error in trace.error
    assert len(trace.raw_exchanges) == exchanges
    for letter, name in _FIELDS.items():
        assert (getattr(trace, name) is not None) == (letter in present), name


# -- ABox population and snapshots ------------------------------------------------


def extractions(hearsay):
    entities = parse_entity_response(json.loads(entity_reply()), hearsay, "t1")
    assertions = parse_assertion_response(
        json.loads(
            assertion_reply(
                {
                    "IsOutOfCourt": True,
                    "HasAssertion": True,
                    "IntroducedForLegalIssue": True,
                    "ProvesTruthOfAssertion": True,
                }
            )
        ),
        hearsay,
        entities,
        False,
    )
    return entities, assertions


def test_populate_abox_links_entities_to_case(hearsay):
    entities, assertions = extractions(hearsay)
    abox = populate_abox(hearsay, "t1", entities, assertions)
    case = Iri("inst", "t1")
    for name in ("Statement", "Assertion", "LegalIssue"):
        key = (Iri("inst", f"t1_{name}"), BELONGS_TO_CASE, case)
        assert key in abox.property_assertions


def test_populate_abox_asserts_spec_facts(hearsay):
    entities, assertions = extractions(hearsay)
    abox = populate_abox(hearsay, "t1", entities, assertions)
    statement = Iri("inst", "t1_Statement")
    assert (statement, Iri("h", "OutOfCourtStatement")) in abox.class_assertions
    assert (
        statement,
        Iri("h", "hasAssertion"),
        Iri("inst", "t1_Assertion"),
    ) in abox.property_assertions


def test_snapshot_rebuild_round_trip(hearsay):
    entities, assertions = extractions(hearsay)
    abox = populate_abox(hearsay, "t1", entities, assertions)
    rebuilt = restore_abox(hearsay.tbox, snapshot_abox(abox))
    assert rebuilt == abox


def test_snapshot_orders_names_as_strings_so_e2_comes_before_e():
    tbox = TBox({"e": "http://example.org/e#", "e2": "http://example.org/e2#"})
    for prefix in ("e", "e2"):
        tbox.declare_class(Iri(prefix, "C"))
        tbox.declare_property(Iri(prefix, "p"))
    abox = ABox(tbox)
    for prefix in ("e", "e2"):
        abox.assert_class(Iri(prefix, "x"), Iri("e", "C"), "j")
        abox.assert_class(Iri("e", "x"), Iri(prefix, "C"), "j")
        abox.assert_property(Iri("e", "x"), Iri(prefix, "p"), Iri(prefix, "x"), "j")
    assert [(t["subject"], t["predicate"], t["object"]) for t in snapshot_abox(abox)] == [
        ("e2:x", "a", "e:C"),
        ("e:x", "a", "e2:C"),
        ("e:x", "a", "e:C"),
        ("e:x", "e2:p", "e2:x"),
        ("e:x", "e:p", "e:x"),
    ]


def test_restore_keeps_inferred_origins_on_random_instances():
    rng = random.Random(7)
    for _ in range(200):
        tbox, abox = random_instance(rng)
        chained = forward_chain(tbox, abox).abox
        assert restore_abox(tbox, snapshot_abox(chained)) == chained


def test_restore_skips_domain_checks_on_inferred_triples():
    tbox = TBox({"c": "http://example.org/c#"})
    for name in ("A", "B"):
        tbox.declare_class(Iri("c", name))
    tbox.declare_property(Iri("c", "p"), domain=Iri("c", "A"))
    tbox.declare_property(Iri("c", "q"))
    tbox.add_rule(parse_rule("q_to_p", "c:q(?x, ?y) -> c:p(?x, ?y)"))
    abox = ABox(tbox)
    x, y = Iri("inst", "x"), Iri("inst", "y")
    abox.assert_class(x, Iri("c", "B"), "x is a B")
    abox.assert_property(x, Iri("c", "q"), y, "x q y")
    chained = forward_chain(tbox, abox).abox
    assert (x, Iri("c", "p"), y) in chained.property_assertions
    assert restore_abox(tbox, snapshot_abox(chained)) == chained


@pytest.mark.parametrize("origin", ["bogus", "inferred:", "asserted:", ""])
def test_restore_rejects_an_origin_of_neither_form(hearsay, origin):
    triple = {"subject": "inst:t1_Statement", "predicate": "a", "object": "h:Statement"}
    with pytest.raises(ValueError, match="malformed snapshot triple"):
        restore_abox(hearsay.tbox, [{**triple, "origin": origin}])


_TRIPLE = {
    "subject": "inst:t1_Statement",
    "predicate": "a",
    "object": "h:Statement",
    "origin": "asserted:j",
}


@pytest.mark.parametrize(
    "triple",
    [
        {**_TRIPLE, "origin": 5},
        {k: v for k, v in _TRIPLE.items() if k != "object"},
        [1, 2],
        "abc",
        {**_TRIPLE, "subject": 7},
        MappingProxyType(_TRIPLE),
    ],
    ids=[
        "origin-not-a-string",
        "triple-without-object",
        "list",
        "string",
        "subject-not-a-string",
        "mapping-that-is-not-a-dict",
    ],
)
def test_restore_rejects_a_malformed_triple(hearsay, triple):
    with pytest.raises(ValueError, match="malformed snapshot triple"):
        restore_abox(hearsay.tbox, [triple])


def test_restore_accepts_fields_of_a_str_subclass(hearsay):
    class Name(str):
        pass

    entities, assertions = extractions(hearsay)
    snapshot = snapshot_abox(forward_chain(hearsay.tbox, populate_abox(hearsay, "t1", entities, assertions)).abox)
    wrapped = [{key: Name(value) for key, value in triple.items()} for triple in snapshot]
    assert restore_abox(hearsay.tbox, wrapped) == restore_abox(hearsay.tbox, snapshot)


def test_restore_raises_for_a_justification_that_utf8_cannot_encode(hearsay):
    with pytest.raises(UnicodeEncodeError):
        restore_abox(hearsay.tbox, [{**_TRIPLE, "origin": "asserted:\ud800"}])


def _restore_outcome(restore, tbox, snapshot):
    """The restored ABox, or the type and message of what the restore raised."""
    try:
        return restore(tbox, snapshot)
    except Exception as exc:
        return type(exc), str(exc)


def test_restore_matches_the_reference_restore(hearsay, tmp_path):
    replay = resources.files("ruleweave").joinpath("data/replay/hearsay.replay.json")
    backend = ScriptedBackend.from_file(str(replay))
    run = run_condition(
        hearsay, builtin_dataset("hearsay"), Condition.SD_COMP, backend, out_dir=tmp_path
    )
    _, records = load_traces(run.trace_path)
    grid = [record["abox_snapshot"] for record in records if record["abox_snapshot"]]
    rng = random.Random(20261018)
    kinds = Counter()
    for case in range(400):
        if case % 2:
            tbox, abox = random_instance(rng)
            snapshot = snapshot_abox(forward_chain(tbox, abox).abox)
        else:
            tbox, snapshot = hearsay.tbox, json.loads(json.dumps(rng.choice(grid)))
        for _ in range(rng.randint(0, 2) if snapshot else 0):
            triple = rng.choice(snapshot)
            for name in rng.sample(["subject", "predicate", "object", "origin"], rng.randint(0, 2)):
                triple[name] = rng.choice(_JUNK)
        expected = _restore_outcome(reference_restore_abox, tbox, snapshot)
        assert _restore_outcome(restore_abox, tbox, snapshot) == expected, snapshot
        kinds[expected[0].__name__ if isinstance(expected, tuple) else "ABox"] += 1
    expected_kinds = {"ABox", "ValueError", "IriError", "UndeclaredError", "DomainRangeError"}
    assert expected_kinds <= set(kinds), kinds


def test_restore_parses_each_distinct_name_once(hearsay, tmp_path, monkeypatch):
    replay = resources.files("ruleweave").joinpath("data/replay/hearsay.replay.json")
    backend = ScriptedBackend.from_file(str(replay))
    run = run_condition(
        hearsay, builtin_dataset("hearsay"), Condition.SD_COMP, backend, out_dir=tmp_path
    )
    _, records = load_traces(run.trace_path)
    triples = [triple for record in records for triple in record["abox_snapshot"] or ()]
    names = {t[field] for t in triples for field in ("subject", "object")}
    names |= {t["predicate"] for t in triples if t["predicate"] != "a"}
    parsed = Counter()
    parse = Iri.parse

    def counting_parse(text):
        parsed[text] += 1
        return parse(text)

    monkeypatch.setattr(Iri, "parse", staticmethod(counting_parse))
    restored = restore_abox(hearsay.tbox, triples)
    monkeypatch.undo()
    assert sum(parsed.values()) == len(names) < len(triples)
    assert set(parsed) == names
    assert restored == reference_restore_abox(hearsay.tbox, triples)


def _triple(subject, predicate, obj, origin="asserted:j"):
    return {"subject": subject, "predicate": predicate, "object": obj, "origin": origin}


def _restore_counting(tbox, snapshot):
    """What restore_abox raises, and how many triples it had read by then."""
    read = []

    def feed():
        for triple in snapshot:
            read.append(triple)
            yield triple

    with pytest.raises(Exception) as raised:
        restore_abox(tbox, feed())
    assert _restore_outcome(reference_restore_abox, tbox, snapshot) == (
        raised.type,
        str(raised.value),
    )
    return raised.type, str(raised.value), len(read)


def test_restore_checks_a_domain_before_the_class_triple_that_licenses_it(hearsay):
    prop = _triple("inst:s", "h:hasAssertion", "inst:a")
    classes = [_triple("inst:s", "a", "h:Statement"), _triple("inst:a", "a", "h:Assertion")]
    kind, message, read = _restore_counting(hearsay.tbox, [prop, *classes])
    assert (kind, read) == (DomainRangeError, 1)
    assert "domain of h:hasAssertion" in message
    restored = restore_abox(hearsay.tbox, [*classes, prop])
    assert (Iri("inst", "s"), Iri("h", "hasAssertion"), Iri("inst", "a")) in restored.property_assertions


@pytest.mark.parametrize("origin", ["asserted:j", "inferred:r"])
@pytest.mark.parametrize(
    "reuse, message",
    [
        (_triple("inst:s", "h:Statement", "inst:s"), "property h:Statement not declared"),
        (_triple("inst:s", "a", "h:hasAssertion"), "class h:hasAssertion not declared"),
    ],
    ids=["class-as-property", "property-as-class"],
)
def test_restore_checks_a_parsed_name_again_where_it_is_reused(hearsay, origin, reuse, message):
    snapshot = [
        _triple("inst:s", "a", "h:Statement"),
        _triple("inst:a", "a", "h:Assertion"),
        _triple("inst:s", "h:hasAssertion", "inst:a"),
        {**reuse, "origin": origin},
        _triple("inst:a", "a", "h:Statement"),
    ]
    kind, text, read = _restore_counting(hearsay.tbox, snapshot)
    assert (kind, read) == (UndeclaredError, 4)
    assert message in text


def test_restore_raises_for_a_malformed_name_at_its_first_occurrence(hearsay):
    snapshot = [
        _triple("inst:s", "a", "h:Statement"),
        _triple("inst:bad name", "a", "h:Statement"),
        _triple("inst:s", "h:hasAssertion", "inst:bad name"),
        _triple("inst:bad name", "a", "h:Statement"),
    ]
    kind, message, read = _restore_counting(hearsay.tbox, snapshot)
    assert (kind, read) == (IriError, 2)
    assert "bad local name" in message


def test_restore_keeps_the_first_origin_of_a_repeated_triple(hearsay):
    statement, assertion = Iri("inst", "s"), Iri("inst", "a")
    snapshot = [
        _triple("inst:s", "a", "h:Statement", "asserted:first"),
        _triple("inst:a", "a", "h:Assertion", "asserted:j"),
        _triple("inst:s", "h:hasAssertion", "inst:a", "asserted:first"),
        _triple("inst:s", "a", "h:Statement", "asserted:second"),
        _triple("inst:s", "h:hasAssertion", "inst:a", "asserted:second"),
    ]
    restored = restore_abox(hearsay.tbox, snapshot)
    assert restored == reference_restore_abox(hearsay.tbox, snapshot)
    assert restored.class_assertions[(statement, Iri("h", "Statement"))] == Asserted("first")
    key = (statement, Iri("h", "hasAssertion"), assertion)
    assert restored.property_assertions[key] == Asserted("first")
    assert len(restored.class_assertions) == 2 and len(restored.property_assertions) == 1


def assert_rechains(task, trace: dict) -> None:
    """Restoring only a trace's asserted triples and chaining them again
    gives back its snapshot, its fired list, its consistency and, through
    classify on the minted target, its prediction."""
    asserted = [t for t in trace["abox_snapshot"] if t["origin"].startswith("asserted:")]
    result = forward_chain(task.tbox, restore_abox(task.tbox, asserted))
    assert snapshot_abox(result.abox) == trace["abox_snapshot"]
    fired = [
        {"rule": name, "binding": {var: str(value) for var, value in binding.items()}}
        for name, binding in result.fired
    ]
    assert fired == trace["fired"]
    assert result.consistent == (trace["outcome"] != "Inconsistent")
    target = mint_individual(trace["instance_id"], task.target_entity)
    positive = result.consistent and classify(result, target, task.target_class)
    assert (POSITIVE_LABEL if positive else NEGATIVE_LABEL) == trace["prediction"]


def test_rechaining_asserted_triples_reproduces_the_trace(hearsay):
    cases = [
        (
            hearsay,
            evaluate_instance(
                hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.SD, hearsay_backend(), exemplars=[]
            ),
        ),
        (
            hearsay,
            evaluate_instance(
                hearsay,
                "t2",
                SAMPLE_TEXT,
                "No",
                Condition.SD,
                hearsay_backend("t2", proves=False),
                exemplars=[],
            ),
        ),
        (
            hearsay,
            evaluate_instance(
                hearsay,
                "t3",
                SAMPLE_TEXT,
                "No",
                Condition.SD_COMP,
                hearsay_backend("t3", out_of_court=False),
                exemplars=[],
            ),
        ),
    ]
    for task, trace in cases:
        assert_rechains(task, trace.to_dict())


def test_every_scripted_grid_trace_rechains(tmp_path):
    checked = 0
    for task_id in BUILTIN_TASK_IDS:
        task = builtin_task(task_id)
        replay = resources.files("ruleweave").joinpath(f"data/replay/{task_id}.replay.json")
        backend = ScriptedBackend.from_file(str(replay))
        for condition in (Condition.SD, Condition.SD_COMP):
            run = run_condition(
                task, builtin_dataset(task_id), condition, backend, out_dir=tmp_path
            )
            _, records = load_traces(run.trace_path)
            for record in records:
                assert_rechains(task, record)
                checked += 1
    assert checked == 60


# -- world isolation and trace files ----------------------------------------------


def test_world_isolation_byte_identical_traces(hearsay):
    def one_run():
        backend = hearsay_backend()
        traces = [
            evaluate_instance(
                hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.SD, backend, exemplars=[]
            )
            for _ in range(2)
        ]
        return traces

    first, second = one_run(), one_run()
    assert [t.to_dict() for t in first] == [t.to_dict() for t in second]
    text_a = dump_traces(first, "hearsay", Condition.SD, "scripted", timestamp="T")
    text_b = dump_traces(second, "hearsay", Condition.SD, "scripted", timestamp="T")
    assert text_a.encode() == text_b.encode()


def test_dump_traces_isolates_timestamp_to_header(hearsay):
    trace = evaluate_instance(
        hearsay, "t1", SAMPLE_TEXT, "Yes", Condition.SD, hearsay_backend(), exemplars=[]
    )
    early = dump_traces([trace], "hearsay", Condition.SD, "scripted", timestamp="2026-01-01")
    late = dump_traces([trace], "hearsay", Condition.SD, "scripted", timestamp="2026-06-30")
    assert early != late
    assert early.splitlines()[1:] == late.splitlines()[1:]


def test_dump_traces_sorted_and_loadable(hearsay, tmp_path):
    traces = [
        evaluate_instance(
            hearsay, iid, SAMPLE_TEXT, "Yes", Condition.SD, hearsay_backend(iid), exemplars=[]
        )
        for iid in ("t9", "t2", "t5")
    ]
    path = tmp_path / "traces.jsonl"
    path.write_text(dump_traces(traces, "hearsay", Condition.SD, "scripted"), encoding="utf-8")
    header, records = load_traces(path)
    assert header["task"] == "hearsay"
    assert header["condition"] == "SD"
    assert [r["instance_id"] for r in records] == ["t2", "t5", "t9"]
    assert all(r["prediction"] == "Yes" for r in records)


def test_load_traces_keep_cuts_each_record_to_its_id_and_the_kept_fields(hearsay, tmp_path):
    traces = [
        evaluate_instance(hearsay, iid, SAMPLE_TEXT, "Yes", condition, hearsay_backend(iid), exemplars=[])
        for iid, condition in (("t1", Condition.SD), ("t2", Condition.SD_DIRECT))
    ]
    assert traces[0].abox_snapshot and traces[1].abox_snapshot is None
    path = tmp_path / "traces.jsonl"
    path.write_text(dump_traces(traces, "hearsay", Condition.SD, "scripted"), encoding="utf-8")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert load_traces(path) == (json.loads(lines[0]), [json.loads(line) for line in lines[1:]])
    header, records = load_traces(path, keep=("abox_snapshot", "label", "absent"))
    assert header == json.loads(lines[0])
    assert records == [
        {"instance_id": "t1", "abox_snapshot": traces[0].abox_snapshot, "label": "Yes", "absent": None},
        {"instance_id": "t2", "abox_snapshot": None, "label": "Yes", "absent": None},
    ]


HEARSAY_JOIN_QUERY = (
    "PREFIX h: <http://example.org/hearsay#> PREFIX sd: <http://example.org/sd#> "
    "SELECT ?s ?c WHERE { ?s a h:Hearsay . ?s sd:belongsToCase ?c . }"
)


def test_a_trace_is_queried_through_pipeline_alone(hearsay, tmp_path, capsys):
    replay = resources.files("ruleweave").joinpath("data/replay/hearsay.replay.json")
    backend = ScriptedBackend.from_file(str(replay))
    run = run_condition(
        hearsay, builtin_dataset("hearsay"), Condition.SD_COMP, backend, out_dir=tmp_path
    )
    query = parse_query(HEARSAY_JOIN_QUERY)
    _, records = load_traces(run.trace_path, keep=("abox_snapshot",))
    rows = execute(query, hearsay.tbox, restore_instances(hearsay.tbox, records))
    merged = [triple for record in records for triple in record["abox_snapshot"] or ()]
    assert rows == brute_force_query(query, hearsay.tbox, reference_restore_abox(hearsay.tbox, merged))
    assert len(rows) == sum(trace.label == POSITIVE_LABEL for trace in run.traces) > 0
    assert main(["query", "--trace", str(run.trace_path), "--query", HEARSAY_JOIN_QUERY]) == 0
    assert capsys.readouterr().out == format_tsv(query, rows)


def test_restore_instances_names_the_instance_of_each_fault(hearsay):
    def restore(*snapshots):
        records = [{"instance_id": iid, "abox_snapshot": snap} for iid, snap in zip("abc", snapshots)]
        return restore_instances(hearsay.tbox, records)

    with pytest.raises(ValueError, match=r"^instance 'b': abox_snapshot is not a list$"):
        restore(None, "x")
    with pytest.raises(ValueError, match=r"^instance 'a': malformed snapshot triple"):
        restore([{**_TRIPLE, "origin": "x"}])
    with pytest.raises(DatasetError, match="^instances 'a' and 'c' both name the individual inst:t1_Statement$"):
        restore([_TRIPLE], None, [_TRIPLE])
    assert restore(None, [_TRIPLE]) == restore_abox(hearsay.tbox, [_TRIPLE])
    shared = {**_TRIPLE, "subject": "h:shared"}  # only minted `inst:` names belong to one instance
    assert restore([shared], [shared]) == restore_abox(hearsay.tbox, [shared])
