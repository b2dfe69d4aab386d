"""Prompt builders, response parsers, retry policy, and backends."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleweave.backends import (
    BackendError,
    BackendResponse,
    ChatRequest,
    HttpBackend,
    ScriptedBackend,
    _RateLimiter,
    _Schema,
    parse_json_payload,
)
from ruleweave.errors import MalformedResponseError, NotExtractable
from ruleweave.extraction import (
    AssertionExtraction,
    AssertionRecord,
    EntityExtraction,
    EntityRecord,
    build_assertion_prompt,
    build_baseline_prompt,
    build_direct_prompt,
    build_entity_prompt,
    case_individual,
    mint_individual,
    parse_answer_response,
    parse_assertion_response,
    parse_cot_response,
    parse_entity_response,
    repair_request,
    run_step,
    sanitize_local_name,
)
from ruleweave.ontology import Iri
from ruleweave.tasklib import INSTANCE_PREFIX, builtin_task

SAMPLE_TEXT = (
    "At trial, a witness recounts that her neighbor told her the day after the "
    "crash that the delivery van's brakes had failed. The statement is offered "
    "to show the brakes were faulty."
)


@pytest.fixture(scope="module")
def hearsay():
    return builtin_task("hearsay")


def entity_reply(statement=True, assertion=True, issue=True) -> str:
    rows = []
    for name, found, span, ident in (
        ("Statement", statement, "the van's brakes had failed", "e1"),
        ("Assertion", assertion, "the brakes were faulty", "e2"),
        ("LegalIssue", issue, "whether the brakes failed", "e3"),
    ):
        if found:
            rows.append(
                {
                    "name": name,
                    "found": True,
                    "span": span,
                    "individual": ident,
                    "explanation": f"{name} is present in the text",
                }
            )
        else:
            rows.append({"name": name, "found": False, "span": None, "individual": None, "explanation": None})
    return json.dumps({"entities": rows})


def assertion_reply(names_to_holds: dict) -> str:
    rows = [
        {"name": name, "holds": holds, "justification": f"{name} judged from the text"}
        for name, holds in names_to_holds.items()
    ]
    return json.dumps({"assertions": rows})


def parsed_entities(hearsay, reply=None, instance_id="t1"):
    data = json.loads(reply or entity_reply())
    return parse_entity_response(data, hearsay, instance_id)


# -- minting -------------------------------------------------------------------


def test_minted_names_are_valid_locals():
    for raw in ("case 7!", "01-weird", "ok_id", "", "ümlaut"):
        local = sanitize_local_name(raw)
        assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", local), raw


def test_mint_individual_scheme():
    assert mint_individual("t1", "Statement") == Iri("inst", "t1_Statement")
    assert case_individual("t1") == Iri("inst", "t1")


@settings(derandomize=True, database=None, max_examples=300)
@given(st.text(), st.text())
def test_minted_names_equal_the_checked_names_they_skip(instance_id, entity_name):
    for minted, local in (
        (mint_individual(instance_id, entity_name), f"{instance_id}_{entity_name}"),
        (case_individual(instance_id), instance_id),
    ):
        assert minted == Iri(INSTANCE_PREFIX, sanitize_local_name(local)) == Iri.parse(minted)


# -- prompt builders -----------------------------------------------------------


def test_entity_prompt_contains_each_description_once(hearsay):
    request = build_entity_prompt(hearsay, SAMPLE_TEXT, instance_id="t1")
    blob = request.system + "\n" + request.user
    for spec in hearsay.entity_specs:
        assert blob.count(spec.description) == 1, spec.name
    for spec in hearsay.assertion_specs:
        assert spec.description not in blob
    assert SAMPLE_TEXT in request.user
    assert hearsay.domain_context in request.system


def test_entity_prompt_schema_demands_one_record_per_spec(hearsay):
    request = build_entity_prompt(hearsay, SAMPLE_TEXT, instance_id="t1")
    array = request.response_schema["properties"]["entities"]
    assert array["minItems"] == array["maxItems"] == len(hearsay.entity_specs)


def test_entity_prompt_rejects_blank_input(hearsay):
    with pytest.raises(ValueError):
        build_entity_prompt(hearsay, "   ", instance_id="t1")


def test_entity_prompt_is_pure(hearsay):
    a = build_entity_prompt(hearsay, SAMPLE_TEXT, instance_id="t1")
    b = build_entity_prompt(hearsay, SAMPLE_TEXT, instance_id="t1")
    assert a == b and a.digest() == b.digest()


def test_assertion_prompt_complementary_toggle(hearsay):
    entities = parsed_entities(hearsay)
    on = build_assertion_prompt(hearsay, SAMPLE_TEXT, entities, True, instance_id="t1")
    off = build_assertion_prompt(hearsay, SAMPLE_TEXT, entities, False, instance_id="t1")
    in_court = hearsay.assertion_specs[1]
    assert in_court.name == "IsInCourt"
    assert on.user.count(in_court.description) == 1
    assert in_court.description not in off.user
    assert on.step == "assertion_comp" and off.step == "assertion"
    for spec in hearsay.assertion_specs:
        if not spec.negative:
            assert off.user.count(spec.description) == 1


def test_assertion_prompt_embeds_found_spans(hearsay):
    entities = parsed_entities(hearsay)
    request = build_assertion_prompt(hearsay, SAMPLE_TEXT, entities, False, instance_id="t1")
    assert "the van's brakes had failed" in request.user


def test_assertion_prompt_requires_required_entities(hearsay):
    entities = parsed_entities(hearsay, entity_reply(statement=False))
    with pytest.raises(NotExtractable, match="Statement"):
        build_assertion_prompt(hearsay, SAMPLE_TEXT, entities, False, instance_id="t1")


def test_assertion_prompt_skips_specs_with_missing_optional_entity(hearsay):
    entities = parsed_entities(hearsay, entity_reply(assertion=False))
    request = build_assertion_prompt(hearsay, SAMPLE_TEXT, entities, False, instance_id="t1")
    array = request.response_schema["properties"]["assertions"]
    assert array["minItems"] == 3
    assert "HasAssertion" not in {n for n in array["items"]["properties"]["name"]["enum"]}


def test_direct_prompt_lists_determinations(hearsay):
    entities = parsed_entities(hearsay)
    data = json.loads(
        assertion_reply(
            {
                "IsOutOfCourt": True,
                "HasAssertion": True,
                "IntroducedForLegalIssue": True,
                "ProvesTruthOfAssertion": False,
            }
        )
    )
    assertions = parse_assertion_response(data, hearsay, entities, False)
    request = build_direct_prompt(hearsay, entities, assertions, False, instance_id="t1")
    assert "IsOutOfCourt = true" in request.user
    assert "ProvesTruthOfAssertion = false" in request.user
    assert request.response_schema["properties"]["answer"]["enum"] == ["Yes", "No"]
    assert request.step == "direct"


def test_baseline_prompt_embeds_exemplars(hearsay):
    exemplars = [(f"scenario number {i}", "Yes" if i % 2 else "No") for i in range(5)]
    request = build_baseline_prompt(hearsay, SAMPLE_TEXT, "fs", exemplars, instance_id="t1")
    assert "Example 5:" in request.user and "Example 6:" not in request.user
    assert "scenario number 3" in request.user
    assert "reasoning" not in request.response_schema["properties"]


def test_cot_prompt_demands_reasoning(hearsay):
    request = build_baseline_prompt(hearsay, SAMPLE_TEXT, "cot", [], instance_id="t1")
    assert request.response_schema["required"] == ["reasoning", "answer"]
    with pytest.raises(ValueError):
        build_baseline_prompt(hearsay, SAMPLE_TEXT, "zero_shot", [], instance_id="t1")


# -- parsers -------------------------------------------------------------------


def test_parse_entity_response_mints_individuals(hearsay):
    entities = parsed_entities(hearsay, instance_id="case_9")
    assert len(entities.records) == 3
    assert entities.get("Statement").individual == Iri("inst", "case_9_Statement")
    assert entities.get("Assertion").span == "the brakes were faulty"


def test_an_extraction_lookup_of_an_unknown_name_raises_key_error(hearsay):
    entities = parsed_entities(hearsay)
    with pytest.raises(KeyError, match="Nope"):
        entities.get("Nope")


def test_parse_entity_response_rejects_duplicate_ids(hearsay):
    reply = json.loads(entity_reply())
    reply["entities"][1]["individual"] = "e1"
    with pytest.raises(MalformedResponseError, match="used twice"):
        parse_entity_response(reply, hearsay, "t1")


def test_parse_entity_response_requires_fields_when_found(hearsay):
    reply = json.loads(entity_reply())
    reply["entities"][0]["explanation"] = None
    with pytest.raises(MalformedResponseError, match="explanation"):
        parse_entity_response(reply, hearsay, "t1")


def test_parse_entity_response_checks_name_cover(hearsay):
    reply = json.loads(entity_reply())
    reply["entities"][2]["name"] = "Judge"
    with pytest.raises(MalformedResponseError, match="exactly"):
        parse_entity_response(reply, hearsay, "t1")


def test_parse_entity_response_found_must_be_boolean(hearsay):
    reply = json.loads(entity_reply())
    reply["entities"][0]["found"] = "yes"
    with pytest.raises(MalformedResponseError, match="boolean"):
        parse_entity_response(reply, hearsay, "t1")


def full_assertion_data(holds_proves=True):
    return json.loads(
        assertion_reply(
            {
                "IsOutOfCourt": True,
                "HasAssertion": True,
                "IntroducedForLegalIssue": True,
                "ProvesTruthOfAssertion": holds_proves,
            }
        )
    )


def test_parse_assertion_response_binds_individuals(hearsay):
    entities = parsed_entities(hearsay)
    extraction = parse_assertion_response(full_assertion_data(), hearsay, entities, False)
    record = extraction.get("HasAssertion")
    assert record.subject == Iri("inst", "t1_Statement")
    assert record.object == Iri("inst", "t1_Assertion")
    assert extraction.get("IsOutOfCourt").object is None


def test_parse_assertion_response_requires_justification(hearsay):
    entities = parsed_entities(hearsay)
    data = full_assertion_data()
    data["assertions"][2]["justification"] = ""
    with pytest.raises(MalformedResponseError, match="justification"):
        parse_assertion_response(data, hearsay, entities, False)


def test_parse_assertion_response_fills_skipped_specs(hearsay):
    entities = parsed_entities(hearsay, entity_reply(assertion=False))
    data = json.loads(
        assertion_reply(
            {
                "IsOutOfCourt": True,
                "IntroducedForLegalIssue": True,
                "ProvesTruthOfAssertion": True,
            }
        )
    )
    extraction = parse_assertion_response(data, hearsay, entities, False)
    skipped = extraction.get("HasAssertion")
    assert skipped.holds is False
    assert "Assertion" in skipped.justification
    assert len(extraction.records) == 4


def test_a_partially_asked_step_keeps_the_effective_spec_order(hearsay):
    entities = parsed_entities(hearsay, entity_reply(assertion=False))
    asked = ["ProvesTruthOfAssertion", "IntroducedForLegalIssue", "IsInCourt", "IsOutOfCourt"]
    data = json.loads(assertion_reply({name: True for name in asked}))  # reverse spec order
    extraction = parse_assertion_response(data, hearsay, entities, True)
    assert [record.name for record in extraction.records] == [
        "IsOutOfCourt", "IsInCourt", "HasAssertion", "IntroducedForLegalIssue", "ProvesTruthOfAssertion"
    ]
    skipped = extraction.get("HasAssertion")
    assert skipped == AssertionRecord(
        "HasAssertion", False, Iri("inst", "t1_Statement"), "not asked: Assertion not identified"
    )


def _with_record(record_name, **fields):
    def edit(data):
        next(record for record in data["assertions"] if record["name"] == record_name).update(fields)
        return data
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with_record("HasAssertion", holds="yes"), "HasAssertion: holds must be a boolean"),
        (lambda data: [], "expected an object with a 'assertions' array"),
        (lambda data: {"assertions": {}}, "expected an object with a 'assertions' array"),
        (_with_record("HasAssertion", name=None), "every assertions record needs a string name"),
        (lambda data: {"assertions": [*data["assertions"], "IsOutOfCourt"]},
         "every assertions record needs a string name"),
        (lambda data: {"assertions": [*data["assertions"], data["assertions"][1]]},
         "duplicate record for 'HasAssertion'"),
        # Two bad records, the later spec's first in the reply: the first in spec order is named.
        (lambda data: {"assertions": [
            {**data["assertions"][3], "holds": None}, {**data["assertions"][0], "holds": 1}, *data["assertions"][1:3]
        ]}, "IsOutOfCourt: holds must be a boolean"),
        (lambda data: {"assertions": [
            {**data["assertions"][3], "justification": " "}, {**data["assertions"][1], "justification": 7},
            data["assertions"][0], data["assertions"][2],
        ]}, "HasAssertion: justification must be a non-empty string"),
    ],
    ids=["holds", "list", "no-array", "no-name", "bare-string", "duplicate", "first-holds", "first-justification"],
)
def test_parse_assertion_response_error_texts(hearsay, edit, message):
    entities = parsed_entities(hearsay)
    with pytest.raises(MalformedResponseError) as caught:
        parse_assertion_response(edit(full_assertion_data()), hearsay, entities, False)
    assert str(caught.value) == message


def test_parse_answer_response():
    assert parse_answer_response({"answer": "Yes"}) == "Yes"
    assert parse_answer_response({"answer": " No "}) == "No"
    with pytest.raises(MalformedResponseError):
        parse_answer_response({"answer": "Maybe"})
    with pytest.raises(MalformedResponseError):
        parse_answer_response(["Yes"])


def test_parse_cot_response():
    reasoning, answer = parse_cot_response({"reasoning": "because", "answer": "No"})
    assert (reasoning, answer) == ("because", "No")
    with pytest.raises(MalformedResponseError, match="reasoning"):
        parse_cot_response({"answer": "No"})


@pytest.mark.parametrize(
    "parse, data, message",
    [
        (parse_answer_response, {"answer": 1}, "answer must be a string"),
        (parse_answer_response, "Yes", "expected a JSON object with an answer"),
        (parse_answer_response, {"answer": "maybe"}, "answer must be 'Yes' or 'No', got 'maybe'"),
        (parse_cot_response, ["because", "Yes"], "expected a JSON object"),
        (parse_cot_response, {"reasoning": "because", "answer": 1}, "answer must be a string"),
        (parse_cot_response, {"reasoning": " ", "answer": "Yes"}, "chain of thought: reasoning must be a non-empty string"),
    ],
)
def test_answer_parse_error_texts(parse, data, message):
    with pytest.raises(MalformedResponseError) as caught:
        parse(data)
    assert str(caught.value) == message


# -- retry policy ---------------------------------------------------------------


def entity_request(hearsay, instance_id="t1"):
    return build_entity_prompt(hearsay, SAMPLE_TEXT, instance_id=instance_id)


def test_run_step_is_deterministic(hearsay):
    backend = ScriptedBackend({("t1", "entity"): entity_reply()})
    results = []
    for _ in range(2):
        exchanges = []
        parsed = run_step(
            backend,
            entity_request(hearsay),
            lambda data: parse_entity_response(data, hearsay, "t1"),
            exchanges,
        )
        results.append((parsed, exchanges))
    assert results[0] == results[1]
    assert len(results[0][1]) == 1


def test_run_step_repairs_once(hearsay):
    backend = ScriptedBackend(
        {
            ("t1", "entity"): "sorry, here you go:",
            ("t1", "entity_repair"): entity_reply(),
        }
    )
    exchanges = []
    parsed = run_step(
        backend,
        entity_request(hearsay),
        lambda data: parse_entity_response(data, hearsay, "t1"),
        exchanges,
    )
    assert parsed.get("Statement").found
    assert len(exchanges) == 2
    assert exchanges[0]["digest"] != exchanges[1]["digest"]


def test_run_step_gives_up_after_one_repair(hearsay):
    backend = ScriptedBackend({("t1", "entity"): "not json at all"})
    exchanges = []
    with pytest.raises(MalformedResponseError):
        run_step(
            backend,
            entity_request(hearsay),
            lambda data: parse_entity_response(data, hearsay, "t1"),
            exchanges,
        )
    assert len(exchanges) == 2


def test_repair_request_shape(hearsay):
    request = entity_request(hearsay)
    repaired = repair_request(request, MalformedResponseError("no entities array"))
    assert repaired.step == "entity_repair"
    assert "no entities array" in repaired.user
    assert repaired.response_schema == request.response_schema


def test_digest_is_stable_and_sensitive(hearsay):
    request = entity_request(hearsay)
    assert re.fullmatch(r"[0-9a-f]{64}", request.digest())
    assert request.digest() == entity_request(hearsay).digest()
    other = entity_request(hearsay, instance_id="t2")
    assert request.digest() != other.digest()


def old_formula_digest(request: ChatRequest) -> str:
    """The digest as one whole-dict dump; the cached pieces must hash these bytes."""
    payload = json.dumps(
        {
            "system": request.system,
            "user": request.user,
            "response_schema": request.response_schema,
            "model": request.model,
            "instance_id": request.instance_id,
            "step": request.step,
            "temperature": request.temperature,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def every_step_request(task, text=SAMPLE_TEXT, **options) -> list[ChatRequest]:
    """One request per step, with every entity found and every assertion holding, plus a repair."""
    entities = EntityExtraction(
        records=tuple(
            EntityRecord(spec.name, True, f"the {spec.name}", mint_individual("t1", spec.name), "seen")
            for spec in task.entity_specs
        )
    )
    assertions = AssertionExtraction(
        records=tuple(AssertionRecord(spec.name, True, None, "it holds") for spec in task.assertion_specs)
    )
    options.setdefault("instance_id", "t1")
    requests = [build_entity_prompt(task, text, **options)]
    for complementary in (False, True):
        requests.append(build_assertion_prompt(task, text, entities, complementary, **options))
        requests.append(build_direct_prompt(task, entities, assertions, complementary, **options))
    for style in ("fs", "cot"):
        requests.append(build_baseline_prompt(task, text, style, [("an example", "Yes")], **options))
    requests.append(repair_request(requests[0], MalformedResponseError("no entities array")))
    return requests


@pytest.mark.parametrize(
    "text, model, temperature",
    [
        (SAMPLE_TEXT, "", 0),
        (SAMPLE_TEXT, "m", 0.0),
        (SAMPLE_TEXT, "m", 0.7),
        ("Der Zeuge sagt: „Die Bremsen versagten“ — 証言 ✓", "modèle-ü", 0.0),
    ],
)
def test_digest_hashes_the_whole_dict_dump(hearsay, text, model, temperature):
    requests = every_step_request(hearsay, text, model=model, temperature=temperature)
    steps = [request.step for request in requests]
    assert steps == [
        "entity", "assertion", "direct", "assertion_comp", "direct_comp", "fs", "cot", "entity_repair"
    ]
    for request in requests:
        assert request.digest() == old_formula_digest(request), request.step


@pytest.mark.parametrize(
    "schema", [{"type": "object"}, {"z": [1, 2.5, None, True], "a": {"ü": "é", "b": []}}]
)
def test_digest_of_a_hand_built_request_hashes_the_whole_dict_dump(schema):
    request = ChatRequest(
        system="sys ü", user="u\n\"quoted\"", response_schema=schema, model="m", instance_id="i", step="fs"
    )
    assert request.digest() == old_formula_digest(request)


# Quotes, backslashes and control characters, which JSON escapes; DEL, which it
# does not; and non-ASCII text, which it keeps as it is only under
# ensure_ascii=False.
_TRICKY_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x08\x1f\x7f\n\t\u2028é証✓'), st.characters(codec="utf-8")),
    max_size=12,
)
_REQUEST_KINDS = ("ends-with-dump", "repair-note", "other-dump", "plain-dict", "dump-only")


@settings(derandomize=True, database=None, max_examples=200)
@given(
    st.sampled_from(_REQUEST_KINDS),
    st.tuples(_TRICKY_TEXT, _TRICKY_TEXT, _TRICKY_TEXT, _TRICKY_TEXT, _TRICKY_TEXT, _TRICKY_TEXT),
    st.one_of(st.integers(0, 3), st.floats(0, 2)),
)
def test_digest_of_every_kind_of_request_hashes_the_whole_dict_dump(kind, texts, temperature):
    system, model, instance_id, step, head, description = texts
    schema = _Schema({"type": "object", "description": description, "required": ["answer"]})
    other = _Schema({"type": "object", "description": description + "!"})
    user, response_schema = head + schema.prompt_dump, schema
    if kind == "repair-note":
        user += "\n\nYour previous reply was rejected: " + description
    elif kind == "other-dump":
        user = head + other.prompt_dump
    elif kind == "plain-dict":
        response_schema = dict(schema)
    elif kind == "dump-only":
        user = schema.prompt_dump
    request = ChatRequest(system, user, response_schema, model, instance_id, step, temperature)
    assert request.digest() == old_formula_digest(request)


def test_schema_memos_give_each_task_its_own_prompts(hearsay):
    first = every_step_request(hearsay)
    other = every_step_request(builtin_task("clinical_eligibility"))
    again = every_step_request(hearsay)
    fresh = every_step_request(builtin_task("hearsay"))
    assert first == again == fresh
    assert [r.digest() for r in first] == [r.digest() for r in again] == [r.digest() for r in fresh]
    assert other[0].response_schema != first[0].response_schema
    for request in first[:-1] + other[:-1]:  # the last of each is a repair, its note after the dump
        assert request.user.endswith(json.dumps(request.response_schema, indent=2, ensure_ascii=False))


def test_a_task_keeps_its_own_record_schemas(hearsay):
    first, again = (build_entity_prompt(hearsay, SAMPLE_TEXT, instance_id=i) for i in ("t1", "t2"))
    assert again.response_schema is first.response_schema
    fresh = build_entity_prompt(builtin_task("hearsay"), SAMPLE_TEXT, instance_id="t1")
    assert fresh.response_schema == first.response_schema and fresh.response_schema is not first.response_schema
    copied = dataclasses.replace(hearsay)
    assert copied._schemas == {} and copied == hearsay and hash(copied) == hash(hearsay)
    assert build_entity_prompt(copied, SAMPLE_TEXT, instance_id="t1").response_schema is not first.response_schema
    assert "_schemas" not in repr(hearsay)


def test_threads_that_race_on_a_fresh_task_build_equal_prompts(hearsay):
    task, expected, results = dataclasses.replace(hearsay), every_step_request(hearsay), []
    threads = [threading.Thread(target=lambda: results.append(every_step_request(task))) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(threads)
    assert {r.digest() for requests in results for r in requests} == {r.digest() for r in expected}
    assert len(task._schemas) == 3  # the entities, and the assertions with and without the negative spec


def test_answer_schemas_dump_in_their_key_order(hearsay):
    fs, cot = (build_baseline_prompt(hearsay, SAMPLE_TEXT, style, [], instance_id="t1") for style in ("fs", "cot"))
    assert list(fs.response_schema) == list(cot.response_schema) == ["type", "required", "properties"]
    assert list(fs.response_schema["properties"]) == fs.response_schema["required"] == ["answer"]
    assert list(cot.response_schema["properties"]) == cot.response_schema["required"] == ["reasoning", "answer"]


def test_asked_spec_subsets_get_their_own_schema_and_dump(hearsay):
    full, partial = (
        build_assertion_prompt(hearsay, SAMPLE_TEXT, entities, False, instance_id="t1")
        for entities in (parsed_entities(hearsay), parsed_entities(hearsay, entity_reply(assertion=False)))
    )
    assert full.response_schema != partial.response_schema
    full_dump, partial_dump = (
        json.dumps(request.response_schema, indent=2, ensure_ascii=False) for request in (full, partial)
    )
    assert full_dump != partial_dump
    assert full.user.endswith(full_dump) and partial.user.endswith(partial_dump)
    assert full.digest() != partial.digest()


# -- backends -------------------------------------------------------------------


def test_parse_json_payload_variants():
    assert parse_json_payload('{"a": 1}') == {"a": 1}
    assert parse_json_payload('```json\n{"a": 1}\n```') == {"a": 1}
    assert parse_json_payload('Sure! {"a": {"b": 2}} hope that helps') == {"a": {"b": 2}}
    assert parse_json_payload("no json here") is None
    assert parse_json_payload("```\n[1, 2]\n```") == [1, 2]


def test_scripted_backend_missing_key():
    backend = ScriptedBackend({})
    with pytest.raises(BackendError, match="no scripted response"):
        backend.complete(
            ChatRequest("s", "u", {"k": 1}, model="m", instance_id="x", step="entity")
        )


def test_scripted_backend_repair_fallback():
    backend = ScriptedBackend({("x", "entity"): '{"ok": true}'})
    response = backend.complete(
        ChatRequest("s", "u", {"k": 1}, model="m", instance_id="x", step="entity_repair")
    )
    assert response.data == {"ok": True}


def test_scripted_backend_duplicate_records_rejected():
    records = [
        {"instance_id": "a", "step": "fs", "response": "{}"},
        {"instance_id": "a", "step": "fs", "response": "{}"},
    ]
    with pytest.raises(BackendError, match="duplicate"):
        ScriptedBackend.from_records(records)


@pytest.mark.parametrize(
    "record, field",
    [
        ({"instance_id": "t01", "step": ["entity"], "response": "{}"}, "step"),
        ({"instance_id": 1, "step": "entity", "response": "{}"}, "instance_id"),
        ({"instance_id": "t01", "step": "entity", "response": {}}, "response"),
    ],
)
def test_scripted_backend_rejects_non_string_record_fields(record, field):
    records = [{"instance_id": "t00", "step": "fs", "response": "{}"}, record]
    with pytest.raises(BackendError, match=f"replay record 1: {field} must be a string"):
        ScriptedBackend.from_records(records)


def test_a_request_needs_a_response_schema():
    with pytest.raises(BackendError) as caught:
        ChatRequest("s", "u", {}, model="m", instance_id="x", step="fs")
    assert str(caught.value) == "response_schema must be non-empty"


def test_scripted_backend_rejects_a_record_without_step():
    records = [{"instance_id": "t01", "response": "{}"}]
    with pytest.raises(BackendError) as caught:
        ScriptedBackend.from_records(records)
    assert str(caught.value) == "replay record 0 needs instance_id, step, response"


def _missing_replay_file(tmp_path):
    path = tmp_path / "absent.json"
    return path, f"cannot load replay file {path}: [Errno 2] No such file or directory: '{path}'"


def _unparsable_replay_file(tmp_path):
    path = tmp_path / "replay.json"
    path.write_text("{nope", encoding="utf-8")
    detail = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    return path, f"cannot load replay file {path}: {detail}"


def _object_replay_file(tmp_path):
    path = tmp_path / "replay.json"
    path.write_text('{"instance_id": "t01"}', encoding="utf-8")
    return path, f"replay file {path} must hold a JSON array"


@pytest.mark.parametrize(
    "make",
    [_missing_replay_file, _unparsable_replay_file, _object_replay_file],
    ids=["missing", "bad-json", "object"],
)
def test_scripted_backend_rejects_a_replay_file_it_cannot_use(make, tmp_path):
    path, message = make(tmp_path)
    with pytest.raises(BackendError) as caught:
        ScriptedBackend.from_file(path)
    assert str(caught.value) == message


class _SpyBackend:
    def __init__(self):
        self.steps = []

    def complete(self, request):
        self.steps.append((request.instance_id, request.step))
        return BackendResponse(text=f'{{"call": {len(self.steps)}}}', data={"call": len(self.steps)})


def test_store_forwards_each_missing_key_once_and_never_a_held_one():
    spy = _SpyBackend()
    store = ScriptedBackend({("a", "fs"): '{"held": true}'}, inner=spy)
    held = ChatRequest("s", "u", {"k": 1}, model="m", instance_id="a", step="fs")
    fresh = ChatRequest("s", "u", {"k": 1}, model="m", instance_id="b", step="fs")
    assert store.complete(held).data == {"held": True}
    assert store.complete(fresh).data == {"call": 1}
    assert store.complete(fresh).data == {"call": 1}
    assert spy.steps == [("b", "fs")]


def test_store_with_inner_backend_forwards_a_repair_step():
    spy = _SpyBackend()
    store = ScriptedBackend({("x", "entity"): "not json"}, inner=spy)
    response = store.complete(
        ChatRequest("s", "u", {"k": 1}, model="m", instance_id="x", step="entity_repair")
    )
    assert response.data == {"call": 1}
    assert spy.steps == [("x", "entity_repair")]


def test_recording_backend_round_trip(tmp_path):
    inner = ScriptedBackend({("a", "fs"): '{"answer": "Yes"}'})
    store = ScriptedBackend({}, inner=inner)
    request = ChatRequest("s", "u", {"k": 1}, model="m", instance_id="a", step="fs")
    first = store.complete(request)
    path = tmp_path / "replay.json"
    store.save(path)
    replay = ScriptedBackend.from_file(path)
    assert replay.complete(request) == first


_CUT_SHORT = "cut short"  # the headers promise 100 more bytes than the server sends before it closes
_STALL = "stall"  # the headers are sent and the body is withheld until the test ends


class _LoopbackServer(ThreadingHTTPServer):
    """Serves a scripted list of (status, body) replies in order and records
    each request's JSON body (None without one) and headers in ``seen``. A
    302 reply's body is its Location."""

    daemon_threads = True

    def __init__(self, replies):
        super().__init__(("127.0.0.1", 0), _LoopbackHandler)
        self.replies = list(replies)
        self.seen = []
        self.release = threading.Event()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat"


class _LoopbackHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        server.seen.append((json.loads(self.rfile.read(length)) if length else None, self.headers))
        status, body = server.replies.pop(0)
        raw = body.encode("utf-8") if isinstance(body, str) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        if status == 302:
            self.send_header("Location", body)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw) + 100 if body == _CUT_SHORT else len(raw)))
        self.end_headers()
        if body == _STALL:
            server.release.wait(10)
            return
        self.wfile.write(raw)

    do_GET = do_POST  # a 302 reply turns the POST into a GET

    def log_message(self, format, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """``loopback(*replies)`` starts a ``_LoopbackServer`` on a free port of
    127.0.0.1; every server it started is stopped when the test ends."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    started = []

    def serve(*replies):
        server = _LoopbackServer(replies)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        started.append((server, thread))
        return server

    yield serve
    for server, thread in started:
        server.release.set()
        server.shutdown()
        thread.join()
        server.server_close()


def _answer_reply(content):
    return 200, {"choices": [{"message": {"content": content}}]}


def test_http_backend_requires_key(monkeypatch):
    monkeypatch.delenv("RULEWEAVE_API_KEY", raising=False)
    with pytest.raises(BackendError, match="RULEWEAVE_API_KEY"):
        HttpBackend("https://api.example/v1/chat/completions", "model-x")


def test_http_backend_happy_path_and_retry(monkeypatch, loopback):
    server = loopback((429, "slow down"), _answer_reply('{"answer": "No"}'))
    monkeypatch.setattr("time.sleep", lambda _s: None)
    backend = HttpBackend(server.url, "model-x", api_key="k123")
    response = backend.complete(
        ChatRequest("s", "u", {"k": 1}, model="", instance_id="a", step="fs")
    )
    assert response.data == {"answer": "No"}
    assert len(server.seen) == 2
    body, headers = server.seen[0]
    assert body["model"] == "model-x"
    assert headers["Authorization"] == "Bearer k123"


@pytest.mark.parametrize("content", [None, ["{}"], {"answer": "No"}])
def test_http_backend_non_string_content_is_a_backend_error(loopback, content):
    server = loopback(_answer_reply(content))
    backend = HttpBackend(server.url, "m", api_key="k")
    with pytest.raises(BackendError, match="unexpected response shape.*not a string"):
        backend.complete(ChatRequest("s", "u", {"k": 1}, model="", instance_id="a", step="fs"))


def test_http_backend_reply_that_is_not_json_is_a_backend_error(loopback):
    server = loopback((200, "<html>not json</html>"))
    backend = HttpBackend(server.url, "m", api_key="k")
    with pytest.raises(BackendError, match="unexpected response shape"):
        backend.complete(ChatRequest("s", "u", {"k": 1}, model="", instance_id="a", step="fs"))


def test_http_backend_client_error_is_fatal(loopback):
    server = loopback((400, "bad request"))
    backend = HttpBackend(server.url, "m", api_key="k")
    with pytest.raises(BackendError, match="HTTP 400"):
        backend.complete(ChatRequest("s", "u", {"k": 1}, model="", instance_id="a", step="fs"))


def test_rate_limiter_sleeps_until_the_oldest_stamp_is_a_minute_old(monkeypatch):
    clock = [100.0]
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock[0] += seconds

    monkeypatch.setattr("time.monotonic", lambda: clock[0])
    monkeypatch.setattr("time.sleep", fake_sleep)
    limiter = _RateLimiter(2)
    limiter.wait()
    clock[0] += 10.0
    limiter.wait()
    clock[0] += 5.0
    limiter.wait()
    assert sleeps == [45.0]
    assert list(limiter._stamps) == [110.0, 160.0]


def test_http_backend_transport_error_is_a_backend_error(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with socket.socket() as probe:  # a port that was just free and now has no listener
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}/v1/chat"
    backend = HttpBackend(url, "m", api_key="k")
    with pytest.raises(BackendError, match=f"request to {re.escape(url)} failed"):
        backend.complete(ChatRequest("s", "u", {"k": 1}, model="", instance_id="a", step="fs"))


@pytest.mark.parametrize("body", [_CUT_SHORT, _STALL])
def test_http_backend_reply_cut_short_or_stalled_is_a_backend_error(loopback, body):
    server = loopback((200, body))
    backend = HttpBackend(server.url, "m", api_key="k", timeout=0.2)
    with pytest.raises(BackendError, match=f"request to {re.escape(server.url)} failed"):
        backend.complete(ChatRequest("s", "u", {"k": 1}, model="", instance_id="a", step="fs"))


def test_http_backend_does_not_forward_the_key_on_a_redirect(loopback):
    target = loopback((200, "moved here"))
    server = loopback((302, target.url))
    backend = HttpBackend(server.url, "m", api_key="k")
    with pytest.raises(BackendError, match="unexpected response shape"):
        backend.complete(ChatRequest("s", "u", {"k": 1}, model="", instance_id="a", step="fs"))
    assert server.seen[0][1]["Authorization"] == "Bearer k"
    body, headers = target.seen[0]
    assert body is None and "Authorization" not in headers


@pytest.mark.parametrize("endpoint", ["localhost:9/v1", "ftp://h/x", "file:///tmp/x", "http://"])
def test_http_backend_rejects_an_endpoint_that_is_not_an_http_url(endpoint):
    with pytest.raises(BackendError, match=f"endpoint {re.escape(repr(endpoint))} must be an http"):
        HttpBackend(endpoint, "m", api_key="k")


@pytest.mark.parametrize(
    "endpoint, message",
    [
        ("", "endpoint must be set for the HTTP backend"),
        ("http://[::1", "endpoint 'http://[::1' must be an http:// or https:// URL with a host"),
    ],
    ids=["empty", "unclosed-bracket"],
)
def test_http_backend_rejects_an_empty_or_unparsable_endpoint(endpoint, message):
    with pytest.raises(BackendError) as caught:
        HttpBackend(endpoint, "m", api_key="k")
    assert str(caught.value) == message


def test_http_backend_gives_up_after_three_server_errors(monkeypatch, loopback):
    sleeps = []
    server = loopback(*[(503, "busy")] * 3)
    monkeypatch.setattr("time.sleep", sleeps.append)
    backend = HttpBackend(server.url, "m", api_key="k")
    with pytest.raises(BackendError, match=r"gave up after 3 attempts \(HTTP 503\)"):
        backend.complete(ChatRequest("s", "u", {"k": 1}, model="", instance_id="a", step="fs"))
    assert sleeps == [1, 2]


def test_importing_ruleweave_loads_no_http_client_or_ssl():
    # Every fresh process that imports ruleweave pays for these, so HttpBackend
    # imports its client on the first request.
    from perfbench.workloads import MODULES

    imports = "; ".join(f"import ruleweave.{name}" for name in MODULES)
    check = f"import sys; {imports}; print(sorted(sys.modules))"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, env=env, check=True)
    loaded = set(ast.literal_eval(done.stdout))
    assert {f"ruleweave.{name}" for name in MODULES} <= loaded
    assert not loaded & {"http.client", "urllib.request", "ssl", "requests"}
