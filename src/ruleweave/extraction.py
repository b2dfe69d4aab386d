"""Prompt construction and structured-response parsing for the two LLM steps.

Step one identifies entities, step two extracts yes/no assertions about them.
Prompt builders are pure functions of their arguments. Parsing is strict; a
malformed reply earns exactly one repair attempt before the instance is given
up as an error.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, TypeVar

from .backends import Backend, ChatRequest, _Schema
from .errors import MalformedResponseError, NotExtractable
from .ontology import _NAME_RE, Iri
from .tasklib import (
    BINARY,
    INSTANCE_PREFIX,
    NEGATIVE_LABEL,
    POSITIVE_LABEL,
    AssertionSpec,
    TaskDefinition,
    effective_assertion_specs,
)

T = TypeVar("T")

STEP_ENTITY = "entity"
STEP_ASSERTION = "assertion"
STEP_ASSERTION_COMP = "assertion_comp"
STEP_DIRECT = "direct"
STEP_DIRECT_COMP = "direct_comp"
STEP_FS = "fs"
STEP_COT = "cot"

# Compiled at import, so the first name minted (by task validation) pays no compile.
_NON_NAME_CHAR = re.compile(r"[^A-Za-z0-9_]")


def sanitize_local_name(text: str) -> str:
    cleaned = _NON_NAME_CHAR.sub("_", text)
    return cleaned if _NAME_RE.match(cleaned) else "_" + cleaned


# A sanitized local name always fits the name grammar, so these two skip Iri's checks.
def mint_individual(instance_id: str, entity_name: str) -> Iri:
    return sys.intern(f"{INSTANCE_PREFIX}:{sanitize_local_name(f'{instance_id}_{entity_name}')}")


def case_individual(instance_id: str) -> Iri:
    return sys.intern(f"{INSTANCE_PREFIX}:{sanitize_local_name(instance_id)}")


@dataclass(frozen=True)
class EntityRecord:
    name: str
    found: bool
    span: Optional[str] = None
    individual: Optional[Iri] = None
    explanation: Optional[str] = None


class _Records:
    """An extraction's records, looked up by name."""

    def get(self, name: str):
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(name)


@dataclass(frozen=True)
class EntityExtraction(_Records):
    records: tuple[EntityRecord, ...]

    def found(self, name: str) -> bool:
        return self.get(name).found


@dataclass(frozen=True)
class AssertionRecord:
    name: str
    holds: bool
    subject: Optional[Iri]
    justification: str
    object: Optional[Iri] = None


@dataclass(frozen=True)
class AssertionExtraction(_Records):
    records: tuple[AssertionRecord, ...]


# -- prompt builders ----------------------------------------------------------


def _require_input(input_text: str) -> str:
    if not isinstance(input_text, str) or not input_text.strip():
        raise ValueError("input text must be non-empty")
    return input_text


_RECORD_FIELDS = {
    "entities": {
        "found": {"type": "boolean"},
        "span": {"type": ["string", "null"]},
        "individual": {"type": ["string", "null"]},
        "explanation": {"type": ["string", "null"]},
    },
    "assertions": {
        "holds": {"type": "boolean"},
        "justification": {"type": "string", "minLength": 1},
    },
}


def _schema_records(task: TaskDefinition, key: str, names: tuple[str, ...]) -> _Schema:
    """One record per name under ``key``; built once per task for each (key, names).
    Threads that race here build equal schemas, so either may be kept."""
    memo = task._schemas
    if (key, names) in memo:
        return memo[key, names]
    fields = {"name": {"enum": list(names)}, **_RECORD_FIELDS[key]}
    schema = {
        "type": "object",
        "required": [key],
        "properties": {
            key: {
                "type": "array",
                "minItems": len(names),
                "maxItems": len(names),
                "items": {
                    "type": "object",
                    "required": list(fields),
                    "properties": fields,
                },
            }
        },
    }
    memo[key, names] = _Schema(schema)
    return memo[key, names]


# The schemas of a label answer; CoT asks for its reasoning first.
_ANSWER = {"answer": {"enum": [POSITIVE_LABEL, NEGATIVE_LABEL]}}
_ANSWER_SCHEMA, _COT_SCHEMA = (
    _Schema({"type": "object", "required": list(properties), "properties": properties})
    for properties in (_ANSWER, {"reasoning": {"type": "string", "minLength": 1}, **_ANSWER})
)


def _system_preamble(task: TaskDefinition) -> str:
    return (
        "You are a careful annotator feeding a rule-based reasoning system. "
        "Respond with a single JSON object and nothing else.\n\n"
        f"Domain context: {task.domain_context}"
    )


def _request(
    task: TaskDefinition,
    lines: list[str],
    schema: _Schema,
    step: str,
    instance_id: str,
    model: str,
    temperature: float,
) -> ChatRequest:
    """The envelope every prompt shares: the prompt lines, then the schema dump."""
    lines.append(schema.prompt_dump)
    return ChatRequest(
        system=_system_preamble(task),
        user="\n".join(lines),
        response_schema=schema,
        model=model,
        instance_id=instance_id,
        step=step,
        temperature=temperature,
    )


def build_entity_prompt(
    task: TaskDefinition,
    input_text: str,
    *,
    instance_id: str,
    model: str = "",
    temperature: float = 0.0,
) -> ChatRequest:
    _require_input(input_text)
    schema = _schema_records(task, "entities", tuple(spec.name for spec in task.entity_specs))
    lines = ["Identify the following kinds of entity in the input text."]
    for i, spec in enumerate(task.entity_specs, start=1):
        tag = "required" if spec.required else "optional"
        lines.append(f"{i}. {spec.name} ({tag}): {spec.description}")
    lines.append("")
    lines.append("Input text:")
    lines.append(input_text)
    lines.append("")
    lines.append(
        "Reply with one record per entity kind, in the order listed. "
        "When found is true, fill span (verbatim excerpt), individual (a short "
        "identifier of your choosing) and explanation. Use JSON matching this schema:"
    )
    return _request(task, lines, schema, STEP_ENTITY, instance_id, model, temperature)


def askable_specs(
    task: TaskDefinition, entities: EntityExtraction, complementary: bool
) -> list[AssertionSpec]:
    """The effective specs whose entities were all found, the ones asked about.

    Raises NotExtractable when a required entity was not found at all.
    """
    missing_required = [
        spec.name
        for spec in task.entity_specs
        if spec.required and not entities.found(spec.name)
    ]
    if missing_required:
        raise NotExtractable(
            "required entity not identified: " + ", ".join(missing_required)
        )
    return [
        spec
        for spec in effective_assertion_specs(task, complementary)
        if entities.found(spec.subject_entity)
        and (spec.arity != BINARY or entities.found(spec.object_entity))
    ]


def build_assertion_prompt(
    task: TaskDefinition,
    input_text: str,
    entities: EntityExtraction,
    complementary: bool,
    *,
    instance_id: str,
    model: str = "",
    temperature: float = 0.0,
) -> ChatRequest:
    _require_input(input_text)
    asked = askable_specs(task, entities, complementary)
    schema = _schema_records(task, "assertions", tuple(spec.name for spec in asked))
    lines = ["Entities identified in the input:"]
    for spec in task.entity_specs:
        record = entities.get(spec.name)
        if record.found:
            lines.append(f"- {spec.name}: {record.span!r}")
    lines.append("")
    lines.append("Decide whether each of the following holds in the input text.")
    for i, spec in enumerate(asked, start=1):
        if spec.arity == BINARY:
            involves = f"{spec.subject_entity} and {spec.object_entity}"
        else:
            involves = spec.subject_entity
        lines.append(f"{i}. {spec.name} (about {involves}): {spec.description}")
    lines.append("")
    lines.append("Input text:")
    lines.append(input_text)
    lines.append("")
    lines.append(
        "Reply with one record per determination, in the order listed, each with "
        "a boolean holds and a short justification. Use JSON matching this schema:"
    )
    step = STEP_ASSERTION_COMP if complementary else STEP_ASSERTION
    return _request(task, lines, schema, step, instance_id, model, temperature)


def build_direct_prompt(
    task: TaskDefinition,
    entities: EntityExtraction,
    assertions: AssertionExtraction,
    complementary: bool,
    *,
    instance_id: str,
    model: str = "",
    temperature: float = 0.0,
) -> ChatRequest:
    schema = _ANSWER_SCHEMA
    lines = ["Extracted entities:"]
    for record in entities.records:
        if record.found:
            lines.append(f"- {record.name}: {record.span!r}")
        else:
            lines.append(f"- {record.name}: not found")
    lines.append("")
    lines.append("Extracted determinations:")
    for record in assertions.records:
        lines.append(f"- {record.name} = {str(record.holds).lower()} ({record.justification})")
    lines.append("")
    lines.append(
        f"Based only on these extracted values, classify the {task.target_entity}: "
        f"answer {POSITIVE_LABEL} or {NEGATIVE_LABEL}. "
        'Use JSON matching this schema:'
    )
    step = STEP_DIRECT_COMP if complementary else STEP_DIRECT
    return _request(task, lines, schema, step, instance_id, model, temperature)


def build_baseline_prompt(
    task: TaskDefinition,
    input_text: str,
    style: str,
    exemplars: list[tuple[str, str]],
    *,
    instance_id: str,
    model: str = "",
    temperature: float = 0.0,
) -> ChatRequest:
    _require_input(input_text)
    if style not in (STEP_FS, STEP_COT):
        raise ValueError(f"unknown baseline style {style!r}")
    schema = _COT_SCHEMA if style == STEP_COT else _ANSWER_SCHEMA
    if style == STEP_COT:
        instruction = (
            "Reason step by step about the input, then give your final answer. "
            "Use JSON matching this schema:"
        )
    else:
        instruction = f"Answer {POSITIVE_LABEL} or {NEGATIVE_LABEL}. Use JSON matching this schema:"
    lines = []
    for i, (example_text, example_label) in enumerate(exemplars, start=1):
        lines.append(f"Example {i}:")
        lines.append(f"Input: {example_text}")
        lines.append(f"Answer: {example_label}")
        lines.append("")
    lines.append("Now the input to classify:")
    lines.append(input_text)
    lines.append("")
    lines.append(instruction)
    return _request(task, lines, schema, style, instance_id, model, temperature)


# -- response parsing ---------------------------------------------------------


def _records_by_name(data, key: str, expected: list[str]) -> dict[str, dict]:
    if not isinstance(data, dict) or not isinstance(data.get(key), list):
        raise MalformedResponseError(f"expected an object with a {key!r} array")
    records = data[key]
    seen: dict[str, dict] = {}
    for record in records:
        if not isinstance(record, dict) or not isinstance(record.get("name"), str):
            raise MalformedResponseError(f"every {key} record needs a string name")
        if record["name"] in seen:
            raise MalformedResponseError(f"duplicate record for {record['name']!r}")
        seen[record["name"]] = record
    if set(seen) != set(expected):
        raise MalformedResponseError(
            f"{key} records must cover exactly {sorted(expected)}, got {sorted(seen)}"
        )
    return seen


def _non_empty_string(record: dict, field_name: str, context: str) -> str:
    value = record.get(field_name)
    if not isinstance(value, str) or not value.strip():
        raise MalformedResponseError(f"{context}: {field_name} must be a non-empty string")
    return value


def parse_entity_response(data, task: TaskDefinition, instance_id: str) -> EntityExtraction:
    names = [spec.name for spec in task.entity_specs]
    by_name = _records_by_name(data, "entities", names)
    minted: list[EntityRecord] = []
    model_ids: set[str] = set()
    for spec in task.entity_specs:
        record = by_name[spec.name]
        found = record.get("found")
        if not isinstance(found, bool):
            raise MalformedResponseError(f"{spec.name}: found must be a boolean")
        if not found:
            minted.append(EntityRecord(name=spec.name, found=False))
            continue
        span = _non_empty_string(record, "span", spec.name)
        explanation = _non_empty_string(record, "explanation", spec.name)
        model_id = _non_empty_string(record, "individual", spec.name)
        if model_id in model_ids:
            raise MalformedResponseError(f"individual id {model_id!r} used twice")
        model_ids.add(model_id)
        minted.append(
            EntityRecord(
                name=spec.name,
                found=True,
                span=span,
                individual=mint_individual(instance_id, spec.name),
                explanation=explanation,
            )
        )
    return EntityExtraction(records=tuple(minted))


def parse_assertion_response(
    data,
    task: TaskDefinition,
    entities: EntityExtraction,
    complementary: bool,
) -> AssertionExtraction:
    asked = askable_specs(task, entities, complementary)
    by_name = _records_by_name(data, "assertions", [spec.name for spec in asked])
    records: list[AssertionRecord] = []
    for spec in effective_assertion_specs(task, complementary):
        subject = entities.get(spec.subject_entity).individual
        raw = by_name.get(spec.name)
        if raw is None:  # skipped for a missing entity
            missing = [
                name
                for name in (spec.subject_entity, spec.object_entity)
                if name is not None and not entities.found(name)
            ]
            reason = "not asked: " + ", ".join(missing) + " not identified"
            records.append(AssertionRecord(spec.name, False, subject, reason))
            continue
        holds = raw.get("holds")
        if not isinstance(holds, bool):
            raise MalformedResponseError(f"{spec.name}: holds must be a boolean")
        records.append(
            AssertionRecord(
                name=spec.name,
                holds=holds,
                subject=subject,
                object=(
                    entities.get(spec.object_entity).individual
                    if spec.arity == BINARY
                    else None
                ),
                justification=_non_empty_string(raw, "justification", spec.name),
            )
        )
    return AssertionExtraction(records=tuple(records))


def parse_answer_response(data) -> str:
    if not isinstance(data, dict):
        raise MalformedResponseError("expected a JSON object with an answer")
    answer = data.get("answer")
    if not isinstance(answer, str):
        raise MalformedResponseError("answer must be a string")
    answer = answer.strip()
    if answer not in (POSITIVE_LABEL, NEGATIVE_LABEL):
        raise MalformedResponseError(
            f"answer must be {POSITIVE_LABEL!r} or {NEGATIVE_LABEL!r}, got {answer!r}"
        )
    return answer


def parse_cot_response(data) -> tuple[str, str]:
    if not isinstance(data, dict):
        raise MalformedResponseError("expected a JSON object")
    reasoning = _non_empty_string(data, "reasoning", "chain of thought")
    return reasoning, parse_answer_response(data)


# -- request driving ----------------------------------------------------------


def repair_request(request: ChatRequest, error: MalformedResponseError) -> ChatRequest:
    note = (
        f"Your previous reply could not be used: {error}. "
        "Reply again with a single JSON object that matches the schema exactly."
    )
    return replace(request, user=f"{request.user}\n\n{note}", step=f"{request.step}_repair")


def run_step(
    backend: Backend,
    request: ChatRequest,
    parse: Callable[[object], T],
    exchanges: list[dict],
) -> T:
    """Issue a request, parse it, and retry once with a repair prompt.

    Raw (digest, response) pairs are appended to ``exchanges`` as they happen,
    so the caller keeps them even when this raises.
    """
    response = backend.complete(request)
    exchanges.append({"digest": request.digest(), "response": response.text})
    try:
        if response.data is None:
            raise MalformedResponseError("reply is not valid JSON")
        return parse(response.data)
    except MalformedResponseError as first_error:
        retry = repair_request(request, first_error)
        response = backend.complete(retry)
        exchanges.append({"digest": retry.digest(), "response": response.text})
        if response.data is None:
            raise MalformedResponseError(
                f"step {request.step}: reply is not valid JSON after repair"
            ) from first_error
        return parse(response.data)
