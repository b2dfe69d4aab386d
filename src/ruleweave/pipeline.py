"""Per-instance orchestration of the six experimental conditions.

One runner, ``evaluate_instance``, runs a condition's steps in order into a
single InstanceTrace. The baselines are one prompt each (FS, CoT). The
decomposed conditions run entity identification, then assertion extraction
(plain or complementary), and then either hand the populated ABox to the
reasoner (SD, SD-Comp) or ask the model for the final call directly
(SD-Direct, SD-Direct-Comp). A required entity that is not found ends the
run as NotExtractable with the negative label; a backend failure or an
unparseable reply ends it as Error with no prediction.

Every trace keeps the raw exchanges, each extraction that parsed, and for
reasoner conditions the ABox snapshot and which rules fired. Traces serialize
to JSON lines; apart from one timestamp in the file header, identical inputs
give byte-identical files. ``load_traces`` reads such a file back, and
``restore_instances`` merges its snapshots into the one ABox a query reads.
"""

from __future__ import annotations

import enum
import functools
import json
import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Iterator, Optional

from .backends import Backend, ChatRequest
from .errors import BackendError, ConfigError, DatasetError, MalformedResponseError, NotExtractable
from .extraction import (
    STEP_COT,
    STEP_FS,
    AssertionExtraction,
    EntityExtraction,
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
    run_step,
)
from .ontology import ABox, Asserted, Inferred, Iri, Origin, TBox
from .reasoner import classify, forward_chain
from .tasklib import BELONGS_TO_CASE, INSTANCE_PREFIX, NEGATIVE_LABEL, POSITIVE_LABEL, UNARY, TaskDefinition

OUTCOME_OK = "Ok"
OUTCOME_INCONSISTENT = "Inconsistent"
OUTCOME_NOT_EXTRACTABLE = "NotExtractable"
OUTCOME_ERROR = "Error"

CLASS_PREDICATE = "a"


class Condition(enum.Enum):
    FS = "FS"
    COT = "CoT"
    SD = "SD"
    SD_COMP = "SD-Comp"
    SD_DIRECT = "SD-Direct"
    SD_DIRECT_COMP = "SD-Direct-Comp"

    @property
    def complementary(self) -> bool:
        return self in (Condition.SD_COMP, Condition.SD_DIRECT_COMP)

    @property
    def uses_reasoner(self) -> bool:
        return self in (Condition.SD, Condition.SD_COMP)


_CONDITION_ALIASES = {
    **{c.value.lower(): c for c in Condition},
    "sd-c": Condition.SD_COMP,
    "sd-direct-c": Condition.SD_DIRECT_COMP,
}


def parse_condition(text: str) -> Condition:
    key = text.strip().lower().replace("_", "-")
    try:
        return _CONDITION_ALIASES[key]
    except KeyError:
        valid = ", ".join(c.value for c in Condition)
        raise ConfigError(f"unknown condition {text!r}; expected one of {valid}") from None


ALL_CONDITIONS = tuple(Condition)


@dataclass
class InstanceTrace:
    instance_id: str
    condition: str
    label: str
    prediction: Optional[str]
    outcome: str
    raw_exchanges: list[dict] = field(default_factory=list)
    entity_extraction: Optional[dict] = None
    assertion_extraction: Optional[dict] = None
    abox_snapshot: Optional[list[dict]] = None
    fired: Optional[list[dict]] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {"type": "instance", **vars(self)}


_ASSERTED = "asserted:"
_INFERRED = "inferred:"


def _origin_text(origin) -> str:
    if isinstance(origin, Asserted):
        return f"{_ASSERTED}{origin.justification}"
    assert isinstance(origin, Inferred)
    return f"{_INFERRED}{origin.rule_name}"


def snapshot_abox(abox: ABox) -> list[dict]:
    """Flatten an ABox to origin-tagged triples, class assertions first."""
    facts = sorted((ind, CLASS_PREDICATE, cls, origin) for ind, classes in abox.direct_classes.items()
                   for cls, origin in classes.items())
    facts += sorted((s, p, o, origin) for p, index in abox.by_subject.items()
                    for s, objects in index.items() for o, origin in objects.items())
    return [{"subject": s, "predicate": p, "object": o, "origin": _origin_text(origin)} for s, p, o, origin in facts]


_triple_fields = operator.itemgetter("subject", "predicate", "object", "origin")
_NO_FIELDS = (None,) * 4
_ORIGIN_KINDS = {_ASSERTED: Asserted, _INFERRED: Inferred}


def _decode_origin(origin: str) -> Optional[Origin]:
    """The origin a snapshot origin string names; None if it is of neither form."""
    head, _, text = origin.partition(":")
    kind = _ORIGIN_KINDS.get(f"{head}:")
    return kind(text) if kind is not None and text else None


def restore_abox(tbox: TBox, snapshot: Iterable[dict]) -> ABox:
    """Rebuild an ABox from snapshot triples, keeping each triple's origin.
    Each triple is checked and then restored, in one walk, so the first
    faulty triple in order decides the error. A triple that is not a dict
    with str subject, predicate, object and origin, or whose origin is of
    neither form "asserted:<justification>" nor "inferred:<rule>" with a
    non-empty remainder, raises ValueError("malformed snapshot triple ...");
    a non-string field is such a ValueError, not an IriError. A malformed
    name string raises IriError, an undeclared class or property
    UndeclaredError and a justification UTF-8 cannot encode
    UnicodeEncodeError, before the triple is inserted; only asserted property
    triples get domain and range checks. Each distinct name and origin string
    is decoded once per call, and no cache outlives the call."""
    abox = ABox(tbox)
    # functools.cache keeps no result for a call that raised: a bad name raises again
    name, decode_origin = functools.cache(Iri.parse), functools.cache(_decode_origin)
    insert_class, insert_property, check_property = abox._insert_class, abox._insert_property, abox._check_property
    for triple in snapshot:
        try:
            subject, predicate, obj, text = _triple_fields(triple) if isinstance(triple, dict) else _NO_FIELDS
        except KeyError:
            subject = predicate = obj = text = None
        # a missing or non-string field leaves no origin, so the test below fails
        strings = isinstance(subject, str) and isinstance(predicate, str) and isinstance(obj, str)
        origin = decode_origin(text) if strings and isinstance(text, str) else None
        if origin is None:
            raise ValueError(f"malformed snapshot triple {triple!r}")
        if predicate == CLASS_PREDICATE:
            insert_class(name(subject), name(obj), origin)
            continue
        fact = (name(subject), name(predicate), name(obj))
        if isinstance(origin, Asserted):
            check_property(*fact)
        insert_property(*fact, origin)
    return abox


# -- ABox population ------------------------------------------------------------


def populate_abox(
    task: TaskDefinition,
    instance_id: str,
    entities: EntityExtraction,
    assertions: AssertionExtraction,
) -> ABox:
    abox = ABox(task.tbox)
    case = case_individual(instance_id)
    specs = {spec.name: spec for spec in task.assertion_specs}
    for spec in task.entity_specs:
        record = entities.get(spec.name)
        if record.found:
            abox.assert_class(record.individual, spec.ontology_class, record.explanation)
            note = f"entity {spec.name} extracted from instance {instance_id}"
            abox.assert_property(record.individual, BELONGS_TO_CASE, case, note)
    for record in assertions.records:
        if not record.holds:
            continue
        spec = specs[record.name]
        if spec.arity == UNARY:
            abox.assert_class(record.subject, spec.maps_to, record.justification)
        else:
            abox.assert_property(record.subject, spec.maps_to, record.object, record.justification)
    return abox


# -- the condition runner ----------------------------------------------------------


def evaluate_instance(
    task: TaskDefinition,
    instance_id: str,
    text: str,
    label: str,
    condition: Condition,
    backend: Backend,
    exemplars: Optional[list[tuple[str, str]]] = None,
    model: str = "",
    temperature: float = 0.0,
) -> InstanceTrace:
    """Run one instance under one condition; never raises for model faults."""
    trace = InstanceTrace(instance_id, condition.value, label, prediction=None, outcome=OUTCOME_OK)
    prompt = {"instance_id": instance_id, "model": model, "temperature": temperature}
    complementary = condition.complementary

    def ask(request: ChatRequest, parse):
        return run_step(backend, request, parse, trace.raw_exchanges)

    try:
        if condition is Condition.COT:
            request = build_baseline_prompt(task, text, STEP_COT, exemplars or [], **prompt)
            _, answer = ask(request, parse_cot_response)
        elif condition is Condition.FS:
            request = build_baseline_prompt(task, text, STEP_FS, exemplars or [], **prompt)
            answer = ask(request, parse_answer_response)
        else:
            request = build_entity_prompt(task, text, **prompt)
            entities = ask(request, lambda data: parse_entity_response(data, task, instance_id))
            trace.entity_extraction = {"records": [dict(vars(r)) for r in entities.records]}
            request = build_assertion_prompt(task, text, entities, complementary, **prompt)
            assertions = ask(
                request, lambda data: parse_assertion_response(data, task, entities, complementary)
            )
            trace.assertion_extraction = {"records": [dict(vars(r)) for r in assertions.records]}
            if not condition.uses_reasoner:
                request = build_direct_prompt(task, entities, assertions, complementary, **prompt)
                answer = ask(request, parse_answer_response)
    except NotExtractable as exc:
        trace.prediction, trace.outcome = NEGATIVE_LABEL, OUTCOME_NOT_EXTRACTABLE
        trace.error = str(exc)
        return trace
    except (BackendError, MalformedResponseError) as exc:
        trace.outcome, trace.error = OUTCOME_ERROR, str(exc)
        return trace
    if not condition.uses_reasoner:
        trace.prediction = answer
        return trace

    result = forward_chain(task.tbox, populate_abox(task, instance_id, entities, assertions))
    trace.abox_snapshot = snapshot_abox(result.abox)
    trace.fired = [{"rule": name, "binding": binding} for name, binding in result.fired]
    target = mint_individual(instance_id, task.target_entity)
    positive = result.consistent and classify(result, target, task.target_class)
    trace.prediction = POSITIVE_LABEL if positive else NEGATIVE_LABEL
    if not result.consistent:
        trace.outcome = OUTCOME_INCONSISTENT
        trace.error = "; ".join(
            f"{ind} is a member of disjoint classes {a} and {b}"
            for ind, a, b in result.violations
        )
    return trace


# -- trace files -----------------------------------------------------------------


def dump_traces(
    traces: list[InstanceTrace],
    task_id: str,
    condition: Condition,
    model: str,
    timestamp: Optional[str] = None,
) -> str:
    """Render a trace file: a header line then one JSON line per instance."""
    created = timestamp or datetime.now(timezone.utc).isoformat(timespec="seconds")
    header = {
        "type": "header",
        "task": task_id,
        "condition": condition.value,
        "model": model,
        "created": created,
    }
    lines = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
    for trace in sorted(traces, key=lambda t: t.instance_id):
        lines.append(json.dumps(trace.to_dict(), sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


_HEADER_FIELDS = {"task": (str,), "condition": (str,), "model": (str,)}
_INSTANCE_FIELDS = {
    "instance_id": (str,),
    "label": (str,),
    "prediction": (str, type(None)),
    "outcome": (str,),
}


def _check_fields(record: dict, fields: dict, where: str) -> None:
    for name, types in fields.items():
        if name not in record:
            raise ValueError(f"{where}: {record['type']} record has no {name!r}")
        if not isinstance(record[name], types):
            raise ValueError(f"{where}: {record['type']} field {name!r} has the wrong type")


def iter_traces(path) -> Iterator[dict]:
    """Yield each record of a trace file in file order, the header included,
    once its line is a JSON object of a known type with that type's fields.
    A malformed line, a second header or a repeated instance id raises
    ValueError naming path:line when it is reached, and a file without a
    header raises ValueError after its last line."""
    header, seen = False, set()
    with open(path, encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{line_no}"
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: invalid JSON ({exc.msg})") from None
                if not isinstance(record, dict):
                    raise ValueError(f"{where}: a trace line must be a JSON object")
                if record.get("type") == "header":
                    _check_fields(record, _HEADER_FIELDS, where)
                    if header:
                        raise ValueError(f"{where}: a second header line")
                    header = True
                elif record.get("type") == "instance":
                    _check_fields(record, _INSTANCE_FIELDS, where)
                    if record["instance_id"] in seen:
                        raise ValueError(f"{where}: instance {record['instance_id']!r} appears twice")
                    seen.add(record["instance_id"])
                else:
                    raise ValueError(f"{where}: unknown trace record type")
                yield record
        except UnicodeDecodeError as exc:  # the file is decoded a block at a time
            raise ValueError(f"{path}: not UTF-8 ({exc.reason})") from None
    if not header:
        raise ValueError(f"{path}: missing header line")


def load_traces(path, keep: Optional[tuple[str, ...]] = None) -> tuple[dict, list[dict]]:
    """A whole trace file through iter_traces: its one header and its
    instance records in file order. With `keep`, each instance record is cut
    as its line is read to its instance_id and those fields, None where absent."""
    header, records = None, []
    for record in iter_traces(path):
        if record["type"] == "header":
            header = record
        elif keep is None:
            records.append(record)
        else:
            records.append({key: record.get(key) for key in ("instance_id", *keep)})
    return header, records


def restore_instances(tbox: TBox, records: Iterable[dict]) -> ABox:
    """One ABox from each record's abox_snapshot in order, through restore_abox,
    skipping a None snapshot. A ValueError, a non-list snapshot included, names
    the instance; an `inst:` individual two instances name raises DatasetError."""
    instance = None
    owner: dict[str, str] = {}  # minted individual -> the instance that names it

    def triples():  # in order; `instance` names the record being read
        nonlocal instance
        for record in records:
            instance, snapshot = record["instance_id"], record.get("abox_snapshot")
            if snapshot is None:
                continue
            if not isinstance(snapshot, list):
                raise ValueError("abox_snapshot is not a list")
            yield from snapshot
            # restore_abox has checked these triples: their fields are strings
            for name in sorted({t["subject"] for t in snapshot} | {
                t["object"] for t in snapshot if t["predicate"] != CLASS_PREDICATE
            }):
                other = owner.setdefault(name, instance)
                if other != instance and name.startswith(f"{INSTANCE_PREFIX}:"):
                    raise DatasetError(f"instances {other!r} and {instance!r} both name the individual {name}")

    try:
        return restore_abox(tbox, triples())
    except ValueError as exc:
        raise ValueError(f"instance {instance!r}: {exc}") from None
