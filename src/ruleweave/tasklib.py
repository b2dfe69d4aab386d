"""Task definitions: an ontology plus the prompting metadata needed to populate it.

A task document is a JSON object with the keys

    id, context, prefixes, classes, properties, subclass, disjoint,
    rules, entities, assertions, target

and an optional free-text ``notes`` key. Rules are written in a compact
text form, ``"h:Statement(?s) ^ h:hasAssertion(?s, ?a) -> h:Hearsay(?s)"``.
Three documents ship with the package (hearsay, method_application,
clinical_eligibility) as embedded resources under ``data/tasks/``.

Every loaded task gets two reserved namespaces injected if absent: ``inst``
for minted individuals and ``sd`` for the bookkeeping property
``sd:belongsToCase`` that links extracted entities to their source text.

Datasets, prompts and scoring share one label pair, ``POSITIVE_LABEL``/
``NEGATIVE_LABEL`` ("Yes"/"No"), so ``target.labels`` must be exactly that pair.

``load_task`` ends by chaining the maximal instance with ``reasoner._fixpoint``,
the chainer without its consistency check (see ``_check_maximal_instance``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Optional

from .errors import (
    IriError,
    RuleSyntaxError,
    RuleweaveError,
    TaskDocumentError,
    UnsafeRuleError,
)
from .ontology import _NAME, _NAME_RE, Atom, ClassAtom, Iri, PropertyAtom, SwrlRule, TBox, Variable, atom_terms
from .reasoner import _fixpoint, _join

SD_PREFIX = "sd"
SD_URL = "http://example.org/sd#"
INSTANCE_PREFIX = "inst"
INSTANCE_URL = "http://example.org/instances#"
BELONGS_TO_CASE = Iri(SD_PREFIX, "belongsToCase")

POSITIVE_LABEL, NEGATIVE_LABEL = "Yes", "No"
_LABELS = {"positive": POSITIVE_LABEL, "negative": NEGATIVE_LABEL}

BUILTIN_TASK_IDS = ("hearsay", "method_application", "clinical_eligibility")

UNARY = "unary"
BINARY = "binary"

_TOP_LEVEL_KEYS = (
    "id",
    "context",
    "prefixes",
    "classes",
    "properties",
    "subclass",
    "disjoint",
    "rules",
    "entities",
    "assertions",
    "target",
)

_ATOM_RE = re.compile(rf"({_NAME}:{_NAME})\s*\(([^()]*)\)\Z")


@dataclass(frozen=True)
class EntitySpec:
    """One kind of thing the extractor should look for in the input text."""

    name: str
    ontology_class: Iri
    description: str
    required: bool


@dataclass(frozen=True)
class AssertionSpec:
    """One yes/no determination the extractor makes about entities.

    Unary specs assert class membership of the subject entity, binary specs
    assert a property between subject and object. ``negative`` marks the
    member of a complement pair that is dropped when complementary
    predicates are switched off.
    """

    name: str
    arity: str
    maps_to: Iri
    subject_entity: str
    description: str
    object_entity: Optional[str] = None
    complement_of: Optional[str] = None
    negative: bool = False


@dataclass(frozen=True)
class TaskDefinition:
    id: str
    domain_context: str
    tbox: TBox
    entity_specs: tuple[EntitySpec, ...]
    assertion_specs: tuple[AssertionSpec, ...]
    target_class: Iri
    target_entity: str
    notes: Optional[str] = None
    # extraction's prompt schemas by (records key, asked names), filled on first use
    _schemas: dict = field(default_factory=dict, init=False, compare=False, repr=False)


# -- rule text -------------------------------------------------------------


def parse_rule_term(text: str) -> Variable | Iri:
    text = text.strip()
    if text.startswith("?"):
        try:
            return Variable(text[1:])
        except UnsafeRuleError as exc:
            raise RuleSyntaxError(f"bad variable {text!r}: {exc}") from exc
    try:
        return Iri.parse(text)
    except IriError as exc:
        raise RuleSyntaxError(f"bad term {text!r}: {exc}") from exc


def parse_rule_atom(text: str) -> Atom:
    match = _ATOM_RE.match(text.strip())
    if not match:
        raise RuleSyntaxError(f"cannot parse atom {text.strip()!r}")
    predicate = Iri.parse(match.group(1))
    args = match.group(2).split(",")
    if len(args) == 1:
        return ClassAtom(predicate, parse_rule_term(args[0]))
    if len(args) == 2:
        return PropertyAtom(predicate, parse_rule_term(args[0]), parse_rule_term(args[1]))
    raise RuleSyntaxError(f"atom {text.strip()!r} has {len(args)} arguments, expected 1 or 2")


def parse_rule(name: str, text: str) -> SwrlRule:
    """Parse ``"C(?x) ^ p(?x, ?y) -> D(?x)"`` into a SwrlRule."""
    if not isinstance(text, str) or text.count("->") != 1:
        raise RuleSyntaxError(f"rule {name!r} must contain exactly one '->': {text!r}")
    body, head = text.split("->")
    if not body.strip():
        raise RuleSyntaxError(f"rule {name!r} has an empty antecedent")
    antecedent = tuple(parse_rule_atom(part) for part in body.split("^"))
    return SwrlRule(name, antecedent, parse_rule_atom(head))


# -- document loading --------------------------------------------------------


def _fail(path: str, message: str) -> TaskDocumentError:
    return TaskDocumentError(f"{path}: {message}")


class _At:
    """Raises a RuleweaveError from its block, unless a TaskDocumentError, at a document path."""

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, RuleweaveError) and not isinstance(exc, TaskDocumentError):
            raise _fail(self.path, str(exc)) from exc


def _string(doc: dict, key: str, path: str) -> str:
    value = doc.get(key)
    if not isinstance(value, str) or not value.strip():
        raise _fail(f"{path}.{key}" if path else key, "must be a non-empty string")
    return value


def _list(doc: dict, key: str, empty_ok: bool = False) -> list:
    value = doc.get(key)
    if not isinstance(value, list) or not (value or empty_ok):
        raise _fail(key, "must be a list" if empty_ok else "must be a non-empty list")
    return value


def _object(item: Any, path: str, keys: set[str]) -> None:
    if not isinstance(item, dict):
        raise _fail(path, "must be an object")
    unknown = set(item) - keys
    if unknown:
        raise _fail(path, f"unknown keys {sorted(unknown)}")


def _unique_name(item: dict, path: str, seen: set[str], kind: str) -> str:
    name = _string(item, "name", path)
    if name in seen:
        raise _fail(f"{path}.name", f"duplicate {kind} name {name!r}")
    seen.add(name)
    return name


def _parse_name(text: Any, prefixes: dict[str, str], path: str) -> Iri:
    if not isinstance(text, str):
        raise _fail(path, f"expected a prefixed name, got {text!r}")
    try:
        iri = Iri.parse(text)
    except IriError as exc:
        raise _fail(path, str(exc)) from exc
    prefix = iri.partition(":")[0]
    if prefix not in prefixes:
        raise _fail(path, f"unknown prefix {prefix!r} in {text!r}")
    return iri


def _pair_list(doc: dict, key: str, prefixes: dict[str, str]) -> list[tuple[Iri, Iri]]:
    raw = doc.get(key)
    if not isinstance(raw, list):
        raise _fail(key, "must be a list of two-element lists")
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise _fail(f"{key}[{i}]", "must be a two-element list")
        pairs.append(
            (
                _parse_name(item[0], prefixes, f"{key}[{i}][0]"),
                _parse_name(item[1], prefixes, f"{key}[{i}][1]"),
            )
        )
    return pairs


def _load_prefixes(doc: dict) -> dict[str, str]:
    raw = doc.get("prefixes")
    if not isinstance(raw, dict) or not raw:
        raise _fail("prefixes", "must be a non-empty object mapping prefix to base URL")
    prefixes: dict[str, str] = {}
    for name, url in raw.items():
        if not _NAME_RE.match(name):
            raise _fail("prefixes", f"invalid prefix name {name!r}")
        if not isinstance(url, str) or not url:
            raise _fail(f"prefixes.{name}", "base URL must be a non-empty string")
        prefixes[name] = url
    for reserved, url in ((SD_PREFIX, SD_URL), (INSTANCE_PREFIX, INSTANCE_URL)):
        if prefixes.setdefault(reserved, url) != url:
            raise _fail(f"prefixes.{reserved}", f"prefix is reserved for {url}")
    return prefixes


def _load_tbox(doc: dict, prefixes: dict[str, str]) -> TBox:
    tbox = TBox(prefixes)
    for i, name in enumerate(_list(doc, "classes")):
        tbox.declare_class(_parse_name(name, prefixes, f"classes[{i}]"))

    declared_at: dict[Iri, int] = {}
    for i, item in enumerate(_list(doc, "properties", empty_ok=True)):
        path = f"properties[{i}]"
        if isinstance(item, str):
            item = {"iri": item}
        if not isinstance(item, dict) or "iri" not in item:
            raise _fail(path, "must be a prefixed name or an object with an 'iri' key")
        _object(item, path, {"iri", "domain", "range"})
        endpoints = {
            side: _parse_name(item[side], prefixes, f"{path}.{side}")
            for side in ("domain", "range")
            if item.get(side) is not None
        }
        iri = _parse_name(item["iri"], prefixes, f"{path}.iri")
        if iri in declared_at:
            raise _fail(path, f"{iri} is already declared at properties[{declared_at[iri]}]")
        declared_at[iri] = i
        if iri == BELONGS_TO_CASE and endpoints:
            raise _fail(path, f"{iri} is reserved and takes no domain or range")
        with _At(path):
            tbox.declare_property(iri, domain=endpoints.get("domain"), range=endpoints.get("range"))
    if BELONGS_TO_CASE not in tbox.properties:
        tbox.declare_property(BELONGS_TO_CASE)

    for sub, super_ in _pair_list(doc, "subclass", prefixes):
        with _At("subclass"):
            tbox.add_subclass(sub, super_)
    for a, b in _pair_list(doc, "disjoint", prefixes):
        with _At("disjoint"):
            tbox.add_disjoint(a, b)

    seen_names = set()
    for i, item in enumerate(_list(doc, "rules")):
        path = f"rules[{i}]"
        if not isinstance(item, dict) or set(item) != {"name", "text"}:
            raise _fail(path, "must be an object with exactly 'name' and 'text'")
        name = _unique_name(item, path, seen_names, "rule")
        with _At(path):
            rule = parse_rule(name, item["text"])
            for atom in (*rule.antecedent, rule.consequent):
                for term in atom_terms(atom):
                    if not isinstance(term, Variable) and term.partition(":")[0] not in prefixes:
                        raise _fail(f"{path}.text", f"unknown prefix in term {term}")
            tbox.add_rule(rule)
    return tbox


def _load_entities(doc: dict, tbox: TBox, prefixes: dict[str, str]) -> tuple[EntitySpec, ...]:
    specs = []
    names = set()
    for i, item in enumerate(_list(doc, "entities")):
        path = f"entities[{i}]"
        _object(item, path, {"name", "class", "description", "required"})
        name = _unique_name(item, path, names, "entity")
        if not _NAME_RE.match(name):
            raise _fail(f"{path}.name", f"invalid entity name {name!r}")
        cls = _parse_name(item.get("class"), prefixes, f"{path}.class")
        if cls not in tbox.classes:
            raise _fail(f"{path}.class", f"class {cls} not declared")
        required = item.get("required")
        if not isinstance(required, bool):
            raise _fail(f"{path}.required", "must be true or false")
        specs.append(EntitySpec(name, cls, _string(item, "description", path), required))
    return tuple(specs)


def _load_assertions(
    doc: dict,
    tbox: TBox,
    prefixes: dict[str, str],
    entity_classes: dict[str, Iri],
) -> tuple[AssertionSpec, ...]:
    allowed = {
        "name",
        "arity",
        "maps_to",
        "subject",
        "object",
        "description",
        "complement_of",
        "complement_role",
    }
    specs: list[AssertionSpec] = []
    names = set()
    for i, item in enumerate(_list(doc, "assertions")):
        path = f"assertions[{i}]"
        _object(item, path, allowed)
        name = _unique_name(item, path, names, "assertion")
        arity = item.get("arity")
        if arity not in (UNARY, BINARY):
            raise _fail(f"{path}.arity", f"must be '{UNARY}' or '{BINARY}'")
        maps_to = _parse_name(item.get("maps_to"), prefixes, f"{path}.maps_to")
        if arity == UNARY and maps_to not in tbox.classes:
            raise _fail(f"{path}.maps_to", f"unary spec needs a declared class, got {maps_to}")
        if arity == BINARY and maps_to not in tbox.properties:
            raise _fail(f"{path}.maps_to", f"binary spec needs a declared property, got {maps_to}")
        subject = _string(item, "subject", path)
        if subject not in entity_classes:
            raise _fail(f"{path}.subject", f"unknown entity {subject!r}")
        object_entity = item.get("object")
        if arity == BINARY:
            if not isinstance(object_entity, str) or object_entity not in entity_classes:
                raise _fail(f"{path}.object", "binary spec must name a declared entity")
            # The one class population guarantees an entity is its own, so a
            # domain or range outside that class's closure could be broken.
            for side, entity in (("domain", subject), ("range", object_entity)):
                endpoint, cls = getattr(tbox.properties[maps_to], side), entity_classes[entity]
                if endpoint is not None and endpoint not in tbox.closure[cls]:
                    raise _fail(f"{path}.maps_to", f"{side} {endpoint} of {maps_to} is not {cls}, "
                                f"the class of entity {entity!r}, or one of its superclasses")
        elif object_entity is not None:
            raise _fail(f"{path}.object", "unary spec must not name an object entity")
        role = item.get("complement_role")
        if role is not None and role != "negative":
            raise _fail(f"{path}.complement_role", f"only 'negative' is allowed, got {role!r}")
        if role is not None and item.get("complement_of") is None:
            raise _fail(f"{path}.complement_role", "set on a spec without complement_of")
        complement_of = item.get("complement_of")
        if complement_of is not None and not isinstance(complement_of, str):
            raise _fail(f"{path}.complement_of", "must be an assertion name")
        specs.append(
            AssertionSpec(
                name=name,
                arity=arity,
                maps_to=maps_to,
                subject_entity=subject,
                description=_string(item, "description", path),
                object_entity=object_entity,
                complement_of=complement_of,
                negative=role == "negative",
            )
        )

    by_name = {spec.name: spec for spec in specs}
    for i, spec in enumerate(specs):
        if spec.complement_of is None:  # a negative role without it was refused above
            continue
        other = by_name.get(spec.complement_of)
        if other is None:
            raise _fail(f"assertions[{i}].complement_of", f"no spec named {spec.complement_of!r}")
        if other is spec:
            raise _fail(f"assertions[{i}].complement_of", "spec cannot complement itself")
        if other.complement_of != spec.name:
            raise _fail(
                f"assertions[{i}].complement_of",
                f"{spec.name!r} and {other.name!r} must reference each other",
            )
        if other.arity != spec.arity:
            raise _fail(f"assertions[{i}]", "complement pair members must share an arity")
        if spec.negative == other.negative:
            raise _fail(
                f"assertions[{i}]",
                f"exactly one of {spec.name!r}/{other.name!r} must have complement_role 'negative'",
            )
    return tuple(specs)


def _check_maximal_instance(task: TaskDefinition) -> None:
    """Chain the maximal instance, every entity found and every assertion spec
    holding (both members of a complement pair too), and reject a rule that
    never fires there or a target entity that never reaches the target class.
    Every instance asserts a subset of these facts, up to the instance id in
    the minted names, and Horn rules are monotone, so what fails here fails
    in every instance."""
    from . import extraction, pipeline  # both import this module

    instance = "maximal"  # also the justification of every asserted fact
    individual = {spec.name: extraction.mint_individual(instance, spec.name) for spec in task.entity_specs}
    entities = extraction.EntityExtraction(tuple(
        extraction.EntityRecord(name, True, individual=iri, explanation=instance)
        for name, iri in individual.items()
    ))
    assertions = extraction.AssertionExtraction(tuple(
        extraction.AssertionRecord(
            spec.name, True, individual[spec.subject_entity], instance, individual.get(spec.object_entity)
        )
        for spec in task.assertion_specs
    ))
    abox, fired = _fixpoint(task.tbox, pipeline.populate_abox(task, instance, entities, assertions))
    fired_rules = {name for name, _ in fired}
    unfired = [(i, rule) for i, rule in enumerate(task.tbox.rules) if rule.name not in fired_rules]
    if unfired:
        # A rule whose head another rule derived first matches without firing.
        view = (abox.members(), abox.by_subject, abox.by_object)
        for i, rule in unfired:
            atoms = rule.antecedent
            for k, atom in enumerate(atoms, start=1):
                if not _join(atoms[:k], view)[0]:
                    raise _fail(f"rules[{i}]", f"rule {rule.name!r} never fires: no instance matches "
                                f"its antecedent up to atom {atom}")
    if not abox.is_member(individual[task.target_entity], task.target_class):
        raise _fail("target", f"entity {task.target_entity!r} never becomes a member of "
                    f"{task.target_class}, even with every entity found and every assertion holding")


def load_task(document: Any) -> TaskDefinition:
    """Validate a task document and return the immutable TaskDefinition."""
    if not isinstance(document, dict):
        raise TaskDocumentError("task document must be a JSON object")
    unknown = set(document) - set(_TOP_LEVEL_KEYS) - {"notes"}
    if unknown:
        raise TaskDocumentError(f"unknown top-level keys {sorted(unknown)}")
    for key in _TOP_LEVEL_KEYS:
        if key not in document:
            raise _fail(key, "missing required key")

    task_id = _string(document, "id", "")
    context = _string(document, "context", "")
    prefixes = _load_prefixes(document)
    tbox = _load_tbox(document, prefixes)
    entity_specs = _load_entities(document, tbox, prefixes)
    entity_classes = {spec.name: spec.ontology_class for spec in entity_specs}
    assertion_specs = _load_assertions(document, tbox, prefixes, entity_classes)

    target = document.get("target")
    if not isinstance(target, dict) or set(target) != {"class", "entity", "labels"}:
        raise _fail("target", "must be an object with 'class', 'entity' and 'labels'")
    target_class = _parse_name(target.get("class"), prefixes, "target.class")
    if target_class not in tbox.classes:
        raise _fail("target.class", f"class {target_class} not declared")
    if not any(
        isinstance(rule.consequent, ClassAtom) and rule.consequent.cls == target_class
        for rule in tbox.rules
    ):
        raise _fail("target.class", f"no rule concludes {target_class}")
    target_entity = target.get("entity")
    if not isinstance(target_entity, str) or target_entity not in entity_classes:
        raise _fail("target.entity", f"unknown entity {target_entity!r}")
    if target.get("labels") != _LABELS:
        raise _fail("target.labels", f"must be {json.dumps(_LABELS)}")

    notes = document.get("notes")
    if notes is not None and not isinstance(notes, str):
        raise _fail("notes", "must be a string when present")

    task = TaskDefinition(
        id=task_id,
        domain_context=context,
        tbox=tbox,
        entity_specs=entity_specs,
        assertion_specs=assertion_specs,
        target_class=target_class,
        target_entity=target_entity,
        notes=notes,
    )
    _check_maximal_instance(task)
    return task


def effective_assertion_specs(
    task: TaskDefinition, complementary: bool
) -> list[AssertionSpec]:
    """Specs the pipeline actually asks about under the given mode."""
    if complementary:
        return list(task.assertion_specs)
    return [spec for spec in task.assertion_specs if not spec.negative]


def builtin_task_document(task_id: str) -> dict:
    if task_id not in BUILTIN_TASK_IDS:
        raise TaskDocumentError(
            f"unknown builtin task {task_id!r}; available: {', '.join(BUILTIN_TASK_IDS)}"
        )
    payload = resources.files("ruleweave").joinpath(f"data/tasks/{task_id}.json").read_text("utf-8")
    return json.loads(payload)


def builtin_task(task_id: str) -> TaskDefinition:
    return load_task(builtin_task_document(task_id))
