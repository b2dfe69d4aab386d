"""Task document parsing, validation, and the bundled tasks."""

from __future__ import annotations

import copy
import functools
import json
import operator

import pytest

from ruleweave.cli import main
from ruleweave.errors import RuleSyntaxError, TaskDocumentError
from ruleweave.ontology import ClassAtom, Iri, PropertyAtom, Variable
from ruleweave.tasklib import (
    BELONGS_TO_CASE,
    BUILTIN_TASK_IDS,
    builtin_task,
    builtin_task_document,
    effective_assertion_specs,
    load_task,
    parse_rule,
)

MINIMAL_DOC = {
    "id": "demo",
    "context": "Decide whether the widget is certified.",
    "prefixes": {"d": "http://example.org/demo#"},
    "classes": ["d:Widget", "d:Certified", "d:Inspector"],
    "properties": [{"iri": "d:approvedBy", "domain": "d:Widget", "range": "d:Inspector"}],
    "subclass": [],
    "disjoint": [],
    "rules": [
        {"name": "certify", "text": "d:Widget(?w) ^ d:approvedBy(?w, ?i) -> d:Certified(?w)"}
    ],
    "entities": [
        {"name": "Widget", "class": "d:Widget", "description": "The widget.", "required": True},
        {"name": "Inspector", "class": "d:Inspector", "description": "Who signed off.", "required": False},
    ],
    "assertions": [
        {
            "name": "ApprovedBy",
            "arity": "binary",
            "maps_to": "d:approvedBy",
            "subject": "Widget",
            "object": "Inspector",
            "description": "The text says the inspector approved the widget.",
        }
    ],
    "target": {
        "class": "d:Certified",
        "entity": "Widget",
        "labels": {"positive": "Yes", "negative": "No"},
    },
}


def doc_without(key):
    doc = copy.deepcopy(MINIMAL_DOC)
    del doc[key]
    return doc


# -- rule grammar ------------------------------------------------------------


def test_parse_rule_basic():
    rule = parse_rule("r", "d:A(?x) ^ d:p(?x, ?y) -> d:B(?x)")
    assert rule.antecedent == (
        ClassAtom(Iri("d", "A"), Variable("x")),
        PropertyAtom(Iri("d", "p"), Variable("x"), Variable("y")),
    )
    assert rule.consequent == ClassAtom(Iri("d", "B"), Variable("x"))


def test_parse_rule_accepts_constants():
    rule = parse_rule("r", "d:p(?x, d:thing) -> d:B(?x)")
    atom = rule.antecedent[0]
    assert atom.object == Iri("d", "thing")


def test_parse_rule_round_trips_through_str():
    for tid in BUILTIN_TASK_IDS:
        for rule in builtin_task(tid).tbox.rules:
            assert parse_rule(rule.name, str(rule)) == rule


@pytest.mark.parametrize(
    "text",
    [
        "d:A(?x)",
        "d:A(?x) -> d:B(?x) -> d:C(?x)",
        " -> d:B(?x)",
        "d:p(?x, ?y, ?z) -> d:B(?x)",
        "d:A(?x) ^ -> d:B(?x)",
        "A(?x) -> d:B(?x)",
        "d:A(?X) -> d:B(?X)",
        "d:A() -> d:B(?x)",
        "d:A ?x -> d:B(?x)",
    ],
)
def test_parse_rule_rejects_malformed(text):
    with pytest.raises(RuleSyntaxError):
        parse_rule("r", text)


# -- document validation -------------------------------------------------------


def test_minimal_document_loads():
    task = load_task(MINIMAL_DOC)
    assert task.id == "demo"
    assert task.target_class == Iri("d", "Certified")
    assert [spec.required for spec in task.entity_specs] == [True, False]


def test_reserved_namespaces_injected():
    task = load_task(MINIMAL_DOC)
    assert task.tbox.prefixes["inst"] == "http://example.org/instances#"
    assert BELONGS_TO_CASE in task.tbox.properties


def test_reserved_prefix_cannot_be_rebound():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["prefixes"]["sd"] = "http://example.org/other#"
    with pytest.raises(TaskDocumentError, match="prefixes.sd"):
        load_task(doc)


@pytest.mark.parametrize("key", list(MINIMAL_DOC))
def test_every_top_level_key_is_required(key):
    with pytest.raises(TaskDocumentError, match=key):
        load_task(doc_without(key))


def test_unknown_top_level_key_rejected():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["extras"] = []
    with pytest.raises(TaskDocumentError, match="extras"):
        load_task(doc)


def test_notes_key_is_allowed():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["notes"] = "anything"
    assert load_task(doc).notes == "anything"


def test_undeclared_rule_consequent_is_an_error():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["rules"] = [
        {"name": "certify", "text": "d:Widget(?w) ^ d:approvedBy(?w, ?i) -> d:Blessed(?w)"}
    ]
    with pytest.raises(TaskDocumentError, match="rules\\[0\\]"):
        load_task(doc)


def test_duplicate_rule_name_rejected():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["rules"] = doc["rules"] + copy.deepcopy(doc["rules"])
    with pytest.raises(TaskDocumentError, match="duplicate rule name"):
        load_task(doc)


def test_assertion_subject_must_name_an_entity():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["assertions"][0]["subject"] = "Gremlin"
    with pytest.raises(TaskDocumentError, match="assertions\\[0\\].subject"):
        load_task(doc)


def test_binary_assertion_needs_an_object():
    doc = copy.deepcopy(MINIMAL_DOC)
    del doc["assertions"][0]["object"]
    with pytest.raises(TaskDocumentError, match="assertions\\[0\\].object"):
        load_task(doc)


def test_unary_assertion_must_not_have_an_object():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["classes"].append("d:Shiny")
    doc["assertions"].append(
        {
            "name": "IsShiny",
            "arity": "unary",
            "maps_to": "d:Shiny",
            "subject": "Widget",
            "object": "Inspector",
            "description": "Looks shiny.",
        }
    )
    with pytest.raises(TaskDocumentError, match="assertions\\[1\\].object"):
        load_task(doc)


def test_unary_maps_to_must_be_a_class():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["assertions"][0] = {
        "name": "Odd",
        "arity": "unary",
        "maps_to": "d:approvedBy",
        "subject": "Widget",
        "description": "x",
    }
    with pytest.raises(TaskDocumentError, match="assertions\\[0\\].maps_to"):
        load_task(doc)


def _hearsay_with(edit):
    document = builtin_task_document("hearsay")
    edit(document)
    return document


def _domain_outside_subject_class(document):
    document["properties"][0]["domain"] = "h:OutOfCourtStatement"


def _range_outside_object_class(document):
    document["properties"][1]["range"] = "h:Assertion"


def _belongs_to_case_with_domain(document):
    document["properties"].append({"iri": "sd:belongsToCase", "domain": "h:Statement"})


# Each edit would let ABox population break a domain or range in the middle
# of a run, so loading the document must reject it instead.
UNPOPULATABLE_DOCS = [
    (_domain_outside_subject_class, "assertions\\[2\\].maps_to: domain h:OutOfCourtStatement"),
    (_range_outside_object_class, "assertions\\[3\\].maps_to: range h:Assertion"),
    (_belongs_to_case_with_domain, "properties\\[3\\]: sd:belongsToCase is reserved"),
]


@pytest.mark.parametrize("edit, message", UNPOPULATABLE_DOCS, ids=["domain", "range", "reserved"])
def test_population_that_breaks_a_domain_or_range_is_a_task_error(edit, message):
    with pytest.raises(TaskDocumentError, match=message):
        load_task(_hearsay_with(edit))


_DROP = object()


def _at(*path, value=_DROP):
    """An edit that sets the document's item at path to value, or deletes it."""

    def edit(document):
        *parents, last = path
        holder = functools.reduce(operator.getitem, parents, document)
        if value is _DROP:
            del holder[last]
        else:
            holder[last] = value

    return edit


def _unknown_prefix_in_rule_term(document):
    rule = document["rules"][0]
    rule["text"] = rule["text"].replace("h:Statement(?s)", "h:Statement(zz:s1)", 1)


def _complement_pair_of_two_arities(document):
    document["assertions"][1].update({"arity": "binary", "maps_to": "h:hasAssertion", "object": "Assertion"})


# Single faults in the hearsay document, each with its exact message.
DOCUMENT_FAULTS = {
    "notes": (_at("notes", value=1), "notes: must be a string when present"),
    "arity": (_at("assertions", 0, "arity", value="ternary"), "assertions[0].arity: must be 'unary' or 'binary'"),
    "id": (_at("id", value=" "), "id: must be a non-empty string"),
    "prefixes": (_at("prefixes", value=[]), "prefixes: must be a non-empty object mapping prefix to base URL"),
    "prefix-name": (_at("prefixes", value={"9h": "http://x#"}), "prefixes: invalid prefix name '9h'"),
    "prefix-url": (_at("prefixes", "h", value=""), "prefixes.h: base URL must be a non-empty string"),
    "classes": (_at("classes", value=[]), "classes: must be a non-empty list"),
    "class-type": (_at("classes", 0, value=5), "classes[0]: expected a prefixed name, got 5"),
    "class-name": (_at("classes", 0, value="h:9bad"), "classes[0]: bad local name in 'h':'9bad'"),
    "properties": (_at("properties", value={}), "properties: must be a list"),
    "no-iri": (
        _at("properties", 0, "iri"),
        "properties[0]: must be a prefixed name or an object with an 'iri' key",
    ),
    "property-key": (_at("properties", 0, "label", value="x"), "properties[0]: unknown keys ['label']"),
    "property-domain": (
        _at("properties", 0, "domain", value="h:Nope"),
        "properties[0]: domain class h:Nope of h:hasAssertion not declared",
    ),
    "subclass": (_at("subclass", value={}), "subclass: must be a list of two-element lists"),
    "subclass-pair": (
        _at("subclass", 0, value=["h:Hearsay", "h:Statement", "h:Statement"]),
        "subclass[0]: must be a two-element list",
    ),
    "subclass-class": (
        _at("subclass", 0, value=["h:Nope", "h:Statement"]),
        "subclass: subclass axiom references undeclared class h:Nope",
    ),
    "disjoint": (
        _at("disjoint", 0, value=["h:Hearsay", "h:Statement"]),
        "disjoint: disjoint(h:Hearsay, h:Statement) contradicts the subclass hierarchy",
    ),
    "rules": (_at("rules", value=[]), "rules: must be a non-empty list"),
    "rule-key": (_at("rules", 0, "extra", value=1), "rules[0]: must be an object with exactly 'name' and 'text'"),
    "rule-name": (_at("rules", 0, "name", value=""), "rules[0].name: must be a non-empty string"),
    "rule-prefix": (_unknown_prefix_in_rule_term, "rules[0].text: unknown prefix in term zz:s1"),
    "entities": (_at("entities", value=[]), "entities: must be a non-empty list"),
    "entity-type": (_at("entities", 0, value="Statement"), "entities[0]: must be an object"),
    "entity-key": (_at("entities", 0, "label", value=1), "entities[0]: unknown keys ['label']"),
    "entity-name": (_at("entities", 0, "name", value="9x"), "entities[0].name: invalid entity name '9x'"),
    "entity-twice": (
        _at("entities", 1, "name", value="Statement"),
        "entities[1].name: duplicate entity name 'Statement'",
    ),
    "entity-class": (_at("entities", 0, "class", value="h:Nope"), "entities[0].class: class h:Nope not declared"),
    "required": (_at("entities", 0, "required", value="yes"), "entities[0].required: must be true or false"),
    "assertions": (_at("assertions", value=[]), "assertions: must be a non-empty list"),
    "assertion-type": (_at("assertions", 0, value="x"), "assertions[0]: must be an object"),
    "assertion-key": (_at("assertions", 0, "label", value=1), "assertions[0]: unknown keys ['label']"),
    "assertion-twice": (
        _at("assertions", 1, "name", value="IsOutOfCourt"),
        "assertions[1].name: duplicate assertion name 'IsOutOfCourt'",
    ),
    "binary-maps-to": (
        _at("assertions", 2, "maps_to", value="h:Statement"),
        "assertions[2].maps_to: binary spec needs a declared property, got h:Statement",
    ),
    "role": (
        _at("assertions", 1, "complement_role", value="positive"),
        "assertions[1].complement_role: only 'negative' is allowed, got 'positive'",
    ),
    "role-alone": (
        _at("assertions", 2, "complement_role", value="negative"),
        "assertions[2].complement_role: set on a spec without complement_of",
    ),
    "complement-type": (
        _at("assertions", 0, "complement_of", value=1),
        "assertions[0].complement_of: must be an assertion name",
    ),
    "pair-arity": (_complement_pair_of_two_arities, "assertions[0]: complement pair members must share an arity"),
    "target": (_at("target", value=[]), "target: must be an object with 'class', 'entity' and 'labels'"),
    "target-class": (_at("target", "class", value="h:Nope"), "target.class: class h:Nope not declared"),
}


@pytest.mark.parametrize("edit, message", DOCUMENT_FAULTS.values(), ids=DOCUMENT_FAULTS)
def test_document_faults_name_their_path(edit, message):
    with pytest.raises(TaskDocumentError) as caught:
        load_task(_hearsay_with(edit))
    assert str(caught.value) == message


def test_a_document_that_is_not_an_object_is_rejected():
    with pytest.raises(TaskDocumentError) as caught:
        load_task([])
    assert str(caught.value) == "task document must be a JSON object"


def test_a_bare_string_property_loads_without_domain_or_range():
    document = builtin_task_document("hearsay")
    document["properties"][0] = "h:hasAssertion"
    prop = load_task(document).tbox.properties[Iri("h", "hasAssertion")]
    assert (prop.domain, prop.range) == (None, None)


@pytest.mark.parametrize("fault", ["notes", "arity"])
def test_validate_exits_2_on_a_document_fault(fault, capsys, tmp_path):
    edit, message = DOCUMENT_FAULTS[fault]
    path = tmp_path / "task.json"
    path.write_text(json.dumps(_hearsay_with(edit)), encoding="utf-8")
    assert main(["validate", "--task", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"task error: {message}\n")


# A second listing would silently replace the first one's domain and range.
PROPERTIES_LISTED_TWICE = {
    "bare-repeat": (["h:hasAssertion"], "properties[3]: h:hasAssertion is already declared at properties[0]"),
    "reserved-twice": (
        ["sd:belongsToCase"] * 2,
        "properties[4]: sd:belongsToCase is already declared at properties[3]",
    ),
}


@pytest.mark.parametrize("appended, message", PROPERTIES_LISTED_TWICE.values(), ids=PROPERTIES_LISTED_TWICE)
def test_a_property_listed_twice_is_a_document_fault(appended, message, capsys, tmp_path):
    document = _hearsay_with(lambda document: document["properties"].extend(appended))
    with pytest.raises(TaskDocumentError) as caught:
        load_task(document)
    assert str(caught.value) == message
    path = tmp_path / "task.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["validate", "--task", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"task error: {message}\n")


def complemented_doc():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["properties"].append(
        {"iri": "d:rejectedBy", "domain": "d:Widget", "range": "d:Inspector"}
    )
    doc["assertions"][0]["complement_of"] = "RejectedBy"
    doc["assertions"].append(
        {
            "name": "RejectedBy",
            "arity": "binary",
            "maps_to": "d:rejectedBy",
            "subject": "Widget",
            "object": "Inspector",
            "description": "The text says the inspector rejected the widget.",
            "complement_of": "ApprovedBy",
            "complement_role": "negative",
        }
    )
    return doc


def test_complement_pair_accepted():
    task = load_task(complemented_doc())
    approved, rejected = task.assertion_specs
    assert approved.complement_of == "RejectedBy"
    assert rejected.negative and not approved.negative


def test_complement_must_be_mutual():
    doc = complemented_doc()
    doc["assertions"][1]["complement_of"] = None
    del doc["assertions"][1]["complement_of"]
    doc["assertions"][1]["complement_role"] = None
    del doc["assertions"][1]["complement_role"]
    with pytest.raises(TaskDocumentError, match="reference each other"):
        load_task(doc)


def test_complement_pair_needs_exactly_one_negative():
    doc = complemented_doc()
    del doc["assertions"][1]["complement_role"]
    with pytest.raises(TaskDocumentError, match="negative"):
        load_task(doc)
    doc = complemented_doc()
    doc["assertions"][0]["complement_role"] = "negative"
    with pytest.raises(TaskDocumentError, match="exactly one"):
        load_task(doc)


def test_complement_cannot_be_self():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["assertions"][0]["complement_of"] = "ApprovedBy"
    doc["assertions"][0]["complement_role"] = "negative"
    with pytest.raises(TaskDocumentError, match="itself"):
        load_task(doc)


def test_dangling_complement_reference():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["assertions"][0]["complement_of"] = "Ghost"
    with pytest.raises(TaskDocumentError, match="Ghost"):
        load_task(doc)


def test_target_class_must_have_a_concluding_rule():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["classes"].append("d:Orphan")
    doc["target"]["class"] = "d:Orphan"
    with pytest.raises(TaskDocumentError, match="target.class"):
        load_task(doc)


def test_target_labels_must_differ():
    for labels in (
        {"positive": "Yes", "negative": "Yes"},
        {"positive": "Hearsay", "negative": "NotHearsay"},
    ):
        doc = copy.deepcopy(MINIMAL_DOC)
        doc["target"]["labels"] = labels
        with pytest.raises(TaskDocumentError, match="target.labels"):
            load_task(doc)


def test_unpopulatable_rule_atom_rejected():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["properties"].append({"iri": "d:shippedTo"})
    doc["rules"].append(
        {"name": "stray", "text": "d:Widget(?w) ^ d:shippedTo(?w, ?x) -> d:Certified(?w)"}
    )
    with pytest.raises(TaskDocumentError, match="stray"):
        load_task(doc)


def test_rule_chain_counts_as_populatable():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["classes"].append("d:Premium")
    doc["rules"].append(
        {"name": "premium", "text": "d:Certified(?w) -> d:Premium(?w)"}
    )
    load_task(doc)


def test_rule_whose_head_an_earlier_rule_derives_still_validates():
    # In the maximal instance "again" matches but adds nothing, so it never
    # fires; only a rule whose antecedent matches nothing is rejected.
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["rules"].append({"name": "again", "text": doc["rules"][0]["text"]})
    load_task(doc)


def test_unknown_prefix_in_class_list():
    doc = copy.deepcopy(MINIMAL_DOC)
    doc["classes"].append("z:Thing")
    with pytest.raises(TaskDocumentError, match="classes\\[3\\]"):
        load_task(doc)


def test_task_definition_is_immutable():
    task = load_task(MINIMAL_DOC)
    with pytest.raises(AttributeError):
        task.id = "other"


# -- bundled tasks -------------------------------------------------------------


def test_builtin_ids_and_unknown_id():
    assert set(BUILTIN_TASK_IDS) == {"hearsay", "method_application", "clinical_eligibility"}
    with pytest.raises(TaskDocumentError, match="unknown builtin"):
        builtin_task("maritime_salvage")


def test_hearsay_task_shape():
    task = builtin_task("hearsay")
    assert task.target_class == Iri("h", "Hearsay")
    assert task.target_entity == "Statement"
    (rule,) = task.tbox.rules
    assert len(rule.antecedent) == 5
    assert rule.consequent == ClassAtom(Iri("h", "Hearsay"), Variable("s"))
    props = {str(p) for p in task.tbox.properties}
    assert {"h:hasAssertion", "h:introducedForLegalIssue", "h:provesTruthOfAssertion"} <= props
    # the bookkeeping property is injected on load
    assert props == {
        "h:hasAssertion",
        "h:introducedForLegalIssue",
        "h:provesTruthOfAssertion",
        "sd:belongsToCase",
    }


def test_method_application_task_shape():
    task = builtin_task("method_application")
    tbox = task.tbox
    method, sci_task = Iri("m", "Method"), Iri("m", "ScientificTask")
    pair = (method, sci_task) if method <= sci_task else (sci_task, method)
    assert pair in tbox.disjoint_axioms
    assert (Iri("m", "MethodApplication"), method) in tbox.subclass_axioms
    (rule,) = tbox.rules
    rule_props = {a.prop for a in rule.antecedent if isinstance(a, PropertyAtom)}
    assert rule_props == {Iri("m", "functionallyConnectsTo"), Iri("m", "hasValidRelationTypeWith")}


def test_clinical_eligibility_task_shape():
    task = builtin_task("clinical_eligibility")
    tbox = task.tbox
    ent, con = Iri("e", "Entailment"), Iri("e", "Contradiction")
    assert ((con, ent) if con <= ent else (ent, con)) in tbox.disjoint_axioms
    assert (ent, Iri("e", "EligibilityStatement")) in tbox.subclass_axioms
    assert (con, Iri("e", "EligibilityStatement")) in tbox.subclass_axioms
    assert task.target_class == ent
    target_rules = [r for r in tbox.rules if r.consequent.cls == ent]
    assert len(target_rules) == 1


def test_hearsay_complement_pair_modes():
    task = builtin_task("hearsay")
    names_all = [s.name for s in effective_assertion_specs(task, True)]
    names_plain = [s.name for s in effective_assertion_specs(task, False)]
    assert "IsOutOfCourt" in names_all and "IsInCourt" in names_all
    assert "IsInCourt" not in names_plain and "IsOutOfCourt" in names_plain


def test_task_without_pairs_ignores_the_flag():
    task = load_task(MINIMAL_DOC)
    assert effective_assertion_specs(task, True) == effective_assertion_specs(task, False)


def test_builtin_document_export_is_plain_json():
    doc = builtin_task_document("hearsay")
    assert doc["id"] == "hearsay"
    json.dumps(doc)


def induced_target_atoms(task):
    """What the target rule's antecedent should look like, per the specs."""
    expected = []
    for entity in task.entity_specs:
        if entity.required:
            expected.append(("class", entity.ontology_class))
    for spec in effective_assertion_specs(task, False):
        kind = "class" if spec.arity == "unary" else "property"
        expected.append((kind, spec.maps_to))
    return sorted(expected)


def test_target_rule_antecedent_matches_induced_specs():
    for tid in BUILTIN_TASK_IDS:
        task = builtin_task(tid)
        (target_rule,) = [
            r
            for r in task.tbox.rules
            if isinstance(r.consequent, ClassAtom) and r.consequent.cls == task.target_class
        ]
        actual = sorted(
            ("class", atom.cls) if isinstance(atom, ClassAtom) else ("property", atom.prop)
            for atom in target_rule.antecedent
        )
        assert actual == induced_target_atoms(task), tid
