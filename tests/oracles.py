"""Independent reference implementations used only by tests.

The naive fixpoint oracle shares no matching code with the production
engine: satisfaction is re-derived from scratch with brute-force variable
enumeration, and the subclass closure is recomputed here with a different
algorithm (iterated boolean expansion instead of per-node BFS).

The snapshot restore oracle is the earlier two-validator restore, kept as
it was: a shape predicate, then the restore body, applied triple by triple.
"""

from __future__ import annotations

import itertools
import random

from ruleweave.ontology import (
    ABox,
    ClassAtom,
    Inferred,
    Iri,
    PropertyAtom,
    SwrlRule,
    TBox,
    Variable,
    atom_variables,
)


def oracle_closure(tbox: TBox) -> dict[Iri, set[Iri]]:
    """Reflexive-transitive superclass map via fixpoint expansion."""
    closure = {cls: {cls} for cls in tbox.classes}
    changed = True
    while changed:
        changed = False
        for sub, sup in tbox.subclass_axioms:
            extended = closure[sub] | closure[sup]
            if extended != closure[sub]:
                closure[sub] = extended
                changed = True
    return closure


def _satisfied(atom, env, class_facts, prop_facts, closure) -> bool:
    def value(term):
        return env[term.name] if isinstance(term, Variable) else term

    if isinstance(atom, ClassAtom):
        individual = value(atom.term)
        return any(
            ind == individual and atom.cls in closure[cls]
            for (ind, cls) in class_facts
        )
    return (value(atom.subject), atom.prop, value(atom.object)) in prop_facts


def naive_fixpoint(tbox: TBox, abox: ABox):
    """Brute-force least fixpoint; returns (class fact set, property fact set)."""
    closure = oracle_closure(tbox)
    class_facts = set(abox.class_assertions)
    prop_facts = set(abox.property_assertions)
    known = set(abox.individuals)

    changed = True
    while changed:
        changed = False
        individuals = sorted(
            known
            | {ind for ind, _ in class_facts}
            | {s for s, _, _ in prop_facts}
            | {o for _, _, o in prop_facts}
        )
        for rule in tbox.rules:
            names = sorted(
                {
                    v.name
                    for atom in (*rule.antecedent, rule.consequent)
                    for v in atom_variables(atom)
                }
            )
            for combo in itertools.product(individuals, repeat=len(names)):
                env = dict(zip(names, combo))
                if not all(
                    _satisfied(a, env, class_facts, prop_facts, closure)
                    for a in rule.antecedent
                ):
                    continue
                head = rule.consequent
                if isinstance(head, ClassAtom):
                    term = head.term
                    individual = env[term.name] if isinstance(term, Variable) else term
                    fact = (individual, head.cls)
                    if fact not in class_facts:
                        class_facts.add(fact)
                        known.add(individual)
                        changed = True
                else:
                    subj = (
                        env[head.subject.name]
                        if isinstance(head.subject, Variable)
                        else head.subject
                    )
                    obj = (
                        env[head.object.name]
                        if isinstance(head.object, Variable)
                        else head.object
                    )
                    fact = (subj, head.prop, obj)
                    if fact not in prop_facts:
                        prop_facts.add(fact)
                        known.update((subj, obj))
                        changed = True
    return class_facts, prop_facts


def random_instance(rng: random.Random) -> tuple[TBox, ABox]:
    """A small random but always-valid (TBox, ABox) pair.

    Bounds: up to 6 classes, 4 properties, 5 rules of up to 4 atoms,
    8 individuals. Properties carry no domain/range so facts can be thrown
    in freely through the public API.
    """
    tbox = TBox({"t": "http://example.org/t#", "i": "http://example.org/i#"})
    classes = [Iri("t", f"C{k}") for k in range(rng.randint(1, 6))]
    for cls in classes:
        tbox.declare_class(cls)
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            if rng.random() < 0.25:
                tbox.add_subclass(classes[a], classes[b])
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(classes, 2) if len(classes) >= 2 else (None, None)
        if a is None:
            break
        try:
            tbox.add_disjoint(a, b)
        except Exception:
            pass

    properties = [Iri("t", f"p{k}") for k in range(rng.randint(0, 4))]
    for prop in properties:
        tbox.declare_property(prop)

    individuals = [Iri("i", f"x{k}") for k in range(rng.randint(1, 8))]
    variables = [Variable(n) for n in ("v0", "v1", "v2")]

    def random_term():
        if rng.random() < 0.15:
            return rng.choice(individuals)
        return rng.choice(variables)

    for index in range(rng.randint(0, 5)):
        antecedent = []
        for _ in range(rng.randint(1, 4)):
            if properties and rng.random() < 0.5:
                antecedent.append(
                    PropertyAtom(rng.choice(properties), random_term(), random_term())
                )
            else:
                antecedent.append(ClassAtom(rng.choice(classes), random_term()))
        bound = sorted(
            {v for atom in antecedent for v in atom_variables(atom)},
            key=lambda v: v.name,
        )

        def bound_term():
            if bound and rng.random() < 0.85:
                return rng.choice(bound)
            return rng.choice(individuals)

        if properties and rng.random() < 0.3:
            consequent = PropertyAtom(rng.choice(properties), bound_term(), bound_term())
        else:
            consequent = ClassAtom(rng.choice(classes), bound_term())
        tbox.add_rule(SwrlRule(f"r{index}", tuple(antecedent), consequent))

    abox = ABox(tbox)
    for _ in range(rng.randint(0, 10)):
        abox.assert_class(rng.choice(individuals), rng.choice(classes), "seed fact")
    for _ in range(rng.randint(0, 10)):
        if not properties:
            break
        abox.assert_property(
            rng.choice(individuals),
            rng.choice(properties),
            rng.choice(individuals),
            "seed link",
        )
    return tbox, abox


def assert_engine_matches_oracle(tbox: TBox, abox: ABox) -> None:
    """Run both evaluators and require identical fact sets."""
    from ruleweave.reasoner import forward_chain

    result = forward_chain(tbox, abox)
    oracle_classes, oracle_props = naive_fixpoint(tbox, abox)
    engine_classes = set(result.abox.class_assertions)
    engine_props = set(result.abox.property_assertions)
    assert engine_classes == oracle_classes, (
        f"class fact mismatch:\n engine only: {engine_classes - oracle_classes}\n"
        f" oracle only: {oracle_classes - engine_classes}"
    )
    assert engine_props == oracle_props, (
        f"property fact mismatch:\n engine only: {engine_props - oracle_props}\n"
        f" oracle only: {oracle_props - engine_props}"
    )


def run_equivalence_batch(seed: int, cases: int) -> None:
    rng = random.Random(seed)
    for _ in range(cases):
        tbox, abox = random_instance(rng)
        assert_engine_matches_oracle(tbox, abox)


def brute_force_query(query, tbox: TBox, abox: ABox):
    """Reference query evaluator: full enumeration over every known Iri.

    Resolution also runs through an independent path (forward rendering of
    task Iris to URLs) rather than execute()'s reverse URL splitting.
    """
    from ruleweave.query import CLASS_KEYWORD, ResolvedName

    closure = oracle_closure(tbox)
    url_to_iri: dict[str, Iri] = {}
    universe: set[Iri] = set(abox.individuals) | set(tbox.classes) | set(tbox.properties)
    for iri in universe:
        base = tbox.prefixes.get(iri.partition(":")[0])
        if base is not None:
            url_to_iri[base + iri.partition(":")[2]] = iri

    patterns = []
    for pattern in query.patterns:
        terms = []
        for term in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(term, ResolvedName):
                if term.url not in url_to_iri:
                    return []
                terms.append(url_to_iri[term.url])
            else:
                terms.append(term)
        patterns.append(tuple(terms))

    names = sorted(
        {
            term.name
            for pattern in patterns
            for term in pattern
            if isinstance(term, Variable)
        }
    )

    memberships = {
        (ind, sup)
        for (ind, cls) in abox.class_assertions
        for sup in closure[cls]
    }
    triples = set(abox.property_assertions)

    def value(term, env):
        return env[term.name] if isinstance(term, Variable) else term

    rows = set()
    for combo in itertools.product(sorted(universe), repeat=len(names)):
        env = dict(zip(names, combo))
        ok = True
        for subject, predicate, obj in patterns:
            if predicate == CLASS_KEYWORD:
                if (value(subject, env), value(obj, env)) not in memberships:
                    ok = False
                    break
            else:
                triple = (value(subject, env), value(predicate, env), value(obj, env))
                if triple not in triples:
                    ok = False
                    break
        if ok:
            rows.add(tuple(env[name] for name in query.select_vars))
    return sorted(rows)


_ORIGIN_PREFIXES = ("asserted:", "inferred:")


def reference_restore_abox(tbox: TBox, snapshot) -> ABox:
    """Reference snapshot restore: each triple must be an object with string
    subject, predicate, object and origin, the origin starting with one of
    the two prefixes and not equal to it; then its origin is decoded again
    and the triple is inserted, validated when asserted."""
    abox = ABox(tbox)
    for triple in snapshot:
        if (
            not isinstance(triple, dict)
            or not all(
                isinstance(triple.get(name), str)
                for name in ("subject", "predicate", "object", "origin")
            )
            or not triple["origin"].startswith(_ORIGIN_PREFIXES)
            or triple["origin"] in _ORIGIN_PREFIXES
        ):
            raise ValueError(f"malformed snapshot triple {triple!r}")
        head, _, text = triple["origin"].partition(":")
        kind = f"{head}:"
        if kind not in _ORIGIN_PREFIXES or not text:
            raise ValueError(f"malformed snapshot triple {triple!r}")
        subject = Iri.parse(triple["subject"])
        if triple["predicate"] == "a":
            fact = (subject, Iri.parse(triple["object"]))
            insert, validated = abox._insert_class, abox.assert_class
        else:
            fact = (subject, Iri.parse(triple["predicate"]), Iri.parse(triple["object"]))
            insert, validated = abox._insert_property, abox.assert_property
        if kind == "inferred:":
            insert(*fact, Inferred(text))
        else:
            validated(*fact, text)
    return abox
