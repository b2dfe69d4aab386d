"""Deterministic forward chaining over the SWRL subset.

The engine computes the least fixpoint of all rules under conjunctive-match
semantics. A class atom C(x) matches when x is recorded (asserted or
inferred) in any class whose superclass closure contains C; a property atom
matches exact recorded triples. Absent facts never match: there is no
negation-as-failure anywhere in the engine, so the open-world reading of
the rule language is preserved by construction.

Evaluation is semi-naive: each round only considers rule instantiations
that touch at least one fact derived in the previous round (all facts count
as new in the first round). The test suite keeps an independent naive
iterate-to-fixpoint oracle and checks set-equality of the inferred facts on
randomized inputs, so the delta bookkeeping here is not trusted by fiat.

Joins are hash lookups on bound terms. `_extend`, the one join kernel,
matches a property atom whose subject is already bound (a constant, or a
variable bound by an earlier atom) with one lookup in the ABox's
by-subject map, one with only its object bound in the by-object map, and
scans the property only when both ends are free. Each round's delta is
indexed the same way. `_matches`, the one join driver, extends a list of
partial bindings through `_extend` one atom at a time; the chainer calls
it once per pivot atom, the query engine once per query.

Ordering guarantees, purely so `fired` logs are reproducible: rules are
evaluated in declaration order, and a (rule, binding) pair is logged only
when it adds a fact that was not already present. Within one rule and one
round, the complete matches are sorted (variables by name, values by Iri)
before any of them fires; that sort alone fixes the `fired` order, so the
order in which partial matches are enumerated, and hence the order of the
fact index's sets, does not matter. Each round has two phases: every rule
is matched first, then the matches are committed in the same order. So a
fact derived in a round is visible only in the next, which the `fired`
order also depends on, and the store needs one write path, not a deferred
one.
Inconsistency never halts chaining; violations are collected after the
fixpoint and reported in the result: `forward_chain` is `_fixpoint`
followed by `check_consistency`, and task validation calls `_fixpoint` alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .ontology import (
    ABox,
    Atom,
    ClassAtom,
    Inferred,
    Iri,
    PairMap,
    PropertyAtom,
    SwrlRule,
    TBox,
    Variable,
    _index_pair,
)

log = logging.getLogger(__name__)

Binding = dict[str, Iri]


@dataclass
class InferenceResult:
    """Fixpoint output: the enriched ABox plus consistency and firing info."""

    abox: ABox
    consistent: bool
    violations: list[tuple[Iri, Iri, Iri]] = field(default_factory=list)
    fired: list[tuple[str, Binding]] = field(default_factory=list)


def subclass_closure(tbox: TBox) -> Mapping[Iri, frozenset[Iri]]:
    """Reflexive-transitive superclass map for every declared class: a
    read-only view of the map the TBox keeps."""
    return MappingProxyType(tbox.closure)


# A view of the facts: class -> members, and the two pair maps.
View = tuple[dict[Iri, set[Iri]], PairMap, PairMap]

_NO_PAIRS: dict[Iri, set[Iri]] = {}


def _extend(atom: Atom, binding: Binding, view: View) -> Iterator[Binding]:
    """All extensions of binding that satisfy atom against the given view.

    A property atom whose subject is bound (a constant or a bound variable)
    reads the by-subject map; else one whose object is bound reads the
    by-object map; only an atom with both ends free scans the property.
    A query's variable class or property is matched with its bound value,
    else once per class with members or property with pairs, bound to it.
    No rule has one: `TBox.add_rule` admits declared Iri predicates only.
    """
    members, by_subject, by_object = view
    is_class = isinstance(atom, ClassAtom)
    predicate = atom.cls if is_class else atom.prop
    if isinstance(predicate, Variable):
        bound = binding.get(predicate.name)
        for value in (members if is_class else by_subject) if bound is None else (bound,):
            if is_class:
                ground: Atom = ClassAtom(value, atom.term)
            else:
                ground = PropertyAtom(value, atom.subject, atom.object)
            extended = binding if bound is not None else {**binding, predicate.name: value}
            yield from _extend(ground, extended, view)
        return
    if is_class:
        population = members.get(atom.cls, frozenset())
        term = atom.term
        if isinstance(term, Variable) and term.name not in binding:
            for individual in population:
                extended = dict(binding)
                extended[term.name] = individual
                yield extended
        else:
            value = binding[term.name] if isinstance(term, Variable) else term
            if value in population:
                yield binding
        return
    subject, obj = atom.subject, atom.object
    bound_subject = binding.get(subject.name) if isinstance(subject, Variable) else subject
    bound_object = binding.get(obj.name) if isinstance(obj, Variable) else obj
    if bound_subject is not None:
        objects = by_subject.get(atom.prop, _NO_PAIRS).get(bound_subject, ())
        if bound_object is not None:
            if bound_object in objects:
                yield binding
            return
        for value in objects:
            extended = dict(binding)
            extended[obj.name] = value
            yield extended
    elif bound_object is not None:
        for value in by_object.get(atom.prop, _NO_PAIRS).get(bound_object, ()):
            extended = dict(binding)
            extended[subject.name] = value
            yield extended
    elif subject.name == obj.name:
        for value, objects in by_subject.get(atom.prop, _NO_PAIRS).items():
            if value in objects:
                extended = dict(binding)
                extended[subject.name] = value
                yield extended
    else:
        for value, objects in by_subject.get(atom.prop, _NO_PAIRS).items():
            for other in objects:
                extended = dict(binding)
                extended[subject.name] = value
                extended[obj.name] = other
                yield extended


def _matches(atoms: Sequence[Atom], views: Sequence[View]) -> list[Binding]:
    """Every binding that satisfies all the atoms, atom i read against
    views[i]: partial bindings extended breadth-first, one atom at a time."""
    bindings: list[Binding] = [{}]
    for atom, view in zip(atoms, views):
        bindings = [extended for binding in bindings for extended in _extend(atom, binding, view)]
        if not bindings:
            break
    return bindings


def _rule_bindings(rule: SwrlRule, full: View, delta: View) -> list[Binding]:
    """Complete antecedent matches that touch the delta, sorted for replay."""
    found: dict[tuple, Binding] = {}
    atoms = rule.antecedent
    views = (delta,) + (full,) * (len(atoms) - 1)
    # The pivot atom reads the delta; the others follow in declaration order.
    # In the first round the delta is every fact, so the first pivot finds all.
    for pivot, atom in enumerate(atoms[:1] if delta is full else atoms):
        for binding in _matches((atom, *atoms[:pivot], *atoms[pivot + 1:]), views):
            found.setdefault(tuple(sorted(binding.items())), binding)
    return [found[key] for key in sorted(found)]


def _ground(term, binding: Binding) -> Iri:
    if isinstance(term, Variable):
        return binding[term.name]
    return term


def forward_chain(tbox: TBox, abox: ABox) -> InferenceResult:
    """Run all rules to the least fixpoint and check disjointness after."""
    work, fired = _fixpoint(tbox, abox)
    violations = check_consistency(tbox, work)
    return InferenceResult(work, consistent=not violations, violations=violations, fired=fired)


def _fixpoint(tbox: TBox, abox: ABox) -> tuple[ABox, list[tuple[str, Binding]]]:
    """The least fixpoint of all rules over a copy of abox, and the `fired`
    log, with no consistency check: task validation chains an instance that
    is inconsistent by construction."""
    closure = subclass_closure(tbox)
    work = abox.copy()

    # Each round matches every rule before it writes anything, so a fact
    # derived in a round is seen only in the next. It then commits the
    # matches in the same rule and binding order, through the store's one
    # write path, into `work` and the class-members view. All facts count
    # as new in the first round.
    full_members = work.members()
    full: View = (full_members, work.by_subject, work.by_object)
    delta = full

    fired: list[tuple[str, Binding]] = []

    while delta[0] or delta[1]:  # any new class or property fact
        matched = [(rule, _rule_bindings(rule, full, delta)) for rule in tbox.rules]
        next_members: dict[Iri, set[Iri]] = {}
        next_by_subject: PairMap = {}
        next_by_object: PairMap = {}
        for rule, bindings in matched:
            head = rule.consequent
            origin = Inferred(rule.name)
            for binding in bindings:
                if isinstance(head, ClassAtom):
                    individual = _ground(head.term, binding)
                    if not work._insert_class(individual, head.cls, origin):
                        continue
                    for super_cls in closure[head.cls]:
                        known = full_members.setdefault(super_cls, set())
                        if individual not in known:
                            known.add(individual)
                            next_members.setdefault(super_cls, set()).add(individual)
                else:
                    subject = _ground(head.subject, binding)
                    obj = _ground(head.object, binding)
                    if not work._insert_property(subject, head.prop, obj, origin):
                        continue
                    _index_pair(next_by_subject, next_by_object, subject, head.prop, obj)
                fired.append((rule.name, binding))
        delta = (next_members, next_by_subject, next_by_object)
    return work, fired


def check_consistency(tbox: TBox, abox: ABox) -> list[tuple[Iri, Iri, Iri]]:
    """One violation per individual per disjoint pair it is a member of both
    sides of, membership expanded through the subclass closure."""
    if not tbox.disjoint_axioms:
        return []
    return [
        (individual, a, b)
        for individual in sorted(abox.individuals)
        for a, b in tbox.disjoint_axioms
        if abox.is_member(individual, a) and abox.is_member(individual, b)
    ]


def classify(result: InferenceResult, individual: Iri, target_class: Iri) -> bool:
    """True iff the individual's closure-expanded membership holds the target.

    An individual absent from the ABox yields False with a logged warning,
    not an error: the caller may be probing an entity extraction that never
    produced the individual.
    """
    if individual not in result.abox.individuals:
        log.warning("classify: individual %s not present in ABox", individual)
        return False
    return result.abox.is_member(individual, target_class)
