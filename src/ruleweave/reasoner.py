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

Every join runs a plan compiled once per rule (`_compile`, kept on the TBox
until its next `add_rule`): one per pivot atom, which reads the round's
delta (the new members of each class, the new pairs of each property) or is
skipped when its predicate got none. The other atoms follow
fewest-new-variables first, each a step fixed when compiled: by whether each
end is a constant, a bound slot or a new variable, it checks a pair, looks
up the by-subject or by-object map, or scans. A partial binding is a tuple
that grows by one slot per variable an atom binds. `_join` plans any
conjunction the same way, with no pivot, for the query engine and task
validation.

Ordering guarantees, purely so `fired` logs are reproducible: rules run in
declaration order, and a (rule, binding) pair is logged only when it adds a
fact. Within one rule and one round, the complete matches are sorted by
their values in variable-name order before any fires, so a plan's join
order does not matter. A logged binding names its variables in the order
they occur in the pivot and then the other atoms in declaration order, for
the first pivot that found the match; `_compile` fixes that key order in
each pivot's `binding` (`_binder`). Each round matches every rule, then
commits the matches in that order, so a fact derived in a round is seen
only in the next, and the store needs one write path, not a deferred one.
Inconsistency never halts chaining; violations are collected after the
fixpoint and reported in the result: `forward_chain` is `_fixpoint`
followed by `check_consistency`, and task validation calls `_fixpoint` alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .ontology import (
    ABox, Atom, ClassAtom, Inferred, Iri, PairMap, PropertyAtom, SwrlRule, TBox, Term, Variable, atom_variables
)

log = logging.getLogger(__name__)

Binding = dict[str, Iri]
# A partial binding: the value of each variable bound so far, by slot.
Row = tuple[Iri, ...]
# A view of the facts: class -> members, and the two pair maps.
View = tuple[dict[Iri, set[Iri]], PairMap, PairMap]
# A round's new facts: class -> members, and property -> (subject, object)s.
Delta = tuple[dict[Iri, set[Iri]], dict[Iri, list[tuple[Iri, Iri]]]]
Step = Callable[[list[Row], View], list[Row]]


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


def _known(term: Term, slots: dict[str, int]):
    """A row -> term reader if the term is a constant or a bound variable."""
    if not isinstance(term, Variable):
        return lambda row: term
    return itemgetter(slots[term.name]) if term.name in slots else None


def _kernel(key_term: Term, value_term: Term, slots: dict[str, int], reversible: bool):
    """The join of two ends over a map key -> values and, if reversible, its
    reverse: a check, a lookup or a scan. Gives the new variables slots."""
    key, value = _known(key_term, slots), _known(value_term, slots)
    for term in (key_term, value_term):
        if isinstance(term, Variable):
            slots.setdefault(term.name, len(slots))
    if key and value:
        return lambda rows, forward, reverse: [row for row in rows if value(row) in forward.get(key(row), ())]
    if key:
        return lambda rows, forward, reverse: [row + (v,) for row in rows for v in forward.get(key(row), ())]
    if value and reversible:
        return lambda rows, forward, reverse: [row + (k,) for row in rows for k in reverse.get(value(row), ())]
    if value:  # a query's variable class of a known individual
        return lambda rows, forward, reverse: [row + (k,) for row in rows for k, vs in forward.items() if value(row) in vs]
    if key_term == value_term:
        return lambda rows, forward, reverse: [row + (k,) for row in rows for k, vs in forward.items() if k in vs]
    return lambda rows, forward, reverse: [row + (k, v) for row in rows for k, vs in forward.items() for v in vs]


def _step(atom: Atom, slots: dict[str, int]) -> Step:
    """One atom's step after the variables in slots. A class atom C(t) is the
    pair (C, t) of the members map, so a variable class is a variable key; a
    variable property reads the pair maps of its value in each row."""
    if isinstance(atom, ClassAtom):
        kernel = _kernel(atom.cls, atom.term, slots, reversible=False)
        return lambda rows, view: kernel(rows, view[0], None)
    prop = atom.prop
    if not isinstance(prop, Variable):
        kernel = _kernel(atom.subject, atom.object, slots, reversible=True)
        return lambda rows, view: kernel(rows, view[1].get(prop, {}), view[2].get(prop, {}))
    new, slot = prop.name not in slots, slots.setdefault(prop.name, len(slots))
    kernel = _kernel(atom.subject, atom.object, slots, reversible=True)

    def variable_property(rows: list[Row], view: View) -> list[Row]:
        if new:
            rows = [row + (value,) for row in rows for value in view[1]]
        pairs = lambda row, index: view[index].get(row[slot], {})  # noqa: E731
        return [out for row in rows for out in kernel([row], pairs(row, 1), pairs(row, 2))]

    return variable_property


def _plan(atoms: Sequence[Atom], slots: dict[str, int]) -> list[Step]:
    """The steps that join the atoms after the variables in slots: each next
    atom binds the fewest new variables, a property lookup before a class
    scan, the earliest on a tie."""
    def cost(atom: Atom) -> tuple[int, bool]:
        terms = (atom.cls, atom.term) if isinstance(atom, ClassAtom) else (atom.prop, atom.subject, atom.object)
        new = {term.name for term in terms if isinstance(term, Variable) and term.name not in slots}
        return len(new), isinstance(atom, ClassAtom)

    rest, steps = list(atoms), []
    while rest:
        index = min(range(len(rest)), key=lambda i: cost(rest[i]))
        steps.append(_step(rest.pop(index), slots))
    return steps


def _run(steps: Sequence[Step], rows: list[Row], view: View) -> list[Row]:
    for step in steps:
        rows = step(rows, view)
    return rows


def _join(atoms: Sequence[Atom], view: View) -> tuple[list[Row], dict[str, int]]:
    """Every row that satisfies all the atoms against the view, and the slot
    of each variable."""
    slots: dict[str, int] = {}
    return _run(_plan(atoms, slots), [()], view), slots


def _seed(atom: Atom, slots: dict[str, int]) -> Callable[[Delta], list[Row]]:
    """The pivot's step, with nothing bound: the rows of the delta facts that
    match the atom's constants and repeated variable."""
    for variable in atom_variables(atom):
        slots.setdefault(variable.name, len(slots))
    if isinstance(atom, ClassAtom):
        cls, term = atom.cls, atom.term
        if isinstance(term, Variable):
            return lambda delta: [(member,) for member in delta[0][cls]]
        return lambda delta: [()] if term in delta[0][cls] else []
    prop, subject, obj = atom.prop, atom.subject, atom.object
    if isinstance(subject, Variable) and isinstance(obj, Variable):
        if subject == obj:
            return lambda delta: [(s,) for s, o in delta[1][prop] if s == o]
        return lambda delta: delta[1][prop]
    if isinstance(subject, Variable):
        return lambda delta: [(s,) for s, o in delta[1][prop] if o == obj]
    if isinstance(obj, Variable):
        return lambda delta: [(o,) for s, o in delta[1][prop] if s == subject]
    return lambda delta: [() for pair in delta[1][prop] if pair == (subject, obj)]


def _picker(indices: Sequence[int], width: int) -> Callable[[Row], Row]:
    """row -> its values at indices, for rows of width slots."""
    if list(indices) == list(range(width)):
        return tuple  # the identity on a tuple
    if len(indices) == 1:
        return lambda row: (row[indices[0]],)
    return itemgetter(*indices)


def _binder(names: Sequence[str], indices: Sequence[int]) -> Callable[[Row], Binding]:
    """row -> {names[k]: row[indices[k]]} in names order: a dict display of
    keys fixed here for up to three variables."""
    if not names:
        return lambda row: {}
    if len(names) == 1:
        (a,), (i,) = names, indices
        return lambda row: {a: row[i]}
    if len(names) == 2:
        (a, b), (i, j) = names, indices
        return lambda row: {a: row[i], b: row[j]}
    if len(names) == 3:
        (a, b, c), (i, j, k) = names, indices
        return lambda row: {a: row[i], b: row[j], c: row[k]}
    values = itemgetter(*indices)
    return lambda row: dict(zip(names, values(row)))


class _Pivot(NamedTuple):
    table: int  # the delta map that has the pivot's predicate as a key
    predicate: Iri
    seed: Callable[[Delta], list[Row]]
    steps: tuple[Step, ...]
    canonical: Callable[[Row], Row]  # a plan row -> its values by variable name
    binding: Callable[[Row], Binding]  # a canonical row -> its `fired` binding


def _compile(rule: SwrlRule) -> tuple[tuple[_Pivot, ...], Callable[[Row], Row]]:
    """One plan per pivot atom, and the head's terms from a canonical row."""
    atoms = rule.antecedent
    variables = sorted({variable.name for atom in atoms for variable in atom_variables(atom)})
    by_name = {name: index for index, name in enumerate(variables)}
    pivots = []
    for index, atom in enumerate(atoms):
        others, slots = (*atoms[:index], *atoms[index + 1:]), {}
        seed, steps = _seed(atom, slots), tuple(_plan(others, slots))
        names = tuple(dict.fromkeys(v.name for each in (atom, *others) for v in atom_variables(each)))
        is_class = isinstance(atom, ClassAtom)
        pivots.append(_Pivot(
            int(not is_class), atom.cls if is_class else atom.prop, seed, steps,
            _picker([slots[name] for name in variables], len(variables)),
            _binder(names, [by_name[name] for name in names]),
        ))
    head = rule.consequent
    terms = (head.term,) if isinstance(head, ClassAtom) else (head.subject, head.object)
    if all(isinstance(term, Variable) for term in terms):
        return tuple(pivots), _picker([by_name[term.name] for term in terms], len(variables))
    getters = [_known(term, by_name) for term in terms]
    return tuple(pivots), lambda row: tuple(get(row) for get in getters)


def _rule_rows(pivots: Sequence[_Pivot], full: View, delta: Delta) -> list[tuple[Row, Callable[[Row], Binding]]]:
    """Complete antecedent matches that touch the delta, as canonical rows
    with the binder of the first pivot that found each, sorted for replay."""
    found: dict[Row, Callable[[Row], Binding]] = {}
    for pivot in pivots:
        if pivot.predicate in delta[pivot.table]:
            for row in map(pivot.canonical, _run(pivot.steps, pivot.seed(delta), full)):
                found.setdefault(row, pivot.binding)
    return sorted(found.items())


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
    # matches in the same rule and row order, through the store's one write
    # path, into `work` and the class-members view. All facts count as new
    # in the first round, where the first pivot alone finds every match.
    full_members = work.members()
    full: View = (full_members, work.by_subject, work.by_object)
    delta: Delta = (full_members, {
        prop: [(subject, obj) for subject, objects in index.items() for obj in objects]
        for prop, index in work.by_subject.items()
    })
    rules = tbox._plans  # compiled on the TBox's first chaining since its last add_rule
    if rules is None:
        rules = tbox._plans = [(rule.name, rule.consequent, *_compile(rule)) for rule in tbox.rules]
    fired: list[tuple[str, Binding]] = []

    while delta[0] or delta[1]:  # any new class or property fact
        matched = [
            (name, head, ground, _rule_rows(pivots[:1] if delta[0] is full_members else pivots, full, delta))
            for name, head, pivots, ground in rules
        ]
        next_members: dict[Iri, set[Iri]] = {}
        next_pairs: dict[Iri, list[tuple[Iri, Iri]]] = {}
        for name, head, ground, rows in matched:
            origin = Inferred(name)
            if isinstance(head, PropertyAtom):
                derived = []
                for row, binding in rows:
                    terms = ground(row)
                    if work._insert_property(terms[0], head.prop, terms[1], origin):
                        derived.append(terms)
                        fired.append((name, binding(row)))
                if derived:
                    next_pairs.setdefault(head.prop, []).extend(derived)
            else:
                for row, binding in rows:
                    (member,) = ground(row)
                    if work._insert_class(member, head.cls, origin):
                        for super_cls in closure[head.cls]:
                            known = full_members.setdefault(super_cls, set())
                            if member not in known:
                                known.add(member)
                                next_members.setdefault(super_cls, set()).add(member)
                        fired.append((name, binding(row)))
        delta = (next_members, next_pairs)
    return work, fired


def check_consistency(tbox: TBox, abox: ABox) -> list[tuple[Iri, Iri, Iri]]:
    """One violation per individual per disjoint pair it is a member of both
    sides of, membership expanded through the subclass closure. Only an
    individual with a recorded class can be a member."""
    if not tbox.disjoint_axioms:
        return []
    return [
        (individual, a, b)
        for individual in sorted(abox.direct_classes)
        for a, b in tbox.disjoint_axioms
        if abox.is_member(individual, a) and abox.is_member(individual, b)
    ]


def classify(result: InferenceResult, individual: Iri, target_class: Iri) -> bool:
    """True iff the individual's closure-expanded membership holds the target.

    An individual absent from the ABox yields False with a logged warning,
    not an error: the caller may be probing an entity extraction that never
    produced the individual.
    """
    abox = result.abox
    if individual in abox.direct_classes:
        return abox.is_member(individual, target_class)
    if not any(individual in index for pairs in (abox.by_subject, abox.by_object) for index in pairs.values()):
        log.warning("classify: individual %s not present in ABox", individual)
    return False
