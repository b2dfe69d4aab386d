"""In-memory TBox/ABox model.

The TBox holds classes, object properties (with optional domain/range),
subclass and disjointness axioms, and Horn rules over class/property atoms.
The ABox holds class-membership and property assertions about individuals,
each stored once, in the join index, and tagged with an origin: either
Asserted (carrying a natural-language justification) or Inferred (carrying
the rule name that produced it).

Identifiers are short prefix:Local names. A name is an exact, interned str
"prefix:Local", made by `Iri(prefix, local)` or `Iri.parse(text)`, which
check both parts; `name.partition(":")` gives them back. Its repr is the
string's own and it pickles as a plain str, so JSON, TSV and the in-memory
ABox hold one string, which the garbage collector never tracks. A prefix
table maps prefixes to base URLs only when something needs full URLs
(queries, serialization).

One deliberate deviation from OWL semantics: declared property domains and
ranges are validated eagerly when an assertion is added through the public
API, instead of being used as inference axioms. Population bugs surface at
the offending assertion rather than as downstream misclassification.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Collection, Iterator, Optional, Union

from .errors import (
    DisjointnessError,
    DomainRangeError,
    IriError,
    OntologyError,
    SubclassCycleError,
    UndeclaredError,
    UnsafeRuleError,
)

# The one grammar of a prefix, local name or task-level name.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")
_IRI_RE = re.compile(f"{_NAME}:{_NAME}\\Z")
_VAR_RE = re.compile(r"[a-z][A-Za-z0-9]*\Z")

JUSTIFICATION_LIMIT = 4096  # UTF-8 bytes
_TRUNCATION_MARKER = "...[truncated]"


def truncate_justification(text: str) -> str:
    """Cap a justification at JUSTIFICATION_LIMIT bytes, marking the cut."""
    if text.isascii() and len(text) <= JUSTIFICATION_LIMIT:
        return text  # one byte per character; other text is encoded, so a lone surrogate raises
    raw = text.encode("utf-8")
    if len(raw) <= JUSTIFICATION_LIMIT:
        return text
    keep = JUSTIFICATION_LIMIT - len(_TRUNCATION_MARKER.encode("utf-8"))
    clipped = raw[:keep].decode("utf-8", errors="ignore")
    return clipped + _TRUNCATION_MARKER


class Iri:
    """The two checked ways to make a name; each returns the exact, interned
    str "prefix:Local", never an instance of this class. A name orders as that
    string. That order is used anywhere the package promises deterministic
    iteration; it is the (prefix, local) order except where one prefix is a
    proper prefix of another and the longer goes on with a digit, because ":"
    sorts after the digits ("e2:x" < "e:x")."""

    def __new__(cls, prefix: str, local: str) -> str:
        if not prefix or not _NAME_RE.match(prefix):
            raise IriError(f"bad prefix in {prefix!r}:{local!r}")
        if not local or not _NAME_RE.match(local):
            raise IriError(f"bad local name in {prefix!r}:{local!r}")
        return sys.intern(f"{prefix}:{local}")

    @staticmethod
    def parse(text: str) -> str:
        if not isinstance(text, str) or ":" not in text:
            raise IriError(f"expected prefix:Local, got {text!r}")
        if type(text) is str and _IRI_RE.match(text) is not None:  # intern takes no subclass
            return sys.intern(text)
        prefix, local = text.split(":", 1)
        return Iri(prefix, local)  # raises the IriError that names the bad part


def _require_name(value: object) -> None:
    """Refuse anything but a well-formed prefix:Local string."""
    if not isinstance(value, str) or _IRI_RE.match(value) is None:
        raise IriError(f"expected prefix:Local, got {value!r}")


@dataclass(frozen=True, order=True)
class Variable:
    """A rule/query variable; stored without the leading '?'."""

    name: str

    def __post_init__(self):
        if not _VAR_RE.match(self.name):
            raise UnsafeRuleError(f"bad variable name ?{self.name!r}")

    def __str__(self) -> str:
        return f"?{self.name}"


Term = Union[Variable, Iri]


@dataclass(frozen=True)
class ClassAtom:
    cls: Iri
    term: Term

    def __str__(self) -> str:
        return f"{self.cls}({self.term})"


@dataclass(frozen=True)
class PropertyAtom:
    prop: Iri
    subject: Term
    object: Term

    def __str__(self) -> str:
        return f"{self.prop}({self.subject}, {self.object})"


Atom = Union[ClassAtom, PropertyAtom]


def atom_terms(atom: Atom) -> tuple[Term, ...]:
    if isinstance(atom, ClassAtom):
        return (atom.term,)
    return (atom.subject, atom.object)


def atom_variables(atom: Atom) -> Iterator[Variable]:
    for term in atom_terms(atom):
        if isinstance(term, Variable):
            yield term


@dataclass(frozen=True)
class SwrlRule:
    """A Horn rule: conjunction of atoms implies a single atom.

    Safety is checked at construction: every consequent variable must be
    bound by the antecedent, otherwise forward chaining could invent values.
    """

    name: str
    antecedent: tuple[Atom, ...]
    consequent: Atom

    def __post_init__(self):
        if not self.name:
            raise UnsafeRuleError("rule name must be non-empty")
        if not self.antecedent:
            raise UnsafeRuleError(f"rule {self.name!r} has an empty antecedent")
        bound = {v for atom in self.antecedent for v in atom_variables(atom)}
        for v in atom_variables(self.consequent):
            if v not in bound:
                raise UnsafeRuleError(
                    f"rule {self.name!r}: consequent variable {v} not bound in antecedent"
                )

    def __str__(self) -> str:
        body = " ^ ".join(str(a) for a in self.antecedent)
        return f"{body} -> {self.consequent}"


@dataclass(frozen=True)
class PropertyDecl:
    iri: Iri
    domain: Optional[Iri] = None
    range: Optional[Iri] = None


@dataclass(frozen=True)
class Asserted:
    """Origin of a fact added by population; justification is required prose."""

    justification: str

    def __post_init__(self):
        if not self.justification:
            raise OntologyError("Asserted origin requires a non-empty justification")
        object.__setattr__(
            self, "justification", truncate_justification(self.justification)
        )


@dataclass(frozen=True)
class Inferred:
    rule_name: str


Origin = Union[Asserted, Inferred]


class TBox:
    """Terminology: classes, properties, axioms, rules, and the prefix table."""

    def __init__(self, prefixes: Optional[dict[str, str]] = None):
        self.prefixes: dict[str, str] = dict(prefixes or {})
        self.classes: set[Iri] = set()
        self.properties: dict[Iri, PropertyDecl] = {}
        self.subclass_axioms: list[tuple[Iri, Iri]] = []
        self.disjoint_axioms: list[tuple[Iri, Iri]] = []
        self.rules: list[SwrlRule] = []
        self._plans = None  # the reasoner's compiled `rules`; add_rule clears it
        # Reflexive-transitive superclass map, swapped in whole only after a
        # mutation's checks pass, so reads never write and need no lock.
        self.closure: dict[Iri, frozenset[Iri]] = {}

    # -- declarations ------------------------------------------------------

    def declare_class(self, iri: Iri) -> None:
        _require_name(iri)
        self.classes.add(iri)
        self.closure = _close(self.classes, self.subclass_axioms)

    def declare_property(
        self,
        iri: Iri,
        domain: Optional[Iri] = None,
        range: Optional[Iri] = None,
    ) -> None:
        _require_name(iri)
        for endpoint, label in ((domain, "domain"), (range, "range")):
            if endpoint is not None and endpoint not in self.classes:
                raise UndeclaredError(f"{label} class {endpoint} of {iri} not declared")
        self.properties[iri] = PropertyDecl(iri, domain, range)

    def add_subclass(self, sub: Iri, super_: Iri) -> None:
        for c in (sub, super_):
            if c not in self.classes:
                raise UndeclaredError(f"subclass axiom references undeclared class {c}")
        if sub == super_:
            raise SubclassCycleError(f"self-loop {sub} subClassOf {sub} is forbidden")
        if sub in self.closure[super_]:
            raise SubclassCycleError(f"{sub} subClassOf {super_} would close a cycle")
        edge = (sub, super_)
        if edge in self.subclass_axioms:
            return
        closure = _close(self.classes, [*self.subclass_axioms, edge])
        _check_disjoint_axioms(self.disjoint_axioms, closure)
        self.subclass_axioms.append(edge)
        self.closure = closure

    def add_disjoint(self, a: Iri, b: Iri) -> None:
        for c in (a, b):
            if c not in self.classes:
                raise UndeclaredError(f"disjointness axiom references undeclared class {c}")
        if a == b:
            raise DisjointnessError(f"{a} cannot be disjoint with itself")
        pair = (a, b) if a <= b else (b, a)
        _check_disjoint_axioms([pair], self.closure)
        if pair not in self.disjoint_axioms:
            self.disjoint_axioms.append(pair)

    def add_rule(self, rule: SwrlRule) -> None:
        for atom in (*rule.antecedent, rule.consequent):
            if isinstance(atom, ClassAtom):
                if atom.cls not in self.classes:
                    raise UndeclaredError(f"rule {rule.name!r} uses undeclared class {atom.cls}")
            else:
                if atom.prop not in self.properties:
                    raise UndeclaredError(
                        f"rule {rule.name!r} uses undeclared property {atom.prop}"
                    )
        self.rules.append(rule)
        self._plans = None

    def __repr__(self) -> str:
        return (
            f"TBox(classes={len(self.classes)}, properties={len(self.properties)}, "
            f"rules={len(self.rules)})"
        )


def _close(classes: set[Iri], subclass_axioms: list[tuple[Iri, Iri]]) -> dict[Iri, frozenset[Iri]]:
    """The reflexive-transitive superclass map of the given hierarchy."""
    direct: dict[Iri, list[Iri]] = {cls: [] for cls in classes}
    for sub, sup in subclass_axioms:
        direct[sub].append(sup)
    closure: dict[Iri, frozenset[Iri]] = {}
    for cls in classes:
        seen = {cls}
        frontier = [cls]
        while frontier:
            for sup in direct[frontier.pop()]:
                if sup not in seen:
                    seen.add(sup)
                    frontier.append(sup)
        closure[cls] = frozenset(seen)
    return closure


def _check_disjoint_axioms(pairs: list[tuple[Iri, Iri]], closure: dict[Iri, frozenset[Iri]]) -> None:
    for a, b in pairs:
        if b in closure[a] or a in closure[b]:
            raise DisjointnessError(f"disjoint({a}, {b}) contradicts the subclass hierarchy")


# property -> bound term -> the terms on the other side of the pair, as a
# set or, in `by_subject`, as a dict from each term to the fact's origin
PairMap = dict[Iri, dict[Iri, Collection[Iri]]]


class ABox:
    """Assertions about individuals, validated against a companion TBox.

    Duplicate keys keep the first origin; asserting the same fact twice is
    a no-op, not an error. One ABox belongs to one evaluation instance and
    is never shared across threads.

    Each fact is stored once, in the index that the reasoner and the query
    engine read instead of scanning every fact: `direct_classes` maps an
    individual to class -> origin for each class recorded for it;
    `by_subject` maps a property to subject -> object -> origin, and
    `by_object` maps a property to object -> subjects, so a property atom
    with a bound subject or object is one hash lookup. The index holds no
    subclass closure; that is read from the TBox at lookup time, so a
    subclass axiom added after a fact is still seen. Callers must not mutate
    these maps. `class_assertions`, `property_assertions` and `individuals`
    are read-only views, built from the index each time they are read.
    """

    def __init__(self, tbox: TBox):
        self.tbox = tbox
        self.direct_classes: dict[Iri, dict[Iri, Origin]] = {}
        self.by_subject: dict[Iri, dict[Iri, dict[Iri, Origin]]] = {}
        self.by_object: dict[Iri, dict[Iri, set[Iri]]] = {}

    @property
    def class_assertions(self) -> dict[tuple[Iri, Iri], Origin]:
        return {(ind, cls): origin for ind, classes in self.direct_classes.items() for cls, origin in classes.items()}

    @property
    def property_assertions(self) -> dict[tuple[Iri, Iri, Iri], Origin]:
        return {
            (subject, prop, obj): origin
            for prop, index in self.by_subject.items()
            for subject, objects in index.items()
            for obj, origin in objects.items()
        }

    @property
    def individuals(self) -> set[Iri]:
        return set(self.direct_classes).union(*self.by_subject.values(), *self.by_object.values())

    # -- public, validated entry points -------------------------------------

    def assert_class(self, individual: Iri, cls: Iri, justification: str) -> None:
        _require_name(individual)
        self._insert_class(individual, cls, Asserted(justification))

    def assert_property(
        self, subject: Iri, prop: Iri, obj: Iri, justification: str
    ) -> None:
        _require_name(subject)
        _require_name(obj)
        self._check_property(subject, prop, obj)
        self._insert_property(subject, prop, obj, Asserted(justification))

    def _check_property(self, subject: Iri, prop: Iri, obj: Iri) -> None:
        """The checks of an asserted property fact: declaration, domain, range."""
        decl = self.tbox.properties.get(prop)
        if decl is None:
            raise UndeclaredError(f"property {prop} not declared in TBox")
        if decl.domain is not None and not self.is_member(subject, decl.domain):
            raise DomainRangeError(
                f"{subject} is not a {decl.domain}: domain of {prop} violated"
            )
        if decl.range is not None and not self.is_member(obj, decl.range):
            raise DomainRangeError(
                f"{obj} is not a {decl.range}: range of {prop} violated"
            )

    # -- raw insertion: reasoner, snapshot restore, and fact-set test rigs --
    # Each tests and writes each map once; plain gets, not setdefault, so a
    # hit allocates no empty dict or set.

    def _insert_class(self, individual: Iri, cls: Iri, origin: Origin) -> bool:
        if cls not in self.tbox.classes:
            raise UndeclaredError(f"class {cls} not declared in TBox")
        classes = self.direct_classes.get(individual)
        if classes is None:
            self.direct_classes[individual] = {cls: origin}
        elif cls in classes:
            return False
        else:
            classes[cls] = origin
        return True

    def _insert_property(self, subject: Iri, prop: Iri, obj: Iri, origin: Origin) -> bool:
        if prop not in self.tbox.properties:
            raise UndeclaredError(f"property {prop} not declared in TBox")
        objects = self.by_subject.get(prop)
        if objects is None:
            objects = self.by_subject[prop] = {}
        known = objects.get(subject)
        if known is None:
            objects[subject] = {obj: origin}
        elif obj in known:
            return False
        else:
            known[obj] = origin
        subjects = self.by_object.get(prop)
        if subjects is None:
            subjects = self.by_object[prop] = {}
        known = subjects.get(obj)
        if known is None:
            subjects[obj] = {subject}
        else:
            known.add(subject)
        return True

    # -- lookups -------------------------------------------------------------

    def is_member(self, individual: Iri, cls: Iri) -> bool:
        """Membership with subclass closure over recorded classes."""
        closure = self.tbox.closure
        for direct in self.direct_classes.get(individual, ()):
            if cls in closure[direct]:
                return True
        return False

    def members(self) -> dict[Iri, set[Iri]]:
        """Class -> individuals recorded in it or in any of its subclasses."""
        closure = self.tbox.closure
        members: dict[Iri, set[Iri]] = {}
        for individual, classes in self.direct_classes.items():
            for direct in classes:
                for cls in closure[direct]:
                    members.setdefault(cls, set()).add(individual)
        return members

    def copy(self) -> "ABox":
        dup = ABox(self.tbox)
        dup.direct_classes = {ind: classes.copy() for ind, classes in self.direct_classes.items()}
        dup.by_subject, dup.by_object = (
            {prop: {term: others.copy() for term, others in index.items()} for prop, index in pairs.items()}
            for pairs in (self.by_subject, self.by_object)
        )
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ABox):
            return NotImplemented
        # by_object is by_subject turned around
        return self.direct_classes == other.direct_classes and self.by_subject == other.by_subject

    def __repr__(self) -> str:
        return (
            f"ABox(individuals={len(self.individuals)}, "
            f"classes={len(self.class_assertions)}, "
            f"properties={len(self.property_assertions)})"
        )
