"""Restricted SPARQL-style SELECT queries over a populated ABox.

Supported surface: PREFIX declarations, SELECT with explicit variables, and
a WHERE block holding basic graph patterns. `;` continues the previous
subject, `a` is sugar for class membership, `#` comments run to end of
line. Nothing else: no OPTIONAL, FILTER, literals, or blank nodes.

Class-membership patterns respect the subclass closure, and matching runs
over asserted plus inferred facts, so a query sees exactly what the
reasoner concluded. The patterns become class and property atoms, joined
by the chainer's own planner, `reasoner._join`: each next pattern is the
one that binds the fewest new variables, and one whose subject or object is
a constant or a bound variable is a hash lookup in the ABox's by-subject or
by-object map, not a scan. A variable predicate or class ranges over the
properties or classes with facts. Names in the query resolve through the
query's own PREFIX table to full URLs, then back through the task's prefix
table; a symbol that does not resolve, or resolves to an undeclared
class/property, makes the query return no rows and logs a warning instead
of raising.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import QuerySyntaxError, UnsafeRuleError
from .ontology import _NAME, _NAME_RE, ABox, Atom, ClassAtom, Iri, PropertyAtom, TBox, Variable
from .reasoner import _join, _picker

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<iriref><[^<>\s]*>)
  | (?P<var>\?[A-Za-z][A-Za-z0-9_]*)
  | (?P<pname>(?:{_NAME})?:{_NAME})
  | (?P<name>{_NAME})
  | (?P<punct>[{{}};.:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int


@dataclass(frozen=True)
class ResolvedName:
    """A prefixed name from the query, resolved to its full URL."""

    url: str
    rendered: str


PatternTerm = Union[Variable, ResolvedName]
CLASS_KEYWORD = "a"


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: Union[PatternTerm, str]  # the string is always CLASS_KEYWORD
    object: PatternTerm


@dataclass
class Query:
    prefixes: dict[str, str]
    select_vars: list[str]
    patterns: list[TriplePattern] = field(default_factory=list)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, column = 1, 1
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QuerySyntaxError(f"unexpected character {text[position]!r}", line, column)
        kind = match.lastgroup
        value = match.group()
        if kind == "newline":
            line += 1
            column = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, value, line, column))
            column += len(value)
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.position = 0
        last = tokens[-1] if tokens else Token("", "", 1, 1)
        self.end = (last.line, last.column + len(last.value))  # just past the last token

    def peek(self) -> Optional[Token]:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def next(self, expectation: str) -> Token:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError(f"expected {expectation}, found end of input", *self.end)
        self.position += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.next(word)
        if token.kind != "name" or token.value.upper() != word:
            raise QuerySyntaxError(f"expected {word}, found {token.value!r}", token.line, token.column)
        return token

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "name" and token.value.upper() == word


def parse_query(text: str) -> Query:
    """Parse query text; raises QuerySyntaxError with line/column on failure."""
    parser = _Parser(_tokenize(text))
    prefixes: dict[str, str] = {}

    while parser.at_keyword("PREFIX"):
        parser.expect_keyword("PREFIX")
        token = parser.next("prefix name or ':'")
        if token.kind == "name":
            name = token.value
            colon = parser.next("':'")
            if not (colon.kind == "punct" and colon.value == ":"):
                raise QuerySyntaxError("expected ':' after prefix name", colon.line, colon.column)
        elif token.kind == "punct" and token.value == ":":
            name = ""
        else:
            raise QuerySyntaxError(f"bad prefix declaration near {token.value!r}", token.line, token.column)
        iriref = parser.next("<url>")
        if iriref.kind != "iriref":
            raise QuerySyntaxError(f"expected <url>, found {iriref.value!r}", iriref.line, iriref.column)
        prefixes[name] = iriref.value[1:-1]

    parser.expect_keyword("SELECT")
    selected: list[Token] = []
    while (token := parser.peek()) is not None and token.kind == "var":
        selected.append(parser.next("variable"))
    if not selected:  # token is the peek that ended the loop
        where = (token.line, token.column) if token else parser.end
        raise QuerySyntaxError("SELECT needs at least one variable", *where)

    parser.expect_keyword("WHERE")
    brace = parser.next("'{'")
    if not (brace.kind == "punct" and brace.value == "{"):
        raise QuerySyntaxError(f"expected '{{', found {brace.value!r}", brace.line, brace.column)

    def resolve(token: Token) -> ResolvedName:
        prefix, local = token.value.split(":", 1)
        if prefix not in prefixes:
            raise QuerySyntaxError(f"unknown prefix {prefix!r}", token.line, token.column)
        return ResolvedName(url=prefixes[prefix] + local, rendered=token.value)

    def parse_term(role: str, allow_a: bool = False) -> Union[PatternTerm, str]:
        token = parser.next(role)
        if token.kind == "var":
            name = token.value[1:]
            try:
                return Variable(name)
            except UnsafeRuleError:
                message = f"variable ?{name} must start lowercase and stay alphanumeric"
                raise QuerySyntaxError(message, token.line, token.column) from None
        if token.kind == "pname":
            return resolve(token)
        if allow_a and token.kind == "name" and token.value == "a":
            return CLASS_KEYWORD
        raise QuerySyntaxError(f"expected {role}, found {token.value!r}", token.line, token.column)

    patterns: list[TriplePattern] = []
    while True:
        token = parser.peek()
        if token is None:
            raise QuerySyntaxError("missing '}'", *parser.end)
        if token.kind == "punct" and token.value == "}":
            parser.next("'}'")
            break
        subject = parse_term("subject")
        while True:
            predicate = parse_term("predicate", allow_a=True)
            obj = parse_term("object")
            patterns.append(TriplePattern(subject, predicate, obj))
            separator = parser.peek()
            if separator is not None and separator.kind == "punct" and separator.value == ";":
                parser.next("';'")
                continue
            if separator is not None and separator.kind == "punct" and separator.value == ".":
                parser.next("'.'")
            break

    if not patterns:
        raise QuerySyntaxError("empty pattern list", token.line, token.column)  # at the '}'

    trailing = parser.peek()
    if trailing is not None:
        raise QuerySyntaxError(f"unexpected {trailing.value!r} after '}}'", trailing.line, trailing.column)

    bound = {
        term.name
        for pattern in patterns
        for term in (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(term, Variable)
    }
    for token in selected:
        if token.value[1:] not in bound:
            raise QuerySyntaxError(f"select variable {token.value} appears in no pattern", token.line, token.column)

    return Query(prefixes=prefixes, select_vars=[token.value[1:] for token in selected], patterns=patterns)


BindingRow = tuple[Iri, ...]


def _to_task_iri(name: ResolvedName, tbox: TBox) -> Optional[Iri]:
    """Map a full URL back into the task's prefix table; longest base wins."""
    candidates = sorted(
        (-len(base), prefix, name.url[len(base):])
        for prefix, base in tbox.prefixes.items()
        if name.url.startswith(base) and _NAME_RE.match(name.url[len(base):])
    )
    return Iri(*candidates[0][1:]) if candidates else None


def execute(query: Query, tbox: TBox, abox: ABox) -> list[BindingRow]:
    """Natural join of the query's patterns over asserted+inferred facts.

    Rows are deduplicated and sorted. Symbols that cannot be mapped into the
    TBox yield an empty result with a logged warning, per the contract that
    a dangling reference is a data problem, not a crash.
    """
    atoms: list[Atom] = []
    for pattern in query.patterns:
        terms = [pattern.subject, pattern.predicate, pattern.object]
        for role, term in enumerate(terms):
            if not isinstance(term, ResolvedName):
                continue
            iri = terms[role] = _to_task_iri(term, tbox)
            if iri is None:
                log.warning("query symbol %s resolves to no known namespace", term.rendered)
                return []
            if role == 1 and iri not in tbox.properties:
                log.warning("query property %s not declared in TBox", iri)
                return []
            if role == 2 and pattern.predicate == CLASS_KEYWORD and iri not in tbox.classes:
                log.warning("query class %s not declared in TBox", iri)
                return []
        subject, predicate, obj = terms
        atoms.append(ClassAtom(obj, subject) if predicate == CLASS_KEYWORD else PropertyAtom(predicate, subject, obj))

    # Only class atoms, variable-class ones included, read the members view.
    members = abox.members() if any(isinstance(atom, ClassAtom) for atom in atoms) else {}
    matched, slots = _join(atoms, (members, abox.by_subject, abox.by_object))
    return sorted(set(map(_picker([slots[name] for name in query.select_vars], len(slots)), matched)))


def format_tsv(query: Query, rows: list[BindingRow]) -> str:
    """SPARQL-results-style TSV: '?name' header row, prefix:Local cells."""
    header = "\t".join(f"?{name}" for name in query.select_vars)
    return "\n".join([header, *map("\t".join, rows)]) + "\n"
