"""Query parsing and BGP join execution."""

from __future__ import annotations

import itertools
import random
import re

import pytest

from ruleweave.errors import QuerySyntaxError
from ruleweave.ontology import ABox, ClassAtom, Iri, SwrlRule, TBox, Variable
from ruleweave.query import (
    CLASS_KEYWORD,
    ResolvedName,
    execute,
    format_tsv,
    parse_query,
)
from ruleweave.reasoner import forward_chain

from .oracles import brute_force_query, random_instance

HEARSAY_QUERY = """\
PREFIX : <http://example.org/hearsay#>
SELECT ?case ?statement ?assertion
WHERE {
  ?statement :belongsToCase ?case ;
             a :OutOfCourtStatement ;
             :hasAssertion ?assertion .
}
"""


def inspection_tbox() -> TBox:
    tbox = TBox({"h": "http://example.org/hearsay#", "i": "http://example.org/i#"})
    for name in ("Statement", "OutOfCourtStatement", "InCourtStatement", "Hearsay", "Case", "Assertion"):
        tbox.declare_class(Iri("h", name))
    tbox.add_subclass(Iri("h", "Hearsay"), Iri("h", "Statement"))
    for prop in ("belongsToCase", "hasAssertion"):
        tbox.declare_property(Iri("h", prop))
    return tbox


# -- parsing -------------------------------------------------------------------


def test_parse_the_inspection_query():
    query = parse_query(HEARSAY_QUERY)
    assert query.select_vars == ["case", "statement", "assertion"]
    assert len(query.patterns) == 3
    subjects = {pattern.subject for pattern in query.patterns}
    assert subjects == {Variable("statement")}
    assert query.patterns[1].predicate == CLASS_KEYWORD
    assert query.patterns[0].object == Variable("case")
    assert query.patterns[2].predicate == ResolvedName(
        url="http://example.org/hearsay#hasAssertion", rendered=":hasAssertion"
    )


def test_parse_minimal_class_query():
    query = parse_query("PREFIX : <http://x#> SELECT ?x WHERE { ?x a :Hearsay . }")
    assert query.select_vars == ["x"]
    assert len(query.patterns) == 1


def test_named_prefix_and_comments():
    query = parse_query(
        """
        # comment up front
        PREFIX h: <http://example.org/hearsay#>
        SELECT ?s   # trailing comment
        WHERE { ?s a h:Statement . }
        """
    )
    assert query.patterns[0].object == ResolvedName(
        url="http://example.org/hearsay#Statement", rendered="h:Statement"
    )


def test_empty_pattern_list_is_an_error():
    with pytest.raises(QuerySyntaxError):
        parse_query("PREFIX : <http://x#> SELECT ?x WHERE { }")


def test_unknown_prefix_is_a_parse_error():
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_query("SELECT ?x WHERE { ?x a h:Statement . }")
    assert "unknown prefix" in str(excinfo.value)


def test_syntax_error_carries_line_and_column():
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_query("PREFIX : <http://x#>\nSELECT ?x\nWHERE doesnotopen")
    assert (excinfo.value.line, excinfo.value.column) == (3, 7)


def test_select_without_variables_is_an_error():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT WHERE { ?x a :C . }")


def test_select_variable_must_occur_in_a_pattern():
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_query("PREFIX : <http://x#> SELECT ?y WHERE { ?x a :C . }")
    assert "?y" in str(excinfo.value)


def test_missing_closing_brace():
    with pytest.raises(QuerySyntaxError):
        parse_query("PREFIX : <http://x#> SELECT ?x WHERE { ?x a :C .")


# Each syntax error with its place: the offending token, or for one at the end
# of input the place just past the last token, and (1, 1) when there is none.
SYNTAX_ERRORS = [
    ("SELECT ?s WHERE { ?s ! }", "unexpected character '!'", 1, 22),
    ("", "expected SELECT, found end of input", 1, 1),
    ("   \n  # only a comment", "expected SELECT, found end of input", 1, 1),
    ("SELECT ?s WHERE", "expected '{', found end of input", 1, 16),
    ("SELECT ?s\nWHERE {\n  ?s a   # no class\n", "expected object, found end of input", 3, 7),
    ("PREFIX h", "expected ':', found end of input", 1, 9),
    ("ASK ?s", "expected SELECT, found 'ASK'", 1, 1),
    ("PREFIX h <http://x#> SELECT ?s WHERE { ?s a h:X }", "expected ':' after prefix name", 1, 10),
    ("PREFIX ?x <http://x#>", "bad prefix declaration near '?x'", 1, 8),
    ("PREFIX h: http", "expected <url>, found 'http'", 1, 11),
    ("SELECT", "SELECT needs at least one variable", 1, 7),
    ("SELECT WHERE", "SELECT needs at least one variable", 1, 8),
    ("SELECT ?s WHERE . ?s a h:Hearsay . }", "expected '{', found '.'", 1, 17),
    ("SELECT ?s WHERE { ?s a . }", "expected object, found '.'", 1, 24),
    ("PREFIX h: <http://x#>\nSELECT ?s WHERE { ?s a h:Hearsay .", "missing '}'", 2, 35),
    ("PREFIX h: <http://x#> SELECT ?s WHERE { ?s a h:X . } LIMIT", "unexpected 'LIMIT' after '}'", 1, 54),
    ("SELECT ?s WHERE { ?s a h:X . }", "unknown prefix 'h'", 1, 24),
    ("SELECT ?s WHERE {\n}", "empty pattern list", 2, 1),
    ("PREFIX : <http://x#>\nSELECT ?x ?y\nWHERE { ?x a :C . }", "select variable ?y appears in no pattern", 2, 11),
]


@pytest.mark.parametrize("text, message, line, column", SYNTAX_ERRORS)
def test_syntax_errors_name_their_line_and_column(text, message, line, column):
    with pytest.raises(QuerySyntaxError) as excinfo:
        parse_query(text)
    assert str(excinfo.value) == f"{message} (line {line}, column {column})"
    assert (excinfo.value.line, excinfo.value.column) == (line, column)


def test_uppercase_variable_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query("PREFIX : <http://x#> SELECT ?X WHERE { ?X a :C . }")


# -- execution -----------------------------------------------------------------


def populated_abox(tbox: TBox) -> ABox:
    abox = ABox(tbox)
    s1, a1, c1 = Iri("i", "s1"), Iri("i", "a1"), Iri("i", "c1")
    abox.assert_class(s1, Iri("h", "OutOfCourtStatement"), "remark to a friend")
    abox.assert_property(s1, Iri("h", "hasAssertion"), a1, "the brakes failed")
    abox.assert_property(s1, Iri("h", "belongsToCase"), c1, "case link")
    return abox


def test_single_row_join():
    tbox = inspection_tbox()
    rows = execute(parse_query(HEARSAY_QUERY), tbox, populated_abox(tbox))
    assert rows == [(Iri("i", "c1"), Iri("i", "s1"), Iri("i", "a1"))]


def test_membership_respects_subclass_closure():
    tbox = inspection_tbox()
    abox = ABox(tbox)
    abox.assert_class(Iri("i", "s1"), Iri("h", "Hearsay"), "direct")
    query = parse_query(
        "PREFIX : <http://example.org/hearsay#> SELECT ?x WHERE { ?x a :Statement . }"
    )
    assert execute(query, tbox, abox) == [(Iri("i", "s1"),)]


def test_unsatisfiable_pattern_pair_yields_empty():
    tbox = inspection_tbox()
    abox = populated_abox(tbox)
    query = parse_query(
        """PREFIX : <http://example.org/hearsay#>
        SELECT ?x WHERE { ?x a :OutOfCourtStatement ; a :InCourtStatement . }"""
    )
    assert execute(query, tbox, abox) == []


def test_undeclared_class_warns_and_returns_empty(caplog):
    tbox = inspection_tbox()
    query = parse_query(
        "PREFIX : <http://example.org/hearsay#> SELECT ?x WHERE { ?x a :Zeppelin . }"
    )
    with caplog.at_level("WARNING", logger="ruleweave.query"):
        assert execute(query, tbox, populated_abox(tbox)) == []
    assert any("Zeppelin" in message for message in caplog.messages)


def test_unknown_namespace_warns_and_returns_empty(caplog):
    tbox = inspection_tbox()
    query = parse_query(
        "PREFIX w: <http://elsewhere.example/ns#> SELECT ?x WHERE { ?x a w:Thing . }"
    )
    with caplog.at_level("WARNING", logger="ruleweave.query"):
        assert execute(query, tbox, populated_abox(tbox)) == []
    assert any("w:Thing" in message for message in caplog.messages)


def test_rows_deduplicated():
    tbox = inspection_tbox()
    abox = populated_abox(tbox)
    # Two distinct assertions both bind ?s to s1; projection collapses them.
    abox.assert_property(Iri("i", "s1"), Iri("h", "hasAssertion"), Iri("i", "a2"), "second")
    query = parse_query(
        "PREFIX : <http://example.org/hearsay#> SELECT ?s WHERE { ?s :hasAssertion ?a . }"
    )
    assert execute(query, tbox, abox) == [(Iri("i", "s1"),)]


def test_rows_sorted():
    tbox = inspection_tbox()
    abox = ABox(tbox)
    for name in ("zed", "alpha", "mid"):
        abox.assert_class(Iri("i", name), Iri("h", "Statement"), "j")
    query = parse_query(
        "PREFIX : <http://example.org/hearsay#> SELECT ?x WHERE { ?x a :Statement . }"
    )
    rows = execute(query, tbox, abox)
    assert rows == sorted(rows)
    assert [row[0].partition(":")[2] for row in rows] == ["alpha", "mid", "zed"]


def test_variable_predicate_ranges_over_properties_only():
    tbox = inspection_tbox()
    abox = populated_abox(tbox)
    query = parse_query(
        "PREFIX : <http://example.org/hearsay#> SELECT ?p WHERE { ?s ?p ?o . }"
    )
    rows = execute(query, tbox, abox)
    assert rows == [(Iri("h", "belongsToCase"),), (Iri("h", "hasAssertion"),)]


def test_class_variable_binds_through_closure():
    tbox = inspection_tbox()
    abox = ABox(tbox)
    abox.assert_class(Iri("i", "s1"), Iri("h", "Hearsay"), "j")
    query = parse_query(
        "PREFIX : <http://example.org/hearsay#> SELECT ?c WHERE { ?x a ?c . }"
    )
    rows = execute(query, tbox, abox)
    assert (Iri("h", "Hearsay"),) in rows
    assert (Iri("h", "Statement"),) in rows


def test_query_sees_inferred_facts():
    from ruleweave.reasoner import forward_chain

    tbox = inspection_tbox()
    marked = Iri("h", "Marked")
    tbox.declare_class(marked)
    tbox.add_rule(
        SwrlRule(
            "mark",
            (ClassAtom(Iri("h", "OutOfCourtStatement"), Variable("s")),),
            ClassAtom(marked, Variable("s")),
        )
    )
    result = forward_chain(tbox, populated_abox(tbox))
    query = parse_query(
        "PREFIX : <http://example.org/hearsay#> SELECT ?x WHERE { ?x a :Marked . }"
    )
    assert execute(query, tbox, result.abox) == [(Iri("i", "s1"),)]


def test_adding_a_fact_never_removes_rows():
    tbox = inspection_tbox()
    abox = populated_abox(tbox)
    query = parse_query(HEARSAY_QUERY)
    before = set(execute(query, tbox, abox))
    abox.assert_class(Iri("i", "s2"), Iri("h", "OutOfCourtStatement"), "extra")
    abox.assert_property(Iri("i", "s2"), Iri("h", "hasAssertion"), Iri("i", "a9"), "extra")
    abox.assert_property(Iri("i", "s2"), Iri("h", "belongsToCase"), Iri("i", "c1"), "extra")
    after = set(execute(query, tbox, abox))
    assert before <= after
    assert len(after) == 2


def test_execute_matches_brute_force_oracle_on_random_instances():
    rng = random.Random(2718)
    templates = [
        "PREFIX t: <http://example.org/t#> PREFIX i: <http://example.org/i#> "
        "SELECT ?x WHERE {{ ?x a t:C{c} . }}",
        "PREFIX t: <http://example.org/t#> SELECT ?x ?y WHERE {{ ?x t:p{p} ?y . }}",
        "PREFIX t: <http://example.org/t#> SELECT ?x ?y WHERE {{ ?x a t:C{c} ; t:p{p} ?y . }}",
        "PREFIX t: <http://example.org/t#> SELECT ?x ?c WHERE {{ ?x a ?c . }}",
        "PREFIX t: <http://example.org/t#> SELECT ?x ?p ?y WHERE {{ ?x ?p ?y . }}",
        "PREFIX t: <http://example.org/t#> SELECT ?x WHERE {{ ?x t:p{p} ?y . ?y a t:C{c} . }}",
    ]
    checked = 0
    while checked < 80:
        tbox, abox = random_instance(rng)
        text = rng.choice(templates).format(c=rng.randrange(6), p=rng.randrange(4))
        query = parse_query(text)
        # The chained ABox too: every derived fact must reach the index
        # that `execute` reads, not only the fact dicts the oracle reads.
        for facts in (abox, forward_chain(tbox, abox).abox):
            assert execute(query, tbox, facts) == brute_force_query(query, tbox, facts)
        checked += 1


def test_bound_term_patterns_match_brute_force_oracle():
    """Each pattern shape that reaches a by-subject or by-object lookup, or
    binds a predicate or class variable after an earlier pattern."""
    prefixes = "PREFIX t: <http://example.org/t#> PREFIX i: <http://example.org/i#> "
    shapes = [
        "SELECT ?y WHERE {{ i:x{a} t:p{p} ?y . }}",
        "SELECT ?x WHERE {{ ?x t:p{p} i:x{b} . }}",
        "SELECT ?x WHERE {{ ?x t:p{p} ?x . }}",
        "SELECT ?x WHERE {{ i:x{a} t:p{p} i:x{b} . ?x t:p{q} i:x{b} . }}",
        "SELECT ?x ?z WHERE {{ ?x t:p{p} ?y . ?z t:p{q} ?y . }}",
        "SELECT ?x ?p ?z WHERE {{ ?x t:p{p} ?y . ?y ?p ?z . }}",
        "SELECT ?y ?c WHERE {{ ?x t:p{p} ?y . ?y a ?c . }}",
        "SELECT ?x ?y WHERE {{ ?x t:p{p} ?y . ?y t:p{q} ?x . }}",
        "SELECT ?x WHERE {{ ?x a t:C{c} . ?x t:p{p} ?x . }}",
        "SELECT ?x ?p ?z WHERE {{ ?x ?p ?y . ?y ?p ?z . }}",
        "SELECT ?x ?y ?c WHERE {{ ?x a ?c . ?y a ?c . }}",
        "SELECT ?x ?c ?y WHERE {{ ?x a ?c . ?x ?c ?y . }}",
        "SELECT ?x ?p ?c WHERE {{ ?x ?p ?y . ?p a ?c . }}",
        "SELECT ?x ?p WHERE {{ ?x ?p ?x . }}",
    ]
    rng = random.Random(31415)
    checked = 0
    while checked < 30 * len(shapes):
        tbox, abox = random_instance(rng)
        if not tbox.properties:
            continue
        shape = shapes[checked % len(shapes)]
        text = prefixes + shape.format(
            a=rng.randrange(8),
            b=rng.randrange(8),
            c=rng.randrange(len(tbox.classes)),
            p=rng.randrange(len(tbox.properties)),
            q=rng.randrange(len(tbox.properties)),
        )
        query = parse_query(text)
        assert execute(query, tbox, abox) == brute_force_query(query, tbox, abox), text
        checked += 1


def test_execute_rows_do_not_depend_on_pattern_order():
    """Every order of a 2- or 3-pattern query, variable predicates and
    classes included, returns the brute-force rows, over random ABoxes
    before and after chaining."""
    prefixes = "PREFIX t: <http://example.org/t#> PREFIX i: <http://example.org/i#> "
    rng = random.Random(1618)

    def end() -> str:
        return rng.choice(["?x", "?x", "?y", "?y", "?z"]) if rng.random() < 0.9 else f"i:x{rng.randrange(8)}"

    def pattern(tbox: TBox) -> str:
        if rng.random() < 0.3:
            return f"{end()} a {rng.choice(['?c', f't:C{rng.randrange(len(tbox.classes))}'])}"
        predicate = "?p" if rng.random() < 0.3 else f"t:p{rng.randrange(len(tbox.properties))}"
        return f"{end()} {predicate} {end()}"

    checked = 0
    while checked < 150:
        tbox, abox = random_instance(rng)
        if not tbox.properties:
            continue
        patterns = [pattern(tbox) for _ in range(rng.randint(2, 3))]
        variables = list(dict.fromkeys(re.findall(r"\?[a-z]", " ".join(patterns))))
        if not variables or len(variables) > 3:  # keeps the brute force small
            continue
        select = f"{prefixes}SELECT {' '.join(variables)} WHERE {{ "
        queries = [parse_query(select + " . ".join(order) + " . }") for order in itertools.permutations(patterns)]
        for facts in (abox, forward_chain(tbox, abox).abox):
            expected = brute_force_query(queries[0], tbox, facts)
            assert all(execute(query, tbox, facts) == expected for query in queries), patterns
        checked += 1


def test_format_tsv():
    tbox = inspection_tbox()
    query = parse_query(HEARSAY_QUERY)
    rows = execute(query, tbox, populated_abox(tbox))
    text = format_tsv(query, rows)
    assert text.splitlines()[0] == "?case\t?statement\t?assertion"
    assert text.splitlines()[1] == "i:c1\ti:s1\ti:a1"
