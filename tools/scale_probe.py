"""Time the chainer, a 2-pattern query and a snapshot restore on synthetic
transitive chains.

Run from the repository root:

    python3 tools/scale_probe.py

For chains of 40, 80 and 160 nodes (n0 -> n1 -> ... -> n<N-1> linked by
`edge`, with the rules edge(x,y) -> reach(x,y) and reach(x,y) ^ edge(y,z) ->
reach(x,z)), prints the derived fact count, the median `forward_chain` time,
the median `query.execute` time of the join

    SELECT ?x ?z WHERE { ?x c:reach ?y . ?y c:edge ?z . }

over the chained ABox, and the median `restore_abox` time of the chained
ABox's snapshot. Each figure is the median of REPEATS runs in one process;
the row count is checked against the closed form, and the restored ABox
against the chained one, so a wrong answer cannot pass as a fast one.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from ruleweave.ontology import ABox, Iri, PropertyAtom, SwrlRule, TBox, Variable
from ruleweave.pipeline import restore_abox, snapshot_abox
from ruleweave.query import execute, parse_query
from ruleweave.reasoner import forward_chain

NODES = (40, 80, 160)
REPEATS = 5
QUERY = parse_query(
    "PREFIX c: <http://example.org/chain#> "
    "SELECT ?x ?z WHERE { ?x c:reach ?y . ?y c:edge ?z . }"
)


def chain(nodes: int) -> tuple[TBox, ABox]:
    tbox = TBox({"c": "http://example.org/chain#", "i": "http://example.org/i#"})
    edge, reach = Iri("c", "edge"), Iri("c", "reach")
    tbox.declare_property(edge)
    tbox.declare_property(reach)
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    tbox.add_rule(SwrlRule("edge_reach", (PropertyAtom(edge, x, y),), PropertyAtom(reach, x, y)))
    tbox.add_rule(
        SwrlRule(
            "reach_step",
            (PropertyAtom(reach, x, y), PropertyAtom(edge, y, z)),
            PropertyAtom(reach, x, z),
        )
    )
    abox = ABox(tbox)
    names = [Iri("i", f"n{k}") for k in range(nodes)]
    for a, b in zip(names, names[1:]):
        abox.assert_property(a, edge, b, "chain link")
    return tbox, abox


def median_ms(action) -> tuple[float, object]:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = action()
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times), result


def main() -> int:
    print("nodes\tderived\tforward_chain_ms\tquery_ms\trows\trestore_ms")
    for nodes in NODES:
        tbox, abox = chain(nodes)
        chain_ms, result = median_ms(lambda: forward_chain(tbox, abox))
        query_ms, rows = median_ms(lambda: execute(QUERY, tbox, result.abox))
        snapshot = snapshot_abox(result.abox)
        restore_ms, restored = median_ms(lambda: restore_abox(tbox, snapshot))
        edges = nodes - 1
        derived = len(result.abox.property_assertions) - edges
        # reach holds for every pair i < j; the join pairs each x with every
        # z two or more steps ahead of it.
        if derived != edges * nodes // 2 or len(rows) != (edges - 1) * edges // 2:
            print(f"wrong answer at {nodes} nodes: {derived} derived, {len(rows)} rows")
            return 1
        if restored != result.abox:
            print(f"wrong answer at {nodes} nodes: the restored ABox differs")
            return 1
        print(
            f"{nodes}\t{derived}\t{chain_ms:.1f}\t{query_ms:.1f}\t{len(rows)}\t{restore_ms:.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
