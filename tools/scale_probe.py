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
the row count is checked against the closed form, the `fired` log against
the derived count and its bindings' key order (x, y or x, y, z), and the
restored ABox against the chained one, so a wrong answer cannot pass as a
fast one.

A second table gives the cyclic garbage collector's activity per op at each
size, averaged over the same REPEATS runs and read through `gc.callbacks`:
the gen-0, gen-1 and gen-2 collections and the milliseconds they took.
"""

from __future__ import annotations

import gc
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


class CollectorMeter:
    """Collections per generation and their time, while installed in gc.callbacks."""

    def __init__(self):
        self.collections = [0, 0, 0]
        self.ns = 0
        self._started = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
        else:
            self.collections[info["generation"]] += 1
            self.ns += time.perf_counter_ns() - self._started


def measure(action) -> tuple[float, object, str]:
    """The median ms of REPEATS calls, the last result, and the collector's
    activity per call: gen-0, gen-1 and gen-2 collections and ms, tab-separated."""
    times, meter = [], CollectorMeter()
    gc.callbacks.append(meter)
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = action()
            times.append(1000.0 * (time.perf_counter() - start))
    finally:
        gc.callbacks.remove(meter)
    per_op = [count / REPEATS for count in meter.collections]
    activity = "\t".join([*(f"{count:.1f}" for count in per_op), f"{meter.ns / 1e6 / REPEATS:.1f}"])
    return statistics.median(times), result, activity


def main() -> int:
    print("nodes\tderived\tforward_chain_ms\tquery_ms\trows\trestore_ms")
    collector = ["nodes\top\tgen0\tgen1\tgen2\tgc_ms"]
    for nodes in NODES:
        tbox, abox = chain(nodes)
        chain_ms, result, chain_gc = measure(lambda: forward_chain(tbox, abox))
        query_ms, rows, query_gc = measure(lambda: execute(QUERY, tbox, result.abox))
        snapshot = snapshot_abox(result.abox)
        restore_ms, restored, restore_gc = measure(lambda: restore_abox(tbox, snapshot))
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
        # one `fired` entry per derived fact, its keys in the pivot's order
        orders = {tuple(binding) for _, binding in result.fired}
        if len(result.fired) != derived or not orders <= {("x", "y"), ("x", "y", "z")}:
            print(f"wrong answer at {nodes} nodes: {len(result.fired)} fired, binding keys {sorted(orders)}")
            return 1
        print(
            f"{nodes}\t{derived}\t{chain_ms:.1f}\t{query_ms:.1f}\t{len(rows)}\t{restore_ms:.1f}"
        )
        for op, activity in (("forward_chain", chain_gc), ("query", query_gc), ("restore", restore_gc)):
            collector.append(f"{nodes}\t{op}\t{activity}")
    print()
    print("\n".join(collector))
    return 0


if __name__ == "__main__":
    sys.exit(main())
