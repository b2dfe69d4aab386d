"""Per-layer metrics of the traced run, derived from the recorded spans.

A layer is a ruleweave module; a span's layer is the first part of its name
(``pipeline.evaluate_instance`` belongs to ``pipeline``). Times are summed
over the traced window and divided by the ops it completed, so two commits
compare per op even when one completes more ops in the same time. "Top-level"
inclusive time of a group of spans counts only spans with no ancestor in the
same group, so nested calls are not counted twice.
"""

from __future__ import annotations

import statistics
from array import array

from perfbench.spans import NO_PARENT, SpanRecorder
from perfbench.workloads import MODULES

COMPLETE = ("backends.ScriptedBackend.complete", "backends.HttpBackend.complete")
REPORT = (
    "evaluation.fold_counts",
    "evaluation.cell_from_counts",
    "evaluation.metrics",
    "evaluation.aggregate",
    "evaluation.compare",
    "evaluation.reference_cells",
    "evaluation.report_csv",
    "evaluation.report_markdown",
)
INSTANCE_RUNNERS = (
    "pipeline.evaluate_instance",
    "pipeline.run_sd",
    "pipeline.run_sd_direct",
    "pipeline.run_baseline",
)
PROMPT_BUILDERS = (
    "extraction.build_entity_prompt",
    "extraction.build_assertion_prompt",
    "extraction.build_direct_prompt",
    "extraction.build_baseline_prompt",
    "extraction.repair_request",
)
PARSERS = (
    "extraction.parse_entity_response",
    "extraction.parse_assertion_response",
    "extraction.parse_answer_response",
    "extraction.parse_cot_response",
)
ASSERTS = ("ontology.ABox.assert_class", "ontology.ABox.assert_property")

# name -> unit; the order is the order they are printed in.
UNITS = {
    "tasklib.load_ms": "ms",
    "evaluation.run_condition_self_ms": "ms/op",
    "evaluation.backend_wait_share": "ratio",
    "evaluation.report_ms": "ms/op",
    "stats.paired_t_test_ms": "ms/op",
    "pipeline.evaluate_instance_self_ms": "ms/op",
    "pipeline.populate_abox_ms": "ms/op",
    "pipeline.snapshot_abox_ms": "ms/op",
    "pipeline.dump_traces_ms": "ms/op",
    "pipeline.trace_bytes": "B/op",
    "pipeline.load_traces_ms": "ms/op",
    "extraction.prompt_build_ms": "ms/op",
    "extraction.prompt_bytes": "B/op",
    "extraction.parse_ms": "ms/op",
    "extraction.steps": "count/op",
    "extraction.repair_share": "ratio",
    "backends.digest_ms": "ms/op",
    "backends.scripted.complete_ms": "ms/op",
    "backends.http.complete_ms_p50": "ms",
    "backends.http.complete_ms_p99": "ms",
    "backends.http.service_ms_p50": "ms",
    "backends.http.connections_opened": "count/request",
    "backends.requests": "count/op",
    "backends.failed": "count/op",
    "ontology.assert_calls": "count/op",
    "ontology.assert_ms": "ms/op",
    "reasoner.forward_chain_self_ms": "ms/op",
    "reasoner.check_consistency_ms": "ms/op",
    "reasoner.derived_facts": "count/op",
    "reasoner.fired": "count/op",
    "query.parse_ms": "ms/op",
    "query.execute_ms": "ms/op",
    "query.rows": "count/op",
    **{f"{module}.self_ms": "ms/op" for module in MODULES},
    "trace.wall_ms": "ms/op",
    "trace.layer_self_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.spans": "count/op",
}


# -- probes: counts taken from a wrapped call's arguments and result ---------------


def _prompt_bytes(recorder: SpanRecorder, args, kwargs, request) -> None:
    recorder.count("extraction.prompt_bytes", len(request.system.encode()) + len(request.user.encode()))


def _trace_bytes(recorder: SpanRecorder, args, kwargs, text) -> None:
    recorder.count("pipeline.trace_bytes", len(text.encode()))


def _inference(recorder: SpanRecorder, args, kwargs, result) -> None:
    facts = (*result.abox.class_assertions.values(), *result.abox.property_assertions.values())
    derived = sum(1 for origin in facts if type(origin).__name__ == "Inferred")
    recorder.count("reasoner.derived_facts", derived)
    recorder.count("reasoner.fired", len(result.fired))


def _rows(recorder: SpanRecorder, args, kwargs, rows) -> None:
    recorder.count("query.rows", len(rows))


PROBES = {
    **{name: _prompt_bytes for name in PROMPT_BUILDERS},
    "pipeline.dump_traces": _trace_bytes,
    "reasoner.forward_chain": _inference,
    "query.execute": _rows,
}
# Spans of these functions carry the instance id passed at this position.
INSTANCE_ARGS = {"pipeline.evaluate_instance": 1}


class SpanTable:
    """Sums over the spans with index in [lo, hi)."""

    def __init__(self, recorder: SpanRecorder, lo: int, hi: int):
        self.recorder = recorder
        self.duration = array("q", (e - s for s, e in zip(recorder.start, recorder.end)))
        self.self_ns = recorder.self_times_ns()
        by_id = [array("l") for _ in recorder.names]
        for i in range(lo, hi):
            by_id[recorder.name[i]].append(i)
        self.by_name = dict(zip(recorder.names, by_id))

    def _indices(self, names) -> list[int]:
        return [i for name in names for i in self.by_name.get(name, ())]

    def count(self, *names: str) -> int:
        return len(self._indices(names))

    def failed(self, *names: str) -> int:
        return sum(self.recorder.failed[i] for i in self._indices(names))

    def durations_ns(self, name: str) -> list[int]:
        return [self.duration[i] for i in self._indices((name,))]

    def self_ns_of(self, *names: str) -> int:
        return sum(self.self_ns[i] for i in self._indices(names))

    def top_level_ns(self, *names: str) -> int:
        """Inclusive time of the group's spans that have no ancestor in the group."""
        recorder = self.recorder
        wanted = {i for i, name in enumerate(recorder.names) if name in names}
        total = 0
        for i in self._indices(names):
            parent = recorder.parent[i]
            while parent != NO_PARENT and recorder.name[parent] not in wanted:
                parent = recorder.parent[parent]
            if parent == NO_PARENT:
                total += self.duration[i]
        return total

    def layer_self_ns(self) -> dict[str, int]:
        totals = dict.fromkeys(MODULES, 0)
        for name, indices in self.by_name.items():
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += sum(self.self_ns[i] for i in indices)
        return totals


def _ms(ns: float) -> float:
    return ns / 1e6


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    recorder: SpanRecorder,
    setup_spans: tuple[int, int],
    window_spans: tuple[int, int],
    window_seconds: float,
    ops: int,
    untraced_seconds_per_op: float,
    stub_stats: dict,
) -> dict[str, float]:
    """Every per-layer metric of the traced window (``tasklib.load_ms`` comes
    from the traced set-up instead)."""
    setup = SpanTable(recorder, *setup_spans)
    table = SpanTable(recorder, *window_spans)
    per_op = 1.0 / ops if ops else 0.0
    counters = recorder.counters
    http_ms = [_ms(d) for d in table.durations_ns("backends.HttpBackend.complete")]
    service_ms = stub_stats.get("service_ms", [])
    layer_self = table.layer_self_ns()
    window_ns = window_seconds * 1e9
    steps = table.count("extraction.run_step")
    values = {
        "tasklib.load_ms": _ms(setup.top_level_ns(*(n for n in recorder.names if n.startswith("tasklib.")))),
        "evaluation.run_condition_self_ms": _ms(table.self_ns_of("evaluation.run_condition")) * per_op,
        "evaluation.backend_wait_share": _share(
            table.top_level_ns(*COMPLETE), table.top_level_ns("pipeline.evaluate_instance")
        ),
        "evaluation.report_ms": _ms(table.top_level_ns(*REPORT)) * per_op,
        "stats.paired_t_test_ms": _ms(table.top_level_ns("stats.paired_t_test")) * per_op,
        "pipeline.evaluate_instance_self_ms": _ms(table.self_ns_of(*INSTANCE_RUNNERS)) * per_op,
        "pipeline.populate_abox_ms": _ms(table.top_level_ns("pipeline.populate_abox")) * per_op,
        "pipeline.snapshot_abox_ms": _ms(table.top_level_ns("pipeline.snapshot_abox")) * per_op,
        "pipeline.dump_traces_ms": _ms(table.top_level_ns("pipeline.dump_traces")) * per_op,
        "pipeline.trace_bytes": counters["pipeline.trace_bytes"] * per_op,
        "pipeline.load_traces_ms": _ms(table.top_level_ns("pipeline.load_traces")) * per_op,
        "extraction.prompt_build_ms": _ms(table.top_level_ns(*PROMPT_BUILDERS)) * per_op,
        "extraction.prompt_bytes": counters["extraction.prompt_bytes"] * per_op,
        "extraction.parse_ms": _ms(table.top_level_ns(*PARSERS)) * per_op,
        "extraction.steps": steps * per_op,
        "extraction.repair_share": _share(table.count("extraction.repair_request"), steps),
        "backends.digest_ms": _ms(table.top_level_ns("backends.ChatRequest.digest")) * per_op,
        "backends.scripted.complete_ms": _ms(table.top_level_ns("backends.ScriptedBackend.complete")) * per_op,
        "backends.http.complete_ms_p50": _percentile(http_ms, 50),
        "backends.http.complete_ms_p99": _percentile(http_ms, 99),
        "backends.http.service_ms_p50": _percentile(service_ms, 50),
        "backends.http.connections_opened": _share(stub_stats.get("connections", 0), stub_stats.get("requests", 0)),
        "backends.requests": table.count(*COMPLETE) * per_op,
        "backends.failed": table.failed(*COMPLETE) * per_op,
        "ontology.assert_calls": table.count(*ASSERTS) * per_op,
        "ontology.assert_ms": _ms(table.top_level_ns(*ASSERTS)) * per_op,
        "reasoner.forward_chain_self_ms": _ms(table.self_ns_of("reasoner.forward_chain")) * per_op,
        "reasoner.check_consistency_ms": _ms(table.top_level_ns("reasoner.check_consistency")) * per_op,
        "reasoner.derived_facts": counters["reasoner.derived_facts"] * per_op,
        "reasoner.fired": counters["reasoner.fired"] * per_op,
        "query.parse_ms": _ms(table.top_level_ns("query.parse_query")) * per_op,
        "query.execute_ms": _ms(table.top_level_ns("query.execute")) * per_op,
        "query.rows": counters["query.rows"] * per_op,
        **{f"{module}.self_ms": _ms(ns) * per_op for module, ns in layer_self.items()},
        "trace.wall_ms": window_seconds * 1000.0 * per_op,
        "trace.layer_self_share": _share(sum(layer_self.values()), window_ns),
        "trace.overhead_share": _share(window_seconds * per_op, untraced_seconds_per_op) - 1.0,
        "trace.spans": (window_spans[1] - window_spans[0]) * per_op,
    }
    return values
