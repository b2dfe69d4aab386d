"""Fast tests of the benchmark's own parts, at tiny sizes."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from perfbench import layers, replicas, stub, workloads
from perfbench.spans import NO_PARENT, Installation, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def program():
    return workloads.import_program(ROOT)


# -- replica generator -------------------------------------------------------------


def _tiny_corpus():
    rows = [
        {"id": "t1", "text": "first", "label": "Yes", "split": "test"},
        {"id": "t2", "text": "second", "label": "No", "split": "test"},
        {"id": "n1", "text": "exemplar", "label": "No", "split": "train"},
    ]
    replay = [
        {"instance_id": source, "step": step, "response": f"{source}:{step}"}
        for source in ("t1", "t2")
        for step in ("entity", "fs")
    ]
    return [json.dumps(row) for row in rows], replay


def test_replicas_rename_test_records_and_their_replay_entries():
    lines, replay = _tiny_corpus()
    made = replicas.replicate("tiny", lines, replay, 3, random.Random(7))
    rows = [json.loads(line) for line in made.corpus_lines]
    assert len(made.source_of) == 6 and len({len(i) for i in made.source_of}) == 1
    assert sorted(r["id"] for r in rows if r["split"] == "train") == ["n1"]
    for row in rows:
        if row["split"] == "test":
            source = made.source_of[row["id"]]
            assert row["id"].endswith(f"_{source}")
            assert row["text"] == {"t1": "first", "t2": "second"}[source]
    for record in made.replay_records:
        source = made.source_of[record["instance_id"]]
        assert record["response"] == f"{source}:{record['step']}"
    assert len(made.replay_records) == 6 * 2


def test_replicas_depend_on_the_seed_only_through_ids_and_order():
    lines, replay = _tiny_corpus()
    a = replicas.replicate("tiny", lines, replay, 2, random.Random(1))
    again = replicas.replicate("tiny", lines, replay, 2, random.Random(1))
    b = replicas.replicate("tiny", lines, replay, 2, random.Random(2))
    assert a == again
    assert set(a.source_of) != set(b.source_of)
    texts = lambda made: sorted(json.loads(line)["text"] for line in made.corpus_lines)  # noqa: E731
    assert texts(a) == texts(b)
    assert sorted(map(len, a.source_of)) == sorted(map(len, b.source_of))


def test_replica_check_accepts_true_replicas_and_flags_a_changed_one(program, tmp_path):
    made = replicas.replicate_bundled(ROOT, "hearsay", 1, random.Random(3))
    corpus, replay = made.write(tmp_path)
    task = program.tasklib.builtin_task("hearsay")
    condition = program.pipeline.Condition.SD
    source = program.evaluation.run_condition(
        task,
        program.evaluation.builtin_dataset("hearsay"),
        condition,
        program.backends.ScriptedBackend.from_file(replicas.bundled_replay_path(ROOT, "hearsay")),
    )
    copy = program.evaluation.run_condition(
        task,
        program.evaluation.load_dataset(corpus),
        condition,
        program.backends.ScriptedBackend.from_file(replay),
    )
    sources = {t.instance_id: t for t in source.traces}
    assert replicas.replica_mismatches(sources, copy.traces, made.source_of) == []
    fired, other = [t for t in copy.traces if t.fired][:2]
    fired.fired = fired.fired[1:] + [{"rule": "other", "binding": {}}]
    other.prediction = "Maybe"
    assert len(replicas.replica_mismatches(sources, copy.traces, made.source_of)) == 2


# -- loopback stub -------------------------------------------------------------------


def test_stub_serves_captured_replies_malformed_first_attempts_and_counts(program, tmp_path):
    good = stub.request_key("sys", "good")
    bad = stub.request_key("sys", "bad")
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"replies": {good: '{"answer": "Yes"}', bad: '{"answer": "No"}'}, "malformed": [bad]}))
    process = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "stub.py"), str(table), "1"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = json.loads(process.stdout.readline())["port"]
        backend = program.backends.HttpBackend(
            endpoint=f"http://127.0.0.1:{port}/v1/chat/completions", model="stub", api_key="k", timeout=10
        )

        def ask(user):
            request = program.backends.ChatRequest(
                system="sys", user=user, response_schema={"type": "object"}, model="stub", instance_id="i", step="fs"
            )
            return backend.complete(request)

        assert ask("good").data == {"answer": "Yes"}
        assert ask("bad").data is None
        with pytest.raises(program.backends.BackendError, match="404"):
            ask("unknown")
    finally:
        process.stdin.close()
        stats = json.loads(process.stdout.readline())
        process.wait(timeout=10)
        process.stdout.close()
    assert process.returncode == 0
    assert stats["requests"] == 3 and stats["connections"] == 3 and stats["unknown"] == 1
    assert all(ms >= 1.0 for ms in stats["service_ms"])


# -- output checks ------------------------------------------------------------------------


def _workload(cls, program, tmp_path, **sizes):
    workload = cls(program, ROOT, tmp_path, random.Random(5))
    for name, value in sizes.items():
        setattr(workload, name, value)
    workload.generate()
    workload.loaded = workloads.setup(program, cls.name, ROOT, tmp_path)
    return workload


def test_chain_check_counts_reach_facts(program, tmp_path):
    chain = _workload(workloads.Chain, program, tmp_path, edges=5)
    try:
        result = chain.round()
        assert (result.ops, result.failed, result.problems) == (1, 0, [])
        chain.edges = 6
        assert chain.round().failed == 1
    finally:
        chain.close()


def test_grid_checks_replicas_counts_and_reference_digest(program, tmp_path):
    grid = _workload(workloads.Grid, program, tmp_path, copies=1)
    try:
        grid.prepare()
        assert (grid.prepared.ops, grid.prepared.failed, grid.prepared.problems) == (180, 0, [])
        result = grid.round()
        assert (result.ops, result.failed, result.problems) == (180, 0, [])
        assert len(result.latencies_ms) == 180
        counts, sources = grid.reference[("hearsay", "SD")]
        next(iter(sources.values())).outcome = "Inconsistent"
        result = grid.round()
        assert result.failed == 10 and result.problems
    finally:
        grid.close()
    assert program.evaluation.evaluate_instance is program.pipeline.evaluate_instance


def test_snapshot_query_rows_equal_the_union_of_instance_answers(program, tmp_path):
    query = _workload(workloads.SnapshotQuery, program, tmp_path, copies=1)
    result = query.round()
    assert (result.ops, result.failed, result.problems) == (len(workloads.QUERY_MIX), 0, [])
    assert query.instances == 10
    query.expected[1] += "extra\trow\n"
    assert query.round().failed == 1


# -- span recorder and self-time arithmetic ---------------------------------------------------


def _spans(recorder, rows):
    """rows: (name, start, end, parent) with explicit clock values."""
    for name, start, end, parent in rows:
        recorder.name.append(recorder.intern_name(name))
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.instance.append(-1)
        recorder.failed.append(0)


def test_self_time_is_duration_minus_children():
    recorder = SpanRecorder()
    _spans(
        recorder,
        [
            ("perfbench.round", 0, 100, NO_PARENT),
            ("pipeline.run_sd", 10, 90, 0),
            ("ontology.ABox.assert_class", 20, 30, 1),
            ("ontology.ABox.assert_class", 40, 45, 1),
            ("ontology.ABox.is_member", 41, 44, 3),
        ],
    )
    assert list(recorder.self_times_ns()) == [20, 65, 10, 2, 3]
    table = layers.SpanTable(recorder, 0, len(recorder))
    assert table.top_level_ns("ontology.ABox.assert_class", "ontology.ABox.is_member") == 15
    assert table.self_ns_of("ontology.ABox.assert_class") == 12
    totals = table.layer_self_ns()
    assert (totals["pipeline"], totals["ontology"]) == (65, 15)
    assert sum(totals.values()) + 20 == 100  # the root's self time is the benchmark's own


def test_parents_are_tracked_per_thread_and_instances_inherited():
    recorder = SpanRecorder()

    def work():
        with recorder.span("pipeline.run_sd"):
            pass

    with recorder.span("perfbench.round", "op-1"):
        with recorder.span("reasoner.forward_chain"):
            pass
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    names = [recorder.names[i] for i in recorder.name]
    by_name = dict(zip(names, range(len(names))))
    assert recorder.parent[by_name["reasoner.forward_chain"]] == by_name["perfbench.round"]
    assert recorder.parent[by_name["pipeline.run_sd"]] == NO_PARENT
    assert recorder.instances[recorder.instance[by_name["reasoner.forward_chain"]]] == "op-1"


def test_installation_wraps_public_functions_and_removes_cleanly(program, tmp_path):
    originals = (program.pipeline.evaluate_instance, program.evaluation.evaluate_instance, vars(program.ontology.Iri)["parse"])
    recorder = SpanRecorder()
    installed = Installation(recorder, vars(program).values(), layers.PROBES, layers.INSTANCE_ARGS)
    try:
        assert program.evaluation.evaluate_instance is program.pipeline.evaluate_instance
        assert program.evaluation.evaluate_instance is not originals[0]
        program.reasoner.forward_chain(program.tasklib.builtin_task("hearsay").tbox, program.ontology.ABox(program.ontology.TBox()))
    finally:
        installed.remove()
    assert (program.pipeline.evaluate_instance, program.evaluation.evaluate_instance, vars(program.ontology.Iri)["parse"]) == originals
    names = {recorder.names[i] for i in recorder.name}
    assert {"tasklib.builtin_task", "reasoner.forward_chain", "reasoner.subclass_closure"} <= names
    assert recorder.counters["reasoner.fired"] == 0 and "reasoner.derived_facts" in recorder.counters
    recorder.write(tmp_path / "spans.tsv.gz")


# -- reference speed ------------------------------------------------------------------


def test_round_times_are_scaled_by_the_reference_loop_on_either_side(monkeypatch):
    from perfbench import run

    class HalfSecondOps(workloads.Workload):
        def round(self, recorder=None):
            return workloads.Round(seconds=0.5, cpu_seconds=0.25, ops=1, latencies_ms=[500.0])

    loop_times = iter([run.REFERENCE_MS, 3 * run.REFERENCE_MS, run.REFERENCE_MS])
    monkeypatch.setattr(run, "reference_ms", lambda: next(loop_times))
    references = []
    total, scaled = run.measure(HalfSecondOps(None, ROOT, ROOT, random.Random(0)), 1.0, references=references)
    assert references == [run.REFERENCE_MS, 3 * run.REFERENCE_MS, run.REFERENCE_MS]
    assert (total.ops, total.seconds, total.latencies_ms) == (2, 1.0, [500.0, 500.0])
    # Each round sits between a loop time of 1x and 3x the reference: half speed.
    assert scaled.ops == 2
    assert scaled.seconds == pytest.approx(0.5)
    assert scaled.cpu_seconds == pytest.approx(0.25)
    assert scaled.latencies_ms == pytest.approx([250.0, 250.0])
    unscaled, same = run.measure(HalfSecondOps(None, ROOT, ROOT, random.Random(0)), 1.0)
    assert (unscaled.seconds, unscaled.latencies_ms) == (same.seconds, same.latencies_ms)
