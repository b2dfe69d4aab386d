"""The four workloads: inputs, set-up, untimed preparation and timed rounds.

Every workload is a closed loop: one caller, or for ``live`` two worker
threads, each issuing the next operation when the previous one returns. A
round is the unit the loop repeats; it times only the program's work and
checks its outputs afterwards, outside the timed section.

* ``grid``: one op is one instance run. A round runs the scripted 3 tasks x 6
  conditions grid over replicated test splits, writes the trace files, then
  reports on them as ``ruleweave report`` does.
* ``live``: the same round through ``HttpBackend`` against the loopback stub
  in ``stub.py``, with two workers.
* ``chain``: one op (and round) is ``forward_chain`` over a transitive chain.
* ``snapshot_query``: one op is a ``ruleweave query`` call through
  ``cli.main`` over an SD-Comp trace file of replicated hearsay instances; a
  round cycles the query mix once.

The program is only reached through module attributes (``program.evaluation.
run_condition``), so the span wrappers of the traced run see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from perfbench import replicas
from perfbench.replicas import TASK_IDS

MODULES = (
    "tasklib",
    "evaluation",
    "pipeline",
    "extraction",
    "backends",
    "ontology",
    "reasoner",
    "query",
    "stats",
    "cli",
)
PINNED_TIMESTAMP = "2000-01-01T00:00:00+00:00"
EXPECTED_FILE = Path(__file__).with_name("expected.json")

GRID_COPIES = 10
LIVE_COPIES = 2
LIVE_WORKERS = 2  # = nproc of the machine the baseline was taken on
LIVE_LATENCY_MS = 10.0
LIVE_MALFORMED_SHARE = 0.1
CHAIN_EDGES = 48
QUERY_COPIES = 20
QUERY_MIX = (
    "PREFIX h: <http://example.org/hearsay#>\n"
    "SELECT ?s WHERE { ?s a h:Hearsay . }",
    "PREFIX h: <http://example.org/hearsay#> PREFIX sd: <http://example.org/sd#>\n"
    "SELECT ?s ?c WHERE { ?s a h:Statement . ?s sd:belongsToCase ?c . }",
    "PREFIX h: <http://example.org/hearsay#> PREFIX sd: <http://example.org/sd#>\n"
    "SELECT ?s ?a ?c WHERE { ?s h:hasAssertion ?a . ?s sd:belongsToCase ?c . "
    "?a sd:belongsToCase ?c . }",
)


def import_program(root: Path) -> SimpleNamespace:
    """Import every ruleweave module from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "ruleweave" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ruleweave sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"ruleweave.{name}") for name in MODULES}
    origin = Path(modules["tasklib"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"ruleweave was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


def setup(program, workload: str, root: Path, workdir: Path) -> dict:
    """Load what the workload's timed rounds use: the set-up ``setup_s`` times.

    Every workload loads the three built-in tasks. ``grid`` and ``live`` also
    load the bundled corpora and replays (for the reference run) and the
    replicated corpora; ``grid`` loads the replicated replays as well.
    """
    loaded = {"tasks": {tid: program.tasklib.builtin_task(tid) for tid in TASK_IDS}}
    if workload in ("grid", "live"):
        evaluation, backends = program.evaluation, program.backends
        loaded["datasets"] = {tid: evaluation.builtin_dataset(tid) for tid in TASK_IDS}
        loaded["replays"] = {
            tid: backends.ScriptedBackend.from_file(replicas.bundled_replay_path(root, tid))
            for tid in TASK_IDS
        }
        loaded["replica_datasets"] = {
            tid: evaluation.load_dataset(workdir / f"{tid}.jsonl") for tid in TASK_IDS
        }
        if workload == "grid":
            loaded["replica_replays"] = {
                tid: backends.ScriptedBackend.from_file(workdir / f"{tid}.replay.json")
                for tid in TASK_IDS
            }
    return loaded


@dataclass
class Round:
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    ops: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


@contextlib.contextmanager
def timed(result: Round, recorder=None, instance: Optional[str] = None):
    """Time a section into ``result``; under tracing it is one root span."""
    span = recorder.span("perfbench.round", instance) if recorder is not None else contextlib.nullcontext()
    cpu = time.process_time()
    started = time.perf_counter()
    with span:
        yield
    result.seconds += time.perf_counter() - started
    result.cpu_seconds += time.process_time() - cpu


class Workload:
    """Inputs are made by ``generate``; ``prepare`` runs once, untimed, after
    set-up; ``round`` is repeated while the clock runs."""

    name = ""
    # Op times are CPU work of this process, so they are reported at the
    # reference speed (see ``run.py``).
    cpu_bound = True

    def __init__(self, program, root: Path, workdir: Path, rng: random.Random):
        self.program = program
        self.root = root
        self.workdir = workdir
        self.rng = rng
        self.loaded: dict = {}
        self.prepared = Round()  # ops run, and failures found, while preparing

    def generate(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def round(self, recorder=None) -> Round:
        raise NotImplementedError

    def close(self) -> dict:
        """Stop helpers; returns any measurements they reported."""
        return {}


# -- grid and live ----------------------------------------------------------------


class _Capture:
    """Scripted backend wrapper that records each request's reply by stub key,
    and withholds a valid reply for the keys in ``malformed``."""

    def __init__(self, inner, malformed: frozenset = frozenset()):
        self.inner = inner
        self.malformed = malformed
        self.replies: dict[str, str] = {}
        self.lock = threading.Lock()

    def complete(self, request):
        from perfbench import stub

        response = self.inner.complete(request)
        key = stub.request_key(request.system, request.user)
        with self.lock:
            self.replies[key] = response.text
        if key in self.malformed:
            return type(response)(text=stub.MALFORMED_TEXT, data=None)
        return response


class Grid(Workload):
    name = "grid"
    copies = GRID_COPIES
    model = "scripted"
    workers = 1

    def generate(self) -> None:
        self.source_of: dict[str, dict[str, str]] = {}
        for tid in TASK_IDS:
            made = replicas.replicate_bundled(self.root, tid, self.copies, self.rng)
            made.write(self.workdir)
            self.source_of[tid] = made.source_of

    def backend(self, tid: str):
        return self.loaded["replica_replays"][tid]

    def prepare(self) -> None:
        """Run the unreplicated grid: its traces must match the committed
        digest, and they are what every replica is checked against."""
        evaluation, pipeline = self.program.evaluation, self.program.pipeline
        expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))["grid_traces_sha256"]
        digest = hashlib.sha256()
        self.reference: dict = {}
        for tid in TASK_IDS:
            task = self.loaded["tasks"][tid]
            for condition in pipeline.ALL_CONDITIONS:
                run = evaluation.run_condition(
                    task, self.loaded["datasets"][tid], condition, self.loaded["replays"][tid]
                )
                text = pipeline.dump_traces(run.traces, tid, condition, "scripted", PINNED_TIMESTAMP)
                digest.update(f"{tid}/{condition.value}\n".encode("utf-8"))
                digest.update(text.encode("utf-8"))
                counts = evaluation.fold_counts(t.to_dict() for t in run.traces)
                self.reference[(tid, condition.value)] = (counts, {t.instance_id: t for t in run.traces})
                self.prepared.ops += len(run.traces)
                self.prepared.failed += sum(t.outcome == pipeline.OUTCOME_ERROR for t in run.traces)
        if digest.hexdigest() != expected:
            self.prepared.failed = self.prepared.ops
            self.prepared.problems.append(
                f"unreplicated grid traces hash to {digest.hexdigest()}, expected {expected}"
            )
        reference_models = {cell.model for cell in evaluation.reference_cells()}
        self.compared_pairs = (len(reference_models) + 1) * len(TASK_IDS)
        self.latencies: list[float] = []
        self._original_evaluate = vars(evaluation)["evaluate_instance"]
        evaluation.evaluate_instance = self._timed_evaluate_instance
        self.out_dir = self.workdir / "runs"

    def _timed_evaluate_instance(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return self.program.pipeline.evaluate_instance(*args, **kwargs)
        finally:
            self.latencies.append((time.perf_counter() - started) * 1000.0)

    def run_grid(self, result: Round, recorder=None) -> tuple[dict, dict, object]:
        evaluation, pipeline = self.program.evaluation, self.program.pipeline
        runs, counts = {}, {}
        self.latencies = []
        with timed(result, recorder, f"pass-{self.name}"):
            for tid in TASK_IDS:
                task = self.loaded["tasks"][tid]
                for condition in pipeline.ALL_CONDITIONS:
                    runs[(tid, condition.value)] = evaluation.run_condition(
                        task,
                        self.loaded["replica_datasets"][tid],
                        condition,
                        self.backend(tid),
                        model=self.model,
                        workers=self.workers,
                        out_dir=self.out_dir,
                        timestamp=PINNED_TIMESTAMP,
                    )
            # The report step of `ruleweave report`, over the files just written.
            cells = []
            for key, run in runs.items():
                header, records = pipeline.load_traces(run.trace_path)
                counts[key] = evaluation.fold_counts(records)
                cells.append(
                    evaluation.cell_from_counts(
                        header["model"], header["task"], header["condition"], counts[key]
                    )
                )
            report = evaluation.aggregate(cells)
            # Scripted cells all score F1 = 1, so SD - FS has zero variance on its
            # own; the run's cells join the bundled reference grid as one more model.
            comparison = evaluation.compare(evaluation.reference_cells() + cells, "SD", "FS")
            evaluation.report_markdown(report, [comparison])
            evaluation.report_csv(cells)
        result.latencies_ms = self.latencies
        return runs, counts, comparison

    def round(self, recorder=None) -> Round:
        result = Round()
        runs, counts, comparison = self.run_grid(result, recorder)
        error = self.program.pipeline.OUTCOME_ERROR
        for (tid, condition), run in runs.items():
            result.ops += len(run.traces)
            errors = sum(t.outcome == error for t in run.traces)
            reference_counts, sources = self.reference[(tid, condition)]
            problems = replicas.replica_mismatches(sources, run.traces, self.source_of[tid])
            want = tuple(self.copies * getattr(reference_counts, f) for f in ("tp", "fp", "tn", "fn", "excluded_errors"))
            got = tuple(getattr(counts[(tid, condition)], f) for f in ("tp", "fp", "tn", "fn", "excluded_errors"))
            if got != want:
                problems.append(f"{tid}/{condition}: confusion counts {got}, expected {want}")
            result.failed += len(run.traces) if problems else errors
            result.problems += problems[:3]
        if comparison.n != self.compared_pairs:
            result.problems.append(f"SD vs FS compared {comparison.n} cell pairs")
            result.failed = result.ops
        return result

    def close(self) -> dict:
        if hasattr(self, "_original_evaluate"):
            self.program.evaluation.evaluate_instance = self._original_evaluate
        return {}


class Live(Grid):
    name = "live"
    copies = LIVE_COPIES
    model = "stub"
    workers = LIVE_WORKERS
    # Op times are mostly waits: on the stub's fixed latency, and on the
    # other worker and the stub for the two cores. On a quiet host they did
    # not follow the reference loop, and scaling them tripled their spread,
    # so they are reported as measured.
    cpu_bound = False

    def generate(self) -> None:
        super().generate()
        table = self.capture_stub_table()
        path = self.workdir / "stub_table.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        self.stub = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py")), str(path), str(LIVE_LATENCY_MS)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = json.loads(self.stub.stdout.readline())["port"]

    def capture_stub_table(self) -> dict:
        """Record the reply for every request of one replicated grid round.

        A first pass lists the requests; a seeded share of them is chosen to
        get a malformed reply, and a second pass runs with those replies
        withheld, so the repair requests the program makes are recorded too.
        """
        program = self.program
        tasks = {tid: program.tasklib.builtin_task(tid) for tid in TASK_IDS}
        datasets = {tid: program.evaluation.load_dataset(self.workdir / f"{tid}.jsonl") for tid in TASK_IDS}
        scripted = {
            tid: program.backends.ScriptedBackend.from_file(self.workdir / f"{tid}.replay.json")
            for tid in TASK_IDS
        }

        def capture(malformed: frozenset) -> dict[str, str]:
            replies: dict[str, str] = {}
            for tid in TASK_IDS:
                backend = _Capture(scripted[tid], malformed)
                for condition in program.pipeline.ALL_CONDITIONS:
                    program.evaluation.run_condition(tasks[tid], datasets[tid], condition, backend, model=self.model)
                replies.update(backend.replies)
            return replies

        first = capture(frozenset())
        keys = sorted(first)
        malformed = frozenset(self.rng.sample(keys, round(LIVE_MALFORMED_SHARE * len(keys))))
        replies = capture(malformed)
        return {"replies": replies, "malformed": sorted(malformed)}

    def prepare(self) -> None:
        super().prepare()
        self.http = self.program.backends.HttpBackend(
            endpoint=f"http://127.0.0.1:{self.port}/v1/chat/completions",
            model=self.model,
            api_key="perfbench",
            timeout=30.0,
            max_concurrency=LIVE_WORKERS,
        )
        # Warm the client (its lazy import of requests) before any timing.
        warm = self.program.evaluation.run_condition(
            self.loaded["tasks"][TASK_IDS[0]],
            self.loaded["replica_datasets"][TASK_IDS[0]],
            self.program.pipeline.Condition.FS,
            self.http,
            model=self.model,
            workers=self.workers,
        )
        self.prepared.ops += len(warm.traces)
        self.prepared.failed += sum(t.outcome == self.program.pipeline.OUTCOME_ERROR for t in warm.traces)

    def backend(self, tid: str):
        return self.http

    def close(self) -> dict:
        super().close()
        if not hasattr(self, "stub"):
            return {}
        try:
            self.stub.stdin.close()
            stats = json.loads(self.stub.stdout.readline() or "null")
        finally:
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
        if stats is None:
            raise RuntimeError("the stub exited without reporting")
        return stats


# -- chain --------------------------------------------------------------------------


class Chain(Workload):
    """``edge`` links nodes n0 -> n1 -> ... -> nE; the rules make ``reach``
    its transitive closure, E(E+1)/2 pairs. Nodes sit in a small class
    hierarchy with one disjoint pair (the two chain ends), so the subclass
    closure and the consistency check have work to do."""

    name = "chain"
    edges = CHAIN_EDGES

    def generate(self) -> None:
        onto = self.program.ontology
        c = functools.partial(onto.Iri, "c")
        tbox = onto.TBox({"c": "http://example.org/chain#"})
        for local in ("Thing", "Node", "Inner", "Start", "End"):
            tbox.declare_class(c(local))
        for sub, sup in (("Node", "Thing"), ("Inner", "Node"), ("Start", "Node"), ("End", "Node")):
            tbox.add_subclass(c(sub), c(sup))
        tbox.add_disjoint(c("Start"), c("End"))
        tbox.declare_property(c("edge"), c("Node"), c("Node"))
        tbox.declare_property(c("reach"))
        x, y, z = (onto.Variable(v) for v in "xyz")
        tbox.add_rule(onto.SwrlRule("edge_reach", (onto.PropertyAtom(c("edge"), x, y),), onto.PropertyAtom(c("reach"), x, y)))
        tbox.add_rule(
            onto.SwrlRule(
                "reach_step",
                (onto.PropertyAtom(c("reach"), x, y), onto.PropertyAtom(c("edge"), y, z)),
                onto.PropertyAtom(c("reach"), x, z),
            )
        )
        tokens = self.rng.sample(range(16**replicas.TOKEN_DIGITS), self.edges + 1)
        nodes = [onto.Iri("inst", f"n{token:0{replicas.TOKEN_DIGITS}x}") for token in tokens]
        kinds = ["Start"] + ["Inner"] * (self.edges - 1) + ["End"]
        members = list(zip(nodes, kinds))
        links = list(zip(nodes, nodes[1:]))
        self.rng.shuffle(members)
        self.rng.shuffle(links)
        abox = onto.ABox(tbox)
        for node, kind in members:
            abox.assert_class(node, c(kind), "chain node")
        for a, b in links:
            abox.assert_property(a, c("edge"), b, "chain link")
        self.tbox, self.abox, self.reach = tbox, abox, c("reach")
        self.ops = 0

    def round(self, recorder=None) -> Round:
        result = Round(ops=1)
        with timed(result, recorder, f"op-{self.ops}"):
            inferred = self.program.reasoner.forward_chain(self.tbox, self.abox)
        result.latencies_ms.append(1000.0 * result.seconds)
        self.ops += 1
        reach = sum(1 for (_, prop, _) in inferred.abox.property_assertions if prop == self.reach)
        want = self.edges * (self.edges + 1) // 2
        if reach != want or not inferred.consistent or len(inferred.fired) != reach:
            result.failed = 1
            result.problems.append(
                f"chain derived {reach} reach facts (want {want}), fired {len(inferred.fired)}, "
                f"consistent={inferred.consistent}"
            )
        return result


# -- snapshot_query ---------------------------------------------------------------------


class SnapshotQuery(Workload):
    name = "snapshot_query"
    copies = QUERY_COPIES

    def generate(self) -> None:
        """Write an SD-Comp trace file of replicated hearsay instances and the
        expected answer of each query: the union of its per-instance answers."""
        program = self.program
        made = replicas.replicate_bundled(self.root, "hearsay", self.copies, self.rng)
        task = program.tasklib.builtin_task("hearsay")
        dataset = program.evaluation.parse_dataset("\n".join(made.corpus_lines), "hearsay")
        backend = program.backends.ScriptedBackend.from_records(made.replay_records)
        condition = program.pipeline.Condition.SD_COMP
        run = program.evaluation.run_condition(task, dataset, condition, backend)
        self.trace_path = self.workdir / "traces.jsonl"
        self.trace_path.write_text(
            program.pipeline.dump_traces(run.traces, "hearsay", condition, "scripted", PINNED_TIMESTAMP),
            encoding="utf-8",
        )
        self.instances = len(run.traces)
        self.expected = [self.union_of_instance_answers(task, run.traces, text) for text in QUERY_MIX]
        self.ops = 0

    def union_of_instance_answers(self, task, traces, text: str) -> str:
        query_module, onto = self.program.query, self.program.ontology
        query = query_module.parse_query(text)
        rows = set()
        for trace in traces:
            abox = onto.ABox(task.tbox)
            for triple in trace.abox_snapshot:
                subject = onto.Iri.parse(triple["subject"])
                if triple["predicate"] == "a":
                    abox.assert_class(subject, onto.Iri.parse(triple["object"]), triple["origin"])
                else:
                    abox.assert_property(
                        subject, onto.Iri.parse(triple["predicate"]), onto.Iri.parse(triple["object"]), triple["origin"]
                    )
            rows.update(query_module.execute(query, task.tbox, abox))
        lines = ["\t".join(f"?{name}" for name in query.select_vars)]
        lines += ["\t".join(str(value) for value in row) for row in sorted(rows)]
        return "\n".join(lines) + "\n"

    def round(self, recorder=None) -> Round:
        """One cycle of the query mix. Its latency sample is the cycle's mean
        op latency: the three queries differ in cost, and a median over
        single ops would jump between their modes from run to run."""
        result = Round()
        for text, expected in zip(QUERY_MIX, self.expected):
            output = io.StringIO()
            with timed(result, recorder, f"op-{self.ops}"), contextlib.redirect_stdout(output):
                code = self.program.cli.main(["query", "--trace", str(self.trace_path), "--query", text])
            result.ops += 1
            self.ops += 1
            if code != 0 or output.getvalue() != expected:
                result.failed += 1
                result.problems.append(f"query {QUERY_MIX.index(text)} exited {code} or returned other rows")
        result.latencies_ms.append(1000.0 * result.seconds / result.ops)
        return result


WORKLOADS = {w.name: w for w in (Grid, Live, Chain, SnapshotQuery)}
