"""End-to-end checks for the command line entry points.

Every test drives main() with a real argv list, so argument parsing, exit
codes, and output files are all exercised the way a shell user sees them.
"""

from __future__ import annotations

import hashlib
import json
import random
from importlib import resources

import pytest

from ruleweave import cli
from ruleweave.backends import BackendError, BackendResponse
from ruleweave.cli import main
from ruleweave.tasklib import BUILTIN_TASK_IDS, builtin_task_document

HEARSAY_CLASS_QUERY = (
    "PREFIX h: <http://example.org/hearsay#> SELECT ?s WHERE { ?s a h:Hearsay . }"
)


def replay_path(name: str) -> str:
    return str(resources.files("ruleweave").joinpath(f"data/replay/{name}"))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_hearsay(capsys, out_dir, *extra):
    argv = ["run", "--task", "hearsay", "--out", str(out_dir), "--timestamp", "t0"]
    argv.extend(extra)
    return run_cli(capsys, argv)


# -- validate / export -----------------------------------------------------------------


def test_validate_builtin_task(capsys):
    code, out, err = run_cli(capsys, ["validate", "--task", "hearsay"])
    assert code == 0
    assert "task hearsay: ok" in out
    assert err == ""


def test_validate_reports_dataset_counts(capsys, tmp_path):
    lines = [
        {"id": "a1", "text": "one", "label": "Yes", "split": "train"},
        {"id": "a2", "text": "two", "label": "No", "split": "test"},
    ]
    path = tmp_path / "hearsay.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["validate", "--task", "hearsay", "--dataset", str(path)])
    assert code == 0
    assert "dataset hearsay: ok (1 train, 1 test)" in out


def test_validate_rejects_broken_document(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"id": "broken"}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["validate", "--task", str(path)])
    assert code == 2
    assert err.startswith("task error:")

    document = builtin_task_document("hearsay")
    document["target"]["labels"] = {"positive": "Hearsay", "negative": "NotHearsay"}
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(capsys, ["validate", "--task", str(path)])
    assert code == 2
    assert err.startswith("task error: target.labels")

    path.write_text("{nope", encoding="utf-8")
    code, out, err = run_cli(capsys, ["validate", "--task", str(path)])
    assert code == 2
    assert err.startswith("task error:") and "invalid JSON" in err


def test_validate_rejects_a_binary_spec_whose_subject_breaks_the_domain(capsys, tmp_path):
    document = builtin_task_document("hearsay")
    document["properties"][0]["domain"] = "h:OutOfCourtStatement"
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(capsys, ["validate", "--task", str(path)])
    assert code == 2
    assert err.startswith("task error: assertions[2].maps_to")


def _rule_about_the_assertion_only(document):
    document["rules"] = [{"name": "hearsay_definition", "text": "h:Assertion(?s) -> h:Hearsay(?s)"}]


def _rule_joining_the_assertion_backwards(document):
    document["rules"].append(
        {"name": "dead", "text": "h:Statement(?s) ^ h:hasAssertion(?a, ?s) -> h:Hearsay(?s)"}
    )


# Every atom of these rules can be populated, but even with every entity found
# and every assertion holding, no run could label a statement positive by them.
@pytest.mark.parametrize(
    "edit, names",
    [
        (_rule_about_the_assertion_only, ("task error: target:", "'Statement'", "h:Hearsay")),
        (
            _rule_joining_the_assertion_backwards,
            ("task error: rules[1]:", "'dead'", "h:hasAssertion(?a, ?s)"),
        ),
    ],
    ids=["unreachable-target", "dead-rule"],
)
def test_validate_rejects_a_rule_no_instance_can_use(capsys, tmp_path, edit, names):
    document = builtin_task_document("hearsay")
    edit(document)
    path = tmp_path / "task.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(capsys, ["validate", "--task", str(path)])
    assert code == 2
    assert out == "" and all(name in err for name in names)


@pytest.mark.parametrize("entity", [[], {}], ids=["list", "object"])
def test_validate_rejects_a_target_entity_that_is_not_a_string(capsys, tmp_path, entity):
    document = builtin_task_document("hearsay")
    document["target"]["entity"] = entity
    path = tmp_path / "entity.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(capsys, ["validate", "--task", str(path)])
    assert code == 2
    assert err.startswith("task error: target.entity")


def test_export_round_trips_through_validate(capsys, tmp_path):
    code, exported, _ = run_cli(capsys, ["export", "hearsay"])
    assert code == 0
    document = json.loads(exported)
    assert document["id"] == "hearsay"

    copy = tmp_path / "copy.json"
    copy.write_text(exported, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["validate", "--task", str(copy)])
    assert code == 0
    assert "task hearsay: ok" in out

    code, out, _ = run_cli(capsys, ["export", str(copy)])
    assert code == 0
    assert out == exported

    copy.write_text('{"id": "broken"}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["export", str(copy)])
    assert code == 2 and out == ""
    assert err.startswith("task error:")


# -- run -------------------------------------------------------------------------------


def test_run_writes_layout_and_repeats_byte_identically(capsys, tmp_path):
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, out, _ = run_hearsay(capsys, out_dir, "--condition", "SD")
        assert code == 0
        assert "f1=1.0000" in out
        trace = out_dir / "hearsay" / "SD" / "scripted" / "traces.jsonl"
        report = out_dir / "hearsay" / "SD" / "scripted" / "report.csv"
        assert trace.is_file() and report.is_file()
        assert "1.000000" in report.read_text(encoding="utf-8")
        outputs.append(trace.read_bytes())
    assert outputs[0] == outputs[1]


def test_run_sample_with_verbose_lines(capsys, tmp_path):
    code, out, _ = run_hearsay(
        capsys, tmp_path, "--condition", "FS", "--sample", "3", "--seed", "1", "-v"
    )
    assert code == 0
    instance_lines = [line for line in out.splitlines() if line.startswith("  t")]
    assert len(instance_lines) == 3
    assert "scored=3" in out


def test_run_record_produces_a_working_replay(capsys, tmp_path):
    recorded = tmp_path / "recorded.replay.json"
    code, out, _ = run_hearsay(
        capsys, tmp_path / "first", "--condition", "SD", "--record", str(recorded)
    )
    assert code == 0
    assert f"recorded replay -> {recorded}" in out
    entries = json.loads(recorded.read_text(encoding="utf-8"))
    assert isinstance(entries, list) and entries
    assert set(entries[0]) == {"instance_id", "step", "response"}

    code, _, _ = run_hearsay(
        capsys, tmp_path / "second", "--condition", "SD", "--replay", str(recorded)
    )
    assert code == 0
    first = (tmp_path / "first" / "hearsay" / "SD" / "scripted" / "traces.jsonl").read_bytes()
    second = (tmp_path / "second" / "hearsay" / "SD" / "scripted" / "traces.jsonl").read_bytes()
    assert first == second


def write_entity_only_replay(path) -> list:
    """A hearsay replay that keeps only the entity replies, so every instance ends as Error."""
    replay = json.loads(resources.files("ruleweave").joinpath("data/replay/hearsay.replay.json").read_text("utf-8"))
    entity_only = [record for record in replay if record["step"] == "entity"]
    path.write_text(json.dumps(entity_only), encoding="utf-8")
    return entity_only


def test_an_all_error_condition_keeps_its_traces_and_record_and_exits_2(capsys, tmp_path):
    entity_only = write_entity_only_replay(tmp_path / "entity.replay.json")
    recorded = tmp_path / "recorded.replay.json"
    code, _, err = run_hearsay(
        capsys,
        tmp_path / "out",
        *("--replay", str(tmp_path / "entity.replay.json"), "--condition", "SD", "--record", str(recorded)),
    )
    assert (code, err) == (2, "stats error: no scored instances: every instance errored or none were run\n")
    lines = (tmp_path / "out" / "hearsay" / "SD" / "scripted" / "traces.jsonl").read_text(encoding="utf-8")
    assert [json.loads(line).get("outcome") for line in lines.splitlines()[1:]] == ["Error"] * 10
    assert json.loads(recorded.read_text(encoding="utf-8")) == entity_only


def test_a_run_goes_on_past_an_all_error_condition_and_then_exits_2(capsys, tmp_path):
    # The replay answers FS but not SD's assertion step, so only SD is all Error.
    replay = json.loads(resources.files("ruleweave").joinpath("data/replay/hearsay.replay.json").read_text("utf-8"))
    answered = [record for record in replay if record["step"] in ("entity", "fs")]
    (tmp_path / "partial.replay.json").write_text(json.dumps(answered), encoding="utf-8")
    recorded = tmp_path / "recorded.replay.json"
    code, out, err = run_hearsay(
        capsys,
        tmp_path / "out",
        *("--replay", str(tmp_path / "partial.replay.json"), "--record", str(recorded)),
        *("--condition", "SD", "--condition", "FS"),
    )
    assert (code, err) == (2, "stats error: no scored instances: every instance errored or none were run\n")
    assert out.startswith("hearsay FS model=scripted: f1=") and out.endswith(f"recorded replay -> {recorded}\n")
    for condition, outcomes in (("SD", {"Error"}), ("FS", {"Ok"})):
        lines = (tmp_path / "out" / "hearsay" / condition / "scripted" / "traces.jsonl").read_text(encoding="utf-8")
        assert {json.loads(line)["outcome"] for line in lines.splitlines()[1:]} == outcomes
    assert (tmp_path / "out" / "hearsay" / "FS" / "scripted" / "report.csv").is_file()
    key = lambda record: (record["instance_id"], record["step"])  # noqa: E731
    assert sorted(json.loads(recorded.read_text(encoding="utf-8")), key=key) == sorted(answered, key=key)


@pytest.mark.parametrize(
    "failure, exit_code, message",
    [
        ("unknown-condition", 2, "config error: unknown condition 'BOGUS'"),
        ("ids-that-mint-one-individual", 4, "dataset error: instance ids 'a-1' and 'a_1'"),
    ],
    ids=["unknown-condition", "ids-that-mint-one-individual"],
)
def test_a_run_that_fails_before_its_first_reply_leaves_the_record_file_alone(
    capsys, tmp_path, failure, exit_code, message
):
    if failure == "unknown-condition":
        extra = ("--condition", "BOGUS")
    else:
        lines = [{"id": i, "text": "a remark", "label": "No", "split": "test"} for i in ("a-1", "a_1")]
        (tmp_path / "ids.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        extra = ("--dataset", str(tmp_path / "ids.jsonl"))
    earlier = tmp_path / "earlier.replay.json"
    earlier.write_text('[{"instance_id": "t01", "step": "entity", "response": "{}"}]\n', encoding="utf-8")
    before = earlier.read_bytes()
    # An existing record file, and one inside an --out the run has not made yet.
    for record in (earlier, tmp_path / "out" / "new.replay.json"):
        code, out, err = run_hearsay(capsys, tmp_path / "out", *extra, "--record", str(record))
        assert (code, out) == (exit_code, "")
        assert err.startswith(message)
    assert earlier.read_bytes() == before
    assert not (tmp_path / "out").exists()


class _InterruptedBackend:
    """Answers `answers` requests from the inner backend, then is interrupted."""

    def __init__(self, inner, answers):
        self.inner = inner
        self.answers = answers

    def complete(self, request):
        if self.answers == 0:
            raise KeyboardInterrupt
        self.answers -= 1
        return self.inner.complete(request)


def test_an_interrupted_run_keeps_its_replies_in_a_record_file_inside_an_unmade_out(capsys, tmp_path, monkeypatch):
    build_backend = cli._build_backend
    monkeypatch.setattr(
        cli, "_build_backend", lambda args, task, config: (_InterruptedBackend(build_backend(args, task, config)[0], 3), "m")
    )
    recorded = tmp_path / "out" / "recorded.replay.json"
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--task", "hearsay", "--condition", "FS", "--out", str(tmp_path / "out"), "--record", str(recorded)])
    assert [record["instance_id"] for record in json.loads(recorded.read_text(encoding="utf-8"))] == ["t01", "t02", "t03"]


def test_report_leaves_out_an_all_error_trace_names_it_and_exits_2(capsys, tmp_path):
    runs = tmp_path / "runs"
    code, _, _ = run_hearsay(capsys, runs, "--condition", "SD", "--condition", "FS")
    assert code == 0
    fs_dir = runs / "hearsay" / "FS" / "scripted"
    assert (fs_dir / "report.csv").is_file()
    write_entity_only_replay(tmp_path / "entity.replay.json")
    code, _, _ = run_hearsay(capsys, runs, "--condition", "FS", "--replay", str(tmp_path / "entity.replay.json"))
    assert code == 2
    assert not (fs_dir / "report.csv").exists()

    named = f"stats error: {fs_dir / 'traces.jsonl'}: no scored instances: every instance errored or none were run\n"
    code, out, err = run_cli(capsys, ["report", str(runs), "--out", str(tmp_path / "report")])
    assert (code, err) == (2, named)
    assert out.startswith("wrote ")
    rows = (tmp_path / "report" / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["SD"]

    code, out, err = run_cli(capsys, ["report", str(fs_dir / "traces.jsonl")])
    assert (code, out, err) == (2, "", named)


# SHA-256 of the replay file that `run --record` writes for each built-in task
# run under all six conditions from its bundled replay.
GRID_REPLAY_SHA256 = {
    "hearsay": "2c5dc193e50c9b519b68c71bdf43392057cd7e1ecbe6418afd5af5e183e7dd9a",
    "method_application": "2870309ec13357fb11126d4c5d62fc4fec4e4467023bd14cef4c984fe446b118",
    "clinical_eligibility": "e1f095d07373f475e449de7d2cc6a67ecaddfe025f5de333dd60c4dcb27f0eee",
}


GRID_CONDITIONS = ["FS", "CoT", "SD", "SD-Comp", "SD-Direct", "SD-Direct-Comp"]


def run_grid(capsys, task_id, out_dir, *extra):
    argv = ["run", "--task", task_id, "--out", str(out_dir), "--timestamp", "t0", *extra]
    for condition in GRID_CONDITIONS:
        argv += ["--condition", condition]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0


def test_recorded_grid_replay_matches_the_pinned_digest(capsys, tmp_path):
    conditions = ["FS", "CoT", "SD", "SD-Comp", "SD-Direct", "SD-Direct-Comp"]
    digests = {}
    for task_id in GRID_REPLAY_SHA256:
        recorded = tmp_path / f"{task_id}.replay.json"
        argv = ["run", "--task", task_id, "--out", str(tmp_path / "out"), "--timestamp", "t0"]
        argv += ["--record", str(recorded)]
        for condition in conditions:
            argv += ["--condition", condition]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        digests[task_id] = hashlib.sha256(recorded.read_bytes()).hexdigest()
    assert digests == GRID_REPLAY_SHA256


class _DriftingBackend:
    """Pads each reply with one more trailing space per call: the same JSON,
    but a different raw reply, as a sampling model gives."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        response = self.inner.complete(request)
        return BackendResponse(response.text + " " * self.calls, response.data)


def test_recorded_run_replays_every_condition_that_shares_a_step(capsys, tmp_path, monkeypatch):
    recorded = tmp_path / "recorded.replay.json"
    conditions = ("--condition", "SD", "--condition", "SD-Direct")
    build_backend = cli._build_backend

    def drifting(args, task, config):
        backend, model = build_backend(args, task, config)
        return _DriftingBackend(backend), model

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_backend", drifting)
        code, _, _ = run_hearsay(capsys, tmp_path / "first", *conditions, "--record", str(recorded))
    assert code == 0
    code, _, _ = run_hearsay(capsys, tmp_path / "second", *conditions, "--replay", str(recorded))
    assert code == 0
    for condition in ("SD", "SD-Direct"):
        first = tmp_path / "first" / "hearsay" / condition / "scripted" / "traces.jsonl"
        second = tmp_path / "second" / "hearsay" / condition / "scripted" / "traces.jsonl"
        assert first.read_bytes() == second.read_bytes(), condition


class _CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.inner.complete(request)


def test_run_asks_each_instance_step_once_across_conditions(capsys, tmp_path, monkeypatch):
    built = []
    build_backend = cli._build_backend

    def counting(args, task, config):
        backend, model = build_backend(args, task, config)
        built.append(_CountingBackend(backend))
        return built[-1], model

    monkeypatch.setattr(cli, "_build_backend", counting)
    for task_id in GRID_REPLAY_SHA256:
        run_grid(capsys, task_id, tmp_path / task_id)
    # 70 distinct (instance, step) keys per task; asking per condition made 120.
    assert [backend.calls for backend in built] == [70, 70, 70]


def test_run_output_is_byte_identical_across_worker_counts(capsys, tmp_path):
    def outputs(workers):
        root = tmp_path / f"workers{workers}"
        for task_id in GRID_REPLAY_SHA256:
            replay = root / f"{task_id}.replay.json"
            run_grid(capsys, task_id, root / "out", "--workers", workers, "--record", str(replay))
        return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}

    serial = outputs("1")
    assert len(serial) == 3 * (1 + 2 * len(GRID_CONDITIONS))
    assert outputs("4") == serial


def test_run_pool_size_is_workers_else_max_concurrency_else_1(capsys, tmp_path, monkeypatch):
    seen = []

    def capture(*args, workers, **kwargs):
        seen.append(workers)
        raise BackendError("pool size captured")

    monkeypatch.setattr(cli, "run_condition", capture)
    monkeypatch.setenv("RULEWEAVE_API_KEY", "k")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"endpoint": "http://localhost/v1", "max_concurrency": 3}), encoding="utf-8")
    http = ("--backend", "http", "--model", "m", "--config", str(config))
    for extra in (http, (*http, "--workers", "2"), ()):
        code, _, err = run_hearsay(capsys, tmp_path, *extra)
        assert code == 3 and "pool size captured" in err
    assert seen == [3, 2, 1]


def test_run_endpoint_that_is_not_an_http_url_exits_3_before_any_request(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no request may be sent")

    monkeypatch.setattr(cli, "run_condition", refuse)
    monkeypatch.setenv("RULEWEAVE_API_KEY", "k")
    code, _, err = run_hearsay(
        capsys, tmp_path, "--backend", "http", "--model", "m", "--endpoint", "localhost:9/v1", "--sample", "3"
    )
    assert code == 3
    assert err.startswith("backend error: endpoint 'localhost:9/v1' must be an http:// or https:// URL")
    assert not (tmp_path / "hearsay").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_workers_below_1_exits_2(capsys, tmp_path, workers):
    code, _, err = run_hearsay(capsys, tmp_path, "--workers", workers)
    assert code == 2
    assert err.startswith("config error: --workers must be at least 1")
    assert not (tmp_path / "hearsay").exists()


@pytest.mark.parametrize("value", ["-5", "nan", "inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_negative_or_non_finite_temperature_exits_2(capsys, tmp_path, value, source):
    if source == "flag":
        extra, message = ["--temperature", value], "--temperature must be finite and at least 0"
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"temperature": float(value)}), encoding="utf-8")
        extra, message = ["--config", str(path)], "config key 'temperature' must be finite and at least 0"
    code, _, err = run_hearsay(capsys, tmp_path, "--condition", "FS", *extra)
    assert code == 2
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "hearsay").exists()


def test_run_unknown_condition_exits_2(capsys, tmp_path):
    code, _, err = run_hearsay(capsys, tmp_path, "--condition", "Nope")
    assert code == 2
    assert err.startswith("config error:")
    assert "Nope" in err


def test_run_replay_record_with_a_list_step_exits_3(capsys, tmp_path):
    replay = tmp_path / "bad.replay.json"
    replay.write_text(
        json.dumps([{"instance_id": "t01", "step": ["entity"], "response": "{}"}]),
        encoding="utf-8",
    )
    code, _, err = run_hearsay(capsys, tmp_path, "--replay", str(replay))
    assert code == 3
    assert err.startswith("backend error: replay record 0: step must be a string")


def test_run_missing_dataset_exits_4(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["run", "--task", "hearsay", "--dataset", str(tmp_path / "nope.jsonl")],
    )
    assert code == 4
    assert err.startswith("dataset error:")


@pytest.mark.parametrize(
    "ids",
    [("a-1", "a_1"), ("t01", "t01_Statement")],
    ids=["same-sanitized-id", "case-equals-entity"],
)
def test_run_rejects_ids_that_mint_one_individual(capsys, tmp_path, ids):
    # a-1 and a_1 both mint inst:a_1_Statement; the case individual of
    # t01_Statement is t01's Statement entity, inst:t01_Statement.
    lines = [{"id": i, "text": "a remark", "label": "No", "split": "test"} for i in ids]
    path = tmp_path / "hearsay.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    code, _, err = run_hearsay(capsys, tmp_path / "out", "--dataset", str(path))
    assert code == 4
    assert err.startswith("dataset error:")
    assert all(repr(i) in err for i in ids)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ({"rpm": "60"}, "rpm"),
        ({"max_concurrency": "four"}, "max_concurrency"),
        ({"rpm": -1}, "rpm"),
        ({"timeout": 0}, "timeout"),
        ({"max_concurrency": 0}, "max_concurrency"),
    ],
)
def test_run_config_value_of_wrong_type_exits_2(capsys, tmp_path, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run_hearsay(
        capsys, tmp_path, "--backend", "http", "--model", "m", "--config", str(path)
    )
    assert code == 2
    assert err.startswith("config error:")
    assert repr(key) in err


# -- report ----------------------------------------------------------------------------


def test_report_renders_markdown_tables(capsys, tmp_path):
    code, _, _ = run_hearsay(capsys, tmp_path, "--condition", "SD", "--condition", "FS")
    assert code == 0
    code, out, _ = run_cli(capsys, ["report", str(tmp_path)])
    assert code == 0
    assert "# Evaluation report" in out
    assert "Overall" in out
    assert "| SD " in out or "| SD |" in out


def test_report_compare_paired_conditions(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        [
            "run",
            "--task",
            "hearsay",
            "--replay",
            replay_path("hearsay.ablation.replay.json"),
            "--condition",
            "SD",
            "--condition",
            "SD-Direct",
            "--out",
            str(tmp_path),
            "--timestamp",
            "t0",
        ],
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys,
        [
            "run",
            "--task",
            "method_application",
            "--condition",
            "SD",
            "--condition",
            "SD-Direct",
            "--out",
            str(tmp_path),
            "--timestamp",
            "t0",
        ],
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["report", str(tmp_path), "--compare", "SD", "SD-Direct", "--paired"],
    )
    assert code == 0
    assert "Paired comparisons" in out
    assert "| SD | SD-Direct | f1 | 2 |" in out


# SHA-256 of the files `report --compare SD SD-Direct --metric accuracy --out`
# writes over hearsay (from its ablation replay) and method_application, each
# run under SD and SD-Direct.
COMPARED_REPORT_SHA256 = {
    "report.md": "3c7ad7e82b8ea91bff41ba0d1256165b52951206aff2183bb3b0577fcf5cf29f",
    "report.csv": "6b7e35644103a401011ff74941dfb1ddb577da220ba1912abddbfbae7aa91254",
}


def test_report_files_match_the_pinned_digests(capsys, tmp_path):
    runs, report_dir = tmp_path / "runs", tmp_path / "report"
    for task_id, extra in (
        ("hearsay", ["--replay", replay_path("hearsay.ablation.replay.json")]),
        ("method_application", []),
    ):
        argv = ["run", "--task", task_id, *extra, "--condition", "SD", "--condition", "SD-Direct"]
        code, _, _ = run_cli(capsys, argv + ["--out", str(runs), "--timestamp", "t0"])
        assert code == 0
    argv = ["report", str(runs), "--compare", "SD", "SD-Direct", "--metric", "accuracy", "--out", str(report_dir)]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    row = "| SD | SD-Direct | accuracy | 2 | 100.0 | 85.0 | +15.0pp | 1.000 | 0.5000 | 0.707 |"
    assert (report_dir / "report.md").read_text(encoding="utf-8").endswith(f"{row}\n")
    digests = {name: hashlib.sha256((report_dir / name).read_bytes()).hexdigest() for name in COMPARED_REPORT_SHA256}
    assert digests == COMPARED_REPORT_SHA256


def test_report_out_writes_csv_and_markdown(capsys, tmp_path):
    code, _, _ = run_hearsay(capsys, tmp_path / "runs", "--condition", "SD")
    assert code == 0
    report_dir = tmp_path / "report"
    code, _, _ = run_cli(capsys, ["report", str(tmp_path / "runs"), "--out", str(report_dir)])
    assert code == 0
    assert (report_dir / "report.csv").is_file()
    assert (report_dir / "report.md").is_file()


def test_report_writes_both_files_when_a_comparison_is_undefined_and_exits_2(capsys, tmp_path):
    for task_id in BUILTIN_TASK_IDS:
        run_grid(capsys, task_id, tmp_path / "runs")
    report_dir = tmp_path / "report"
    argv = ["report", str(tmp_path / "runs"), "--compare", "SD", "FS", "--out", str(report_dir)]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (2, "stats error: paired differences have zero variance\n")
    assert out.startswith("wrote ")
    assert len((report_dir / "report.csv").read_text(encoding="utf-8").splitlines()) == 1 + 18
    row = "| SD | FS | f1 | undefined: paired differences have zero variance |" + " - |" * 6
    assert row in (report_dir / "report.md").read_text(encoding="utf-8").splitlines()


def test_report_prints_a_row_for_each_undefined_comparison_and_exits_with_the_first(capsys, tmp_path):
    run_grid(capsys, "hearsay", tmp_path)
    argv = ["run", "--task", "method_application", "--out", str(tmp_path), "--timestamp", "t0"]
    code, _, _ = run_cli(capsys, argv + ["--condition", "SD", "--condition", "SD-Comp"])
    assert code == 0
    mismatch = (
        "conditions 'SD' and 'FS' cover different (model, task) cells; "
        "first mismatch: ('scripted', 'method_application')"
    )
    why = {
        ("SD", "FS"): mismatch,
        ("SD", "SD-Comp"): "paired differences have zero variance",
        ("FS", "CoT"): "need at least 2 pairs, got 1",
        ("SD", "Nope"): "no cells for condition 'Nope'",
    }
    argv = ["report", str(tmp_path)] + [arg for pair in why for arg in ("--compare", *pair)]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (2, f"stats error: {mismatch}\n")
    rows = [f"| {a} | {b} | f1 | undefined: {reason} |" + " - |" * 6 for (a, b), reason in why.items()]
    assert out.endswith("|---|---|---|---|---|---|---|---|---|---|\n" + "\n".join(rows) + "\n\n")


def test_report_missing_path_exits_4(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["report", str(tmp_path / "absent")])
    assert code == 4
    assert err.startswith("dataset error:")


# -- query -----------------------------------------------------------------------------


def sd_trace(capsys, tmp_path) -> str:
    code, _, _ = run_hearsay(capsys, tmp_path, "--condition", "SD")
    assert code == 0
    return str(tmp_path / "hearsay" / "SD" / "scripted" / "traces.jsonl")


def test_query_prints_tsv(capsys, tmp_path):
    trace = sd_trace(capsys, tmp_path)
    code, out, _ = run_cli(capsys, ["query", "--trace", trace, "--query", HEARSAY_CLASS_QUERY])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "?s"
    assert len(lines) == 6  # header plus the five positive statements
    assert "inst:t01_Statement" in lines


def test_query_instance_filter(capsys, tmp_path):
    trace = sd_trace(capsys, tmp_path)
    code, out, _ = run_cli(
        capsys,
        [
            "query",
            "--trace",
            trace,
            "--query",
            HEARSAY_CLASS_QUERY,
            "--instance",
            "t01",
        ],
    )
    assert code == 0
    assert out == "?s\ninst:t01_Statement\n"


def test_query_from_file(capsys, tmp_path):
    trace = sd_trace(capsys, tmp_path)
    query_file = tmp_path / "q.rq"
    query_file.write_text(HEARSAY_CLASS_QUERY, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["query", "--trace", trace, "--query-file", str(query_file)])
    assert code == 0
    assert len(out.splitlines()) == 6


def test_query_needs_reasoner_traces(capsys, tmp_path):
    code, _, _ = run_hearsay(capsys, tmp_path, "--condition", "FS")
    assert code == 0
    trace = str(tmp_path / "hearsay" / "FS" / "scripted" / "traces.jsonl")
    code, _, err = run_cli(capsys, ["query", "--trace", trace, "--query", HEARSAY_CLASS_QUERY])
    assert code == 4
    assert "snapshot" in err


def test_query_rejects_two_records_that_name_one_individual(capsys, tmp_path):
    trace = sd_trace(capsys, tmp_path)
    lines = open(trace, encoding="utf-8").read().splitlines()
    record = json.loads(next(line for line in lines if '"instance_id": "t01"' in line))
    copy = json.dumps({**record, "instance_id": "t01copy"})  # same snapshot, so same names
    with open(trace, "a", encoding="utf-8") as handle:
        handle.write(copy + "\n")
    code, _, err = run_cli(capsys, ["query", "--trace", trace, "--query", HEARSAY_CLASS_QUERY])
    assert code == 4
    assert err.startswith("dataset error:")
    assert err == "dataset error: instances 't01' and 't01copy' both name the individual inst:t01\n"
    argv = ["query", "--trace", trace, "--query", HEARSAY_CLASS_QUERY, "--instance", "t01copy"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == "?s\ninst:t01_Statement\n"


def test_query_unknown_instance_exits_4(capsys, tmp_path):
    trace = sd_trace(capsys, tmp_path)
    code, _, err = run_cli(
        capsys,
        ["query", "--trace", trace, "--query", HEARSAY_CLASS_QUERY, "--instance", "zz"],
    )
    assert code == 4
    assert err.startswith("dataset error:")


# -- malformed trace files ----------------------------------------------------------------

_HEADER = {"type": "header", "task": "hearsay", "condition": "SD", "model": "m", "created": "t"}
_INSTANCE = {
    "type": "instance",
    "instance_id": "t01",
    "label": "Yes",
    "prediction": "Yes",
    "outcome": "Ok",
    "abox_snapshot": [],
}


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("report", [_HEADER, [1, 2]], "traces.jsonl:2: a trace line must be a JSON object"),
        (
            "report",
            [{k: v for k, v in _HEADER.items() if k != "model"}, _INSTANCE],
            "traces.jsonl:1: header record has no 'model'",
        ),
        ("report", [{**_HEADER, "task": 7}, _INSTANCE], "traces.jsonl:1: header field 'task'"),
        (
            "query",
            [_HEADER, {k: v for k, v in _INSTANCE.items() if k != "instance_id"}],
            "traces.jsonl:2: instance record has no 'instance_id'",
        ),
        ("query", [_HEADER, '{"type": "instance",'], "traces.jsonl:2: invalid JSON"),
    ],
    ids=[
        "not-an-object",
        "header-without-model",
        "header-task-not-a-string",
        "instance-without-id",
        "truncated-json",
    ],
)
def test_malformed_trace_file_exits_4(capsys, tmp_path, command, lines, message):
    path = tmp_path / "traces.jsonl"
    path.write_text(
        "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines),
        encoding="utf-8",
    )
    argv = ["report", str(path)]
    if command == "query":
        argv = ["query", "--trace", str(path), "--query", HEARSAY_CLASS_QUERY]
    code, _, err = run_cli(capsys, argv)
    assert code == 4
    assert err.startswith("data error:")
    assert message in err


@pytest.mark.parametrize("command", ["report", "query"])
@pytest.mark.parametrize(
    "lines, message",
    [
        ([_HEADER, _INSTANCE, {**_HEADER, "condition": "FS"}, _INSTANCE], "3: a second header line"),
        (
            [_HEADER, _INSTANCE, {**_INSTANCE, "instance_id": "t02"}, _INSTANCE],
            "4: instance 't01' appears twice",
        ),
    ],
    ids=["two-files-joined", "repeated-instance-id"],
)
def test_a_trace_file_holds_one_header_and_each_instance_once(capsys, tmp_path, command, lines, message):
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    argv = ["report", str(path)]
    if command == "query":
        argv = ["query", "--trace", str(path), "--query", HEARSAY_CLASS_QUERY]
    code, _, err = run_cli(capsys, argv)
    assert code == 4
    assert err == f"data error: {path}:{message}\n"


_TRIPLE = {"subject": "inst:t01_s", "predicate": "a", "object": "h:Hearsay", "origin": "asserted:j"}


@pytest.mark.parametrize(
    "snapshot, message",
    [
        ([{k: v for k, v in _TRIPLE.items() if k != "origin"}], "malformed snapshot triple"),
        ("not a list", "abox_snapshot is not a list"),
        ([_TRIPLE, [1, 2]], "malformed snapshot triple [1, 2]"),
        ([{**_TRIPLE, "subject": 7}], "malformed snapshot triple"),
        ([{**_TRIPLE, "origin": "bogus"}], "malformed snapshot triple"),
        ([{**_TRIPLE, "origin": "asserted:"}], "malformed snapshot triple"),
        ([{**_TRIPLE, "origin": "inferred:"}], "malformed snapshot triple"),
        ([{**_TRIPLE, "origin": "asserted:\ud800"}], "can't encode character '\\ud800'"),
    ],
    ids=[
        "triple-without-origin",
        "string-snapshot",
        "non-object-triple",
        "subject-not-a-string",
        "origin-of-no-kind",
        "asserted-without-justification",
        "inferred-without-rule",
        "justification-utf8-cannot-encode",
    ],
)
def test_malformed_snapshot_exits_4(capsys, tmp_path, snapshot, message):
    path = tmp_path / "traces.jsonl"
    lines = [_HEADER, {**_INSTANCE, "abox_snapshot": snapshot}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    code, _, err = run_cli(capsys, ["query", "--trace", str(path), "--query", HEARSAY_CLASS_QUERY])
    assert code == 4
    assert err.startswith("data error: instance 't01': ")
    assert message in err


def test_a_snapshot_that_is_a_json_object_exits_4(capsys, tmp_path):
    path = tmp_path / "traces.jsonl"
    lines = [_HEADER, {**_INSTANCE, "abox_snapshot": _TRIPLE}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    code, out, err = run_cli(capsys, ["query", "--trace", str(path), "--query", HEARSAY_CLASS_QUERY])
    assert (code, out) == (4, "")
    assert err == "data error: instance 't01': abox_snapshot is not a list\n"


_UNDECLARED = {**_TRIPLE, "object": "h:Nope"}
_BAD_SUBJECT = {**_TRIPLE, "subject": 7}


@pytest.mark.parametrize(
    "instances",
    [
        [{**_INSTANCE, "abox_snapshot": [_UNDECLARED, _BAD_SUBJECT]}],
        [
            {**_INSTANCE, "abox_snapshot": [_UNDECLARED]},
            {**_INSTANCE, "instance_id": "t02", "abox_snapshot": [_BAD_SUBJECT]},
        ],
    ],
    ids=["one-instance", "two-instances"],
)
def test_query_reports_the_first_faulty_triple_in_file_order(capsys, tmp_path, instances):
    path = tmp_path / "traces.jsonl"
    lines = [_HEADER, *instances]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    code, _, err = run_cli(capsys, ["query", "--trace", str(path), "--query", HEARSAY_CLASS_QUERY])
    assert code == 2
    assert err.startswith("ontology error: class h:Nope")


def test_query_checks_every_line_before_it_restores(capsys, tmp_path):
    path = tmp_path / "traces.jsonl"
    bad = {**_INSTANCE, "abox_snapshot": [_BAD_SUBJECT]}
    lines = [_HEADER, bad, {**_INSTANCE, "instance_id": "t02"}, {**_INSTANCE, "instance_id": "t03"}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines) + '{"type": "instance",\n', encoding="utf-8")
    code, _, err = run_cli(capsys, ["query", "--trace", str(path), "--query", HEARSAY_CLASS_QUERY])
    assert code == 4
    assert err.startswith(f"data error: {path}:5: invalid JSON")


def test_query_reports_an_unknown_instance_before_a_restore_error(capsys, tmp_path):
    path = tmp_path / "traces.jsonl"
    lines = [_HEADER, {**_INSTANCE, "abox_snapshot": [_BAD_SUBJECT]}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    argv = ["query", "--trace", str(path), "--query", HEARSAY_CLASS_QUERY, "--instance", "zz"]
    code, _, err = run_cli(capsys, argv)
    assert code == 4
    assert err == f"dataset error: instance 'zz' not present in {path}\n"


# Replacement values for one field of one snapshot triple: empty, malformed
# and undeclared names, origins of neither valid form, two valid origins,
# and JSON values that are not strings.
_JUNK = [
    "", ":", "::", "a:b:c", "h:Nope", "inst:", "a", "bogus",
    "asserted", "inferred", "Asserted:j", "asserted:", "inferred:",
    "asserted:j", "inferred:r",
    7, 0.5, None, True, [], {},
]  # fmt: skip
_ORIGIN_PREFIXES = ("asserted:", "inferred:")


def _valid_origin(value) -> bool:
    return (
        isinstance(value, str)
        and value.startswith(_ORIGIN_PREFIXES)
        and value not in _ORIGIN_PREFIXES
    )


def test_query_over_corrupted_snapshots_never_raises(capsys, tmp_path):
    code, _, _ = run_hearsay(capsys, tmp_path / "run", "--condition", "SD-Comp")
    assert code == 0
    source = tmp_path / "run" / "hearsay" / "SD-Comp" / "scripted" / "traces.jsonl"
    lines = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
    with_snapshot = [i for i, line in enumerate(lines) if line.get("abox_snapshot")]
    path = tmp_path / "corrupt.jsonl"
    rng = random.Random(20261018)
    for _ in range(300):
        corrupt = json.loads(json.dumps(lines))
        snapshot = corrupt[rng.choice(with_snapshot)]["abox_snapshot"]
        triple = rng.choice(snapshot)
        name = rng.choice(["subject", "predicate", "object", "origin"])
        triple[name] = rng.choice(_JUNK)
        path.write_text("".join(json.dumps(line) + "\n" for line in corrupt), encoding="utf-8")
        argv = ["query", "--trace", str(path), "--query", HEARSAY_CLASS_QUERY]
        code, _, err = run_cli(capsys, argv)
        assert code in (0, 2, 4), (triple, err)
        if name == "origin" and not _valid_origin(triple[name]):
            assert code == 4, (triple, err)


# -- refused arguments, configs and trace files, each with its exact message -------------


def test_a_task_that_is_neither_a_builtin_id_nor_a_file_exits_2(capsys, tmp_path):
    path = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, ["validate", "--task", str(path)])
    assert (code, out) == (2, "")
    assert err == (
        f"config error: --task {str(path)!r} is neither a built-in id "
        f"({', '.join(BUILTIN_TASK_IDS)}) nor an existing file\n"
    )


def test_a_task_that_names_a_directory_exits_2_like_a_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["validate", "--task", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == (
        f"config error: --task {str(tmp_path)!r} is neither a built-in id "
        f"({', '.join(BUILTIN_TASK_IDS)}) nor an existing file\n"
    )


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["validate", "--task", "{path}"], "task"),
        (["run", "--task", "hearsay", "--out", "{out}", "--config", "{path}"], "config"),
    ],
    ids=["task", "config"],
)
def test_a_task_or_config_file_that_is_not_utf8_exits_2(capsys, tmp_path, argv, kind):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{")
    argv = [arg.format(path=path, out=tmp_path / "out") for arg in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"{kind} error: {path}: not UTF-8 (invalid start byte at byte 0)\n"
    assert not (tmp_path / "out").exists()


def test_a_missing_config_file_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "absent.json"
    code, out, err = run_hearsay(capsys, tmp_path / "out", "--config", str(path))
    assert (code, out) == (4, "")
    assert err.startswith("data error: [Errno 2] No such file or directory")


@pytest.mark.parametrize(
    "text, message",
    [
        ("{nope", "invalid JSON (Expecting property name enclosed in double quotes)"),
        ("[1]", "config must be a JSON object"),
        ('{"colour": 1}', "unknown config key 'colour'"),
    ],
    ids=["bad-json", "not-an-object", "unknown-key"],
)
def test_a_config_file_that_is_not_a_config_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_hearsay(capsys, tmp_path / "out", "--config", str(path))
    assert (code, out, err) == (2, "", f"config error: {path}: {message}\n")
    assert not (tmp_path / "out").exists()


def test_a_scripted_run_of_a_task_file_needs_a_replay(capsys, tmp_path):
    document = {**builtin_task_document("hearsay"), "id": "custom"}
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    corpus = str(resources.files("ruleweave").joinpath("data/corpus/hearsay.jsonl"))
    argv = ["run", "--task", str(path), "--dataset", corpus, "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "config error: scripted backend needs --replay for a custom task\n")


@pytest.mark.parametrize(
    "extra, message",
    [
        ((), "http backend needs a model (--model or config file)"),
        (("--model", "m"), "http backend needs an endpoint (--endpoint or config file)"),
    ],
    ids=["no-model", "no-endpoint"],
)
def test_an_http_run_without_a_model_or_endpoint_exits_2(capsys, tmp_path, extra, message):
    code, out, err = run_hearsay(capsys, tmp_path / "out", "--backend", "http", *extra)
    assert (code, out, err) == (2, "", f"config error: {message}\n")


def test_report_over_a_directory_without_traces_exits_4(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["report", str(tmp_path)])
    assert (code, out, err) == (4, "", f"dataset error: no traces.jsonl files found under: {tmp_path}\n")


def test_query_reads_the_task_from_a_task_file(capsys, tmp_path):
    trace = sd_trace(capsys, tmp_path)
    path = tmp_path / "hearsay.json"
    path.write_text(json.dumps(builtin_task_document("hearsay")), encoding="utf-8")
    argv = ["query", "--trace", trace, "--query", HEARSAY_CLASS_QUERY]
    code, expected, _ = run_cli(capsys, argv)
    assert code == 0 and expected.startswith("?s\n")
    assert run_cli(capsys, [*argv, "--task", str(path)]) == (0, expected, "")


def write_trace(path, lines) -> str:
    """Write dicts one per line and strings as they are; return the path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "".join(line if isinstance(line, str) else json.dumps(line) + "\n" for line in lines)
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_a_trace_of_a_task_that_is_not_built_in_needs_its_document(capsys, tmp_path):
    trace = write_trace(tmp_path / "traces.jsonl", [{**_HEADER, "task": "custom"}, _INSTANCE])
    code, out, err = run_cli(capsys, ["query", "--trace", trace, "--query", HEARSAY_CLASS_QUERY])
    assert (code, out) == (2, "")
    assert err == "config error: trace file is for task 'custom'; pass --task with its document\n"


def test_blank_trace_lines_are_skipped(capsys, tmp_path):
    plain = write_trace(tmp_path / "plain" / "traces.jsonl", [_HEADER, _INSTANCE])
    spaced = write_trace(tmp_path / "spaced" / "traces.jsonl", ["\n", _HEADER, "  \n", _INSTANCE, "\n"])
    code, out, err = run_cli(capsys, ["report", plain])
    assert (code, err) == (0, "") and "| SD | 100.0 |" in out
    assert run_cli(capsys, ["report", spaced]) == (0, out, "")


@pytest.mark.parametrize(
    "lines, where, message",
    [
        ([_HEADER, {**_INSTANCE, "type": "note"}], ":2", "unknown trace record type"),
        ([_INSTANCE], "", "missing header line"),
    ],
    ids=["unknown-type", "no-header"],
)
def test_a_trace_with_an_unknown_record_or_no_header_exits_4(capsys, tmp_path, lines, where, message):
    trace = write_trace(tmp_path / "traces.jsonl", lines)
    code, out, err = run_cli(capsys, ["report", trace])
    assert (code, out, err) == (4, "", f"data error: {trace}{where}: {message}\n")


class _SpyBackend:
    """Counts the requests that reach it and answers none."""

    def __init__(self):
        self.requests = 0

    def complete(self, request):
        self.requests += 1
        raise BackendError("the spy answers no request")


@pytest.mark.parametrize(
    "flag, name, message",
    [
        ("--out", "file", "{tmp}/file is not a directory"),
        ("--out", "file/sub", "{tmp}/file is not a directory"),
        ("--record", "missing/x.json", "not a file in an existing directory or one --out makes"),
        ("--record", ".", "not a file in an existing directory or one --out makes"),
    ],
    ids=["out-is-a-file", "out-under-a-file", "record-in-a-missing-dir", "record-is-a-dir"],
)
def test_an_out_or_record_path_that_cannot_be_written_exits_4_before_any_request(
    capsys, tmp_path, monkeypatch, flag, name, message
):
    (tmp_path / "file").write_text("", encoding="utf-8")
    spy = _SpyBackend()
    monkeypatch.setattr(cli, "_build_backend", lambda args, task, config: (spy, "spy"))
    path = tmp_path / name
    argv = ["run", "--task", "hearsay", "--condition", "SD", "--condition", "FS", "--out", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, [*argv, flag, str(path)])
    assert (code, out, spy.requests) == (4, "", 0)
    assert err == f"data error: {flag} {path}: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


_DECODE = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["run", "--task", "hearsay", "--out", "OUT", "--replay", "PATH"], 3,
         f"backend error: cannot load replay file PATH: {_DECODE}"),
        (["run", "--task", "hearsay", "--out", "OUT", "--dataset", "PATH"], 4,
         f"dataset error: cannot read dataset PATH: {_DECODE}"),
        (["validate", "--task", "hearsay", "--dataset", "PATH"], 4,
         f"dataset error: cannot read dataset PATH: {_DECODE}"),
        (["report", "PATH"], 4, "data error: PATH: not UTF-8 (invalid start byte)"),
        (["query", "--trace", "PATH", "--query", HEARSAY_CLASS_QUERY], 4,
         "data error: PATH: not UTF-8 (invalid start byte)"),
        (["query", "--trace", "OUT", "--query-file", "PATH"], 4,
         "data error: PATH: not UTF-8 (invalid start byte at byte 0)"),
    ],
    ids=["replay", "run-dataset", "validate-dataset", "report-trace", "query-trace", "query-file"],
)
def test_an_input_file_that_is_not_utf8_is_named_and_keeps_its_exit_code(capsys, tmp_path, argv, code, message):
    path = tmp_path / "input.jsonl"
    path.write_bytes(b"\xff\xfe{")
    argv = [arg.replace("PATH", str(path)).replace("OUT", str(tmp_path / "out")) for arg in argv]
    exit_code, _, err = run_cli(capsys, argv)
    assert (exit_code, err) == (code, message.replace("PATH", str(path)) + "\n")
    assert not (tmp_path / "out").exists()
