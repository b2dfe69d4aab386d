"""Command-line interface.

Five subcommands: validate (check a task document and optionally a dataset),
run (evaluate a dataset under one or more conditions), report (aggregate trace
files into tables), query (run a SELECT query over the ABox snapshots stored
in a trace file), and export (validate a task document and print it as
written).

Exit codes: 0 success, 2 validation problem, 3 backend problem, 4 data problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .backends import Backend, HttpBackend, ScriptedBackend
from .errors import (
    BackendError,
    ConfigError,
    DatasetError,
    MalformedResponseError,
    NotExtractable,
    OntologyError,
    QuerySyntaxError,
    RuleSyntaxError,
    RuleweaveError,
    StatsError,
    TaskDocumentError,
)
from .evaluation import (
    METRICS,
    aggregate,
    builtin_dataset,
    cell_from_counts,
    compare,
    fold_counts,
    load_dataset,
    report_csv,
    report_markdown,
    run_condition,
    sample_dataset,
)
from .pipeline import Condition, load_traces, parse_condition, restore_instances
from .query import execute, format_tsv, parse_query
from .tasklib import (
    BUILTIN_TASK_IDS,
    TaskDefinition,
    builtin_task,
    builtin_task_document,
    load_task,
)

_NUMBER = ((int, float), "a number")
# key -> (accepted JSON value types, how the error message names them)
_CONFIG_TYPES = {
    "endpoint": ((str,), "a string"),
    "model": ((str,), "a string"),
    "max_concurrency": ((int,), "an integer"),
    "rpm": ((int, float, type(None)), "a number or null"),
    "temperature": _NUMBER,
    "timeout": _NUMBER,
}
# keys whose value, when not null, must be greater than 0 (null rpm means no limit)
_POSITIVE_KEYS = ("max_concurrency", "rpm", "timeout")


def _task_document(value: str) -> dict:
    """A --task argument is a built-in id or a path to a task document."""
    if value in BUILTIN_TASK_IDS:
        return builtin_task_document(value)
    path = Path(value)
    if not path.is_file():
        raise ConfigError(
            f"--task {value!r} is neither a built-in id ({', '.join(BUILTIN_TASK_IDS)}) "
            "nor an existing file"
        )
    return _read_json(path, TaskDocumentError)


def _read_text(path: Path, error: type[Exception]) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _read_json(path: Path, error: type[RuleweaveError]):
    """A JSON file's value; text that is not UTF-8 or not JSON raises `error`."""
    try:
        return json.loads(_read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc.msg})") from exc


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    raw = _read_json(Path(path), ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_TYPES))
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    for key, value in raw.items():
        types, expected = _CONFIG_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{path}: config key {key!r} must be {expected}, got {value!r}")
        if key in _POSITIVE_KEYS and value is not None and not value > 0:
            raise ConfigError(f"{path}: config key {key!r} must be greater than 0, got {value!r}")
    return raw


def _bundled_replay(task_id: str) -> str:
    from importlib import resources

    return str(resources.files("ruleweave").joinpath(f"data/replay/{task_id}.replay.json"))


def _build_backend(args, task: TaskDefinition, config: dict) -> tuple[Backend, str]:
    """Returns the backend plus the model name used in output paths."""
    if args.backend == "scripted":
        replay = args.replay
        if replay is None:
            if task.id not in BUILTIN_TASK_IDS:
                raise ConfigError("scripted backend needs --replay for a custom task")
            replay = _bundled_replay(task.id)
        backend: Backend = ScriptedBackend.from_file(replay)
        model = args.model or "scripted"
    else:
        model = args.model or config.get("model")
        if not model:
            raise ConfigError("http backend needs a model (--model or config file)")
        endpoint = args.endpoint or config.get("endpoint")
        if not endpoint:
            raise ConfigError("http backend needs an endpoint (--endpoint or config file)")
        # Only the keys the config sets; HttpBackend supplies the defaults.
        limits = {key: config[key] for key in ("timeout", "max_concurrency", "rpm") if key in config}
        backend = HttpBackend(endpoint=endpoint, model=model, **limits)
    return backend, model


def _run_conditions(args) -> list[Condition]:
    return list(dict.fromkeys(parse_condition(value) for value in args.condition or [Condition.SD.value]))


def cmd_validate(args) -> int:
    task = load_task(_task_document(args.task))
    print(
        f"task {task.id}: ok ({len(task.tbox.classes)} classes, "
        f"{len(task.tbox.rules)} rules, {len(task.assertion_specs)} assertion specs)"
    )
    if args.dataset:
        dataset = load_dataset(args.dataset)
        print(
            f"dataset {dataset.task_id}: ok ({len(dataset.train_records)} train, "
            f"{len(dataset.test_records)} test)"
        )
    return 0


def cmd_run(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    task = load_task(_task_document(args.task))
    if args.dataset:
        dataset = load_dataset(args.dataset)
    else:
        dataset = builtin_dataset(task.id)
    if args.sample is not None:
        dataset = sample_dataset(dataset, args.sample, args.seed)
    config = _load_config(args.config)
    temperature = float(args.temperature if args.temperature is not None else config.get("temperature", 0.0))
    if not 0 <= temperature < float("inf"):
        source = f"{args.config}: config key 'temperature'" if args.temperature is None else "--temperature"
        raise ConfigError(f"{source} must be finite and at least 0, got {temperature!r}")
    backend, model = _build_backend(args, task, config)
    # Refuse now what the run could not write at its end, when it has made --out and its parents.
    made = (Path(args.out).resolve(), *Path(args.out).resolve().parents)
    existing = next(path for path in made if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {args.out}: {existing} is not a directory")
    record = args.record and Path(args.record).resolve()
    if record and (record.is_dir() or not (record.parent.is_dir() or record.parent in made)):
        raise FileNotFoundError(f"--record {args.record}: not a file in an existing directory or one --out makes")
    workers = args.workers or getattr(backend, "max_concurrency", 1)
    # Every run holds each reply, so no (instance, step) is asked twice.
    store = ScriptedBackend({}, inner=backend)
    conditions = _run_conditions(args)
    unscored: list[StatsError] = []
    try:
        for condition in conditions:
            try:
                run = run_condition(
                    task,
                    dataset,
                    condition,
                    store,
                    model=model,
                    temperature=temperature,
                    workers=workers,
                    out_dir=args.out,
                    timestamp=args.timestamp,
                )
            except StatsError as exc:  # every instance errored; its traces are written
                unscored.append(exc)
                continue
            if args.verbose:
                for trace in run.traces:
                    print(
                        f"  {trace.instance_id}: {trace.label} -> {trace.prediction} ({trace.outcome})"
                    )
            cell = run.cell
            print(
                f"{task.id} {condition.value} model={model}: f1={cell.f1:.4f} "
                f"acc={cell.accuracy:.4f} scored={cell.scored} errors={cell.excluded_errors} "
                f"-> {run.trace_path}"
            )
    finally:
        # Also when a condition fails, so no reply is lost; with none, --record stays as it was.
        if args.record and store.held:
            Path(args.record).parent.mkdir(parents=True, exist_ok=True)
            store.save(args.record)
            print(f"recorded replay -> {args.record}")
    if unscored:
        raise unscored[0]
    return 0


def _collect_trace_files(paths: Sequence[str]) -> list[Path]:
    found: list[Path] = []
    for value in paths:
        path = Path(value)
        if path.is_dir():
            found.extend(sorted(path.rglob("traces.jsonl")))
        elif path.exists():
            found.append(path)
        else:
            raise DatasetError(f"no such trace file or directory: {path}")
    if not found:
        raise DatasetError(f"no traces.jsonl files found under: {', '.join(paths)}")
    return found


def cmd_report(args) -> int:
    # Each StatsError leaves its file or comparison out of the report (the comparison as
    # a row naming the reason); once the report of the rest is out, the first exits 2.
    cells, undefined = [], []
    for path in _collect_trace_files(args.traces):
        header, records = load_traces(path, keep=("label", "prediction", "outcome"))
        counts = fold_counts(records)
        try:  # a trace whose every instance errored has no rates, so no cell
            cells.append(cell_from_counts(header["model"], header["task"], header["condition"], counts))
        except StatsError as exc:
            undefined.append(StatsError(f"{path}: {exc}"))
    if not cells:
        raise undefined[0]
    report = aggregate(cells)
    comparisons = []
    for first, second in args.compare or []:
        try:
            comparisons.append(compare(cells, first, second, metric=args.metric))
        except StatsError as exc:
            comparisons.append((first, second, args.metric, str(exc)))
            undefined.append(exc)
    rendered = report_markdown(report, comparisons)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(report_csv(cells), encoding="utf-8")
        (out / "report.md").write_text(rendered, encoding="utf-8")
        print(f"wrote {out / 'report.csv'} and {out / 'report.md'}")
    else:
        print(rendered)
    if undefined:
        raise undefined[0]
    return 0


def _trace_task(header: dict, task_arg: Optional[str]) -> TaskDefinition:
    """The task a trace file is read with: --task, else the built-in its header names."""
    if task_arg:
        return load_task(_task_document(task_arg))
    if header["task"] in BUILTIN_TASK_IDS:
        return builtin_task(header["task"])
    raise ConfigError(f"trace file is for task {header['task']!r}; pass --task with its document")


def cmd_query(args) -> int:
    query = parse_query(_read_text(Path(args.query_file), ValueError) if args.query_file else args.query)
    header, records = load_traces(args.trace, keep=("abox_snapshot",))
    task = _trace_task(header, args.task)
    wanted = set(args.instance or [])
    unknown = wanted - {record["instance_id"] for record in records}
    if unknown:
        raise DatasetError(f"instance {sorted(unknown)[0]!r} not present in {args.trace}")
    abox = restore_instances(task.tbox, [r for r in records if not wanted or r["instance_id"] in wanted])
    if not abox.direct_classes and not abox.by_subject:  # a property's map is made by its first fact
        raise DatasetError(
            f"{args.trace} holds no ABox snapshots; query needs traces from a "
            "reasoner-backed condition (SD or SD-Comp)"
        )
    rows = execute(query, task.tbox, abox)
    sys.stdout.write(format_tsv(query, rows))
    return 0


def cmd_export(args) -> int:
    document = _task_document(args.task)
    load_task(document)
    print(json.dumps(document, indent=2, ensure_ascii=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruleweave",
        description="Populate task ontologies from text with an LLM and verify the "
        "result with a deterministic rule reasoner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a task document (and optionally a dataset)")
    p_validate.add_argument("--task", required=True, help="built-in task id or path to a task JSON")
    p_validate.add_argument("--dataset", help="path to a JSONL dataset to validate")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="evaluate a dataset under one or more conditions")
    p_run.add_argument("--task", required=True, help="built-in task id or path to a task JSON")
    p_run.add_argument("--dataset", help="JSONL dataset path (default: the bundled corpus)")
    p_run.add_argument(
        "--condition",
        action="append",
        metavar="NAME",
        help="condition to run; repeatable (FS, CoT, SD, SD-Comp, SD-Direct, "
        "SD-Direct-Comp; default SD)",
    )
    p_run.add_argument("--backend", choices=("scripted", "http"), default="scripted")
    p_run.add_argument("--replay", help="scripted backend: replay file (default: bundled)")
    p_run.add_argument("--record", help="write every exchange to this replay file")
    p_run.add_argument("--model", help="model name (http: sent to the API; also names output dirs)")
    p_run.add_argument("--endpoint", help="http backend: chat-completions URL")
    p_run.add_argument(
        "--config", help="JSON config file (endpoint, model, max_concurrency: default --workers, rpm, ...)"
    )
    p_run.add_argument("--out", default="out", help="output directory root (default: out)")
    p_run.add_argument("--sample", type=int, help="evaluate a random sample of N test instances")
    p_run.add_argument("--seed", type=int, default=0, help="seed for --sample (default 0)")
    p_run.add_argument("--workers", type=int, help="concurrent instances (default: max_concurrency, else 1)")
    p_run.add_argument("--temperature", type=float, help="sampling temperature, finite and >= 0 (default 0)")
    p_run.add_argument("--timestamp", help="fix the trace header timestamp (for exact diffs)")
    p_run.add_argument("-v", "--verbose", action="store_true", help="print one line per instance")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="aggregate trace files into tables")
    p_report.add_argument("traces", nargs="+", help="trace files or directories to search")
    p_report.add_argument(
        "--compare",
        nargs=2,
        action="append",
        metavar=("A", "B"),
        help="paired comparison of two conditions; repeatable",
    )
    p_report.add_argument(
        "--paired",
        action="store_true",
        help="use the paired t-test for --compare (the default and only method)",
    )
    p_report.add_argument(
        "--metric",
        choices=METRICS,
        default="f1",
        help="metric for --compare (default f1)",
    )
    p_report.add_argument("--out", help="write report.csv and report.md here instead of stdout")
    p_report.set_defaults(func=cmd_report)

    p_query = sub.add_parser("query", help="run a SELECT query over trace ABox snapshots")
    p_query.add_argument("--trace", required=True, help="traces.jsonl file to query")
    source = p_query.add_mutually_exclusive_group(required=True)
    source.add_argument("--query", help="query text")
    source.add_argument("--query-file", help="file containing the query")
    p_query.add_argument("--task", help="task document if the trace is not for a built-in task")
    p_query.add_argument("--instance", action="append", help="restrict to an instance; repeatable")
    p_query.set_defaults(func=cmd_query)

    p_export = sub.add_parser("export", help="print a task document as JSON")
    p_export.add_argument("task", help="built-in task id or path to a task JSON")
    p_export.set_defaults(func=cmd_export)

    return parser


_EXIT_VALIDATION = 2
_EXIT_BACKEND = 3
_EXIT_DATA = 4

_ERROR_KINDS = (
    (DatasetError, "dataset", _EXIT_DATA),
    (TaskDocumentError, "task", _EXIT_VALIDATION),
    (RuleSyntaxError, "rule", _EXIT_VALIDATION),
    (QuerySyntaxError, "query", _EXIT_VALIDATION),
    (OntologyError, "ontology", _EXIT_VALIDATION),
    (StatsError, "stats", _EXIT_VALIDATION),
    (ConfigError, "config", _EXIT_VALIDATION),
    (NotExtractable, "backend", _EXIT_BACKEND),
    (MalformedResponseError, "backend", _EXIT_BACKEND),
    (BackendError, "backend", _EXIT_BACKEND),
    (RuleweaveError, "ruleweave", _EXIT_VALIDATION),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RuleweaveError as exc:
        # RuleweaveError, the last entry, matches whatever the others do not
        label, code = next((label, code) for kind, label, code in _ERROR_KINDS if isinstance(exc, kind))
        print(f"{label} error: {exc}", file=sys.stderr)
        return code
    except (ValueError, OSError) as exc:
        # malformed trace files surface as ValueError from load_traces
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
