"""Dataset loading, condition runs, metric folding, and report aggregation.

A run produces one report cell per (model, task, condition). Aggregates at
the overall, per-task, and per-model levels are always unweighted means of
cell metrics, never pooled confusion counts: averaging the per-task means
must reproduce the overall figure exactly.

Instances whose outcome is "Error" are excluded from the confusion counts
and surface only in the excluded_errors field, so transient backend faults
cannot silently deflate a score.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .backends import Backend
from .errors import DatasetError, StatsError
from .extraction import case_individual, mint_individual
from .pipeline import (
    ALL_CONDITIONS,
    OUTCOME_ERROR,
    Condition,
    InstanceTrace,
    dump_traces,
    evaluate_instance,
)
from .stats import paired_t_test
from .tasklib import BUILTIN_TASK_IDS, NEGATIVE_LABEL, POSITIVE_LABEL, TaskDefinition

LABELS = (POSITIVE_LABEL, NEGATIVE_LABEL)
SPLITS = ("train", "test")

_RECORD_KEYS = ("id", "text", "label", "split")
# The rates of a report cell, in the order of the CSV columns and table columns.
METRICS = ("accuracy", "precision", "recall", "f1")


# -- datasets ----------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetRecord:
    instance_id: str
    text: str
    label: str
    split: str


@dataclass(frozen=True)
class Dataset:
    """A labelled corpus for one task, split into train (exemplars) and test."""

    task_id: str
    records: tuple[DatasetRecord, ...]

    @property
    def test_records(self) -> tuple[DatasetRecord, ...]:
        return tuple(r for r in self.records if r.split == "test")

    @property
    def train_records(self) -> tuple[DatasetRecord, ...]:
        return tuple(r for r in self.records if r.split == "train")

    def exemplars(self) -> list[tuple[str, str]]:
        """(text, label) pairs from the train split, in instance-id order."""
        train = sorted(self.train_records, key=lambda r: r.instance_id)
        return [(r.text, r.label) for r in train]


def _parse_record(line: str, line_no: int) -> DatasetRecord:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    if not isinstance(raw, dict):
        raise DatasetError(f"line {line_no}: expected an object, got {type(raw).__name__}")
    for key in _RECORD_KEYS:
        if key not in raw:
            raise DatasetError(f"line {line_no}: missing field {key!r}")
    extra = sorted(set(raw) - set(_RECORD_KEYS))
    if extra:
        raise DatasetError(f"line {line_no}: unknown field {extra[0]!r}")
    for key in _RECORD_KEYS:
        if not isinstance(raw[key], str) or not raw[key].strip():
            raise DatasetError(f"line {line_no}: field {key!r} must be a non-empty string")
    if raw["label"] not in LABELS:
        raise DatasetError(
            f"line {line_no}: unknown label {raw['label']!r} (expected one of {', '.join(LABELS)})"
        )
    if raw["split"] not in SPLITS:
        raise DatasetError(
            f"line {line_no}: unknown split {raw['split']!r} (expected one of {', '.join(SPLITS)})"
        )
    return DatasetRecord(
        instance_id=raw["id"], text=raw["text"], label=raw["label"], split=raw["split"]
    )


def parse_dataset(text: str, task_id: str) -> Dataset:
    """Parse JSON-lines corpus text; one record per non-blank line."""
    records: list[DatasetRecord] = []
    seen: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        record = _parse_record(line, line_no)
        if record.instance_id in seen:
            raise DatasetError(f"line {line_no}: duplicate id {record.instance_id!r}")
        seen.add(record.instance_id)
        records.append(record)
    if not any(r.split == "test" for r in records):
        raise DatasetError("dataset has no test records")
    return Dataset(task_id=task_id, records=tuple(records))


def load_dataset(path: str | Path) -> Dataset:
    """Load a JSON-lines dataset file; the task id is the file stem."""
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {file}: {exc}") from exc
    return parse_dataset(text, file.stem)


def builtin_dataset(task_id: str) -> Dataset:
    """Load the mini-corpus bundled with a built-in task."""
    if task_id not in BUILTIN_TASK_IDS:
        raise DatasetError(
            f"no bundled corpus for {task_id!r} (available: {', '.join(BUILTIN_TASK_IDS)})"
        )
    text = (
        resources.files("ruleweave")
        .joinpath(f"data/corpus/{task_id}.jsonl")
        .read_text(encoding="utf-8")
    )
    return parse_dataset(text, task_id)


def sample_dataset(dataset: Dataset, size: int, seed: int) -> Dataset:
    """Reduce the test split to a reproducible random sample; train is kept whole."""
    test = sorted(dataset.test_records, key=lambda r: r.instance_id)
    if size < 1:
        raise DatasetError("sample size must be at least 1")
    if size > len(test):
        raise DatasetError(f"sample size {size} exceeds the test split ({len(test)} records)")
    chosen = set(random.Random(seed).sample(range(len(test)), size))
    kept = tuple(r for i, r in enumerate(test) if i in chosen)
    return Dataset(task_id=dataset.task_id, records=dataset.train_records + kept)


# -- confusion counts and metrics --------------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int
    excluded_errors: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn", "excluded_errors"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def scored(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def fold_counts(rows: Iterable[Mapping[str, object]]) -> ConfusionCounts:
    """Fold trace records into confusion counts.

    Rows need label, prediction, and outcome keys; instances with an Error
    outcome are counted separately and never enter the confusion matrix.
    Folding is order-independent, so no sorting is required here.
    """
    tp = fp = tn = fn = excluded = 0
    for row in rows:
        if row["outcome"] == OUTCOME_ERROR:
            excluded += 1
            continue
        actual = row["label"] == POSITIVE_LABEL
        predicted = row["prediction"] == POSITIVE_LABEL
        if actual and predicted:
            tp += 1
        elif actual:
            fn += 1
        elif predicted:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn, excluded_errors=excluded)


def metrics(counts: ConfusionCounts) -> dict[str, float]:
    """Accuracy, precision, recall, and F1 as fractions in [0, 1].

    Precision, recall, and F1 fall back to 0 when their denominator is zero;
    an entirely unscored run is an error rather than a row of zeros.
    """
    scored = counts.scored
    if scored == 0:
        raise StatsError("no scored instances: every instance errored or none were run")
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": (counts.tp + counts.tn) / scored,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


# -- report cells and aggregation ---------------------------------------------------


@dataclass(frozen=True)
class ReportCell:
    """One (model, task, condition) result. Reference grids carry F1 only."""

    model: str
    task: str
    condition: str
    f1: float
    accuracy: Optional[float] = None
    precision: Optional[float] = None
    recall: Optional[float] = None
    scored: Optional[int] = None
    excluded_errors: int = 0


def cell_from_counts(
    model: str, task: str, condition: str, counts: ConfusionCounts
) -> ReportCell:
    return ReportCell(
        model=model,
        task=task,
        condition=condition,
        **metrics(counts),
        scored=counts.scored,
        excluded_errors=counts.excluded_errors,
    )


@dataclass(frozen=True)
class MetricSummary:
    """Unweighted means over a group of cells; None where any cell lacks a metric."""

    n: int
    accuracy: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    f1: float


@dataclass(frozen=True)
class RunReport:
    cells: tuple[ReportCell, ...]
    overall: dict[str, MetricSummary]
    per_task: dict[str, dict[str, MetricSummary]]
    per_model: dict[str, dict[str, MetricSummary]]


def _mean(values: Sequence[Optional[float]]) -> Optional[float]:
    if any(v is None for v in values):
        return None
    return math.fsum(values) / len(values)  # type: ignore[arg-type]


def _summarize(cells: Sequence[ReportCell]) -> MetricSummary:
    rates = {name: _mean([getattr(cell, name) for cell in cells]) for name in METRICS}
    return MetricSummary(n=len(cells), **rates)


def _by_condition(cells: Sequence[ReportCell]) -> dict[str, MetricSummary]:
    grouped: dict[str, list[ReportCell]] = {}
    for cell in cells:
        grouped.setdefault(cell.condition, []).append(cell)
    return {
        condition: _summarize(group)
        for condition, group in sorted(grouped.items(), key=lambda kv: _condition_order(kv[0]))
    }


def _condition_order(condition: str) -> tuple[int, str]:
    names = [c.value for c in ALL_CONDITIONS]
    return (names.index(condition), "") if condition in names else (len(names), condition)


def aggregate(cells: Sequence[ReportCell]) -> RunReport:
    """Build the three aggregation levels from report cells.

    Every aggregate is the unweighted mean of its member cells, so the
    result is invariant under reordering the input. A single cell
    aggregates to itself at every level.
    """
    if not cells:
        raise StatsError("cannot aggregate an empty cell list")
    _check_unique(cells)
    return RunReport(
        cells=tuple(cells),
        overall=_by_condition(cells),
        per_task=_grouped(cells, "task"),
        per_model=_grouped(cells, "model"),
    )


def _check_unique(cells: Sequence[ReportCell]) -> None:
    seen: set[tuple[str, str, str]] = set()
    for cell in cells:
        key = (cell.model, cell.task, cell.condition)
        if key in seen:
            raise StatsError(f"duplicate report cell for {key}")
        seen.add(key)


def _grouped(cells: Sequence[ReportCell], field: str) -> dict[str, dict[str, MetricSummary]]:
    keys = sorted({getattr(cell, field) for cell in cells})
    return {key: _by_condition([c for c in cells if getattr(c, field) == key]) for key in keys}


# -- paired comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonResult:
    condition_a: str
    condition_b: str
    metric: str
    n: int
    mean_a: float
    mean_b: float
    t: float
    p: float
    dz: float

    @property
    def delta(self) -> float:
        return self.mean_a - self.mean_b


def compare(
    cells: Sequence[ReportCell],
    condition_a: str,
    condition_b: str,
    metric: str = "f1",
) -> ComparisonResult:
    """Paired t-test between two conditions over matching (model, task) cells."""
    _check_unique(cells)
    sides: dict[str, dict[tuple[str, str], float]] = {condition_a: {}, condition_b: {}}
    for cell in cells:
        if cell.condition not in sides:
            continue
        value = getattr(cell, metric)
        if value is None:
            raise StatsError(
                f"cell ({cell.model}, {cell.task}, {cell.condition}) has no {metric} value"
            )
        sides[cell.condition][(cell.model, cell.task)] = value
    for condition, side in sides.items():
        if not side:
            raise StatsError(f"no cells for condition {condition!r}")
    keys_a = set(sides[condition_a])
    keys_b = set(sides[condition_b])
    if keys_a != keys_b:
        odd = sorted(keys_a ^ keys_b)
        raise StatsError(
            f"conditions {condition_a!r} and {condition_b!r} cover different "
            f"(model, task) cells; first mismatch: {odd[0]}"
        )
    order = sorted(keys_a)
    xs = [sides[condition_a][k] for k in order]
    ys = [sides[condition_b][k] for k in order]
    result = paired_t_test(xs, ys)
    return ComparisonResult(
        condition_a=condition_a,
        condition_b=condition_b,
        metric=metric,
        n=result.n,
        mean_a=_mean(xs),
        mean_b=_mean(ys),
        t=result.t,
        p=result.p,
        dz=result.dz,
    )


# -- reference grid -------------------------------------------------------------------


def reference_cells() -> list[ReportCell]:
    """The bundled benchmark F1 grid: 11 models x 3 tasks x 4 conditions.

    F1 values are stored as percentages and returned as fractions, matching
    run-produced cells. Accuracy, precision, and recall are not part of the
    grid and stay None.
    """
    payload = json.loads(
        resources.files("ruleweave").joinpath("data/reference_f1.json").read_text("utf-8")
    )
    return [
        ReportCell(model=row["model"], task=task_id, condition=condition, f1=row[condition] / 100.0)
        for task_id in sorted(payload["tasks"])
        for row in payload["tasks"][task_id]
        for condition in payload["conditions"]
    ]


# -- condition runs -------------------------------------------------------------------


@dataclass
class ConditionRun:
    cell: ReportCell
    traces: list[InstanceTrace]
    trace_path: Optional[Path] = None
    report_path: Optional[Path] = None


def _path_part(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "_"


def _check_minted_names(entity_names: Sequence[str], instance_ids: Iterable[str]) -> None:
    """Raise DatasetError naming two ids whose instances would mint the same
    individual: the local names of `case_individual(id)` and of
    `mint_individual(id, entity)` for every entity. A query over a merged
    trace would fold the two instances' facts into that one individual."""
    owner: dict[str, str] = {}
    for instance in instance_ids:
        for name in (case_individual(instance), *(mint_individual(instance, e) for e in entity_names)):
            other = owner.setdefault(name, instance)
            if other != instance:
                raise DatasetError(f"instance ids {other!r} and {instance!r} both mint the individual {name}")


def run_condition(
    task: TaskDefinition,
    dataset: Dataset,
    condition: Condition,
    backend: Backend,
    *,
    model: str = "scripted",
    temperature: float = 0.0,
    workers: int = 1,
    out_dir: Optional[str | Path] = None,
    timestamp: Optional[str] = None,
) -> ConditionRun:
    """Evaluate the dataset's test split under one condition.

    Instances may run concurrently (workers > 1) but the fold happens over
    traces sorted by instance id, so the resulting cell and trace file are
    independent of scheduling. When out_dir is given, traces.jsonl and
    report.csv are written under out_dir/{task}/{condition}/{model}/.
    """
    test = sorted(dataset.test_records, key=lambda r: r.instance_id)
    if not test:
        raise DatasetError("dataset has no test records")
    _check_minted_names([spec.name for spec in task.entity_specs], [r.instance_id for r in test])
    exemplars = dataset.exemplars()

    def one(record: DatasetRecord) -> InstanceTrace:
        return evaluate_instance(
            task,
            record.instance_id,
            record.text,
            record.label,
            condition,
            backend,
            exemplars=exemplars,
            model=model,
            temperature=temperature,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(one, test))
    else:
        traces = [one(record) for record in test]

    # The traces are written before the cell is scored, so a condition whose
    # every instance errored keeps them, though its cell cannot be scored.
    trace_path = report_path = None
    if out_dir is not None:
        target = Path(out_dir) / _path_part(task.id) / _path_part(condition.value) / _path_part(model)
        target.mkdir(parents=True, exist_ok=True)
        trace_path = target / "traces.jsonl"
        trace_path.write_text(
            dump_traces(traces, task.id, condition, model, timestamp=timestamp),
            encoding="utf-8",
        )
        # An earlier run's report.csv must not sit beside traces it does not score.
        report_path = target / "report.csv"
        report_path.unlink(missing_ok=True)
    cell = cell_from_counts(model, task.id, condition.value, fold_counts(t.to_dict() for t in traces))
    if report_path is not None:
        report_path.write_text(report_csv([cell]), encoding="utf-8")
    return ConditionRun(cell=cell, traces=traces, trace_path=trace_path, report_path=report_path)


# -- report emission ------------------------------------------------------------------

_CSV_COLUMNS = ("model", "task", "condition", *METRICS, "scored", "excluded_errors")


def _csv_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def report_csv(cells: Sequence[ReportCell]) -> str:
    """One CSV row per cell, rates as fractions with six decimals."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for cell in cells:
        writer.writerow([_csv_value(getattr(cell, column)) for column in _CSV_COLUMNS])
    return buffer.getvalue()


def _pct(value: Optional[float]) -> str:
    return f"{100.0 * value:.1f}" if value is not None else "-"


def _markdown_block(title: str, summaries: dict[str, MetricSummary]) -> list[str]:
    lines = [f"### {title}", ""]
    # str.capitalize titles every rate name, "f1" as "F1".
    header = ["Condition", *(name.capitalize() for name in METRICS), "Cells"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for condition, s in summaries.items():
        rates = " | ".join(_pct(getattr(s, name)) for name in METRICS)
        lines.append(f"| {condition} | {rates} | {s.n} |")
    lines.append("")
    return lines


def report_markdown(report: RunReport, comparisons: Sequence[ComparisonResult | tuple] = ()) -> str:
    """Markdown report: overall means, then per-task and per-model breakdowns.
    An undefined comparison is an (A, B, metric, reason) tuple, one row naming the reason."""
    lines = ["# Evaluation report", ""]
    lines += _markdown_block("Overall (unweighted mean over cells)", report.overall)
    for heading, groups in (("By task", report.per_task), ("By model", report.per_model)):
        if len(groups) > 1:
            lines += [f"## {heading}", ""]
            for name, summaries in groups.items():
                lines += _markdown_block(name, summaries)
    if comparisons:
        lines.append("## Paired comparisons")
        lines.append("")
        lines.append("| A | B | Metric | n | Mean A | Mean B | Delta | t | p | dz |")
        lines.append("|---|---|---|---|---|---|---|---|---|---|")
        for c in comparisons:
            if isinstance(c, tuple):
                lines.append(f"| {c[0]} | {c[1]} | {c[2]} | undefined: {c[3]} |" + " - |" * 6)
                continue
            lines.append(
                f"| {c.condition_a} | {c.condition_b} | {c.metric} | {c.n} "
                f"| {_pct(c.mean_a)} | {_pct(c.mean_b)} | {100.0 * c.delta:+.1f}pp "
                f"| {c.t:.3f} | {c.p:.4f} | {c.dz:.3f} |"
            )
        lines.append("")
    return "\n".join(lines)
