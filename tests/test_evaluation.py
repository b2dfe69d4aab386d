"""Dataset loading, metric arithmetic, aggregation, and condition runs."""

from __future__ import annotations

import hashlib
import json
import random
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleweave.backends import BackendResponse, ScriptedBackend
from ruleweave.errors import DatasetError, StatsError
from ruleweave.evaluation import (
    ConfusionCounts,
    Dataset,
    DatasetRecord,
    ReportCell,
    _check_minted_names,
    aggregate,
    builtin_dataset,
    cell_from_counts,
    compare,
    fold_counts,
    load_dataset,
    metrics,
    parse_dataset,
    reference_cells,
    report_csv,
    report_markdown,
    run_condition,
    sample_dataset,
)
from ruleweave.extraction import case_individual, mint_individual
from ruleweave.pipeline import Condition, load_traces
from ruleweave.tasklib import builtin_task


def make_lines(*records: dict) -> str:
    return "\n".join(json.dumps(r) for r in records) + "\n"


GOOD_LINES = make_lines(
    {"id": "a1", "text": "first text", "label": "Yes", "split": "test"},
    {"id": "a2", "text": "second text", "label": "No", "split": "test"},
    {"id": "a3", "text": "third text", "label": "Yes", "split": "train"},
)


# -- dataset parsing ---------------------------------------------------------------


def test_parse_dataset_splits_and_exemplars():
    ds = parse_dataset(GOOD_LINES, "demo")
    assert ds.task_id == "demo"
    assert [r.instance_id for r in ds.test_records] == ["a1", "a2"]
    assert [r.instance_id for r in ds.train_records] == ["a3"]
    assert ds.exemplars() == [("third text", "Yes")]


def test_load_dataset_takes_task_id_from_stem(tmp_path):
    path = tmp_path / "hearsay.jsonl"
    path.write_text(GOOD_LINES, encoding="utf-8")
    ds = load_dataset(path)
    assert ds.task_id == "hearsay"
    assert len(ds.records) == 3


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        load_dataset(tmp_path / "nope.jsonl")


def test_blank_lines_are_skipped():
    ds = parse_dataset("\n" + GOOD_LINES + "\n\n", "demo")
    assert len(ds.records) == 3


@pytest.mark.parametrize(
    "record, fragment",
    [
        ({"id": "a1", "text": "x", "label": "Maybe", "split": "test"}, "unknown label"),
        ({"id": "a1", "text": "x", "label": "Yes", "split": "dev"}, "unknown split"),
        ({"id": "a1", "text": "x", "label": "Yes"}, "missing field 'split'"),
        ({"text": "x", "label": "Yes", "split": "test"}, "missing field 'id'"),
        ({"id": "a1", "text": "", "label": "Yes", "split": "test"}, "non-empty"),
        ({"id": "a1", "text": "x", "label": "Yes", "split": "test", "extra": "y"}, "unknown field"),
        ({"id": "a1", "text": "x", "label": 1, "split": "test"}, "non-empty string"),
    ],
)
def test_bad_records_are_rejected(record, fragment):
    lines = make_lines(record, {"id": "z9", "text": "pad", "label": "No", "split": "test"})
    with pytest.raises(DatasetError, match=fragment):
        parse_dataset(lines, "demo")


def test_duplicate_id_is_rejected():
    lines = make_lines(
        {"id": "a1", "text": "x", "label": "Yes", "split": "test"},
        {"id": "a1", "text": "y", "label": "No", "split": "test"},
    )
    with pytest.raises(DatasetError, match="line 2: duplicate id 'a1'"):
        parse_dataset(lines, "demo")


def test_invalid_json_names_the_line():
    with pytest.raises(DatasetError, match="line 1: invalid JSON"):
        parse_dataset("{not json}\n", "demo")


def test_non_object_line_is_rejected():
    with pytest.raises(DatasetError, match="expected an object"):
        parse_dataset('["a", "b"]\n', "demo")


def test_dataset_without_test_split_is_rejected():
    lines = make_lines({"id": "a1", "text": "x", "label": "Yes", "split": "train"})
    with pytest.raises(DatasetError, match="no test records"):
        parse_dataset(lines, "demo")


def test_builtin_datasets_load_with_expected_sizes():
    sizes = {"hearsay": 15, "method_application": 15, "clinical_eligibility": 14}
    for task_id, expected in sizes.items():
        ds = builtin_dataset(task_id)
        assert len(ds.records) == expected
        assert len(ds.test_records) == 10
        assert {r.label for r in ds.records} == {"Yes", "No"}


def test_builtin_dataset_unknown_id():
    with pytest.raises(DatasetError, match="no bundled corpus"):
        builtin_dataset("parole_hearings")


def test_sample_dataset_is_reproducible():
    ds = builtin_dataset("hearsay")
    a = sample_dataset(ds, 4, seed=7)
    b = sample_dataset(ds, 4, seed=7)
    assert [r.instance_id for r in a.test_records] == [r.instance_id for r in b.test_records]
    assert len(a.test_records) == 4
    assert a.train_records == ds.train_records
    with pytest.raises(DatasetError, match="exceeds"):
        sample_dataset(ds, 99, seed=7)
    with pytest.raises(DatasetError, match="at least 1"):
        sample_dataset(ds, 0, seed=7)


def test_sample_dataset_of_the_whole_split_keeps_every_test_record():
    ds = builtin_dataset("hearsay")
    whole = sample_dataset(ds, len(ds.test_records), seed=7)
    assert sorted(whole.test_records, key=lambda r: r.instance_id) == sorted(
        ds.test_records, key=lambda r: r.instance_id
    )
    assert whole.train_records == ds.train_records


# -- confusion counts and metrics ----------------------------------------------------


def test_metrics_hand_worked_example():
    # by hand: precision 2/3, recall 2/3, f1 2/3, accuracy 8/10
    m = metrics(ConfusionCounts(tp=2, fp=1, tn=6, fn=1))
    assert m["precision"] == pytest.approx(2 / 3, abs=1e-12)
    assert m["recall"] == pytest.approx(2 / 3, abs=1e-12)
    assert m["f1"] == pytest.approx(2 / 3, abs=1e-12)
    assert m["accuracy"] == pytest.approx(0.8, abs=1e-12)


def test_perfect_classifier():
    m = metrics(ConfusionCounts(tp=5, fp=0, tn=5, fn=0))
    assert m == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_degenerate_denominators_give_zero():
    m = metrics(ConfusionCounts(tp=0, fp=0, tn=4, fn=2))
    assert m["precision"] == 0.0
    assert m["f1"] == 0.0
    assert m["accuracy"] == pytest.approx(4 / 6)


def test_zero_scored_is_an_error():
    with pytest.raises(StatsError, match="no scored instances"):
        metrics(ConfusionCounts(tp=0, fp=0, tn=0, fn=0, excluded_errors=3))


def test_negative_counts_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


def test_f1_is_harmonic_mean_property():
    rng = random.Random(41)
    for _ in range(200):
        counts = ConfusionCounts(
            tp=rng.randrange(0, 20),
            fp=rng.randrange(0, 20),
            tn=rng.randrange(0, 20),
            fn=rng.randrange(0, 20),
        )
        if counts.scored == 0:
            continue
        m = metrics(counts)
        p, r = m["precision"], m["recall"]
        if p + r > 0:
            assert m["f1"] == pytest.approx(2 * p * r / (p + r), abs=1e-12)
        else:
            assert m["f1"] == 0.0
        assert all(0.0 <= m[k] <= 1.0 for k in m)


def test_accuracy_invariant_under_class_swap():
    rng = random.Random(42)
    for _ in range(100):
        tp, fp, tn, fn = (rng.randrange(0, 15) for _ in range(4))
        if tp + fp + tn + fn == 0:
            continue
        direct = metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        swapped = metrics(ConfusionCounts(tp=tn, fp=fn, tn=tp, fn=fp))
        assert direct["accuracy"] == pytest.approx(swapped["accuracy"], abs=1e-12)


def test_fold_counts_excludes_errors():
    rows = [
        {"label": "Yes", "prediction": "Yes", "outcome": "Ok"},
        {"label": "Yes", "prediction": "No", "outcome": "Ok"},
        {"label": "No", "prediction": "Yes", "outcome": "Ok"},
        {"label": "No", "prediction": "No", "outcome": "Inconsistent"},
        {"label": "No", "prediction": "No", "outcome": "NotExtractable"},
        {"label": "Yes", "prediction": None, "outcome": "Error"},
    ]
    counts = fold_counts(rows)
    assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 2)
    assert counts.excluded_errors == 1
    assert counts.scored == 5


# -- aggregation -----------------------------------------------------------------------


def cell(model, task, condition, f1, **kw):
    return ReportCell(model=model, task=task, condition=condition, f1=f1, **kw)


def test_single_cell_aggregate_equals_the_cell():
    only = cell_from_counts("m", "hearsay", "SD", ConfusionCounts(tp=3, fp=1, tn=4, fn=2))
    report = aggregate([only])
    summary = report.overall["SD"]
    assert summary.n == 1
    assert summary.f1 == pytest.approx(only.f1)
    assert summary.accuracy == pytest.approx(only.accuracy)
    assert report.per_task["hearsay"]["SD"] == summary
    assert report.per_model["m"]["SD"] == summary


def test_aggregate_is_unweighted_mean_and_permutation_invariant():
    cells = [
        cell("m1", "hearsay", "SD", 0.9),
        cell("m2", "hearsay", "SD", 0.5),
        cell("m1", "method_application", "SD", 0.7),
        cell("m2", "method_application", "SD", 0.3),
    ]
    report = aggregate(cells)
    assert report.overall["SD"].f1 == pytest.approx((0.9 + 0.5 + 0.7 + 0.3) / 4)
    assert report.per_task["hearsay"]["SD"].f1 == pytest.approx(0.7)
    assert report.per_model["m2"]["SD"].f1 == pytest.approx(0.4)

    rng = random.Random(11)
    for _ in range(5):
        shuffled = cells[:]
        rng.shuffle(shuffled)
        again = aggregate(shuffled)
        assert again.overall == report.overall
        assert again.per_task == report.per_task
        assert again.per_model == report.per_model


def test_aggregate_rejects_empty_and_duplicate_cells():
    with pytest.raises(StatsError, match="empty"):
        aggregate([])
    with pytest.raises(StatsError, match="duplicate"):
        aggregate([cell("m", "t", "SD", 0.5), cell("m", "t", "SD", 0.6)])


def test_compare_rejects_a_duplicate_cell_like_aggregate():
    cells = [
        cell("m1", "t", "A", 0.5),
        cell("m1", "t", "A", 0.9),
        cell("m1", "t", "B", 0.4),
        cell("m2", "t", "A", 0.7),
        cell("m2", "t", "B", 0.1),
    ]
    duplicate = re.escape("duplicate report cell for ('m1', 't', 'A')")
    with pytest.raises(StatsError, match=duplicate):
        aggregate(cells)
    with pytest.raises(StatsError, match=duplicate):
        compare(cells, "A", "B")


def test_aggregate_mixed_missing_metrics_mean_to_none():
    cells = [
        cell("m1", "t", "SD", 0.5, accuracy=0.6),
        cell("m2", "t", "SD", 0.7),
    ]
    summary = aggregate(cells).overall["SD"]
    assert summary.f1 == pytest.approx(0.6)
    assert summary.accuracy is None


# -- the bundled reference grid --------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return reference_cells()


def test_reference_grid_shape(grid):
    assert len(grid) == 11 * 3 * 4
    assert {c.condition for c in grid} == {"FS", "CoT", "SD", "SD-Comp"}
    assert len({c.model for c in grid}) == 11
    assert all(0.0 < c.f1 <= 1.0 for c in grid)
    assert all(c.accuracy is None for c in grid)


def test_reference_grid_means(grid):
    # oracle: means computed independently from the raw fixture file
    raw = json.loads(
        resources.files("ruleweave").joinpath("data/reference_f1.json").read_text("utf-8")
    )
    report = aggregate(grid)
    for condition in raw["conditions"]:
        values = [row[condition] for rows in raw["tasks"].values() for row in rows]
        expected = sum(values) / len(values) / 100.0
        assert report.overall[condition].f1 == pytest.approx(expected, abs=1e-12)
    for task_id, rows in raw["tasks"].items():
        for condition in raw["conditions"]:
            expected = sum(row[condition] for row in rows) / len(rows) / 100.0
            assert report.per_task[task_id][condition].f1 == pytest.approx(expected, abs=1e-12)


def test_reference_grid_comparisons(grid):
    sd_fs = compare(grid, "SD", "FS")
    assert sd_fs.n == 33
    assert sd_fs.delta > 0
    sd_comp = compare(grid, "SD", "SD-Comp")
    assert sd_comp.n == 33
    assert sd_comp.t > sd_fs.t


def test_compare_is_antisymmetric(grid):
    ab = compare(grid, "SD", "FS")
    ba = compare(grid, "FS", "SD")
    assert ab.t == pytest.approx(-ba.t)
    assert ab.p == pytest.approx(ba.p)
    assert abs(ab.dz) == pytest.approx(abs(ba.dz))


def test_compare_rejects_mismatched_cell_sets(grid):
    trimmed = [c for c in grid if not (c.condition == "FS" and c.model == "o3")]
    with pytest.raises(StatsError, match="different"):
        compare(trimmed, "SD", "FS")


def test_compare_rejects_unknown_condition(grid):
    with pytest.raises(StatsError, match="no cells"):
        compare(grid, "SD", "SD-Direct")


def test_compare_rejects_missing_metric(grid):
    with pytest.raises(StatsError, match="has no accuracy"):
        compare(grid, "SD", "FS", metric="accuracy")


# -- condition runs --------------------------------------------------------------------


@pytest.fixture(scope="module")
def hearsay_run():
    task = builtin_task("hearsay")
    dataset = builtin_dataset("hearsay")
    path = resources.files("ruleweave").joinpath("data/replay/hearsay.replay.json")
    backend = ScriptedBackend.from_file(str(path))
    return task, dataset, backend


def test_run_condition_folds_clean_scripted_corpus(hearsay_run):
    task, dataset, backend = hearsay_run
    run = run_condition(task, dataset, Condition.SD, backend, model="replay")
    assert run.cell.f1 == 1.0
    assert run.cell.scored == 10
    assert run.cell.excluded_errors == 0
    assert [t.instance_id for t in run.traces] == sorted(t.instance_id for t in run.traces)
    assert run.trace_path is None


def test_run_condition_is_worker_count_invariant(hearsay_run):
    task, dataset, backend = hearsay_run
    sequential = run_condition(task, dataset, Condition.SD_COMP, backend)
    threaded = run_condition(task, dataset, Condition.SD_COMP, backend, workers=4)
    assert sequential.cell == threaded.cell
    assert [t.instance_id for t in sequential.traces] == [t.instance_id for t in threaded.traces]


def test_run_condition_writes_layout(hearsay_run, tmp_path):
    task, dataset, backend = hearsay_run
    run = run_condition(
        task, dataset, Condition.FS, backend, model="replay", out_dir=tmp_path, timestamp="t0"
    )
    assert run.trace_path == tmp_path / "hearsay" / "FS" / "replay" / "traces.jsonl"
    assert run.report_path == tmp_path / "hearsay" / "FS" / "replay" / "report.csv"
    header, records = load_traces(run.trace_path)
    assert header["condition"] == "FS"
    assert header["created"] == "t0"
    assert len(records) == 10
    lines = run.report_path.read_text().splitlines()
    assert lines[0].startswith("model,task,condition,")
    assert lines[1].startswith("replay,hearsay,FS,")


def test_run_condition_empty_test_split():
    task = builtin_task("hearsay")
    ds = Dataset(
        task_id="hearsay",
        records=(DatasetRecord("x", "text", "Yes", "train"),),
    )
    with pytest.raises(DatasetError, match="no test records"):
        run_condition(task, ds, Condition.SD, ScriptedBackend({}))


class _NoCallBackend:
    def complete(self, request):
        raise AssertionError("the id check must run before any backend call")


@pytest.mark.parametrize("ids", [("a-1", "a_1"), ("t01", "t01_Statement"), ("1", "_1")])
def test_run_condition_rejects_colliding_minted_names_before_any_call(ids):
    task = builtin_task("hearsay")
    ds = Dataset(task_id="hearsay", records=tuple(DatasetRecord(i, "text", "No", "test") for i in ids))
    with pytest.raises(DatasetError, match="both mint the individual inst:") as caught:
        run_condition(task, ds, Condition.SD, _NoCallBackend())
    assert all(repr(i) in str(caught.value) for i in ids)


class _SpyBackend:
    """Answers every baseline step with No and keeps each request's user prompt."""

    def __init__(self):
        self.users = []

    def complete(self, request):
        self.users.append(request.user)
        data = {"reasoning": "it reads so", "answer": "No"}
        return BackendResponse(json.dumps(data), data)


@pytest.mark.parametrize("condition", [Condition.FS, Condition.COT])
def test_baseline_prompts_carry_the_train_exemplars_in_id_order(condition):
    train = [("t3", "third example", "No"), ("t1", "first example", "Yes"), ("t2", "second example", "No")]
    ds = Dataset(
        task_id="hearsay",
        records=(
            DatasetRecord("q1", "the input to classify", "No", "test"),
            *(DatasetRecord(i, text, label, "train") for i, text, label in train),
        ),
    )
    spy = _SpyBackend()
    run = run_condition(builtin_task("hearsay"), ds, condition, spy)
    assert run.traces[0].prediction == "No"
    [user] = spy.users
    examples = "".join(
        f"Example {i}:\nInput: {text}\nAnswer: {label}\n\n"
        for i, (_, text, label) in enumerate(sorted(train), start=1)
    )
    assert user.startswith(examples + "Now the input to classify:\nthe input to classify\n")


def _minted(instance_id: str, entities: tuple[str, ...]) -> set:
    return {case_individual(instance_id), *(mint_individual(instance_id, e) for e in entities)}


# A small alphabet, so that ids which sanitize to one name come up often.
@settings(derandomize=True, database=None, max_examples=200)
@given(
    st.sets(st.text(alphabet="a_-1", min_size=1, max_size=4), min_size=2, max_size=6),
    st.lists(st.sampled_from(["a", "a_1", "_1", "S"]), unique=True, max_size=3),
)
def test_minted_names_are_distinct_exactly_when_the_id_check_accepts(ids, entities):
    ids, entities = tuple(sorted(ids)), tuple(entities)
    minted = {i: _minted(i, entities) for i in ids}
    try:
        _check_minted_names(entities, ids)
    except DatasetError as exc:
        match = re.fullmatch(r"instance ids '(.*)' and '(.*)' both mint the individual (.*)", str(exc))
        assert match is not None, str(exc)
        first, second, name = match.groups()
        assert first != second and name in minted[first] & minted[second]
    else:
        for i, first in enumerate(ids):
            for second in ids[i + 1 :]:
                assert not minted[first] & minted[second], (first, second)


# -- report emission -------------------------------------------------------------------


def test_report_csv_round_trips_through_plain_csv():
    counts = ConfusionCounts(tp=2, fp=1, tn=6, fn=1)
    text = report_csv([cell_from_counts("m", "hearsay", "SD", counts)])
    lines = text.splitlines()
    assert lines[0] == "model,task,condition,accuracy,precision,recall,f1,scored,excluded_errors"
    fields = lines[1].split(",")
    assert fields[0:3] == ["m", "hearsay", "SD"]
    assert float(fields[3]) == pytest.approx(0.8)
    assert fields[7] == "10"


def test_report_csv_blank_for_missing_metrics(grid):
    text = report_csv(grid[:1])
    fields = text.splitlines()[1].split(",")
    assert fields[3] == ""  # accuracy unknown in the reference grid


def test_report_markdown_sections(grid):
    report = aggregate(grid)
    rendered = report_markdown(report, comparisons=[compare(grid, "SD", "FS")])
    assert "### Overall (unweighted mean over cells)" in rendered
    assert "## By task" in rendered
    assert "## By model" in rendered
    assert "## Paired comparisons" in rendered
    assert "| SD | FS | f1 | 33 " in rendered
    # conditions keep their canonical order in every table
    overall = rendered.split("## By task")[0]
    assert overall.index("| FS |") < overall.index("| CoT |") < overall.index("| SD |")


def test_report_markdown_of_one_task_and_one_model_has_no_group_sections():
    counts = ConfusionCounts(tp=2, fp=1, tn=6, fn=1)
    cells = [cell_from_counts("m", "hearsay", condition, counts) for condition in ("FS", "SD")]
    rendered = report_markdown(aggregate(cells))
    assert "## By" not in rendered
    assert rendered.count("### ") == 1


def test_report_markdown_renders_an_undefined_comparison_as_a_row_naming_why():
    counts = ConfusionCounts(tp=2, fp=1, tn=6, fn=1)
    cells = [cell_from_counts("m", "hearsay", condition, counts) for condition in ("FS", "SD")]
    rendered = report_markdown(aggregate(cells), [("SD", "FS", "f1", "need at least 2 pairs, got 1")])
    row = "| SD | FS | f1 | undefined: need at least 2 pairs, got 1 | - | - | - | - | - | - |"
    assert rendered.endswith(f"|---|---|---|---|---|---|---|---|---|---|\n{row}\n")


# SHA-256 of report_markdown and report_csv over the reference grid plus one
# counted model on the three built-in tasks under SD and FS, with a defined
# SD-FS F1 comparison and an undefined SD-FS accuracy one.
REPORT_SHA256 = {
    "report.md": "2fc21c9520a86e77c0c3b82086d1e93d1811325bc57415c8cb1d854151e4c272",
    "report.csv": "b2745753b62f9a8bc5f34ee1b4170e7ca803e619cf979820f9aeb9688fca8da8",
}


def test_report_bytes_match_the_pinned_digests(grid):
    counted = [
        cell_from_counts(
            "counted", task, condition, ConfusionCounts(tp=3 + i, fp=1 + j, tn=5 - j, fn=i, excluded_errors=j)
        )
        for i, task in enumerate(("clinical_eligibility", "hearsay", "method_application"))
        for j, condition in enumerate(("SD", "FS"))
    ]
    cells = grid + counted
    comparisons = [compare(cells, "SD", "FS")]
    with pytest.raises(StatsError) as undefined:
        compare(cells, "SD", "FS", metric="accuracy")
    comparisons.append(("SD", "FS", "accuracy", str(undefined.value)))
    rendered = {"report.md": report_markdown(aggregate(cells), comparisons), "report.csv": report_csv(cells)}
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in rendered.items()}
    assert digests == REPORT_SHA256
