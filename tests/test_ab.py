"""The paired A/B summary of tools/ab.py, on canned perfbench results."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

END_TO_END = [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def result(op_ms: float, ops_per_s: float, correct: bool = True, failed: int = 0) -> dict:
    return {
        "correct": correct,
        "attempted": 30,
        "failed": failed,
        "metrics": {
            "op_ms_p50": {"value": op_ms, "unit": "ms"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        },
    }


BASE_MS = [50.0, 52.0, 54.0, 51.0, 53.0, 50.0, 52.0, 55.0, 51.0, 53.0]
CHANGE_MS = [34.0, 35.0, 33.0, 36.0, 34.0, 53.0, 35.0, 34.0, 33.0, 35.0]


def test_a_clear_gain_over_ten_pairs_is_claimed():
    base = [result(ms, 1000 / ms) for ms in BASE_MS]
    change = [result(ms, 1000 / ms) for ms in CHANGE_MS]
    summary = ab.summarize(base, change, END_TO_END)
    assert summary["claim"] is True and summary["all_runs_correct"] is True
    op = summary["metrics"]["op_ms_p50"]
    assert op["base"]["samples"] == BASE_MS and op["change"]["samples"] == CHANGE_MS
    assert op["base"]["median"] == 52.0 and op["change"]["median"] == 34.5
    assert (op["base"]["q1"], op["base"]["q3"]) == (51.0, 53.0)
    # pair 6 is the one loss: 53 ms against the base's 50
    assert op["change_better_share"] == 0.9
    assert op["median_relative_change"] == pytest.approx(34.5 / 52.0 - 1)
    assert op["gain"] is True
    # "higher is better" is read from the spec: fewer ms is more ops per second
    assert summary["metrics"]["ops_per_s"]["change_better_share"] == 0.9
    assert summary["metrics"]["ops_per_s"]["gain"] is True


def test_ties_count_for_neither_side_and_noise_is_no_gain():
    base = [result(ms, 20.0) for ms in BASE_MS]
    change = [result(ms, 20.0) for ms in BASE_MS[1:] + BASE_MS[:1]]
    summary = ab.summarize(base, change, END_TO_END)
    assert summary["claim"] is False
    assert summary["metrics"]["ops_per_s"]["change_better_share"] == 0.0
    assert summary["metrics"]["op_ms_p50"]["gain"] is False


@pytest.mark.parametrize(
    "pairs, broken",
    [(9, None), (10, {"correct": False}), (10, {"failed": 1})],
    ids=["nine-pairs", "incorrect-run", "failed-op"],
)
def test_too_few_pairs_or_a_faulty_run_makes_no_claim(pairs, broken):
    base = [result(ms, 1000 / ms) for ms in BASE_MS[:pairs]]
    change = [result(ms, 1000 / ms) for ms in CHANGE_MS[:pairs]]
    if broken:
        change[3] = result(CHANGE_MS[3], 1000 / CHANGE_MS[3], **broken)
    summary = ab.summarize(base, change, END_TO_END)
    assert summary["claim"] is False
    assert summary["all_runs_correct"] is (broken is None)
    assert summary["metrics"]["op_ms_p50"]["change_better_share"] == pytest.approx(8 / 9 if pairs == 9 else 0.9)


def test_a_metric_is_within_its_bound_unless_its_median_got_worse_by_more_than_the_bound():
    # op_ms_p50 median 52 -> 64 is 23% worse; ops_per_s median 20 -> 14 is 30% worse
    base = [result(ms, 20.0) for ms in BASE_MS]
    change = [result(ms + 12.0, 14.0) for ms in BASE_MS]
    metrics = ab.summarize(base, change, END_TO_END)["metrics"]
    assert metrics["op_ms_p50"]["within_bound"] is True
    assert metrics["ops_per_s"]["within_bound"] is False
    # a move the better way is never out of bound, however large
    better = ab.summarize(base, [result(ms / 2, 40.0) for ms in BASE_MS], END_TO_END)["metrics"]
    assert all(metric["within_bound"] for metric in better.values())


def test_a_single_pair_has_degenerate_quartiles():
    summary = ab.summarize([result(50.0, 20.0)], [result(40.0, 25.0)], END_TO_END)
    op = summary["metrics"]["op_ms_p50"]
    assert op["base"] == {"samples": [50.0], "median": 50.0, "q1": 50.0, "q3": 50.0}
    assert op["change_better_share"] == 1.0 and summary["claim"] is False


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError, match="2 base runs but 1 change runs"):
        ab.summarize([result(50.0, 20.0)] * 2, [result(40.0, 25.0)], END_TO_END)


def test_each_summary_line_shows_the_gain_flag_and_the_base_spread():
    base = [result(ms, 1000 / ms) for ms in BASE_MS]
    gained = ab.summarize(base, [result(ms, 1000 / ms) for ms in CHANGE_MS], END_TO_END)["metrics"]
    noise = ab.summarize(base, [result(ms, 1000 / ms) for ms in BASE_MS[1:] + BASE_MS[:1]], END_TO_END)
    assert ab.summary_line("op_ms_p50", gained["op_ms_p50"]) == (
        "op_ms_p50           52.0000 ->      34.5000 ms   "
        "change better in 90% of pairs, base spread 2.0000, gain: true"
    )
    assert ab.summary_line("op_ms_p50", noise["metrics"]["op_ms_p50"]) == (
        "op_ms_p50           52.0000 ->      52.0000 ms   "
        "change better in 40% of pairs, base spread 2.0000, gain: false"
    )
