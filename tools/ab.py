"""Run paired perfbench runs of two commits and write the result as JSON.

Run from the repository root:

    python3 tools/ab.py --base REV [--change REV] --workload W --pairs N \\
        --seconds S --seed S0 --out BENCH_<name>.json

Each side is the `src/` tree of its commit (`git archive REV src`), extracted
into a temporary directory outside the repository, with the working tree's
`perfbench/` copied beside it. So both sides run one harness, and the
repository's `.git` is not written to. Pair i runs both sides with seed S0+i;
the base runs first in even pairs and the change in odd ones. Each run is
`perfbench/run.py --trace 0`, and its last stdout line is its result.

The output holds, per end-to-end metric of BENCHMARK.json, both sides'
samples, medians and quartiles and the share of pairs the change won (ties
count for neither side), plus the seeds, the pair count, both commits, the
Python version and the CPU count. It says "claim": true only when there
are at least MIN_PAIRS pairs, every run passed its checks with no failed
op, and at least one metric shows a gain; so a neutral set never reads as
a claim. Each metric also says "within_bound": false when its median moved
the worse way by more than the metric's bound in BENCHMARK.json (a share of
the base median). The last lines printed give, per metric, both medians, the
change's share of wins, the base's quartile spread and the gain flag, then
the claim flag, then the metrics outside their bounds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
# A gain also needs the change to win this share of pairs.
WIN_SHARE = 0.9
# Pair i runs its sides in ORDER[i % 2], so neither side always goes first.
ORDER = (("base", "change"), ("change", "base"))


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, check=True).stdout


def checkout(rev: str, dest: Path) -> str:
    """Extract REV's src/ and today's perfbench/ into dest; return REV's full SHA."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha, "src"))) as archive:
        archive.extractall(dest, filter="data")
    ignore = shutil.ignore_patterns(".work", ".out", "__pycache__")
    shutil.copytree(REPO / "perfbench", dest / "perfbench", ignore=ignore)
    return sha


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"ab: {' '.join(command)} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(samples: list[float]) -> dict:
    """Samples with their median and inclusive quartiles."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def summarize(base: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """The per-metric comparison of paired runs; base[i] and change[i] are
    the results of pair i, each as the last JSON line of perfbench/run.py.
    A metric's "gain" holds when the change won at least WIN_SHARE of the
    pairs and the medians differ by more than the base's quartile spread;
    it is "within_bound" unless the change's median is worse than the base's
    by more than the spec's bound, a share of the base median."""
    if len(base) != len(change):
        raise ValueError(f"{len(base)} base runs but {len(change)} change runs")
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
        before = spread([run["metrics"][name]["value"] for run in base])
        after = spread([run["metrics"][name]["value"] for run in change])
        wins = sum(sign * (b - a) > 0 for a, b in zip(before["samples"], after["samples"]))
        share = wins / len(base) if base else 0.0
        relative = (after["median"] - before["median"]) / before["median"] if before["median"] else None
        gap = sign * (after["median"] - before["median"])
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": before,
            "change": after,
            "change_better_share": share,
            "median_relative_change": relative,
            "gain": share >= WIN_SHARE and gap > before["q3"] - before["q1"],
            "within_bound": -gap <= spec["bound"] * abs(before["median"]),
        }
    clean = all(run["correct"] and run["failed"] == 0 for run in base + change)
    gain = any(metric["gain"] for metric in metrics.values())
    return {"claim": len(base) >= MIN_PAIRS and clean and gain, "all_runs_correct": clean, "metrics": metrics}


def summary_line(name: str, metric: dict) -> str:
    """One metric of summarize() as a line: both medians, the change's share
    of pair wins, the base's quartile spread and the gain flag."""
    base, change = metric["base"], metric["change"]
    return (
        f"{name:14s} {base['median']:12.4f} -> {change['median']:12.4f} {metric['unit']:4s} "
        f"change better in {metric['change_better_share']:.0%} of pairs, "
        f"base spread {base['q3'] - base['q1']:.4f}, gain: {str(metric['gain']).lower()}"
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"ab: no workload {args.workload!r} in BENCHMARK.json")
    seeds = [args.seed + i for i in range(args.pairs)]
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ruleweave-ab-") as tmp:
        roots = {side: Path(tmp) / side for side in runs}
        shas = {side: checkout(getattr(args, side), roots[side]) for side in runs}
        for i, seed in enumerate(seeds):
            for side in ORDER[i % 2]:
                result = run_once(roots[side], args.workload, seed, args.seconds)
                runs[side].append(result)
                value = result["metrics"]["op_ms_p50"]["value"]
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: op_ms_p50 {value:.3f} ms", file=sys.stderr)
    summary = summarize(runs["base"], runs["change"], spec["end_to_end"])
    document = {
        "workload": args.workload,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "seeds": seeds,
        "first_in_pair": [ORDER[i % 2][0] for i in range(args.pairs)],
        "base": {"rev": args.base, "sha": shas["base"]},
        "change": {"rev": args.change, "sha": shas["change"]},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "failed_ops": {side: [run["failed"] for run in runs[side]] for side in runs},
        **summary,
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for name, metric in summary["metrics"].items():
        print(summary_line(name, metric))
    print(f"claim: {str(summary['claim']).lower()}")
    outside = [name for name, metric in summary["metrics"].items() if not metric["within_bound"]]
    print(f"outside bound: {', '.join(outside) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
