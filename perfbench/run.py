"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the repository root; ruleweave is imported from ``src``. With
``--trace 0`` the last stdout line is a JSON object holding every end-to-end
metric; with ``--trace 1`` it holds the per-layer metrics of a traced run
instead (see ``perfbench/README.md``). The lines before it repeat the metrics
for people. Exits 2 when the sources are missing, 1 on any other failure to
run; a run that completes but fails an output check exits 0 with
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.spans import Installation, SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, Round, import_program, setup  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# Rounds stop once the timed sections reach --seconds, or once the wall clock,
# which also runs the output checks, reaches this many times --seconds.
WALL_FACTOR = 2.0
# Untimed but checked rounds before the measured ones, as a share of --seconds.
WARMUP_SHARE = 0.1

# The host is shared. Its speed for interpreted code differs by a fifth or
# more between processes and over seconds to minutes, and every CPU-bound op
# time moves with it. A fixed loop of the benchmark's own, timed between
# rounds (the fastest of REFERENCE_REPEATS tries), tracks that speed. The op
# times of a round of a ``cpu_bound`` workload are reported at the reference
# speed: scaled by REFERENCE_MS over the mean loop time on either side of the
# round. REFERENCE_MS is the loop's typical time on a 2-vCPU VM (Python
# 3.11), so scaled times stay close to measured ones there.
REFERENCE_ITERATIONS = 50_000
REFERENCE_REPEATS = 2
REFERENCE_MS = 4.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}


def probe_setup(workload: str, workdir: Path) -> list[float]:
    """Set-up time of fresh processes, from start until the first op could run."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(ROOT), workload, str(workdir)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]) - started)
    return times


def reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


def reference_ms() -> float:
    """The reference loop's time now: the fastest of REFERENCE_REPEATS tries."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        reference_loop()
        times.append(1000.0 * (time.perf_counter() - started))
    return min(times)


def add(total: Round, result: Round, scale: float = 1.0) -> None:
    total.seconds += scale * result.seconds
    total.cpu_seconds += scale * result.cpu_seconds
    total.ops += result.ops
    total.failed += result.failed
    total.latencies_ms += [scale * latency for latency in result.latencies_ms]
    total.problems += result.problems


def measure(workload, seconds: float, recorder=None, references: Optional[list] = None) -> tuple[Round, Round]:
    """Repeat rounds for ``seconds`` of timed work; return their sum, and the
    sum with each round's times at the reference speed. Only with
    ``references`` is the reference loop timed (into it) before each round
    and after the last; a round's speed is the mean of the loop times on
    either side of it. Without, the two sums are the same."""
    total, scaled = Round(), Round()
    started = time.monotonic()
    if references is not None:
        references.append(reference_ms())
    while total.seconds < seconds and time.monotonic() - started < WALL_FACTOR * seconds:
        result = workload.round(recorder)
        add(total, result)
        scale = 1.0
        if references is not None:
            references.append(reference_ms())
            scale = REFERENCE_MS / statistics.mean(references[-2:])
        add(scaled, result, scale)
    return total, scaled


def end_to_end(setup_times: list[float], measured: Round) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": measured.ops / measured.seconds,
        "op_ms_p50": statistics.median(measured.latencies_ms),
        "cpu_ms_per_op": 1000.0 * measured.cpu_seconds / measured.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run(args) -> dict:
    program = import_program(ROOT)
    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](program, ROOT, workdir, random.Random(args.seed))
    recorder = SpanRecorder() if args.trace else None
    try:
        workload.generate()
        setup_times = probe_setup(args.workload, workdir)
        if recorder is not None:
            installed = Installation(recorder, vars(program).values(), layers.PROBES, layers.INSTANCE_ARGS)
        try:
            workload.loaded = setup(program, args.workload, ROOT, workdir)
        finally:
            if recorder is not None:
                installed.remove()
        setup_spans = (0, len(recorder) if recorder is not None else 0)
        workload.prepare()
        warmup, _ = measure(workload, WARMUP_SHARE * args.seconds)
        references: list[float] = []
        untraced, scaled = measure(workload, args.seconds, references=references if workload.cpu_bound else None)
        runs = [workload.prepared, warmup, untraced]
        if recorder is not None:
            window_start = len(recorder)
            installed = Installation(recorder, vars(program).values(), layers.PROBES, layers.INSTANCE_ARGS)
            try:
                traced, _ = measure(workload, args.seconds, recorder)
            finally:
                installed.remove()
            runs.append(traced)
    finally:
        helper_stats = workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if recorder is None:
        values = end_to_end(setup_times, scaled)
        units = END_TO_END_UNITS
        raw = end_to_end(setup_times, untraced)
        measured = f"{untraced.ops} ops measured, {len(untraced.latencies_ms)} latency samples"
        if references:
            measured += (
                f"; reference loop median {statistics.median(references):.4f} ms over {len(references)} timings; "
                f"unscaled ops_per_s {raw['ops_per_s']:.4f}, op_ms_p50 {raw['op_ms_p50']:.4f}, "
                f"cpu_ms_per_op {raw['cpu_ms_per_op']:.4f}"
            )
    else:
        values = layers.layer_metrics(
            recorder,
            setup_spans,
            (window_start, len(recorder)),
            traced.seconds,
            traced.ops,
            untraced.seconds / untraced.ops,
            helper_stats,
        )
        units = layers.UNITS
        measured = f"{traced.ops} ops measured with tracing, {untraced.ops} without"
        out = ROOT / "perfbench" / ".out"
        out.mkdir(exist_ok=True)
        recorder.write(out / f"spans-{args.workload}.tsv.gz")
    attempted = sum(r.ops for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {measured}")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    print(f"  {'error_share':40s} {failed / attempted:14.6f} ratio ({failed} of {attempted} ops)")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
