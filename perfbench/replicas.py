"""Seeded replicas of the bundled corpora and replays.

A replica copies one test record of a bundled corpus under a new instance id,
together with every replay entry of its source instance. The seed chooses
only the new ids and the order records are written in: every id has the same
length and every replica has the same text, so the work per run does not
depend on the seed. Train records (the few-shot exemplars) are kept as they
are.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TASK_IDS = ("hearsay", "method_application", "clinical_eligibility")
TOKEN_DIGITS = 6


def bundled_corpus_path(root: Path, task_id: str) -> Path:
    return root / "src" / "ruleweave" / "data" / "corpus" / f"{task_id}.jsonl"


def bundled_replay_path(root: Path, task_id: str) -> Path:
    return root / "src" / "ruleweave" / "data" / "replay" / f"{task_id}.replay.json"


@dataclass(frozen=True)
class Replicas:
    """Replicated corpus lines and replay records for one task."""

    task_id: str
    corpus_lines: list[str]
    replay_records: list[dict]
    source_of: dict[str, str]

    def write(self, directory: Path) -> tuple[Path, Path]:
        """Write ``<task>.jsonl`` and ``<task>.replay.json``; the dataset
        loader takes the task id from the corpus file stem."""
        directory.mkdir(parents=True, exist_ok=True)
        corpus = directory / f"{self.task_id}.jsonl"
        corpus.write_text("\n".join(self.corpus_lines) + "\n", encoding="utf-8")
        replay = directory / f"{self.task_id}.replay.json"
        replay.write_text(json.dumps(self.replay_records, ensure_ascii=False), encoding="utf-8")
        return corpus, replay


def replica_ids(source_ids: list[str], copies: int, rng: random.Random) -> dict[str, str]:
    """Map ``copies`` fresh ids per source id back to that source id.

    Each new id is ``r<token>_<source>`` with a unique fixed-width hex token,
    so mapping a replica's output back to its source is a plain string
    substitution.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    tokens = rng.sample(range(16**TOKEN_DIGITS), copies * len(source_ids))
    source_of = {}
    for i, token in enumerate(tokens):
        source = source_ids[i % len(source_ids)]
        source_of[f"r{token:0{TOKEN_DIGITS}x}_{source}"] = source
    return source_of


def replicate(
    task_id: str,
    corpus_lines: list[str],
    replay_records: list[dict],
    copies: int,
    rng: random.Random,
) -> Replicas:
    """Replicate every test record ``copies`` times with matching replay entries."""
    rows = [json.loads(line) for line in corpus_lines if line.strip()]
    train = [row for row in rows if row["split"] != "test"]
    test = {row["id"]: row for row in rows if row["split"] == "test"}
    source_of = replica_ids(sorted(test), copies, rng)
    by_source: dict[str, list[dict]] = {}
    for record in replay_records:
        by_source.setdefault(record["instance_id"], []).append(record)
    missing = sorted(set(test) - set(by_source))
    if missing:
        raise ValueError(f"{task_id}: no replay entries for test instance {missing[0]!r}")

    new_rows = list(train)
    new_records = []
    for new_id, source in source_of.items():
        new_rows.append(dict(test[source], id=new_id))
        new_records.extend(dict(record, instance_id=new_id) for record in by_source[source])
    rng.shuffle(new_rows)
    rng.shuffle(new_records)
    lines = [json.dumps(row, ensure_ascii=False) for row in new_rows]
    return Replicas(task_id, lines, new_records, source_of)


def replicate_bundled(root: Path, task_id: str, copies: int, rng: random.Random) -> Replicas:
    corpus = bundled_corpus_path(root, task_id).read_text(encoding="utf-8").splitlines()
    replay = json.loads(bundled_replay_path(root, task_id).read_text(encoding="utf-8"))
    return replicate(task_id, corpus, replay, copies, rng)


def to_source(value, replica_id: str, source_id: str):
    """Rewrite a replica's JSON-able output as its source instance would give it."""
    return json.loads(json.dumps(value, sort_keys=True).replace(replica_id, source_id))


def replica_mismatches(source_traces: dict, replica_traces, source_of: dict[str, str]) -> list[str]:
    """Replicas whose prediction, outcome or ``fired`` list differs from the source's.

    ``source_traces`` maps a source instance id to its trace; traces are
    ``InstanceTrace`` objects from one condition.
    """
    problems = []
    for trace in replica_traces:
        source_id = source_of[trace.instance_id]
        source = source_traces[source_id]
        if trace.prediction != source.prediction or trace.outcome != source.outcome:
            problems.append(
                f"{trace.condition} {trace.instance_id}: {trace.prediction}/{trace.outcome} "
                f"but source {source_id} gave {source.prediction}/{source.outcome}"
            )
        elif to_source(trace.fired, trace.instance_id, source_id) != source.fired:
            problems.append(f"{trace.condition} {trace.instance_id}: fired list differs from {source_id}")
    return problems
