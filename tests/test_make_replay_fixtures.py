"""tools/make_replay_fixtures.py rebuilds the committed corpus and replay files byte for byte."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "make_replay_fixtures", _REPO / "tools" / "make_replay_fixtures.py"
)
make_replay_fixtures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_replay_fixtures)


def test_the_generator_rewrites_every_committed_fixture_unchanged(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(make_replay_fixtures, "REPO", tmp_path)
    monkeypatch.setattr(make_replay_fixtures, "DATA", tmp_path / "data")
    make_replay_fixtures.main()
    written = sorted(path for path in (tmp_path / "data").rglob("*") if path.is_file())
    names = [str(path.relative_to(tmp_path / "data")) for path in written]
    assert names == [
        "corpus/clinical_eligibility.jsonl",
        "corpus/hearsay.jsonl",
        "corpus/method_application.jsonl",
        "replay/clinical_eligibility.replay.json",
        "replay/hearsay.ablation.replay.json",
        "replay/hearsay.replay.json",
        "replay/method_application.replay.json",
    ]
    committed = _REPO / "src" / "ruleweave" / "data"
    for name, path in zip(names, written):
        assert path.read_bytes() == (committed / name).read_bytes(), name
    assert "clean under all 6 conditions" in capsys.readouterr().out
