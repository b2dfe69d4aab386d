"""The self-checks of tools/scale_probe.py, on its smallest chain."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "scale_probe", Path(__file__).resolve().parents[1] / "tools" / "scale_probe.py"
)
scale_probe = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scale_probe)


def test_the_probe_checks_its_counts_and_restore_at_40_nodes(monkeypatch, capsys):
    monkeypatch.setattr(scale_probe, "NODES", (40,))
    assert scale_probe.main() == 0
    out = capsys.readouterr().out
    # 39 edges derive 39 * 40 / 2 reach facts; the join has 38 * 39 / 2 rows
    assert "\n40\t780\t" in out and "\t741\t" in out
    assert "40\tforward_chain\t" in out and "40\trestore\t" in out


def test_the_probe_checks_its_fired_log_at_40_nodes(monkeypatch, capsys):
    monkeypatch.setattr(scale_probe, "NODES", (40,))
    forward_chain = scale_probe.forward_chain

    def reversed_keys(tbox, abox):
        result = forward_chain(tbox, abox)
        result.fired = [(name, dict(reversed(binding.items()))) for name, binding in result.fired]
        return result

    def one_lost(tbox, abox):
        result = forward_chain(tbox, abox)
        del result.fired[-1]
        return result

    for wrong, message in (
        (reversed_keys, "wrong answer at 40 nodes: 780 fired, binding keys [('y', 'x'), ('z', 'y', 'x')]"),
        (one_lost, "wrong answer at 40 nodes: 779 fired"),
    ):
        monkeypatch.setattr(scale_probe, "forward_chain", wrong)
        assert scale_probe.main() == 1
        assert message in capsys.readouterr().out
    monkeypatch.setattr(scale_probe, "forward_chain", forward_chain)
    assert scale_probe.main() == 0
    assert "\n40\t780\t" in capsys.readouterr().out
