"""The committed perf trajectory: each ``BENCH_<tag>.json`` at the root holds
the ``bench/run.py`` result lines of alternating parent/change pairs."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_trajectory_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_runs_are_correct_and_paired(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data.get("command")
    assert data["runs"]
    sides = {}
    for run in data["runs"]:
        key = (run["workload"], run["seed"])
        result = run["result"]
        assert result["correct"] is True, key
        assert result["failed"] == 0, key
        sides.setdefault(key, set()).add(run["side"])
    unpaired = {k: v for k, v in sides.items() if v != {"parent", "change"}}
    assert not unpaired
