"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, CheckFailed, parse_output  # noqa: E402

sys.path.insert(0, str(run.SRC))
import stirlperm  # noqa: E402
import stirlperm.cli  # noqa: E402


def corrupt(expected):
    """A wrong expected value of the same shape."""
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, int):
        return expected + 1
    if isinstance(expected, (float, Fraction)):
        return expected * 3 / 2 + 1
    if isinstance(expected, str):
        return expected + ",1"
    if isinstance(expected, dict):
        return {key: corrupt(value) for key, value in expected.items()}
    if isinstance(expected, (list, tuple)):
        return [corrupt(value) for value in expected]
    raise TypeError(f"cannot corrupt {type(expected).__name__}")


def _workload(name: str, tmp_path: Path):
    workload = WORKLOADS[name](7, tmp_path / name, tiny=True)
    workload.setup(stirlperm)
    return workload


def test_declared_metrics_match_the_script():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER
    ]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    workload = _workload(name, tmp_path)
    runner, _, metrics = run.measure(stirlperm, workload, seconds=0.0, min_ops=1)
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())
    assert runner.wrong == 0
    _, _, layers = run.trace(stirlperm, workload, cycles=1)
    assert list(layers) == [name for name, _, _, _ in run.PER_LAYER]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_check_rejects_a_wrong_expected_value(name, tmp_path):
    workload = _workload(name, tmp_path)
    runner = run.Runner(stirlperm)
    checked = set()
    for unit in workload.cycle(0):
        for op in unit:
            code, error, text, _, _ = runner._call(op.argv)
            if error is not None or code != 0:
                break  # the known defects; counted in the test below
            payload = parse_output(text)
            op.check(payload, op.expected)
            with pytest.raises(CheckFailed):
                op.check(payload, corrupt(op.expected))
            checked.add(op.check.__qualname__)
            if op.save is not None:
                key, path = op.save
                path.write_text(json.dumps(payload[key]))
    assert checked


def test_all_checks_are_exercised(tmp_path):
    used = set()
    for name in WORKLOADS:
        for unit in _workload(name, tmp_path).cycle(0):
            used.update(op.check.__qualname__ for op in unit)
    defined = {
        value.__qualname__
        for key, value in vars(workloads).items()
        if key.startswith("check_") and key != "check_round_trip"
    } | {"check_round_trip.<locals>.check"}
    assert defined <= used


def test_known_defects_count_as_failures(tmp_path):
    failures = {}
    for name in ("exact", "codec"):
        runner = run.Runner(stirlperm)
        runner.run_units(_workload(name, tmp_path).cycle(0))
        assert runner.failed > 0 and runner.wrong == 0
        failures[name] = set(runner.failures)
    # the answer has more than 4300 digits, which _render cannot print
    assert ("count --n 1600", "raised ValueError") in failures["exact"]
    # ary_tree_to_seq recurses once per node of a chain
    assert ("decode --bijection seq", "raised RecursionError") in failures["codec"]


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
