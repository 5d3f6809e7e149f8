"""Fast test of the benchmark itself, on the small ``smoke`` workload
(integers, mixed, and cyclic over Z with m=2).

Run with:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import metric_specs
from workloads import WORKLOADS, check_ids

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    return {(seed, trace): run(seed, trace) for seed in (1, 2)
            for trace in (0, 1)}


def verdicts(proc):
    return [line for line in proc.stdout.splitlines()
            if line.startswith("verdict ")]


def test_runs_succeed_and_are_correct(runs):
    for proc in runs.values():
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_verdicts_do_not_depend_on_seed_or_tracing(runs):
    expected = verdicts(runs[1, 0])
    assert len(expected) == sum(len(e) for _, _, e in WORKLOADS["smoke"])
    for proc in runs.values():
        assert verdicts(proc) == expected


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(runs, trace, key):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    for seed in (1, 2):
        metrics = json.loads(runs[seed, trace].stdout.splitlines()[-1])[
            "metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == declared
        for name, m in metrics.items():
            assert NAME.fullmatch(name), name
            assert isinstance(m["value"], (int, float)), name


def test_declared_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == metric_specs(check_ids())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
