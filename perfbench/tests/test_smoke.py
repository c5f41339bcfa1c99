"""Short end-to-end runs of the benchmark command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [(w["name"], 0) for w in BENCHMARK["workloads"]] + [("corpus", 1)],
)
def test_workload_runs_and_checks_its_outputs(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    *_, context, result = done.stdout.strip().splitlines()
    result = json.loads(result)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert json.loads(context)["environment"]["nproc"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
