"""The benchmark's own checks: exact figures repeat between two traced
runs with the same seed, and the benchmark refuses to run without the
package source.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent


def _traced(workload, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines
                  if line.strip().startswith("output digest"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", ["analyse", "generate", "classify"])
def test_counts_and_digest_repeat(workload):
    (first, digest1), (second, digest2) = _traced(workload), _traced(workload)
    assert first["correct"] and second["correct"]
    assert digest1 == digest2
    exact = [name for name, (_, is_exact, _) in run.LAYER_METRICS.items()
             if is_exact]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "generate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
