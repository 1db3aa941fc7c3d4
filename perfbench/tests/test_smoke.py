"""Smoke test of the benchmark: minimal runs of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.workloads import load_digests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def minimal_run(workload, trace, digests=None, seed=0):
    args = bench.parse_args(["--workload", workload, "--seed", str(seed),
                             "--seconds", "0", "--trace", str(trace)])
    result, _ = bench.run(args, digests=digests, small=True)
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_emits_every_metric(workload, trace):
    result = minimal_run(workload, trace, seed=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_digest_counts_as_failure(workload):
    digests = load_digests()
    wrong = dict(digests, digests={k: "0" * 16 for k in digests["digests"]})
    result = minimal_run(workload, 0, digests=wrong)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
