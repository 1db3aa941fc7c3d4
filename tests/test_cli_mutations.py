"""Replay of the recorded CLI spec mutations.

Every single-field mutation of each fixture's emitted spec (seed 0) is run
through ``validate`` in process. For the mutations the benchmark records by
digest, the contract part of the report, ``[exit code, status, error.path]``,
must hash to the recorded digest; the mutations recorded as crashes are only
held to the CLI contract (exit 0/1/2, canonical JSON, no traceback, a path on
exit 2).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402
from weilcalc import FIXTURE_NAMES  # noqa: E402

_RECORDED = workloads.load_digests()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_recorded_mutations_reproduce(name, tmp_path):
    path = tmp_path / "spec.json"
    code, _, _ = workloads.run_cli_inproc(workloads.emit_argv(name, 0, path))
    assert code == 0
    base = json.loads(path.read_text(encoding="utf-8"))
    mutated = tmp_path / "mutated.json"
    replayed = workloads.mutations(name, base)
    prefix = f"cli/mutation/{name}/"
    assert {k for k in (*_RECORDED["digests"], *_RECORDED["crash"])
            if k.startswith(prefix)} == set(replayed)
    mismatches = []
    for key, (field, new) in replayed.items():
        mutated.write_text(json.dumps(workloads.apply_mutation(base, field, new)),
                           encoding="utf-8")
        result = workloads.run_cli_inproc(["validate", str(mutated)])
        ok, doc, reason = workloads.contract_check(*result)
        if not ok:
            mismatches.append((key, reason))
        elif key in _RECORDED["crash"]:
            continue
        else:
            triple = [result[0], doc["status"], doc.get("error", {}).get("path")]
            got = workloads.digest(json.dumps(triple).encode())
            if got != _RECORDED["digests"].get(key):
                mismatches.append((key, triple))
    assert not mismatches
