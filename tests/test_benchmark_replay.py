"""In-process replay of recorded benchmark digests.

A slice of the ``operators`` and ``solver`` workloads of ``perfbench`` runs
here: the operators suites at bidegrees (1,1) and (2,1) and the solver jobs
at degree bounds 1 and 2, on seed 1. Every output must pass its workload's
check and hash to the digest recorded in ``perfbench/digests.json``, so the
byte identity of operator and solver outputs is part of the test suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402

_RECORDED = workloads.load_digests()

_SLICES = {
    "operators": (workloads.operators_setup,
                  lambda: workloads.operators_plan(1, 1, bidegrees=((1, 1), (2, 1)))),
    "solver": (workloads.solver_setup,
               lambda: workloads.solver_plan(1, 1, bounds=(1, 2))),
}


@pytest.mark.parametrize("workload", sorted(_SLICES))
def test_recorded_digests_reproduce(workload):
    setup, plan = _SLICES[workload]
    failures = []
    for job in setup(plan())[0]:
        ok, _, reason = workloads.gate(job, job.run(), _RECORDED)
        if not ok:
            failures.append((job.key, reason))
    assert not failures
