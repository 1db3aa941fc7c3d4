"""In-process replay of recorded benchmark digests.

A slice of each workload of ``perfbench`` runs here: one pass of every
operators suite (all four bidegrees) and of every solver job (all degree
bounds), on seed 1, and every recorded ``cli`` spec command and fixture emission
(not the spec mutations, which ``test_cli_mutations.py`` replays), through
``cli.main`` in this process. Every output must pass its workload's check
and hash to the digest recorded in ``perfbench/digests.json``, so the byte
identity of operator and solver outputs and of the CLI reports is part of
the test suite. The operators slice runs a second time with the cells of
its input cochains inserted in reverse order, which pins that no output
depends on the order of a cochain's cells.
"""

import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402

_RECORDED = workloads.load_digests()

def cli_plan():
    """One pass of every recorded spec command and emission: the cochain
    commands and emissions on each seed's spec, the others on seed 0."""
    specs = []
    for F in workloads.CLI_FIXTURES:
        for s in range(workloads.SEEDS):
            specs.append(("emit", F, s))
            specs += [("spec", F, s, cmd) for cmd in workloads.CLI_COMMANDS
                      if s == 0 or cmd in workloads.CLI_COCHAIN_COMMANDS]
    return [specs]


def reversed_cells_slice(workdir):
    """The operators slice with the cells of every input cochain inserted in
    reverse order. delta, dnabla_cochain, hstar and Dhor read no cell order,
    so their outputs, and the bytes of those, must not change."""
    build = workloads.fixtures.random_cochain

    def reversed_cochain(*args, **kwargs):
        c = build(*args, **kwargs)
        c.comps = dict(reversed(c.comps.items()))
        return c
    with mock.patch.object(workloads.fixtures, "random_cochain", reversed_cochain):
        return _SLICES["operators"](workdir)


_SLICES = {
    "operators": lambda workdir: workloads.operators_setup(workloads.operators_plan(1, 1)),
    "operators/reversed_cells": reversed_cells_slice,
    "solver": lambda workdir: workloads.solver_setup(
        workloads.solver_plan(1, 1)),
    "cli": lambda workdir: workloads.cli_setup(cli_plan(), workdir)[0],
}


def test_cli_slice_covers_every_recorded_spec_command():
    recorded = {k for k in _RECORDED["digests"]
                if k.startswith("cli/") and not k.startswith("cli/mutation/")}
    assert {workloads.cli_key(spec) for spec in cli_plan()[0]} == recorded


@pytest.mark.parametrize("workload", sorted(_SLICES))
def test_recorded_digests_reproduce(workload, tmp_path):
    failures = []
    for job in _SLICES[workload](tmp_path)[0]:
        ok, _, reason = workloads.gate(job, (job.run_inproc or job.run)(), _RECORDED)
        if not ok:
            failures.append((job.key, reason))
    assert not failures
