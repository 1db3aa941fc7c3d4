"""The benchmark's tracer finds the constructors and functions it wraps.

``perfbench/tracing.py`` patches ``VForm.__init__`` and ``Poly.__init__``
on their classes and swaps wrappers into the module namespaces; a refactor
that moves one of them would make the traced call counts read zero.
"""

import importlib
import sys
from pathlib import Path

import weilcalc.cli  # noqa: F401  (the tracer wraps cli.main)
from weilcalc import Poly, VForm, WeilCochain, build_fixture, ideals, weil
from weilcalc.fixtures import random_cochain

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.tracing import _FUNCTIONS, Tracer  # noqa: E402

from helpers import block_ref  # noqa: E402


def test_tracer_targets_resolve():
    # install looks each (module, attribute) up in turn, so a function that
    # moved module would stop it halfway with a bare AttributeError
    missing = [f"{module}.{attr}" for module, attr, _ in _FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"traced functions not found: {', '.join(missing)}"


def test_tracer_counts_constructors_and_uninstalls():
    fix = build_fixture("F1_abelian_2d")
    originals = (VForm.__dict__["__init__"], Poly.__dict__["__init__"], weil.delta)
    tracer = Tracer()
    try:
        tracer.install()
        tracer.on = True
        x = Poly.var(2, 0)
        w = VForm(2, 1, 1, {(1, (2,)): x}) + VForm(2, 1, 1, {(1, (1,)): x})
        c = WeilCochain.from_vform(fix.A, w) + WeilCochain.from_vform(fix.A, w)
        weil.delta(fix.A, fix.rep, c)
        tracer.on = False
        assert tracer.counts["algebroid.vform_init"] > 0
        assert tracer.counts["polyring.init"] > 0
        assert tracer.calls("weil.delta") == 1
    finally:
        tracer.uninstall()
    assert (VForm.__dict__["__init__"], Poly.__dict__["__init__"], weil.delta) == originals


def test_tracer_counts_the_solver_system():
    # the benchmark's _linsolve spans and row/nonzero counts read the
    # columns and rhs that weil hands to _eliminate: for the solve, the
    # block of the system that the target reaches; for the kernel, the
    # whole system
    fix = build_fixture("F0_so3")
    A, rep = fix.A, fix.rep
    w = WeilCochain.from_vform(A, VForm(0, 3, 0, {(1, ()): Poly.const(0, 1)}))
    target = weil.delta(A, rep, w)
    _, columns, rows = weil._delta_columns(A, rep, 0, 0, 0, None)
    col_rows = set().union(*columns)
    nonzeros = sum(len(col) for col in columns)
    assert nonzeros
    rhs = weil._flatten(target, rows)
    block = [columns[j] for j in block_ref(columns, rhs)]
    block_nonzeros = sum(len(col) for col in block)
    assert 0 < block_nonzeros < nonzeros
    tracer = Tracer()
    try:
        tracer.install()
        tracer.on = True
        assert weil.solve_coboundary(A, rep, target, 0) is not None
        weil.bounded_kernel(A, rep, 0, 0, 0)
        tracer.on = False
        assert tracer.calls("weil.solve") == 2
        assert tracer.calls("_linsolve.solve") == 2
        assert tracer.calls("_linsolve.eliminate") == 2
        assert tracer.counts["_linsolve.rows"] == (
            len(set(rhs).union(*block)) + len(col_rows))
        assert tracer.counts["_linsolve.nonzeros"] == block_nonzeros + nonzeros
    finally:
        tracer.uninstall()


def test_tracer_counts_one_delta_per_frame_cell():
    # weil.delta.calls stays the number of frame cells of a cold column
    # build: a build that called an inner helper of delta directly would
    # read lower. A warm build reads its frames from the memo and makes none.
    fix = build_fixture("F1_abelian_2d")
    A, rep = fix.A, fix.ideal.adjoint_rep()
    cells = weil._unknown_cells(A, rep.rank, 1, 1, 2, fix.ideal)
    tracer = Tracer()
    try:
        tracer.install()
        tracer.on = True
        weil._delta_columns(A, rep, 1, 1, 2, fix.ideal)
        assert tracer.calls("weil.delta") == len({cell[:5] for cell in cells}) > 1
        weil._delta_columns(A, rep, 1, 1, 3, fix.ideal)
        tracer.on = False
        assert tracer.calls("weil.delta") == len({cell[:5] for cell in cells})
    finally:
        tracer.uninstall()


def test_tracer_nests_one_hstar_in_each_horizontal_derivative():
    # ideals.hstar.calls counts the projections: Dhor and curvature each
    # call the public hstar once, so a refactor that called an inner helper
    # of hstar directly would read 0
    fix = build_fixture("F2_semisimple_2d")
    c = random_cochain(fix.A, fix.rep, 2, 1, 1, seed=0)
    for run in (lambda: ideals.Dhor(fix.imc, c), lambda: ideals.curvature(fix.imc)):
        tracer = Tracer()
        try:
            tracer.install()
            tracer.on = True
            run()
            tracer.on = False
        finally:
            tracer.uninstall()
        names = [tracer.names[sid] for sid in tracer.span_name]
        assert names.count("ideals.Dhor") == 1
        assert names.count("ideals.hstar") == 1
        outer = names.index("ideals.Dhor")
        assert tracer.span_parent[names.index("ideals.hstar")] == outer
