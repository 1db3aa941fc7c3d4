"""The solver's block search against the whole bounded-degree system.

``weil._solve`` eliminates only the block of the delta system that its
target reaches (``weil._target_block``): the cells of the connected
components of the system's row-column graph that hold a row of the
target, found through the inverse frame memo. Blocks have disjoint row
supports, so the solve over the block must give the solution of the whole
system, in the same order, and the same infeasible verdict. The reference
is that whole solve (``helpers.whole_solution``), on F0-F3 and a deformed
IM connection at bounds 0-4, with and without the horizontal ideal, for
coboundaries of random cochains, the obstruction cocycle, the curvature,
the zero target and targets pushed off the coboundary space.
"""

import random

import pytest

from weilcalc import (AlgebroidPresentation, ARep, LinearConnection, Poly, StructureError,
                      VForm, WeilCochain, build_fixture, weil)
from weilcalc._linsolve import solve_sparse
from weilcalc.fixtures import random_cochain, random_vform
from weilcalc.ideals import curvature, deform, frame_splitting, obstruction_cocycle
from weilcalc.polyring import MAX_DEGREE

from helpers import block_ref, whole_solution

CASES = ("F0_so3", "F1_abelian_2d", "F2_semisimple_2d", "F3_foliation_4d",
         "F2_semisimple_2d/deformed")


def _build(name):
    fix = build_fixture(name.split("/")[0])
    imc = fix.imc
    if "/" in name:
        gamma = random_vform(random.Random(f"solver-block:{name}"), fix.A.nvars,
                             fix.ideal.m, 1, 1)
        imc = deform(imc, weil.delta(fix.A, fix.rep, gamma), 1)
    return fix, imc


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return _build(request.param)


def _horizontal_part(c, ideal):
    return WeilCochain(c.A, c.rank, c.p, c.q, {
        cell: v for cell, v in c.comps.items()
        if not (cell[0] and set(cell[2]) & set(ideal.indices))})


def _targets(fix, imc, bound, horizontal):
    """(name, target) pairs: coboundaries, the obstruction cocycle and the
    zero target in W^{2,1}, the curvature in W^{1,2}."""
    A, rep, ideal = fix.A, fix.rep, fix.ideal
    out = []
    for seed in range(2):
        b = random_cochain(A, rep, 1, 1, min(bound, 2), seed)
        if horizontal is not None:
            b = _horizontal_part(b, ideal)
        out.append((f"coboundary{seed}", weil.delta(A, rep, b)))
    trivial = LinearConnection.trivial(A.nvars, ideal.m)
    out.append(("obstruction", obstruction_cocycle(A, ideal, frame_splitting(ideal), trivial)))
    out.append(("curvature", curvature(imc)))
    out.append(("zero", WeilCochain(A, rep.rank, 2, 1)))
    out.append(("pushed", out[0][1] + random_cochain(A, rep, 2, 1, 1, seed=7)))
    return out


def _block_solution(A, rep, target, bound, horizontal):
    cells, columns, rhs = weil._target_block(A, rep, target, bound, horizontal)
    x = solve_sparse(columns, rhs)
    return cells, columns, None if x is None else {cells[i]: v for i, v in x.items()}


def _layout(c):
    return [(cell, [(entry, list(poly.terms.items())) for entry, poly in vf.comps.items()])
            for cell, vf in c.comps.items()]


@pytest.mark.parametrize("bound", range(5))
def test_block_solve_equals_the_whole_system(case, bound):
    fix, imc = case
    A, rep = fix.A, fix.rep
    for horizontal in (None, fix.ideal):
        for name, target in _targets(fix, imc, bound, horizontal):
            why = (name, bound, horizontal is not None)
            p, q = target.p - 1, target.q
            cells, columns, rows = weil._delta_columns(A, rep, p, q, bound, horizontal)
            want = whole_solution(A, rep, target, bound, horizontal)
            got_cells, got_columns, got = _block_solution(A, rep, target, bound, horizontal)
            assert (got is None) == (want is None), why
            # equal dicts with equal insertion order: equal cochains, equal bytes
            assert got is None or list(got.items()) == list(want.items()), why
            solved = weil._solve(A, rep, target, bound, horizontal)
            if want is None:
                assert solved is None, why
            else:
                assert _layout(solved) == _layout(weil._assemble(
                    A, rep.rank, p, q, cells, [{cells.index(c): v for c, v in want.items()}])[0])
            # the block is a union of whole blocks holding the target's rows:
            # its cells are unknowns of the whole system in their order, every
            # column that meets one of its rows is in it, and its columns are
            # the whole system's
            position = {cell: i for i, cell in enumerate(cells)}
            assert [position[c] for c in got_cells] == sorted(position[c] for c in got_cells)
            assert [columns[position[c]] for c in got_cells] == got_columns
            block_rows = set(weil._flatten(target, rows)).union(*got_columns)
            meeting = {cells[j] for j, col in enumerate(columns) if block_rows.intersection(col)}
            assert meeting <= set(got_cells), why
            ref = {cells[j] for j in block_ref(columns, weil._flatten(target, rows))}
            assert ref <= set(got_cells), why


def test_f1_block_is_smaller_than_the_whole_system():
    fix, imc = _build("F1_abelian_2d")
    A, rep = fix.A, fix.rep
    for name, target in _targets(fix, imc, 4, fix.ideal):
        if name == "zero":
            continue
        for horizontal in (None, fix.ideal):
            whole, _, _ = weil._delta_columns(A, rep, target.p - 1, target.q, 4, horizontal)
            block, _, _ = weil._target_block(A, rep, target, 4, horizontal)
            assert 0 < len(block) < len(whole), (name, horizontal is not None)


def test_block_solve_raises_past_max_degree_like_the_whole_system():
    # a rank-1 algebroid on Q^1 with anchor x^MAX_DEGREE: the column of
    # x^alpha is alpha x^(alpha - 1 + MAX_DEGREE), past the limit at
    # alpha = 2. delta(x) reaches only the column of x and the zero target
    # reaches nothing, so the block alone never shifts past the limit: the
    # check for the bound does, cold and on a warm memo.
    for zero in (False, True):
        A = AlgebroidPresentation(1, 1, {}, {(1, 1): Poly.monomial(1, (MAX_DEGREE,))})
        rep = ARep(1, 1, 1)
        target = weil.delta(A, rep, VForm(1, 1, 0, {(1, ()): Poly.var(1, 0)}))
        if zero:
            target = WeilCochain(A, 1, 1, 0)
        for _ in range(2):
            with pytest.raises(StructureError):
                weil._solve(A, rep, target, 2)
            with pytest.raises(StructureError):
                weil.solve_coboundary(A, rep, target, 3)
            with pytest.raises(StructureError):
                weil._delta_columns(A, rep, 0, 0, 2, None)
        cells, _, _ = weil._target_block(A, rep, target, 1, None)
        assert cells == ([] if zero else [(0, (), (), 1, (), (1,))])
        assert _block_solution(A, rep, target, 1, None)[2] == \
            whole_solution(A, rep, target, 1)
