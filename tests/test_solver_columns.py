"""The solver's columns against delta of each unknown cell.

``weil._delta_columns`` builds the column of a cell x^alpha e from one
delta of the frame cell e and the anchor symbols S_a(e), by the Leibniz
rule. The reference here is the flattened delta of every single-term cell,
one delta per cell, on the fixtures and on an algebroid with a polynomial
anchor, with and without the horizontal ideal. delta reads its frame
tables and the representation's psi_i from per-object memos, which must
give what a fresh build gives.
"""

import pytest

from weilcalc import (AlgebroidPresentation, ARep, EndForm, IdealBundle, Poly,
                      StructureError, build_fixture, weil)
from weilcalc._linsolve import _eliminate
from weilcalc.fixtures import random_cochain
from weilcalc.polyring import MAX_DEGREE
from weilcalc.weil import (_cell_cochain, _delta_columns, _flatten, _symbols,
                           _unknown_cells, delta)

from test_weil import affine_algebroid, affine_rep

BIDEGREES = ((0, 1), (1, 0), (1, 1), (2, 1))


def _affine():
    A = affine_algebroid()
    return "affine", A, affine_rep(A), IdealBundle(A, (3,))


def _build(name):
    if name == "affine":
        return _affine()
    fix = build_fixture(name)
    return fix.name, fix.A, fix.rep, fix.ideal


@pytest.fixture(scope="module", params=("F0_so3", "F1_abelian_2d", "F2_semisimple_2d",
                                        "F3_foliation_4d", "affine"))
def case(request):
    return _build(request.param)


def _per_cell(A, rep, p, q, cells):
    return {cell: _flatten(delta(A, rep, _cell_cochain(A, rep.rank, p, q, cell)))
            for cell in cells}


def _shifted(flat, a):
    """x_a times a flattened cochain."""
    return {key[:5] + (key[5][:a] + (key[5][a] + 1,) + key[5][a + 1:],): v
            for key, v in flat.items()}


@pytest.mark.parametrize("p,q", BIDEGREES)
def test_columns_equal_delta_of_each_cell(case, p, q):
    name, A, rep, ideal = case
    # the two largest spaces stop at bound 2, to keep the reference cheap
    top = 2 if name == "F3_foliation_4d" or (name, p) == ("F2_semisimple_2d", 2) else 3
    # the cells at a lower bound, or in the horizontal subcomplex, are a
    # subset of the cells of the full space at the top bound
    want = _per_cell(A, rep, p, q, _unknown_cells(A, rep.rank, p, q, top))
    for horizontal, bound in [(None, b) for b in range(top + 1)] + [(ideal, top)]:
        cells, columns = _delta_columns(A, rep, rep.rank, p, q, bound, horizontal)
        assert cells == _unknown_cells(A, rep.rank, p, q, bound, horizontal)
        assert columns == [want[cell] for cell in cells]
    # the symbols, read off the anchor: S_a(e) = delta(x_a e) - x_a delta(e)
    origin = (0,) * A.nvars
    for head in {cell[:5] for cell in want}:
        de = want[head + (origin,)]
        for a, symbol in enumerate(_symbols(A, head)):
            unit = origin[:a] + (1,) + origin[a + 1:]
            diff = dict(want[head + (unit,)])
            for key, v in _shifted(de, a).items():
                diff[key] = diff.get(key, 0) - v
            assert symbol == {key: v for key, v in diff.items() if v}, (head, a)


def test_affine_case_has_a_nonconstant_symbol():
    # the polynomial anchor rho(e_2) = x d/dx gives S_1 a term of degree 1
    _, A, _, _ = _affine()
    assert any(sum(key[5]) for sym in _symbols(A, (0, (), (), 1, (1,))) for key in sym)


def test_column_past_max_degree_raises_like_delta():
    # a rank-1 algebroid on Q^1 with anchor x^MAX_DEGREE: rho(x^alpha) =
    # alpha x^(alpha - 1 + MAX_DEGREE) passes the limit at alpha = 2
    A = AlgebroidPresentation(1, 1, {}, {(1, 1): Poly.monomial(1, (MAX_DEGREE,))})
    rep = ARep.trivial(1, 1, 1)
    cells, columns = _delta_columns(A, rep, 1, 0, 0, 1, None)
    assert columns == list(_per_cell(A, rep, 0, 0, cells).values())
    with pytest.raises(StructureError):
        delta(A, rep, _cell_cochain(A, 1, 0, 0, (0, (), (), 1, (), (2,))))
    with pytest.raises(StructureError):
        _delta_columns(A, rep, 1, 0, 0, 2, None)


def test_one_delta_per_frame_cell(case, monkeypatch):
    # delta is looked up in the module, so a wrapper there sees every call
    _, A, rep, ideal = case
    calls = []

    def counted(*args):
        calls.append(args)
        return delta(*args)

    monkeypatch.setattr(weil, "delta", counted)
    cells, _ = weil._delta_columns(A, rep, rep.rank, 1, 1, 2, ideal)
    assert len(calls) == len({cell[:5] for cell in cells})


@pytest.mark.parametrize("name", ("F0_so3", "F1_abelian_2d", "F2_semisimple_2d",
                                  "F3_foliation_4d"))
def test_fixture_columns_are_plain_ints(name):
    # the fixtures' structure data are integral, so their columns and
    # symbols must stay in int arithmetic: a Fraction here costs the solver
    # about a fifth of its time without changing any output
    fix = build_fixture(name)
    A, rep = fix.A, fix.rep
    for p, q in ((0, 1), (1, 1), (2, 1)):
        cells, columns = _delta_columns(A, rep, rep.rank, p, q, 2, None)
        assert all(type(v) is int for col in columns for v in col.values()), (p, q)
        for head in {cell[:5] for cell in cells}:
            assert all(type(v) is int for sym in _symbols(A, head) for v in sym.values())


@pytest.mark.parametrize("name", ("F1_abelian_2d", "F2_semisimple_2d", "F3_foliation_4d"))
def test_fixture_kernel_pivot_rows_are_plain_ints(name):
    # rows read by descending least column keep the pivot rows of the
    # W^{1,1} systems integral; read in sorted key order, 943 of their 2667
    # entries were Fractions. (Other bidegrees keep a few Fractions.)
    fix = build_fixture(name)
    A, rep = fix.A, fix.ideal.adjoint_rep()
    for bound in range(1, 5):
        for horizontal in (None, fix.ideal):
            _, columns = _delta_columns(A, rep, rep.rank, 1, 1, bound, horizontal)
            _, pivots, _ = _eliminate(columns, {})
            assert pivots and all(type(v) is int for row, _ in pivots.values()
                                  for v in row.values()), (bound, horizontal)


@pytest.mark.parametrize("p,q", BIDEGREES + ((2, 2),))
def test_delta_with_warm_tables_equals_delta_on_a_fresh_build(case, p, q):
    name, A, rep, _ = case
    # warm the memos on a plain form, which has no symmetric slots
    delta(A, rep, random_cochain(A, rep, 0, 1, 1, seed=1))
    _, fresh_A, fresh_rep, _ = _build(name)
    for seed in range(2):
        assert delta(A, rep, random_cochain(A, rep, p, q, 1, seed)) == \
            delta(fresh_A, fresh_rep, random_cochain(fresh_A, fresh_rep, p, q, 1, seed))


def test_algebroids_never_share_delta_tables():
    A, again = build_fixture("F1_abelian_2d").A, build_fixture("F1_abelian_2d").A
    tables = A.delta_tables()
    assert A.delta_tables() is tables
    assert again.delta_tables() is not tables and again.delta_tables() == tables
    assert build_fixture("F2_semisimple_2d").A.delta_tables() != tables


def test_endo_memo_returns_equal_forms(case):
    _, A, rep, _ = case
    fresh = ARep(rep.nvars, rep.secrank, rep.rank, rep.psi)
    for i in range(1, A.rank + 1):
        want = EndForm(rep.nvars, rep.rank, 0,
                       {(b, c, ()): p for (j, b, c), p in rep.psi.items() if j == i})
        first = fresh.endo(i)
        assert first == want and fresh.endo(i) is first and rep.endo(i) == want
