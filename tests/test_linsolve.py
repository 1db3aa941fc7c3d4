"""The exact sparse solver against sympy on random small rational systems.

Rows are read by descending least column, ties broken by row key, and each
reduced row pivots on its least column. The pivot set does not depend on
the order in which rows are read, so the pivot columns are the RREF pivot
columns: the kernel basis (1 at one free column, 0 at the others) is
sympy's ``nullspace()`` vector for vector, and the solution with every
free variable at zero is sympy's ``gauss_jordan_solve`` with every
parameter set to zero. Relabelling the row keys changes the order in which
rows are read and must change no result.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from weilcalc._linsolve import _eliminate, nullspace_sparse, solve_sparse

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_oracle = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# ints and Fractions, zero included: explicit zero entries must be ignored
_VALUES = st.one_of(st.integers(-2, 2),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3))


# all-int systems: pivots of +-2 and +-3 leave remainders, so ints and
# Fractions meet in the elimination
_INTS = st.integers(-3, 3)


@st.composite
def systems(draw, values=_VALUES):
    """Sparse columns and a sparse rhs over 0-7 rows and 0-7 columns."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    entry = st.dictionaries(st.integers(0, nrows - 1), values) if nrows else st.just({})
    columns = [draw(entry) for _ in range(ncols)]
    return nrows, columns, draw(entry)


def _matrix(nrows, columns):
    return sympy.Matrix(nrows, len(columns),
                        lambda r, c: sympy.Rational(columns[c].get(r, 0)))


def _dense(vec, n):
    assert all(type(v) is Fraction and v for v in vec.values())
    assert all(0 <= c < n for c in vec)
    return [vec.get(c, 0) for c in range(n)]


def _to_fractions(m):
    return [Fraction(int(v.p), int(v.q)) for v in m]


@_oracle
@given(systems())
def test_nullspace_matches_sympy(system):
    nrows, columns, _ = system
    n = len(columns)
    ours = [_dense(v, n) for v in nullspace_sparse(columns)]
    assert ours == [_to_fractions(v) for v in _matrix(nrows, columns).nullspace()]


@_oracle
@given(systems())
def test_solution_matches_sympy(system):
    nrows, columns, rhs = system
    ours = solve_sparse(columns, rhs)
    b = sympy.Matrix(nrows, 1, lambda r, _: sympy.Rational(rhs.get(r, 0)))
    try:
        sol, params = _matrix(nrows, columns).gauss_jordan_solve(b)
    except ValueError:
        assert ours is None
        return
    assert ours is not None
    sol = sol.subs({t: 0 for t in params})
    assert _dense(ours, len(columns)) == _to_fractions(sol)


def _relabelled(columns, labels):
    return [{labels[r]: v for r, v in col.items()} for col in columns]


@_oracle
@given(st.data())
def test_row_order_changes_no_result(data):
    nrows, columns, rhs = data.draw(systems())
    labels = data.draw(st.permutations(range(nrows)))
    moved, moved_rhs = _relabelled(columns, labels), _relabelled([rhs], labels)[0]
    assert solve_sparse(moved, moved_rhs) == solve_sparse(columns, rhs)
    assert nullspace_sparse(moved) == nullspace_sparse(columns)
    pivots = set(_eliminate(columns, {})[1])
    assert set(_eliminate(moved, {})[1]) == pivots
    assert pivots == set(_matrix(nrows, columns).rref()[1])


def test_row_only_the_rhs_touches_ends_elimination_at_once():
    assert _eliminate([{"a": 1, "b": 2}, {"b": 1}], {"a": 1, "c": 3}) == ([], {}, False)
    # a zero there is consistent
    assert _eliminate([{"a": 2}], {"a": 2, "c": 0}) == ([0], {0: ({}, 1)}, True)


def test_empty_and_zero_systems():
    assert solve_sparse([], {}) == {}
    assert solve_sparse([], {"r": 1}) is None
    assert nullspace_sparse([]) == []
    assert nullspace_sparse([{}, {"r": 0}]) == [{0: 1}, {1: 1}]
    assert solve_sparse([{"r": 2}, {"r": 0}], {"r": 1}) == {0: Fraction(1, 2)}


@_oracle
@given(systems(_INTS))
def test_integer_systems_match_sympy(system):
    # the two oracles above, on all-int systems
    test_nullspace_matches_sympy.hypothesis.inner_test(system)
    test_solution_matches_sympy.hypothesis.inner_test(system)


def _exact(v):
    return type(v) is int or type(v) is Fraction


@_oracle
@given(st.one_of(systems(_INTS), systems()))
def test_elimination_values_are_ints_or_fractions(system):
    _, columns, rhs = system
    for b in (rhs, {}):
        _, pivots, _ = _eliminate(columns, b)
        for row, pb in pivots.values():
            assert _exact(pb) and all(_exact(v) for v in row.values())


def test_exact_division_stays_int():
    # the pivot 2 divides 4 and 6 but leaves a remainder on 3
    _, pivots, ok = _eliminate([{"r": 2}, {"r": 4}, {"r": 3}], {"r": 6})
    row, b = pivots[0]
    assert ok and b == 3 and type(b) is int
    assert type(row[1]) is int and row[2] == Fraction(3, 2)
    assert solve_sparse([{"r": 2}], {"r": 6}) == {0: Fraction(3)}


@pytest.mark.parametrize("bad", [True, 0.5, 1.0])
def test_inexact_values_are_rejected(bad):
    with pytest.raises(TypeError):
        solve_sparse([{"r": bad}], {"r": 1})
    with pytest.raises(TypeError):
        solve_sparse([{"r": 1}], {"r": bad})
    with pytest.raises(TypeError):
        nullspace_sparse([{"r": bad}])


def _imported_names(tree):
    """Every module and name that an import statement of tree mentions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)
            if isinstance(node, ast.ImportFrom) and node.module:
                yield node.module


def test_only_weil_imports_linsolve():
    # the exact solver sits behind weil.solve_coboundary and weil.bounded_kernel
    src = Path(__file__).resolve().parents[1] / "src" / "weilcalc"
    importers = {path.name for path in sorted(src.glob("*.py"))
                 if any(name.split(".")[-1] == "_linsolve" for name in
                        _imported_names(ast.parse(path.read_text(encoding="utf-8"))))}
    assert importers == {"weil.py"}
