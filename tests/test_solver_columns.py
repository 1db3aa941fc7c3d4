"""The solver's columns against delta of each unknown cell.

``weil._delta_columns`` builds the column of a cell x^alpha e from one
delta of the frame cell e and the anchor symbols S_a(e), by the Leibniz
rule, with every row keyed by one int: the index of its frame head among
the frame heads of W^{p+1,q} (``_row_index``), above the packed key of
its monomial. The frame deltas and symbols are memoized on the
presentation per bidegree and representation, so the tests run builds
cold and warm and compare warm results with fresh builds. The tests
decode row keys through the rows dict and ``polyring._unpack``. The
references here are the flattened delta of every single-term cell, one
delta per cell, and the tuple-keyed build the int keys replaced
(``_flatten_ref``, ``_symbols_ref``, ``_shift_into_ref``,
``_columns_ref``), on the fixtures and on an algebroid with a polynomial
anchor, with and without the horizontal ideal, and on random
presentations through ``_linsolve``. delta reads its frame tables and the
representation's psi_i from per-object memos, which must give what a
fresh build gives.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from weilcalc import (AlgebroidPresentation, ARep, IdealBundle, Poly,
                      StructureError, WeilCochain, build_fixture, weil)
from weilcalc._linsolve import _eliminate, nullspace_sparse, solve_sparse
from weilcalc.fixtures import random_cochain, random_poly
from weilcalc.polyring import MAX_DEGREE, _unpack, key_layout
from weilcalc.weil import (_cell_cochain, _delta_columns, _flatten, _row_index, _symbols,
                           _unknown_cells, bounded_kernel, delta, solve_coboundary)

from test_algebroid import end_form
from test_weil import affine_algebroid, affine_rep

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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


# -- the tuple-keyed reference build -------------------------------------------


def _flatten_ref(c):
    """The coefficients of c keyed (k, I, J, b, idx, exps)."""
    flat = {}
    for (k, I, J), vf in c.comps.items():
        for (b, idx), poly in vf.comps.items():
            for exps, (num, den) in poly.items():
                flat[(k, I, J, b, idx, exps)] = num if den == 1 else Fraction(num, den)
    return flat


def _symbols_ref(A, head):
    """The symbols S_a(e) of the frame cell e = head, keyed as by ``_flatten_ref``:
    (-1)^(k+pos) rho^a_i at (k, I', J, b, idx), I' = I with i inserted at pos."""
    k, I, J, b, idx = head
    out = [{} for _ in range(A.nvars)]
    for i in range(1, A.rank + 1):
        if i in I:
            continue
        pos = sum(1 for t in I if t < i)
        head_i = (k, I[:pos] + (i,) + I[pos:], J, b, idx)
        sign = -1 if (k + pos) % 2 else 1
        for a, sym in enumerate(out, start=1):
            rho = A.anchor.get((i, a))
            if rho is not None:
                for exps, (num, den) in rho.items():
                    sym[head_i + (exps,)] = sign * num if den == 1 else Fraction(sign * num, den)
    return out


def _shift_into_ref(col, flat, beta, scale):
    """Add scale * x^beta * flat to the flat column ``col``."""
    top = max((sum(key[5]) for key in flat), default=0)
    if top + sum(beta) > MAX_DEGREE:
        raise StructureError(f"product degree exceeds the limit {MAX_DEGREE}")
    for key, v in flat.items():
        key = key[:5] + (tuple(map(operator.add, key[5], beta)),)
        cur = col.get(key)
        col[key] = v * scale if cur is None else cur + v * scale


def _columns_ref(A, rep, rank, p, q, degree_bound, horizontal_ideal):
    """The unknown cells of W^{p,q} and the tuple-keyed delta of each, by
    the Leibniz rule from one delta per frame cell."""
    cells = _unknown_cells(A, rank, p, q, degree_bound, horizontal_ideal)
    columns = []
    origin = (0,) * A.nvars
    for head, group in itertools.groupby(cells, key=operator.itemgetter(slice(5))):
        frame = _flatten_ref(delta(A, rep, _cell_cochain(A, rank, p, q, head + (origin,))))
        symbols = [(a, sym) for a, sym in enumerate(_symbols_ref(A, head)) if sym]
        for cell in group:
            alpha = cell[5]
            col = {}
            _shift_into_ref(col, frame, alpha, 1)
            for a, sym in symbols:
                if alpha[a]:
                    _shift_into_ref(col, sym, alpha[:a] + (alpha[a] - 1,) + alpha[a + 1:],
                                    alpha[a])
            columns.append({key: v for key, v in col.items() if v})
    return cells, columns


def _assemble_ref(A, rank, p, q, cells, x):
    """The sum of x_i times the single-term cochain of cells[i]."""
    out = WeilCochain(A, rank, p, q)
    for i, v in x.items():
        out = out + _cell_cochain(A, rank, p, q, cells[i]).scaled(v)
    return out


def _decode(flat, rows, nvars):
    """An int-keyed flat cochain keyed (k, I, J, b, idx, exps) again: the
    frame head from ``rows``, the exponents from the packed monomial key."""
    heads = {i: head for head, i in rows.items()}
    width = key_layout(nvars)[1]
    out = {}
    for key, v in flat.items():
        h = key >> width
        out[heads[h] + (_unpack(nvars, key - (h << width)),)] = v
    assert len(out) == len(flat)
    return out


def _per_cell(A, rep, p, q, cells):
    return {cell: _flatten_ref(delta(A, rep, _cell_cochain(A, rep.rank, p, q, cell)))
            for cell in cells}


def _shifted(flat, a):
    """x_a times a tuple-keyed flattened cochain."""
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
        cells, columns, rows = _delta_columns(A, rep, p, q, bound, horizontal)
        assert cells == _unknown_cells(A, rep.rank, p, q, bound, horizontal)
        decoded = [_decode(col, rows, A.nvars) for col in columns]
        assert decoded == [want[cell] for cell in cells]
        assert decoded == _columns_ref(A, rep, rep.rank, p, q, bound, horizontal)[1]
    # the symbols, read off the anchor: S_a(e) = delta(x_a e) - x_a delta(e)
    origin = (0,) * A.nvars
    rows = _row_index(A, rep.rank, p + 1, q)
    for head in {cell[:5] for cell in want}:
        de = want[head + (origin,)]
        symbols = [_decode(sym, rows, A.nvars) for sym in _symbols(A, head, rows)]
        assert symbols == _symbols_ref(A, head), head
        for a, symbol in enumerate(symbols):
            unit = origin[:a] + (1,) + origin[a + 1:]
            diff = dict(want[head + (unit,)])
            for key, v in _shifted(de, a).items():
                diff[key] = diff.get(key, 0) - v
            assert symbol == {key: v for key, v in diff.items() if v}, (head, a)


def test_affine_case_has_a_nonconstant_symbol():
    # the polynomial anchor rho(e_2) = x d/dx gives S_1 a term of degree 1
    _, A, _, _ = _affine()
    rows = _row_index(A, 1, 1, 1)
    symbols = [_decode(sym, rows, 1) for sym in _symbols(A, (0, (), (), 1, (1,)), rows)]
    assert any(sum(key[5]) for sym in symbols for key in sym)


def _count_delta(monkeypatch):
    """The calls delta gets from inside ``weil``, which looks it up in the
    module; the tests' own ``delta`` is the unwrapped function."""
    calls = []

    def counted(*args):
        calls.append(args)
        return delta(*args)

    monkeypatch.setattr(weil, "delta", counted)
    return calls


def test_column_past_max_degree_raises_like_delta(monkeypatch):
    # a rank-1 algebroid on Q^1 with anchor x^MAX_DEGREE: rho(x^alpha) =
    # alpha x^(alpha - 1 + MAX_DEGREE) passes the limit at alpha = 2
    A = AlgebroidPresentation(1, 1, {}, {(1, 1): Poly.monomial(1, (MAX_DEGREE,))})
    rep = ARep(1, 1, 1)
    with pytest.raises(StructureError):
        delta(A, rep, _cell_cochain(A, 1, 0, 0, (0, (), (), 1, (), (2,))))
    with pytest.raises(StructureError):
        _columns_ref(A, rep, 1, 0, 0, 2, None)
    # cold, then warm: the second round reads the frame cell's symbol and
    # its top key from the memo, without a delta, and the cached top still
    # gates the shift
    calls = _count_delta(monkeypatch)
    for deltas in (1, 0):
        del calls[:]
        with pytest.raises(StructureError):
            _delta_columns(A, rep, 0, 0, 2, None)
        cells, columns, rows = _delta_columns(A, rep, 0, 0, 1, None)
        assert len(calls) == deltas
        assert [_decode(col, rows, 1) for col in columns] == \
            list(_per_cell(A, rep, 0, 0, cells).values())


def test_frame_shift_at_max_degree(monkeypatch):
    # psi_1 = x^(MAX_DEGREE - 1) on both fibre directions: delta(x^alpha e_b)
    # has degree MAX_DEGREE - 1 + |alpha|, at the limit for alpha = 1 and
    # one past it for alpha = 2. Its rows, on two frame heads, sit at the top
    # of the monomial field, where a carry would reach the head index.
    x = Poly.monomial(1, (MAX_DEGREE - 1,))
    A = AlgebroidPresentation(1, 1)
    rep = ARep(1, 1, 2, {(1, 1, 1): x, (1, 2, 2): x})
    with pytest.raises(StructureError):
        delta(A, rep, _cell_cochain(A, 2, 0, 0, (0, (), (), 1, (), (2,))))
    with pytest.raises(StructureError):
        _columns_ref(A, rep, 2, 0, 0, 2, None)
    width = key_layout(1)[1]
    # cold, then warm: the second round shifts the memoized frames, whose
    # cached top keys still gate every shift
    calls = _count_delta(monkeypatch)
    for deltas in (2, 0):
        del calls[:]
        with pytest.raises(StructureError):
            _delta_columns(A, rep, 0, 0, 2, None)
        cells, columns, rows = _delta_columns(A, rep, 0, 0, 1, None)
        assert len(calls) == deltas
        decoded = [_decode(col, rows, 1) for col in columns]
        assert decoded == list(_per_cell(A, rep, 0, 0, cells).values())
        assert decoded == _columns_ref(A, rep, 2, 0, 0, 1, None)[1]
        assert max(sum(key[5]) for col in decoded for key in col) == MAX_DEGREE
        # distinct heads never share a row key, and each key's head index is
        # the index of the head it decodes to
        keys = [key for col in columns for key in col]
        heads = {key >> width for key in keys}
        assert len(set(keys)) == len(keys) == 4 and len(heads) == 2
        assert all(rows[head[:5]] == key >> width
                   for col, dec in zip(columns, decoded) for key, head in zip(col, dec))


@pytest.mark.parametrize("p,q", ((0, 1), (1, 1)))
def test_solutions_equal_the_reference_system(case, p, q):
    # bounded_kernel and solve_coboundary against the tuple-keyed columns
    # and target fed through _linsolve: the same cochains, the target's
    # int-keyed rows decoding to the reference's
    name, A, rep, ideal = case
    bound = 1 if name == "F3_foliation_4d" else 2
    for horizontal in (None, ideal):
        cells, columns = _columns_ref(A, rep, rep.rank, p, q, bound, horizontal)
        want = [_assemble_ref(A, rep.rank, p, q, cells, x) for x in nullspace_sparse(columns)]
        assert bounded_kernel(A, rep, p, q, bound, horizontal) == want
        b = random_cochain(A, rep, p, q, bound, seed=3)
        if horizontal is not None:
            b = WeilCochain(A, rep.rank, p, q, {cell: v for cell, v in b.comps.items()
                                                if not (cell[0] and set(cell[2]) & set(ideal.indices))})
        target = delta(A, rep, b)
        rows = _row_index(A, rep.rank, p + 1, q)
        assert _decode(_flatten(target, rows), rows, A.nvars) == _flatten_ref(target)
        x = solve_sparse(columns, _flatten_ref(target))
        assert x is not None
        assert solve_coboundary(A, rep, target, bound, horizontal) == \
            _assemble_ref(A, rep.rank, p, q, cells, x)


@st.composite
def presentations(draw):
    """A random presentation on Q^1 or Q^2: structure, anchor and psi are
    random polynomials of degree <= 1; no axioms."""
    n, r, m = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = random.Random(f"solver-columns:{draw(st.integers(0, 2 ** 16))}")
    structure = {(i, j, k): random_poly(rng, n, 1)
                 for i, j in itertools.combinations(range(1, r + 1), 2)
                 for k in range(1, r + 1) if rng.random() < 0.5}
    anchor = {(i, a): random_poly(rng, n, 1)
              for i in range(1, r + 1) for a in range(1, n + 1) if rng.random() < 0.6}
    psi = {key: random_poly(rng, n, 1)
           for key in itertools.product(range(1, r + 1), range(1, m + 1), range(1, m + 1))
           if rng.random() < 0.4}
    return AlgebroidPresentation(n, r, structure, anchor), ARep(n, r, m, psi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(presentations(), st.sampled_from(((0, 0), (0, 1), (1, 0), (1, 1), (2, 1))),
       st.integers(0, 2), st.integers(0, 3))
def test_random_presentation_solutions_equal_the_reference(presentation, pq, bound, seed):
    # the presentations break the axioms, so delta(b) need not be a cocycle:
    # solve_coboundary's own cocycle check is skipped by calling _solve,
    # which is its body
    A, rep = presentation
    p, q = pq
    cells, columns = _columns_ref(A, rep, rep.rank, p, q, bound, None)
    got_cells, got_columns, rows = _delta_columns(A, rep, p, q, bound, None)
    assert got_cells == cells
    assert [_decode(col, rows, A.nvars) for col in got_columns] == columns
    want = [_assemble_ref(A, rep.rank, p, q, cells, x) for x in nullspace_sparse(columns)]
    assert bounded_kernel(A, rep, p, q, bound) == want
    target = delta(A, rep, random_cochain(A, rep, p, q, bound, seed))
    x = solve_sparse(columns, _flatten_ref(target))
    assert x is not None
    solve = solve_coboundary if delta(A, rep, target).is_zero else weil._solve
    assert solve(A, rep, target, bound) == _assemble_ref(A, rep.rank, p, q, cells, x)


def test_one_delta_per_frame_cell(case, monkeypatch):
    # delta is looked up in the module, so a wrapper there sees every call:
    # one per frame cell on a fresh presentation, none for a frame cell the
    # memo holds, whatever the bound
    _, A, rep, ideal = _build(case[0])
    calls = _count_delta(monkeypatch)
    cells, _, _ = weil._delta_columns(A, rep, 1, 1, 2, ideal)
    assert len(calls) == len({cell[:5] for cell in cells})
    del calls[:]
    weil._delta_columns(A, rep, 1, 1, 3, ideal)
    assert calls == []
    everything, _, _ = weil._delta_columns(A, rep, 1, 1, 1, None)
    assert len(calls) == len({cell[:5] for cell in everything} - {cell[:5] for cell in cells})


@pytest.mark.parametrize("name", ("F0_so3", "F1_abelian_2d", "F2_semisimple_2d",
                                  "F3_foliation_4d"))
def test_fixture_columns_are_plain_ints(name):
    # the fixtures' structure data are integral, so their columns and
    # symbols must stay in int arithmetic: a Fraction here costs the solver
    # about a fifth of its time without changing any output
    fix = build_fixture(name)
    A, rep = fix.A, fix.rep
    for p, q in ((0, 1), (1, 1), (2, 1)):
        cells, columns, rows = _delta_columns(A, rep, p, q, 2, None)
        assert all(type(v) is int for col in columns for v in col.values()), (p, q)
        for head in {cell[:5] for cell in cells}:
            assert all(type(v) is int for sym in _symbols(A, head, rows) for v in sym.values())


@pytest.mark.parametrize("name", ("F1_abelian_2d", "F2_semisimple_2d", "F3_foliation_4d"))
def test_fixture_kernel_pivot_rows_are_plain_ints(name):
    # rows read by descending least column keep the pivot rows of the
    # W^{1,1} systems integral; read in sorted key order, 943 of their 2667
    # entries were Fractions. (Other bidegrees keep a few Fractions.)
    fix = build_fixture(name)
    A, rep = fix.A, fix.ideal.adjoint_rep()
    for bound in range(1, 5):
        for horizontal in (None, fix.ideal):
            _, columns, _ = _delta_columns(A, rep, 1, 1, bound, horizontal)
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
        want = end_form(rep.nvars, rep.rank, 0,
                        {(b, c, ()): p for (j, b, c), p in rep.psi.items() if j == i})
        first = fresh.endo(i)
        assert first == want and fresh.endo(i) is first and rep.endo(i) == want


# -- the frame memo --------------------------------------------------------------


def _layout(c):
    """A cochain as nested lists in insertion order: equal layouts mean
    equal cochains built in the same order, so equal bytes on output."""
    return [(cell, [(entry, list(poly.terms.items())) for entry, poly in vf.comps.items()])
            for cell, vf in c.comps.items()]


def test_warm_solves_equal_cold_ones(case):
    # solves and kernels in mixed bound order, with and without the ideal,
    # on the module's presentation (its memo warm from the tests above and
    # from each call here), each against the same call on a fresh build
    name, A, rep, ideal = case
    top = 1 if name == "F3_foliation_4d" else 2
    b = random_cochain(A, rep, 1, 1, 1, seed=5)
    b = WeilCochain(A, rep.rank, 1, 1, {cell: v for cell, v in b.comps.items()
                                        if not (cell[0] and set(cell[2]) & set(ideal.indices))})
    target = delta(A, rep, b)
    for bound, horizontal in ((top, ideal), (0, None), (top, None), (1, ideal), (0, ideal),
                              (1, None)):
        _, fresh_A, fresh_rep, fresh_ideal = _build(name)
        fresh_horizontal = fresh_ideal if horizontal is not None else None
        for p, q in ((0, 1), (1, 1)):
            got = bounded_kernel(A, rep, p, q, bound, horizontal)
            want = bounded_kernel(fresh_A, fresh_rep, p, q, bound, fresh_horizontal)
            assert [_layout(v) for v in got] == [_layout(v) for v in want], (p, q, bound)
        fresh_target = WeilCochain(fresh_A, rep.rank, 2, 1, target.comps)
        got = solve_coboundary(A, rep, target, bound, horizontal)
        want = solve_coboundary(fresh_A, fresh_rep, fresh_target, bound, fresh_horizontal)
        assert (got is None) == (want is None) and (got is None or _layout(got) == _layout(want))
        assert got is not None or bound == 0


def test_equal_algebroids_and_distinct_reps_never_share_frames(monkeypatch):
    # the memo lives on the presentation and holds one representation by
    # identity: an equal but distinct presentation, another representation
    # and an equal but distinct representation each build their frames anew
    fix, again = build_fixture("F2_semisimple_2d"), build_fixture("F2_semisimple_2d")
    A, rep = fix.A, fix.rep
    assert again.A == A and again.A is not A
    heads = len({cell[:5] for cell in _unknown_cells(A, rep.rank, 1, 1, 0)})
    calls = _count_delta(monkeypatch)
    twin = ARep(rep.nvars, rep.secrank, rep.rank, rep.psi)
    for B, R, deltas in ((A, rep, heads), (A, rep, 0), (again.A, rep, heads),
                         (A, twin, heads), (A, ARep(A.nvars, A.rank, 1), None), (A, rep, heads)):
        del calls[:]
        cells, columns, rows = _delta_columns(B, R, 1, 1, 1, None)
        assert deltas is None or len(calls) == deltas
        assert [_decode(col, rows, B.nvars) for col in columns] == \
            _columns_ref(B, R, R.rank, 1, 1, 1, None)[1]


@pytest.mark.parametrize("name", ("F2_semisimple_2d", "affine"))
def test_alternating_reps_give_their_own_columns(name):
    # two representations of one rank take turns at one (p, q): each build
    # equals the reference for the representation it was given
    _, A, rep, _ = _build(name)
    other = ARep(rep.nvars, rep.secrank, rep.rank)
    for R in (rep, other, rep, other, other, rep):
        for bound in (1, 0):
            cells, columns, rows = _delta_columns(A, R, 1, 1, bound, None)
            assert [_decode(col, rows, A.nvars) for col in columns] == \
                _columns_ref(A, R, R.rank, 1, 1, bound, None)[1]
    assert _columns_ref(A, rep, rep.rank, 1, 1, 1, None) != \
        _columns_ref(A, other, rep.rank, 1, 1, 1, None)


def test_warm_solve_calls_delta_only_for_its_checks(monkeypatch):
    # a warm solve_coboundary runs delta twice: the target's cocycle check
    # and the solution check; a cold one also runs it once per frame cell
    fix = build_fixture("F2_semisimple_2d")
    A, rep = fix.A, fix.rep
    target = delta(A, rep, random_cochain(A, rep, 1, 1, 1, seed=2))
    heads = len({cell[:5] for cell in _unknown_cells(A, rep.rank, 1, 1, 0)})
    calls = _count_delta(monkeypatch)
    for bound, deltas in ((1, heads + 2), (1, 2), (2, 2), (0, 1)):
        del calls[:]
        solution = solve_coboundary(A, rep, target, bound)
        assert (solution is None) == (bound == 0)
        assert len(calls) == deltas, bound
    # the targets left the memo's rows as enumerated: every frame head of W^{2,1}
    assert _delta_columns(A, rep, 1, 1, 0, None)[2] == _row_index(A, rep.rank, 2, 1)
