"""Forms layer against an independent oracle: exterior derivative, interior
product, wedge, the Lie derivative and the algebroid Lie derivative of
random bundle-valued forms, the End-form layer (End-form wedge, Lie
derivative, d-nabla, the curvature and the invariance pair (T, theta) of
random connections), the symmetric-slot layer (slot insertion, the pairing
with ideal-valued forms, the bracket of ideal-valued forms) and the
fibre-bracket derivation test of the coupling data are checked against
their component formulas evaluated in sympy."""

import functools
import itertools
from fractions import Fraction

import pytest

from weilcalc import (AlgebroidPresentation, EndForm, IdealBundle, LinearConnection, Poly,
                      Section, SymForm, VField, VForm, bracket_of_forms, build_fixture,
                      invariance_form, lieA_vform, scalar_wedge, wedgedot)
from weilcalc.ideals import _bracket_failure

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_polyring_oracle import polys  # noqa: E402

# sympy's own sparse polynomial ring over QQ is the oracle's arithmetic
_R, *_GENS = sympy.ring("x1:4", sympy.QQ)

_oracle = settings(max_examples=15, deadline=None, derandomize=True, database=None)


@st.composite
def vforms(draw, n, rank, degree):
    """A random rank-``rank`` degree-``degree`` form on an n-variable chart."""
    comps = {}
    for b in range(1, rank + 1):
        for idx in itertools.combinations(range(1, n + 1), degree):
            comps[(b, idx)] = draw(polys(n))
    return VForm(n, rank, degree, comps)


@st.composite
def chart_forms(draw):
    """(n, form) with n <= 3 variables, bundle rank <= 2 and any degree."""
    n = draw(st.integers(1, 3))
    return n, draw(vforms(n, draw(st.integers(1, 2)), draw(st.integers(0, n))))


# -- the oracle: forms as {(b, increasing index tuple): sympy polynomial} ------


def to_ring(p):
    pad = (0,) * (3 - p.nvars)
    return _R.from_dict({e + pad: sympy.QQ(num, den) for e, (num, den) in p.items()})


def sym_form(vf):
    return {key: to_ring(p) for key, p in vf.comps.items()}


def perm_sign(idx):
    """Sign of the permutation sorting idx by counting inversions; 0 on repeats."""
    if len(set(idx)) != len(idx):
        return 0
    inversions = sum(1 for s, t in itertools.combinations(range(len(idx)), 2)
                     if idx[s] > idx[t])
    return -1 if inversions % 2 else 1


def comp(form, b, idx):
    """Component at an index tuple in any order, with its antisymmetry sign."""
    sign = perm_sign(idx)
    return sign * form.get((b, tuple(sorted(idx))), _R.zero) if sign else _R.zero


def sym_d(form, n, rank, degree):
    """(d w)_J = sum_t (-1)^t d_{J_t} w_{J minus J_t}."""
    return {(b, J): sum(((-1) ** t * comp(form, b, J[:t] + J[t + 1:]).diff(_GENS[J[t] - 1])
                         for t in range(degree + 1)), _R.zero)
            for b in range(1, rank + 1)
            for J in itertools.combinations(range(1, n + 1), degree + 1)}


def sym_iota(X, form, n, rank, degree):
    """(iota_X w)_J = sum_a X^a w_{(a) + J}."""
    if degree == 0:
        return {}
    return {(b, J): sum((X[a - 1] * comp(form, b, (a,) + J) for a in range(1, n + 1)),
                        _R.zero)
            for b in range(1, rank + 1)
            for J in itertools.combinations(range(1, n + 1), degree - 1)}


def sym_wedge(theta, s, form, n, rank, degree):
    """(theta ^ w)_K = sum over splittings K = S + T of sgn(S, T) theta_S w_T."""
    out = {}
    for b in range(1, rank + 1):
        for K in itertools.combinations(range(1, n + 1), s + degree):
            acc = _R.zero
            for S in itertools.combinations(K, s):
                T = tuple(a for a in K if a not in S)
                acc += perm_sign(S + T) * comp(theta, 1, S) * comp(form, b, T)
            out[(b, K)] = acc
    return out


def sym_lie(X, form, n, rank, degree):
    """Cartan's formula L_X w = iota_X d w + d iota_X w."""
    return sym_add(sym_iota(X, sym_d(form, n, rank, degree), n, rank, degree + 1),
                   sym_d(sym_iota(X, form, n, rank, degree), n, rank, degree - 1)
                   if degree else {})


def sym_scalar(form, a):
    """Component a of a bundle-valued form as a scalar form."""
    return {(1, idx): e for (b, idx), e in form.items() if b == a}


def sym_add(*forms):
    out = {}
    for form in forms:
        for key, e in form.items():
            out[key] = out.get(key, _R.zero) + e
    return out


def matches(oracle, vf):
    got = sym_form(vf)
    return all(oracle.get(key, _R.zero) == got.get(key, _R.zero)
               for key in set(oracle) | set(got))


# -- VForm.d, VForm.iota, scalar_wedge ------------------------------------------


@_oracle
@given(chart_forms())
def test_d_matches_component_formula(case):
    n, w = case
    assert matches(sym_d(sym_form(w), n, w.rank, w.degree), w.d())
    assert w.d().d().is_zero


@_oracle
@given(st.data())
def test_iota_matches_component_formula(data):
    n, w = data.draw(chart_forms())
    X = [data.draw(polys(n)) for _ in range(n)]
    want = sym_iota([to_ring(x) for x in X], sym_form(w), n, w.rank, w.degree)
    assert matches(want, w.iota(VField(n, X)))


@_oracle
@given(st.data())
def test_scalar_wedge_matches_component_formula(data):
    n, w = data.draw(chart_forms())
    s = data.draw(st.integers(0, n))
    theta = data.draw(vforms(n, 1, s))
    want = sym_wedge(sym_form(theta), s, sym_form(w), n, w.rank, w.degree)
    assert matches(want, scalar_wedge(theta, w))


@_oracle
@given(st.data())
def test_lie_matches_cartan_formula_at_every_degree(data):
    n, rank = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    X = [data.draw(polys(n)) for _ in range(n)]
    sX = [to_ring(x) for x in X]
    for degree in range(n + 1):
        w = data.draw(vforms(n, rank, degree))
        assert matches(sym_lie(sX, sym_form(w), n, rank, degree), w.lie(VField(n, X)))


# -- lieA_vform: Cartan formula plus the representation ---------------------------

_fixture = functools.lru_cache(maxsize=None)(build_fixture)


@_oracle
@given(st.sampled_from(["F1_abelian_2d", "F2_semisimple_2d"]), st.data())
def test_lieA_vform_is_cartan_plus_representation(name, data):
    fix = _fixture(name)
    A, rep, n, m = fix.A, fix.rep, fix.A.nvars, fix.rep.rank
    forms = [data.draw(vforms(n, m, degree)) for degree in range(n + 1)]
    # a random section and every frame section e_i
    sections = [Section(n, [data.draw(polys(n)) for _ in range(A.rank)])] \
        + [A.basis(i) for i in range(1, A.rank + 1)]
    for alpha in sections:
        a = [to_ring(alpha.get(i, ())) for i in range(1, A.rank + 1)]
        X = [sum((a[i - 1] * to_ring(A.anchor[(i, x)])
                  for i in range(1, A.rank + 1) if (i, x) in A.anchor), _R.zero)
             for x in range(1, n + 1)]
        for degree, w in enumerate(forms):
            sw = sym_form(w)
            psi_w = {(b, idx): sum((a[i - 1] * to_ring(p) * comp(sw, c, idx)
                                    for (i, bb, c), p in rep.psi.items() if bb == b),
                                   _R.zero)
                     for b in range(1, m + 1)
                     for idx in itertools.combinations(range(1, n + 1), degree)}
            want = sym_add(sym_lie(X, sw, n, m, degree), psi_w)
            assert matches(want, lieA_vform(A, rep, alpha, w))


# -- End-form layer: the index formulas of a connection Gamma^b_{a c} --------------

_CHARTS = ["F1_abelian_2d", "F2_semisimple_2d"]


@st.composite
def endforms(draw, n, rank, degree):
    comps = {(b, c, idx): draw(polys(n))
             for b in range(1, rank + 1) for c in range(1, rank + 1)
             for idx in itertools.combinations(range(1, n + 1), degree)}
    return EndForm(n, rank, degree, comps)


@st.composite
def connections(draw, n, rank):
    """A random connection, returned with its Christoffel table in sympy."""
    table = {(a, b, c): draw(polys(n)) for a in range(1, n + 1)
             for b in range(1, rank + 1) for c in range(1, rank + 1)}
    return LinearConnection(n, rank, table), {k: to_ring(p) for k, p in table.items()}


def sym_end(E):
    return {(b, c, idx): to_ring(p) for (b, c, idx), p in E.comps.items()}


def end_matches(oracle, E):
    got = sym_end(E)
    return all(oracle.get(key, _R.zero) == got.get(key, _R.zero)
               for key in set(oracle) | set(got))


def end_comp(E, b, c, idx):
    sign = perm_sign(idx)
    return sign * E.get((b, c, tuple(sorted(idx))), _R.zero) if sign else _R.zero


def vf_apply(X, f, n):
    return sum((X[a - 1] * f.diff(_GENS[a - 1]) for a in range(1, n + 1)), _R.zero)


@_oracle
@given(st.sampled_from(_CHARTS), st.sampled_from([0, 1]), st.data())
def test_endform_compose_matches_component_formula(name, s, data):
    n, m = 2, _fixture(name).rep.rank
    S, T = data.draw(endforms(n, m, s)), data.draw(endforms(n, m, 1))
    sS, sT = sym_end(S), sym_end(T)
    want = {}
    for b, c in itertools.product(range(1, m + 1), repeat=2):
        for K in itertools.combinations(range(1, n + 1), s + 1):
            acc = _R.zero
            for I in itertools.combinations(K, s):
                J = tuple(a for a in K if a not in I)
                acc += perm_sign(I + J) * sum(
                    (end_comp(sS, b, e, I) * end_comp(sT, e, c, J)
                     for e in range(1, m + 1)), _R.zero)
            want[(b, c, K)] = acc
    assert end_matches(want, S.compose(T))


@_oracle
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_endform_lie_matches_cartan_formula_at_every_degree(n, m, data):
    X = [data.draw(polys(n)) for _ in range(n)]
    sX = [to_ring(x) for x in X]
    for degree in range(n + 1):
        E = data.draw(endforms(n, m, degree))
        want = sym_lie(sX, sym_form(E.to_flat()), n, m * m, degree)
        assert matches(want, E.lie(VField(n, X)).to_flat())


@_oracle
@given(st.sampled_from(_CHARTS), st.data())
def test_curvature_matches_christoffel_formula(name, data):
    n, m = 2, _fixture(name).rep.rank
    conn, G = data.draw(connections(n, m))
    g = lambda a, b, c: G.get((a, b, c), _R.zero)  # noqa: E731
    want = {}
    for a1, a2 in itertools.combinations(range(1, n + 1), 2):
        for b, c in itertools.product(range(1, m + 1), repeat=2):
            want[(b, c, (a1, a2))] = \
                g(a2, b, c).diff(_GENS[a1 - 1]) - g(a1, b, c).diff(_GENS[a2 - 1]) \
                + sum((g(a1, b, e) * g(a2, e, c) - g(a2, b, e) * g(a1, e, c)
                       for e in range(1, m + 1)), _R.zero)
    assert end_matches(want, conn.curvature_R())


@_oracle
@given(st.sampled_from(_CHARTS), st.data())
def test_dnabla_matches_christoffel_formula(name, data):
    n, m = 2, _fixture(name).rep.rank
    conn, G = data.draw(connections(n, m))
    for degree in range(n + 1):
        w = data.draw(vforms(n, m, degree))
        sw = sym_form(w)
        # (d-nabla w)^b_J = (d w)^b_J + sum_t (-1)^t Gamma^b_{J_t c} w^c_{J minus J_t}
        gw = {(b, J): sum(((-1) ** t * G.get((J[t], b, c), _R.zero)
                           * comp(sw, c, J[:t] + J[t + 1:])
                           for t in range(degree + 1) for c in range(1, m + 1)), _R.zero)
              for b in range(1, m + 1)
              for J in itertools.combinations(range(1, n + 1), degree + 1)}
        assert matches(sym_add(sym_d(sw, n, m, degree), gw), conn.dnabla(w))


@_oracle
@given(st.sampled_from(_CHARTS), st.data())
def test_invariance_form_matches_christoffel_formula(name, data):
    A, rep = _fixture(name).A, _fixture(name).rep
    n, m = A.nvars, rep.rank
    conn, G = data.draw(connections(n, m))
    g = lambda a, b, c: G.get((a, b, c), _R.zero)  # noqa: E731
    inv = invariance_form(A, conn, rep)
    for i in range(1, A.rank + 1):
        rho = [to_ring(A.anchor[(i, a)]) if (i, a) in A.anchor else _R.zero
               for a in range(1, n + 1)]
        psi = lambda b, c: to_ring(rep.psi[(i, b, c)]) \
            if (i, b, c) in rep.psi else _R.zero  # noqa: E731
        theta, T = {}, {}
        for b, c in itertools.product(range(1, m + 1), repeat=2):
            theta[(b, c, ())] = psi(b, c) - sum((rho[a - 1] * g(a, b, c)
                                                 for a in range(1, n + 1)), _R.zero)
            for al in range(1, n + 1):
                T[(b, c, (al,))] = \
                    psi(b, c).diff(_GENS[al - 1]) - vf_apply(rho, g(al, b, c), n) \
                    + sum((g(al, b, e) * psi(e, c) - psi(b, e) * g(al, e, c)
                           for e in range(1, m + 1)), _R.zero) \
                    - sum((rho[be - 1].diff(_GENS[al - 1]) * g(be, b, c)
                           for be in range(1, n + 1)), _R.zero)
        assert end_matches(theta, inv.theta[i])
        assert end_matches(T, inv.T[i])


# -- symmetric slots: insertion, the pairing, the bracket of forms -----------------


def multisets(r, k):
    return itertools.combinations_with_replacement(range(1, r + 1), k)


@st.composite
def symforms(draw, n, rank, secrank, arity, degree):
    """A random form with ``arity`` open symmetric slots; rows may be absent."""
    comps = {}
    for J in multisets(secrank, arity):
        if draw(st.booleans()):
            comps[J] = draw(vforms(n, rank, degree))
    return SymForm(n, rank, secrank, arity, degree, comps)


def sym_row(table, J):
    """Row of a symmetric-slot form at a multiset in any order."""
    vf = table.comps.get(tuple(sorted(J)))
    return sym_form(vf) if vf is not None else {}


@_oracle
@given(st.data())
def test_symform_insert_matches_component_formula(data):
    n, rank = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    secrank, arity = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(0, n))
    g = data.draw(symforms(n, rank, secrank, arity, degree))
    s = [data.draw(polys(n)) for _ in range(secrank)]
    out = g.insert(Section(n, s))
    assert (out.arity, out.degree) == (arity - 1, degree)
    for J in multisets(secrank, arity - 1):
        # (insert s g)(J) = sum_l s^l g(J + (l,))
        want = sym_add(*({key: to_ring(s[l - 1]) * e
                          for key, e in sym_row(g, J + (l,)).items()}
                         for l in range(1, secrank + 1)))
        assert matches(want, out.get(J))


@_oracle
@given(st.sampled_from(_CHARTS), st.data())
def test_wedgedot_matches_component_formula(name, data):
    fix = _fixture(name)
    ideal, n, r = fix.ideal, fix.A.nvars, fix.A.rank
    m = ideal.m
    arity = data.draw(st.integers(1, 2))
    degree, s = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    g = data.draw(symforms(n, m, r, arity, degree))
    theta = data.draw(vforms(n, m, s))
    st_theta = sym_form(theta)
    out = wedgedot(g, theta, ideal)
    assert (out.arity, out.degree) == (arity - 1, s + degree)
    for J in multisets(r, arity - 1):
        # (g . theta)(J) = sum_a theta^a ^ g(J + (u_a,))
        want = sym_add(*(sym_wedge(sym_scalar(st_theta, a), s, sym_row(g, J + (k,)),
                                   n, m, degree)
                         for a, k in enumerate(ideal.indices, start=1)))
        assert matches(want, out.get(J))


@_oracle
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_bracket_of_forms_matches_component_formula(s, t, data):
    fix = _fixture("F2_semisimple_2d")
    A, ideal = fix.A, fix.ideal
    n, m, ix = A.nvars, ideal.m, ideal.indices

    def c(i, j, k):  # structure polynomials, extended antisymmetrically
        if i > j:
            return -c(j, i, k)
        return to_ring(A.structure[(i, j, k)]) if (i, j, k) in A.structure else _R.zero

    w1, w2 = data.draw(vforms(n, m, s)), data.draw(vforms(n, m, t))
    sw1, sw2 = sym_form(w1), sym_form(w2)
    # [w1 ^ w2]^e = sum_{a,b} (w1^a ^ w2^b) [u_a, u_b]^e
    parts = {a: sym_wedge(sym_scalar(sw1, a), s, sw2, n, m, t) for a in range(1, m + 1)}
    want = {(e, K): sum((c(ix[a - 1], ix[b - 1], ix[e - 1]) * parts[a][(b, K)]
                         for a in range(1, m + 1) for b in range(1, m + 1)), _R.zero)
            for e in range(1, m + 1)
            for K in itertools.combinations(range(1, n + 1), s + t)}
    assert matches(want, bracket_of_forms(ideal, w1, w2))


# -- coupling condition (i): nabla_{d_x} is a derivation of the fibre bracket ----


def bracket_failure_ref(n, m, fib, table):
    """First (x, a, b) with a < b at which the Christoffel formula of
    nabla_{d_x} [u_a, u_b] = [nabla_{d_x} u_a, u_b] + [u_a, nabla_{d_x} u_b]
    fails, for the bracket fib(a, b, d) = [u_a, u_b]^d and the Christoffel
    table (x, b, c) -> Gamma^b_{x c}; None when it holds everywhere."""
    G = {k: to_ring(p) for k, p in table.items()}
    F = {(a, b, d): to_ring(fib(a, b, d))
         for a, b, d in itertools.product(range(1, m + 1), repeat=3)}
    for x in range(1, n + 1):
        for a, b in itertools.combinations(range(1, m + 1), 2):
            for d in range(1, m + 1):
                lhs = F[(a, b, d)].diff(_GENS[x - 1]) + sum(
                    (F[(a, b, e)] * G.get((x, d, e), _R.zero) for e in range(1, m + 1)),
                    _R.zero)
                rhs = sum((G.get((x, e, a), _R.zero) * F[(e, b, d)]
                           + G.get((x, e, b), _R.zero) * F[(a, e, d)]
                           for e in range(1, m + 1)), _R.zero)
                if lhs != rhs:
                    return x, a, b
    return None


@_oracle
@given(st.data())
def test_bracket_failure_matches_christoffel_formula(data):
    fix = _fixture("F2_semisimple_2d")
    n, m = fix.A.nvars, fix.ideal.m

    def fib(a, b, c):
        return fix.ideal.fibre_bracket(a, b).get(c, ())

    base = fix.imc.coupling_connection()
    # the coupling connection preserves the bracket, adding an inner derivation
    # ad(xi) keeps it so, and noise on one entry of Gamma_x breaks it at x
    entries = list(itertools.product(range(1, m + 1), repeat=2))
    table = {}
    for x in range(1, n + 1):
        xi = [data.draw(polys(n)) for _ in range(m)]
        noisy = data.draw(st.sets(st.sampled_from(entries), max_size=1))
        for b, c in entries:
            p = base.gamma(x, b, c) + sum((xi[a - 1] * fib(a, c, b) for a in range(1, m + 1)),
                                          Poly.zero(n))
            table[(x, b, c)] = p + data.draw(polys(n)) if (b, c) in noisy else p
    conn = LinearConnection(n, m, table)
    assert _bracket_failure(*fix.ideal.fibre(), conn) == bracket_failure_ref(n, m, fib, table)


def _only_in(p, variables):
    """The terms of p that involve no variable outside ``variables``."""
    return Poly(p.nvars, {e: Fraction(num, den) for e, (num, den) in p.items()
                          if all(k == 0 for v, k in enumerate(e, start=1)
                                 if v not in variables)})


@_oracle
@given(st.data())
def test_bracket_failure_on_polynomial_fibre_tables(data):
    # a random antisymmetric polynomial table (Jacobi need not hold) that
    # depends on the variables in dep only, and a sparse Christoffel table
    # that vanishes off the variables in live: d_x with x in neither passes,
    # and with x in dep only the failure is the d c^d_{ab} term alone
    n, m = 3, data.draw(st.integers(2, 3))
    dep = data.draw(st.sets(st.integers(1, n), min_size=1))
    live = data.draw(st.sets(st.integers(1, n), max_size=2))
    nonzero = polys(n).filter(lambda p: not p.is_zero)
    keys = [(a, b, c) for a, b in itertools.combinations(range(1, m + 1), 2)
            for c in range(1, m + 1)]
    structure = {k: _only_in(data.draw(nonzero), dep)
                 for k in data.draw(st.sets(st.sampled_from(keys), min_size=1))}
    entries = [(x, b, c) for x in sorted(live)
               for b, c in itertools.product(range(1, m + 1), repeat=2)]
    table = {k: data.draw(nonzero) for k in sorted(data.draw(
        st.sets(st.sampled_from(entries), max_size=4)))} if entries else {}
    G = AlgebroidPresentation(n, m, structure)

    def fib(a, b, c):
        return G.bracket_basis(a, b).get(c, ())

    conn = LinearConnection(n, m, table)
    got = _bracket_failure(*IdealBundle(G, range(1, m + 1)).fibre(), conn)
    assert got == bracket_failure_ref(n, m, fib, table)
