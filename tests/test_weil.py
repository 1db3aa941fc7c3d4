import itertools

import pytest

from weilcalc import (AlgebroidPresentation, ARep, ContractError, IdealBundle,
                      LinearConnection, Poly, Section, StructureError, VForm,
                      WeilCochain, bounded_kernel, bracket, check_IM, delta,
                      dnabla_cochain, evaluate, induced_end_rep, invariance_form,
                      is_A_invariant, solve_coboundary,
                      validate_algebroid, validate_rep, wedge_Ttheta)
from weilcalc.algebroid import d_scalar
from weilcalc.fixtures import random_cochain, random_poly
from weilcalc.weil import monomials_upto

from helpers import lieA_vform, random_endform, random_section, scalar_wedge
from test_connections import random_christoffel


def affine_algebroid():
    """Rank-3 algebroid on Q^1 with a polynomial anchor: translations,
    scalings, and a rank-1 ideal the scaling acts on."""
    one, t = Poly.const(1, 1), Poly.var(1, 0)
    A = AlgebroidPresentation(1, 3,
                              {(1, 2, 1): one, (2, 3, 3): one},
                              {(1, 1): one, (2, 1): t})
    assert validate_algebroid(A).passed
    return A


def affine_rep(A):
    rep = IdealBundle(A, (3,)).adjoint_rep()
    assert validate_rep(A, rep).passed
    return rep


# -- evaluation -----------------------------------------------------------


def eval_alt(c, gens, suffix_idx, J):
    """Independent oracle: Leibniz expansion from the right."""
    if not gens:
        return c.lookup(len(J), suffix_idx, J)
    alpha = gens[-1]
    pos = len(gens) - 1
    n, r = c.A.nvars, c.A.rank
    out = VForm.zero(n, c.rank, max(c.q - len(J), 0))
    for i in range(1, r + 1):
        ai = alpha.get(i, ())
        if not ai.is_zero:
            sub = eval_alt(c, gens[:-1], (i,) + suffix_idx, J)
            if not sub.is_zero:
                out = out + sub.scaled(ai)
        dai = d_scalar(ai, n)
        if not dai.is_zero:
            sub = eval_alt(c, gens[:-1], suffix_idx, tuple(sorted(J + (i,))))
            if not sub.is_zero:
                w = scalar_wedge(dai, sub)
                out = out + (w if pos % 2 == 0 else -w)
    return out


def sym_expand_eval(c, antis, syms):
    n, r = c.A.nvars, c.A.rank
    out = VForm.zero(n, c.rank, max(c.q - len(syms), 0))
    for jvec in itertools.product(range(1, r + 1), repeat=len(syms)):
        coeff = Poly.const(n, 1)
        for t, j in enumerate(jvec):
            coeff = coeff * syms[t].get(j, ())
        if coeff.is_zero:
            continue
        term = eval_alt(c, list(antis), (), tuple(sorted(jvec)))
        if not term.is_zero:
            out = out + term.scaled(coeff)
    return out


def test_evaluate_on_basis_tuple_is_table_readoff(f2):
    c = random_cochain(f2.A, f2.rep, 2, 1, 1, seed=1)
    assert evaluate(c, [f2.A.basis(1), f2.A.basis(3)]) == c.lookup(0, (1, 3), ())
    assert evaluate(c, [f2.A.basis(3), f2.A.basis(1)]) == -c.lookup(0, (1, 3), ())
    assert evaluate(c, [f2.A.basis(4)], [f2.A.basis(2)]) == c.lookup(1, (4,), (2,))


def test_evaluate_leading_forced_by_leibniz(f1):
    # leading term on x2 * e: x2 C(e) + dx2 (x) v(e) = dx2 (x) u
    x2 = Poly.var(2, 1)
    sec = f1.ideal.embed(Section(2, [Poly.const(2, 1)])).scaled(x2)
    out = evaluate(f1.imc.cochain, [sec])
    assert out == VForm(2, 1, 1, {(1, (2,)): Poly.const(2, 1)})


def test_evaluate_splits_sums_and_products(f1):
    c = f1.imc.cochain
    f = Poly.var(2, 0) * Poly.var(2, 1)
    a = f1.A.basis(1).scaled(f) + f1.A.basis(2)
    direct = evaluate(c, [a])
    split = evaluate(c, [f1.A.basis(1)]).scaled(f) \
        + scalar_wedge(d_scalar(f, 2), evaluate(c, [], [f1.A.basis(1)])) \
        + evaluate(c, [f1.A.basis(2)])
    assert direct == split


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_two_path_evaluation_consistency(pq, seed, f2):
    p, q = pq
    c = random_cochain(f2.A, f2.rep, p, q, 1, seed=seed)
    for k0 in range(0, min(p, q) + 1):
        antis = [random_section(f2.A, 31 * seed + 7 * t, bound=1)
                 for t in range(p - k0)]
        syms = [random_section(f2.A, 41 * seed + 11 * t, bound=1)
                for t in range(k0)]
        assert evaluate(c, antis, syms) == sym_expand_eval(c, antis, syms)


def test_two_path_consistency_with_polynomial_anchor():
    A = affine_algebroid()
    rep = affine_rep(A)
    c = random_cochain(A, rep, 2, 1, 2, seed=9)
    antis = [random_section(A, 3, bound=2), random_section(A, 4, bound=2)]
    assert evaluate(c, antis, []) == sym_expand_eval(c, antis, [])
    assert evaluate(c, [antis[0]], [antis[1]]) == sym_expand_eval(c, [antis[0]], [antis[1]])


def test_evaluate_arity_mismatch_rejected(f1):
    c = f1.imc.cochain
    with pytest.raises(StructureError):
        evaluate(c, [f1.A.basis(1), f1.A.basis(2)])


def test_evaluate_rejects_a_section_of_another_rank(f1, f2):
    # an F2 section has five components, F1's algebroid three
    with pytest.raises(StructureError, match="section rank"):
        evaluate(f1.imc.cochain, [f2.A.basis(1)])


# -- simplicial differential -----------------------------------------------


def test_delta_level0_example(f1):
    dF = delta(f1.A, f1.rep, f1.curving)
    one = Poly.const(2, 1)
    x = Poly.var(2, 0)
    assert dF.lookup(0, (1,), ()) == VForm(2, 1, 2, {(1, (1, 2)): one})
    assert dF.lookup(1, (), (2,)) == VForm(2, 1, 1, {(1, (1,)): -x})


def test_delta_squared_zero_across_fixtures(all_fixtures):
    for fix in all_fixtures:
        for p, q in [(0, 1), (1, 1), (2, 2)]:
            c = random_cochain(fix.A, fix.rep, p, q, 1, seed=13)
            assert delta(fix.A, fix.rep, delta(fix.A, fix.rep, c)).is_zero


def test_delta_squared_zero_polynomial_anchor():
    A = affine_algebroid()
    rep = affine_rep(A)
    for p, q in [(0, 1), (1, 1), (2, 1)]:
        c = random_cochain(A, rep, p, q, 2, seed=5)
        assert delta(A, rep, delta(A, rep, c)).is_zero


def test_delta_of_im_connection_is_zero(f1, f2):
    for fix in (f1, f2):
        assert delta(fix.A, fix.rep, fix.imc.cochain).is_zero


def test_delta_p1_formula_agreement(f2):
    # the level-1 output must match the displayed three-component formula
    A, rep = f2.A, f2.rep
    c = random_cochain(A, rep, 1, 1, 1, seed=21)
    dc = delta(A, rep, c)
    for i, j in itertools.combinations(range(1, 6), 2):
        lhs = dc.lookup(0, (i, j), ())
        rhs = lieA_vform(A, rep, A.basis(i), c.lookup(0, (j,), ())) \
            - lieA_vform(A, rep, A.basis(j), c.lookup(0, (i,), ())) \
            - evaluate(c, [A.bracket_basis(i, j)])
        assert lhs == rhs
    for i in range(1, 6):
        for j in range(1, 6):
            lhs = dc.lookup(1, (i,), (j,))
            rhs = -lieA_vform(A, rep, A.basis(i), c.lookup(1, (), (j,))) \
                + evaluate(c, [], [A.bracket_basis(i, j)]) \
                + c.lookup(0, (i,), ()).iota(A.rho_basis(j))
            assert lhs == rhs
    for j1, j2 in itertools.combinations_with_replacement(range(1, 6), 2):
        lhs = dc.lookup(2, (), (j1, j2))
        rhs = -(c.lookup(1, (), (j2,)).iota(A.rho_basis(j1))
                + c.lookup(1, (), (j1,)).iota(A.rho_basis(j2)))
        assert lhs == rhs


@pytest.mark.parametrize("seed", range(3))
def test_delta_naturality_on_general_sections(seed, f2):
    # evaluating the output tables on arbitrary sections reproduces the
    # defining formula applied directly to sections
    A, rep = f2.A, f2.rep
    c = random_cochain(A, rep, 1, 1, 1, seed=seed)
    dc = delta(A, rep, c)
    a0 = random_section(A, 110 + seed, bound=1)
    a1 = random_section(A, 120 + seed, bound=1)
    lead = evaluate(dc, [a0, a1])
    want = lieA_vform(A, rep, a0, evaluate(c, [a1])) \
        - lieA_vform(A, rep, a1, evaluate(c, [a0])) \
        - evaluate(c, [bracket(A, a0, a1)])
    assert lead == want
    corr = evaluate(dc, [a0], [a1])
    want = -lieA_vform(A, rep, a0, evaluate(c, [], [a1])) \
        + evaluate(c, [], [bracket(A, a0, a1)]) \
        + evaluate(c, [a0]).iota(A.rho(a1))
    assert corr == want


def test_delta_naturality_with_polynomial_anchor():
    A = affine_algebroid()
    rep = affine_rep(A)
    c = random_cochain(A, rep, 1, 1, 2, seed=31)
    dc = delta(A, rep, c)
    a0 = random_section(A, 7, bound=2)
    a1 = random_section(A, 8, bound=2)
    lead = evaluate(dc, [a0, a1])
    want = lieA_vform(A, rep, a0, evaluate(c, [a1])) \
        - lieA_vform(A, rep, a1, evaluate(c, [a0])) \
        - evaluate(c, [bracket(A, a0, a1)])
    assert lead == want


@pytest.mark.parametrize("seed", range(3))
def test_dnabla_naturality_on_general_sections(seed, f2):
    # the leading term of the covariant derivative commutes with evaluation
    c = random_cochain(f2.A, f2.rep, 1, 1, 1, seed=seed)
    out = dnabla_cochain(f2.conn, c)
    a = random_section(f2.A, 130 + seed, bound=1)
    assert evaluate(out, [a]) == f2.conn.dnabla(evaluate(c, [a]))


def test_high_degree_tables_are_absent(f1):
    # q - k > dim M entries are never stored
    c = random_cochain(f1.A, f1.rep, 2, 2, 1, seed=3)
    dc = delta(f1.A, f1.rep, c)
    for (k, _, _), vf in dc.comps.items():
        assert vf.degree == dc.q - k <= f1.A.nvars


def test_degree_above_chart_dimension(f2):
    # q = 3 on a 2-dim chart: only the k >= 1 tables carry data, and the
    # complex axioms still hold on them
    c = random_cochain(f2.A, f2.rep, 2, 3, 1, seed=6)
    assert {k for k, _, _ in c.comps} <= {1, 2}
    assert delta(f2.A, f2.rep, delta(f2.A, f2.rep, c)).is_zero
    antis = [random_section(f2.A, 55, bound=1)]
    syms = [random_section(f2.A, 56, bound=1)]
    assert evaluate(c, antis, syms) == sym_expand_eval(c, antis, syms)


# -- exterior covariant derivative ------------------------------------------


def test_dnabla_p1_formula(f1):
    # (d c)_1(b) = c_0(b) - d-nabla c_1(b); on (C, v) at f1 this is C(f1)
    out = dnabla_cochain(f1.conn, f1.imc.cochain)
    x = Poly.var(2, 0)
    assert out.lookup(1, (), (1,)) == VForm(2, 1, 1, {(1, (2,)): x})
    assert out.lookup(0, (1,), ()) == f1.imc.C0(1).d()


def test_dnabla_of_zero_cochain(f2):
    z = WeilCochain.zero(f2.A, 3, 2, 1)
    assert dnabla_cochain(f2.conn, z).is_zero


@pytest.mark.parametrize("seed", range(3))
def test_dnabla_p1_p2_displayed_formulas(seed, f2):
    A, rep, conn = f2.A, f2.rep, f2.conn
    c = random_cochain(A, rep, 1, 1, 1, seed=seed)
    out = dnabla_cochain(conn, c)
    for i in range(1, 6):
        assert out.lookup(0, (i,), ()) == conn.dnabla(c.lookup(0, (i,), ()))
        assert out.lookup(1, (), (i,)) == c.lookup(0, (i,), ()) \
            - conn.dnabla(c.lookup(1, (), (i,)))
    c = random_cochain(A, rep, 2, 2, 1, seed=seed + 50)
    out = dnabla_cochain(conn, c)
    for i in range(1, 6):
        for j in range(1, 6):
            assert out.lookup(1, (i,), (j,)) == c.lookup(0, (j, i), ()) \
                - conn.dnabla(c.lookup(1, (i,), (j,)))
    for j1, j2 in itertools.combinations_with_replacement(range(1, 6), 2):
        assert out.lookup(2, (), (j1, j2)) == conn.dnabla(c.lookup(2, (), (j1, j2))) \
            - c.lookup(1, (j1,), (j2,)) - c.lookup(1, (j2,), (j1,))


@pytest.mark.parametrize("seed", range(3))
def test_dnabla_output_two_path_consistent(seed, f2):
    c = random_cochain(f2.A, f2.rep, 2, 1, 1, seed=seed)
    out = dnabla_cochain(f2.conn, c)
    antis = [random_section(f2.A, 60 + seed, bound=1),
             random_section(f2.A, 70 + seed, bound=1)]
    assert evaluate(out, antis, []) == sym_expand_eval(out, antis, [])


# -- the commutator operator ---------------------------------------------------


def test_wedge_Ttheta_zero_invariance_form(f1):
    inv = invariance_form(f1.A, f1.conn, f1.rep)
    c = random_cochain(f1.A, f1.rep, 1, 1, 1, seed=2)
    assert wedge_Ttheta(inv, c).is_zero


def test_cochain_operators_reject_plain_vform(f2):
    # delta takes a plain form as the level-0 cochain; d-nabla and
    # (T, theta)^ both ask for the WeilCochain wrapper, with the same error
    inv = invariance_form(f2.A, f2.conn, f2.rep)
    vf = random_cochain(f2.A, f2.rep, 0, 1, 1, seed=0).as_vform()
    for op in (lambda c: dnabla_cochain(f2.conn, c), lambda c: wedge_Ttheta(inv, c)):
        with pytest.raises(StructureError, match="WeilCochain.from_vform"):
            op(vf)
    assert wedge_Ttheta(inv, WeilCochain.from_vform(f2.A, vf)).p == 1


def test_cochain_operators_reject_a_cochain_over_another_algebroid(f1, f3):
    # a cochain over F3's four variables read on a two-variable algebroid,
    # and F3's invariance pair against a cochain over F1
    c = random_cochain(f3.A, f3.rep, 1, 1, 1, seed=0)
    B2 = AlgebroidPresentation(2, 2, {}, {(1, 1): Poly.const(2, 1), (2, 2): Poly.const(2, 1)})
    with pytest.raises(StructureError, match="cochain lives over a different algebroid"):
        delta(B2, ARep(2, 2, 1), c)
    inv = invariance_form(f3.A, f3.conn, f3.rep)
    with pytest.raises(StructureError, match="cochain lives over a different algebroid"):
        wedge_Ttheta(inv, random_cochain(f1.A, f1.rep, 1, 1, 1, seed=0))


def test_wedge_Ttheta_rejects_a_cochain_that_is_not_a_pair(f2):
    # the pair is a W^{1,1} cochain of End V, rank 9 over F2's rank-3 bundle
    c = random_cochain(f2.A, f2.rep, 1, 1, 1, seed=0)
    for bad in (WeilCochain(f2.A, 3, 1, 1), WeilCochain(f2.A, 9, 2, 1),
                WeilCochain(f2.A, 9, 1, 2)):
        with pytest.raises(StructureError, match="different bundle"):
            wedge_Ttheta(bad, c)


@pytest.mark.parametrize("pq", [(0, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("seed", range(2))
def test_commutator_law(pq, seed, f2):
    p, q = pq
    A, rep, conn = f2.A, f2.rep, f2.conn
    inv = invariance_form(A, conn, rep)
    c = random_cochain(A, rep, p, q, 1, seed=seed)
    lhs = dnabla_cochain(conn, delta(A, rep, c)) - delta(A, rep, dnabla_cochain(conn, c))
    assert lhs == wedge_Ttheta(inv, c)


def test_commutator_vanishes_when_invariant(f1):
    A, rep, conn = f1.A, f1.rep, f1.conn
    for seed in range(3):
        c = random_cochain(A, rep, 1, 1, 1, seed=seed)
        lhs = dnabla_cochain(conn, delta(A, rep, c))
        rhs = delta(A, rep, dnabla_cochain(conn, c))
        assert lhs == rhs


# -- IM form checks ---------------------------------------------------------


def test_check_IM_passes_on_fixture_connections(all_fixtures):
    for fix in all_fixtures:
        assert check_IM(fix.A, fix.rep, fix.imc.cochain).passed


def test_coboundaries_are_IM(f2):
    gamma = random_cochain(f2.A, f2.rep, 0, 1, 1, seed=8)
    assert check_IM(f2.A, f2.rep, delta(f2.A, f2.rep, gamma)).passed


def test_check_IM_matches_delta_vanishing(f2):
    for seed in range(4):
        c = random_cochain(f2.A, f2.rep, 1, 1, 1, seed=seed)
        assert check_IM(f2.A, f2.rep, c).passed == delta(f2.A, f2.rep, c).is_zero


def test_tampered_symbol_fails_C2(f1):
    comps = dict(f1.imc.cochain.comps)
    x = Poly.var(2, 0)
    comps[(0, (1,), ())] = VForm(2, 1, 1, {(1, (2,)): x * x})   # C(f1) -> x^2 dy
    bad = WeilCochain(f1.A, 1, 1, 1, comps)
    report = check_IM(f1.A, f1.rep, bad)
    assert not report.passed
    labels = [label for label, _ in report.failures]
    assert any(label.startswith("C.2") for label in labels)
    assert all(not label.startswith("C.3") for label in labels)


# -- bounded-degree solving ---------------------------------------------------


def test_solver_recovers_constructed_coboundary(f2):
    b0 = random_cochain(f2.A, f2.rep, 1, 1, 1, seed=17)
    target = delta(f2.A, f2.rep, b0)
    sol = solve_coboundary(f2.A, f2.rep, target, 1)
    assert sol is not None
    assert delta(f2.A, f2.rep, sol) == target


def test_solver_curving_on_F1(f1):
    from weilcalc import curvature
    om = curvature(f1.imc)
    sol = solve_coboundary(f1.A, f1.rep, om, 2)
    assert sol is not None and sol.p == 0
    diff = sol - WeilCochain.from_vform(f1.A, f1.curving)
    assert delta(f1.A, f1.rep, diff).is_zero


def test_solver_whitehead_on_so3(f0):
    # H^1(so(3); ad) = 0: a nonzero 1-cocycle is a coboundary
    A, rep = f0.A, f0.rep
    w = WeilCochain.from_vform(A, VForm(0, 3, 0, {(1, ()): Poly.const(0, 1)}))
    target = delta(A, rep, w)
    assert not target.is_zero
    sol = solve_coboundary(A, rep, target, 0)
    assert sol is not None
    assert delta(A, rep, sol) == target


def test_solver_rejects_non_cocycle(f1):
    c = random_cochain(f1.A, f1.rep, 1, 1, 1, seed=23)
    assert not delta(f1.A, f1.rep, c).is_zero   # random tables are not cocycles
    with pytest.raises(ContractError):
        solve_coboundary(f1.A, f1.rep, c, 1)


def test_solver_rejects_wrong_solution(f0, monkeypatch):
    # the result check must raise, not assert: python -O strips asserts
    from weilcalc import weil
    A, rep = f0.A, f0.rep
    w = WeilCochain.from_vform(A, VForm(0, 3, 0, {(1, ()): Poly.const(0, 1)}))
    target = delta(A, rep, w)
    assert not target.is_zero
    # the zero solution as a sparse vector: wrong for this nonzero target
    monkeypatch.setattr(weil._linsolve, "solve_sparse", lambda columns, rhs: {})
    with pytest.raises(ContractError):
        solve_coboundary(A, rep, target, 0)


def test_bounded_kernel_contains_coboundaries(f1):
    basis = bounded_kernel(f1.A, f1.rep, 1, 1, 1, horizontal_ideal=f1.ideal)
    assert basis
    for b in basis:
        assert delta(f1.A, f1.rep, b).is_zero


def test_negative_degree_bound_admits_no_unknown_on_any_chart(f0, f1):
    # F0 has no variables and F1 two; below bound 0 neither chart has a monomial
    assert monomials_upto(0, -1) == monomials_upto(2, -1) == []
    assert monomials_upto(0, 2) == [()]
    for fix in (f0, f1):
        A, rep, n = fix.A, fix.rep, fix.A.nvars
        xi = VForm(n, rep.rank, 0, {(1, ()): Poly.var(n, 0) if n else Poly.const(n, 1)})
        target = delta(A, rep, xi)
        assert not target.is_zero
        assert solve_coboundary(A, rep, target, 1) is not None
        assert solve_coboundary(A, rep, target, -1) is None
        assert bounded_kernel(A, rep, 1, 0, -1) == []


# -- (T, theta) as a cochain -----------------------------------------------


def test_invariance_cochain_is_well_formed(f2):
    tc = invariance_form(f2.A, f2.conn, f2.rep)
    assert tc.p == 1 and tc.q == 1 and tc.rank == 9


def test_invariance_form_leibniz_extension(f2):
    # T(f a) = f T(a) + df (x) theta(a), realized by cochain evaluation
    tc = invariance_form(f2.A, f2.conn, f2.rep)
    f = random_poly(__import__("random").Random("tl"), 2, 2)
    for i in (1, 2, 5):
        lhs = evaluate(tc, [f2.A.basis(i).scaled(f)])
        rhs = tc.lookup(0, (i,), ()).scaled(f) \
            + scalar_wedge(d_scalar(f, 2), tc.lookup(1, (), (i,)))
        assert lhs == rhs


# -- the naive approach: an A-invariant connection as a solve ----------------


def test_invariant_connection_is_found_by_solve(f1, f3):
    # the shift law (T, theta)(conn + gamma) = (T, theta)(conn) - delta gamma:
    # a gamma with delta gamma = (T, theta)(conn) makes conn + gamma invariant
    for fix in (f1, f3):
        A, rep = fix.A, fix.rep
        endrep = induced_end_rep(rep)
        conns = [fix.conn.shifted(random_endform(fix, 1, seed)) for seed in range(3)] \
            + [random_christoffel(fix, seed) for seed in range(4)]
        for conn in conns:
            inv = invariance_form(A, conn, rep)
            assert not inv.is_zero
            gamma = solve_coboundary(A, endrep, inv, 2)
            assert gamma is not None, fix.name
            fixed = conn.shifted(gamma.as_vform())
            assert invariance_form(A, fixed, rep).is_zero
            assert is_A_invariant(A, fixed, rep)


def test_no_invariant_connection_where_psi_survives_on_ker_rho(f0, f2):
    # theta(e_i) = psi_i - iota_{rho e_i} Gamma is psi_i wherever rho(e_i) = 0,
    # so psi_i != 0 on such a frame section leaves no invariant connection
    for fix in (f0, f2):
        A, rep, m = fix.A, fix.rep, fix.rep.rank
        endrep = induced_end_rep(rep)
        vertical = [i for i in range(1, A.rank + 1) if not any(A.rho_basis(i).comps)]
        assert any(not rep.endo(i).is_zero for i in vertical)
        for conn in (fix.conn, LinearConnection.trivial(A.nvars, m),
                     random_christoffel(fix, 0)):
            inv = invariance_form(A, conn, rep)
            for i in vertical:
                assert inv.lookup(1, (), (i,)) == rep.endo(i)
            for bound in range(3):
                assert solve_coboundary(A, endrep, inv, bound) is None, (fix.name, bound)


@pytest.mark.parametrize("seed", range(2))
def test_wedge_Ttheta_output_two_path_consistent(seed, f2):
    # well-definedness of the commutator operator: its tables cohere under
    # any Leibniz expansion order
    inv = invariance_form(f2.A, f2.conn, f2.rep)
    c = random_cochain(f2.A, f2.rep, 1, 1, 1, seed=seed)
    out = wedge_Ttheta(inv, c)
    antis = [random_section(f2.A, 80 + seed, bound=1),
             random_section(f2.A, 90 + seed, bound=1)]
    assert evaluate(out, antis, []) == sym_expand_eval(out, antis, [])
    assert evaluate(out, [antis[0]], [antis[1]]) == \
        sym_expand_eval(out, [antis[0]], [antis[1]])
