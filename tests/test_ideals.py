import itertools
import random
from fractions import Fraction

import pytest

from weilcalc import (AlgebroidPresentation, ContractError, Dhor, EndForm, IdealBundle,
                      LinearConnection, Poly, Section, StructureError, VForm, WeilCochain,
                      abelian_primitive_check, ad_inverse, bianchi_check, bracket, bracket_of_forms,
                      build_coupled, c2, check_IM, check_semisimple,
                      coupled_presentation, coupling_checks, curvature,
                      curving_suite, deform, delta, evaluate,
                      frame_splitting, hstar, invariance_form, is_horizontal,
                      obstruction_cocycle, primitive_from_pair,
                      solve_coboundary, splitting_cochain, splitting_curvature,
                      unique_curving, validate_algebroid, wedgedot,
                      wedgedot_multi)
from weilcalc.algebroid import scalar_wedge, sort_sign
from weilcalc.connections import lieA_derivative, lieA_vform
from weilcalc.fixtures import (random_cochain, random_poly, random_section,
                               random_symform, random_vform)
from weilcalc.weil import eval_row

from test_semisimple_oracle import ALGEBRAS, fibre_bundle


def rvform(fix, degree, seed, bound=1):
    rng = random.Random(f"iv:{fix.name}:{degree}:{seed}")
    return random_vform(rng, fix.A.nvars, fix.ideal.m, degree, bound)


def row_iota(row, X):
    """iota_X on every cell of a symmetric-slot form (a W^{k,q} row)."""
    return WeilCochain(row.A, row.rank, row.p, row.q - 1,
                       {cell: vf.iota(X) for cell, vf in row.comps.items()})


# -- sections -------------------------------------------------------------------


def test_embed_and_restrict_are_inverse(f2):
    x, zero = Poly.var(2, 0), Poly.zero(2)
    xi = Section(2, [x, zero, Poly.const(2, 2)])
    alpha = f2.ideal.embed(xi)
    assert f2.ideal.indices == (3, 4, 5)
    assert alpha == Section(2, [zero, zero, x, zero, Poly.const(2, 2)])
    assert f2.ideal.restrict(alpha) == xi
    with pytest.raises(StructureError, match="section does not lie in the ideal"):
        f2.ideal.restrict(alpha + f2.A.basis(2))


def test_ideal_closure_names_the_least_component():
    # [e_2, e_1] = -e_2 - e_3 leaves the ideal spanned by e_1 in components 2 and 3
    A = AlgebroidPresentation(0, 3, {(1, 2, 3): Poly.const(0, 1), (1, 2, 2): Poly.const(0, 1)})
    with pytest.raises(StructureError, match=r"\[e_2, e_1\] leaves the ideal \(component 2\)"):
        IdealBundle(A, (1,))


def test_ideal_closure_names_the_first_pair():
    # [e_3, e_2] = -e_4 and [e_4, e_1] = -e_3 both leave the ideal spanned
    # by e_1, e_2; the pairs are read i first, then k
    one = Poly.const(0, 1)
    A = AlgebroidPresentation(0, 4, {(2, 3, 4): one, (1, 4, 3): one})
    with pytest.raises(StructureError, match=r"\[e_3, e_2\] leaves the ideal \(component 4\)"):
        IdealBundle(A, (1, 2))


def _two_pass_adjoint(ideal):
    """psi_(i, b, a), the u_b component of [e_i, u_a], by a second walk
    through the brackets after the closure check, in insertion order."""
    A = ideal.A
    return [((i, b, a), p) for i in range(1, A.rank + 1)
            for a, k in enumerate(ideal.indices, start=1)
            for (b, _), p in ideal.restrict(A.bracket_basis(i, k)).comps.items()]


def test_adjoint_rep_matches_a_two_pass_reference(all_fixtures):
    from test_weil import affine_algebroid
    ideals = [fix.ideal for fix in all_fixtures] + [IdealBundle(affine_algebroid(), (3,))]
    fibres = [(G, IdealBundle(G, range(1, ideal.m + 1)), adj)
              for ideal in ideals for G, adj in [ideal.fibre()]]
    cases = [(ideal.A, ideal, ideal.adjoint_rep()) for ideal in ideals] + fibres
    for A, ideal, rep in cases:
        assert (rep.nvars, rep.secrank, rep.rank) == (A.nvars, A.rank, ideal.m)
        assert list(rep.psi.items()) == _two_pass_adjoint(ideal)
    assert any(rep.psi for _, _, rep in fibres)


def _section_consumers(fix):
    """Each consumer of a section, and whether it takes a section of the ideal."""
    A, ideal, c = fix.A, fix.ideal, fix.imc.cochain
    return {
        "evaluate": (lambda s: evaluate(c, [s]), False),
        "WeilCochain.insert": (eval_row(c, 1, []).insert, False),
        "bracket left": (lambda s: bracket(A, s, A.basis(1)), False),
        "bracket right": (lambda s: bracket(A, A.basis(1), s), False),
        "rho": (A.rho, False),
        "restrict": (ideal.restrict, False),
        "embed": (ideal.embed, True),
    }


@pytest.mark.parametrize("consumer", ["evaluate", "WeilCochain.insert", "bracket left",
                                      "bracket right", "rho", "restrict", "embed"])
def test_section_consumers_reject_forms_and_the_other_bundle(consumer, f2):
    # a section is a 0-form of its bundle's rank: an A-valued 1-form and a
    # section of the other bundle (A for the ideal, the ideal for A) are refused
    consume, of_ideal = _section_consumers(f2)[consumer]
    n, m = f2.A.nvars, f2.ideal.m
    one = Poly.const(n, 1)
    with pytest.raises(StructureError, match="a section is a degree-0 form"):
        consume(VForm(n, f2.A.rank, 1, {(1, (1,)): one}))
    other, bundle = (f2.A.basis(1), "ideal") if of_ideal else (Section(n, [one] * m), "algebroid")
    with pytest.raises(StructureError, match=f"section rank does not match {bundle} rank"):
        consume(other)
    # a section of the right bundle over another chart
    rank = m if of_ideal else f2.A.rank
    with pytest.raises(StructureError, match="section over wrong chart"):
        consume(VForm(n + 1, rank, 0, {(1, ()): Poly.const(n + 1, 1)}))


# -- the pairing ----------------------------------------------------------------


def test_pairing_one_one_formula(f2):
    # (g . t)(X1, X2) = g(t X1)(X2) - g(t X2)(X1)
    gamma = random_symform(f2, 1, 1, seed=1)
    theta = rvform(f2, 1, seed=2)
    out = wedgedot(gamma, theta, f2.ideal).as_vform()
    dx = Section(2, [Poly.const(2, 1), Poly.zero(2)])
    dy = Section(2, [Poly.zero(2), Poly.const(2, 1)])
    lhs = out.iota(dx).iota(dy)     # out(dx, dy)
    t_x = tuple(theta.get(a, (1,)) for a in range(1, 4))
    t_y = tuple(theta.get(a, (2,)) for a in range(1, 4))
    rhs = gamma.insert(f2.ideal.embed(Section(2, t_x))).as_vform().iota(dy) \
        - gamma.insert(f2.ideal.embed(Section(2, t_y))).as_vform().iota(dx)
    assert lhs == rhs


def test_pairing_simple_tensor(f2):
    # g . (t (x) xi) = t ^ g(xi, .)
    gamma = random_symform(f2, 2, 1, seed=3)
    t = VForm(2, 1, 1, {(1, (1,)): random_poly(random.Random("st"), 2, 1)})
    xi = tuple(random_poly(random.Random(f"xi{a}"), 2, 1) for a in range(3))
    simple = VForm(2, 3, 1, {(b, idx): t.comps[(1, idx)] * xi[b - 1]
                             for b in range(1, 4) for idx in [(1,)]
                             if (1, idx) in t.comps and not xi[b - 1].is_zero})
    lhs = wedgedot(gamma, simple, f2.ideal)
    inserted = gamma.insert(f2.ideal.embed(Section(2, xi)))
    rhs_tbl = {}
    for j, vf in inserted.comps.items():
        w = scalar_wedge(t, vf)
        if not w.is_zero:
            rhs_tbl[j] = w
    rhs = WeilCochain.zero(f2.A, 3, 1, 3)
    rhs.comps = rhs_tbl
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(4))
def test_pairing_interior_product_rule(seed, f2):
    # iota_X (g . t) = g . (iota_X t) + (-1)^l (iota_X g) . t
    gamma = random_symform(f2, 1, 2, seed=seed)
    theta = rvform(f2, 1, seed=seed + 10)
    rng = random.Random(f"X:{seed}")
    X = Section(2, [random_poly(rng, 2, 1), random_poly(rng, 2, 1)])
    lhs = row_iota(wedgedot(gamma, theta, f2.ideal), X)
    rhs = wedgedot(gamma, theta.iota(X), f2.ideal) \
        - wedgedot(row_iota(gamma, X), theta, f2.ideal)
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(4))
def test_pairing_lie_derivative_rule(seed, f2):
    # L_a (g . t) = (L_a g) . t + g . (L_a t)
    A, rep, ideal = f2.A, f2.rep, f2.ideal
    gamma = random_symform(f2, 1, 1, seed=seed)
    theta = rvform(f2, 1, seed=seed + 20)
    alpha = random_section(A, 900 + seed, bound=1)
    lhs = lieA_derivative(A, rep, alpha, wedgedot(gamma, theta, ideal))
    rhs = wedgedot(lieA_derivative(A, rep, alpha, gamma), theta, ideal) \
        + wedgedot(gamma, lieA_vform(A, rep, alpha, theta), ideal)
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(3))
def test_pairing_leibniz_interaction(seed, f2):
    # c_j(f a_1, ...) . t = f c_j(a) . t + (-1)^i df ^ c_{j+1}(a_2.. || a_1, .) . t
    A, ideal = f2.A, f2.ideal
    c = random_cochain(A, f2.rep, 3, 2, 1, seed=seed)
    f = random_poly(random.Random(f"f:{seed}"), 2, 1)
    theta = rvform(f2, 1, seed=seed + 30)
    i1, i2 = 2, 4
    from weilcalc.algebroid import d_scalar
    lhs = wedgedot(eval_row(c, 1, [A.basis(i1).scaled(f), A.basis(i2)]),
                   theta, ideal)
    row = wedgedot(eval_row(c, 1, [A.basis(i1), A.basis(i2)]), theta, ideal)
    corr = wedgedot(eval_row(c, 2, [A.basis(i2)]).insert(A.basis(i1)), theta, ideal)
    df = d_scalar(f, 2)
    corr_tbl = {}
    for j, vf in corr.comps.items():
        w = scalar_wedge(df, vf)
        if not w.is_zero:
            corr_tbl[j] = w
    rhs = row.scaled(f)
    wedged = WeilCochain.zero(A, 3, rhs.p, rhs.q)
    wedged.comps = corr_tbl
    assert lhs == rhs - wedged   # i = 1 pairing consumed, sign (-1)^1


def test_pairing_sign_relation(f2):
    # g . t = (-1)^{k l} g ^ t with g viewed End-valued via the ideal slot
    for k, l, seed in [(1, 1, 0), (2, 1, 1), (0, 1, 2), (1, 2, 3), (2, 2, 4)]:
        gamma = random_symform(f2, 1, k, seed=seed)
        theta = rvform(f2, l, seed=seed + 40)
        end = EndForm(2, 3, k, {})
        comps = {}
        for (_, _, (j,)), vf in gamma.comps.items():
            if j not in f2.ideal.indices:
                continue
            col = f2.ideal.indices.index(j) + 1
            for (b, idx), p in vf.comps.items():
                comps[(b, col, idx)] = p
        end = EndForm(2, 3, k, comps)
        lhs = wedgedot(gamma, theta, f2.ideal).as_vform()
        rhs = end.wedge_vform(theta)
        if (k * l) % 2 == 1:
            rhs = -rhs
        assert lhs == rhs


def test_pairing_multi_matches_direct_shuffle_formula(f2):
    # iterated one-by-one pairing vs the displayed double-shuffle expansion
    gamma = random_symform(f2, 2, 0, seed=6)
    t1 = rvform(f2, 1, seed=7)
    t2 = rvform(f2, 1, seed=8)
    out = wedgedot_multi(gamma, [t1, t2], f2.ideal).as_vform()
    n = 2
    direct = {}
    for perm in itertools.permutations(range(1, n + 1), 2):
        srt, sign = sort_sign(perm)
        x1 = tuple(t1.get(a, (perm[0],)) for a in range(1, 4))
        x2 = tuple(t2.get(a, (perm[1],)) for a in range(1, 4))
        val = gamma.insert(f2.ideal.embed(Section(2, x1))).insert(
            f2.ideal.embed(Section(2, x2))).as_vform()
        for (b, idx), p in val.comps.items():
            key = (b, ())
            q = p if sign > 0 else -p
            direct[key] = direct.get(key, Poly.zero(2)) + q
    want = VForm(2, 3, 2, {(b, (1, 2)): p for (b, _), p in direct.items()})
    assert out == want


def test_pairing_alternating_and_linear(f2):
    gamma = random_symform(f2, 2, 1, seed=9)
    t1, t2 = rvform(f2, 1, seed=10), rvform(f2, 1, seed=11)
    f = random_poly(random.Random("pl"), 2, 1)
    assert wedgedot_multi(gamma, [t1, t2], f2.ideal) == \
        -wedgedot_multi(gamma, [t2, t1], f2.ideal)
    assert wedgedot_multi(gamma, [t1.scaled(f), t2], f2.ideal) == \
        wedgedot_multi(gamma, [t1, t2], f2.ideal).scaled(f)


def test_insert_needs_a_symmetric_slot(f2):
    c = random_cochain(f2.A, f2.rep, 0, 1, 1, seed=12)
    with pytest.raises(StructureError, match="no symmetric slot to fill"):
        c.insert(f2.A.basis(1))


def test_pairing_slot_underflow(f2):
    gamma = random_symform(f2, 0, 1, seed=12)
    with pytest.raises(Exception):
        wedgedot(gamma, rvform(f2, 1, seed=13), f2.ideal)


# -- horizontal projection ----------------------------------------------------


def test_hstar_low_level_formulas(f2):
    # p=1 and p=2 displayed formulas are the authoritative cross-check
    A, ideal, imc = f2.A, f2.ideal, f2.imc
    c = random_cochain(A, f2.rep, 1, 1, 1, seed=31)
    h = hstar(imc, c)
    for i in range(1, 6):
        want = c.lookup(0, (i,), ()) \
            - wedgedot(eval_row(c, 1, []), imc.C0(i), ideal).as_vform()
        assert h.lookup(0, (i,), ()) == want
        assert h.lookup(1, (), (i,)) == evaluate(c, [], [imc.h_basis(i)])
    c = random_cochain(A, f2.rep, 2, 2, 1, seed=32)
    h = hstar(imc, c)
    for i, j in itertools.combinations(range(1, 6), 2):
        want = c.lookup(0, (i, j), ()) \
            - (wedgedot(eval_row(c, 1, [A.basis(j)]), imc.C0(i), ideal).as_vform()
               - wedgedot(eval_row(c, 1, [A.basis(i)]), imc.C0(j), ideal).as_vform()) \
            + wedgedot_multi(eval_row(c, 2, []), [imc.C0(i), imc.C0(j)], ideal).as_vform()
        assert h.lookup(0, (i, j), ()) == want
    for i in range(1, 6):
        for j in range(1, 6):
            want = eval_row(c, 1, [A.basis(i)]).insert(imc.h_basis(j)).as_vform() \
                - wedgedot(eval_row(c, 2, []).insert(imc.h_basis(j)),
                           imc.C0(i), ideal).as_vform()
            assert h.lookup(1, (i,), (j,)) == want
    for j1, j2 in itertools.combinations_with_replacement(range(1, 6), 2):
        want = evaluate(c, [], [imc.h_basis(j1), imc.h_basis(j2)])
        assert h.lookup(2, (), (j1, j2)) == want


@pytest.mark.parametrize("seed", range(3))
def test_hstar_naturality_on_general_sections(seed, f2):
    # the level-1 projection formula holds for arbitrary sections once the
    # stored tables are Leibniz-expanded
    A, ideal, imc = f2.A, f2.ideal, f2.imc
    c = random_cochain(A, f2.rep, 1, 1, 1, seed=seed + 40)
    h = hstar(imc, c)
    alpha = random_section(A, 140 + seed, bound=1)
    c_alpha = evaluate(imc.cochain, [alpha])      # C(alpha), ideal-valued
    want = evaluate(c, [alpha]) \
        - wedgedot(eval_row(c, 1, []), c_alpha, ideal).as_vform()
    assert evaluate(h, [alpha]) == want
    assert evaluate(h, [], [alpha]) == evaluate(c, [], [imc.h_section(alpha)])


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("seed", range(2))
def test_hstar_is_cochain_map(pq, seed, f2):
    p, q = pq
    c = random_cochain(f2.A, f2.rep, p, q, 1, seed=seed)
    lhs = hstar(f2.imc, delta(f2.A, f2.rep, c))
    rhs = delta(f2.A, f2.rep, hstar(f2.imc, c))
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(3))
def test_hstar_idempotent_and_horizontal(seed, f2):
    c = random_cochain(f2.A, f2.rep, 2, 1, 1, seed=seed)
    h = hstar(f2.imc, c)
    assert is_horizontal(h, f2.ideal)
    assert hstar(f2.imc, h) == h


def test_hstar_kills_the_connection(all_fixtures):
    for fix in all_fixtures:
        assert hstar(fix.imc, fix.imc.cochain).is_zero


def test_hstar_fixes_coboundaries(f1):
    for seed in range(3):
        gamma = rvform(f1, 1, seed=seed)
        L = delta(f1.A, f1.rep, gamma)
        assert hstar(f1.imc, L) == L


def test_hstar_of_invariance_form_vanishes(f1, f2):
    for fix in (f1, f2):
        tc = invariance_form(fix.A, fix.conn, fix.rep)
        assert hstar(fix.imc, tc).is_zero


# -- horizontal exterior covariant derivative ------------------------------------


def test_D_of_connection_is_curvature(f2):
    assert Dhor(f2.imc, f2.imc.cochain) == curvature(f2.imc)


@pytest.mark.parametrize("pq", [(1, 1), (2, 1)])
@pytest.mark.parametrize("seed", range(2))
def test_D_commutes_with_delta(pq, seed, f2):
    p, q = pq
    c = random_cochain(f2.A, f2.rep, p, q, 1, seed=seed)
    assert delta(f2.A, f2.rep, Dhor(f2.imc, c)) == Dhor(f2.imc, delta(f2.A, f2.rep, c))


def test_D_maps_IM_to_IM(f2):
    gamma = rvform(f2, 1, seed=77)
    L = delta(f2.A, f2.rep, gamma)            # an IM form
    out = Dhor(f2.imc, L)
    assert check_IM(f2.A, f2.rep, out).passed
    assert is_horizontal(out, f2.ideal)


@pytest.mark.parametrize("seed", range(3))
def test_D_delta0_column_compatibility(seed, f1, f2):
    # left column of the curved double complex: D delta^0 = delta^0 d-nabla
    for fix in (f1, f2):
        w = rvform(fix, 1, seed=seed)
        lhs = Dhor(fix.imc, delta(fix.A, fix.rep, w))
        rhs = delta(fix.A, fix.rep, fix.conn.dnabla(w))
        assert lhs == rhs


# -- curvature -------------------------------------------------------------------


def test_curvature_explicit_formula(all_fixtures):
    # (R . v(a) - d-nabla U(h a), -U(h a)) reproduces D(C, v) exactly
    for fix in all_fixtures:
        A, imc, ideal = fix.A, fix.imc, fix.ideal
        conn = imc.coupling_connection()
        R = conn.curvature_R()
        om = curvature(imc)
        for i in range(1, A.rank + 1):
            v_i = imc.v_comps(i)
            u_i = imc.U_of_h(A.basis(i))
            lead = R.wedge_vform(v_i) - conn.dnabla(u_i)
            assert om.lookup(0, (i,), ()) == lead
            assert om.lookup(1, (), (i,)) == -u_i


def test_curvature_F1_values(f1):
    om = curvature(f1.imc)
    one, x = Poly.const(2, 1), Poly.var(2, 0)
    assert om.lookup(0, (1,), ()) == VForm(2, 1, 2, {(1, (1, 2)): one})
    assert om.lookup(1, (), (1,)) == VForm(2, 1, 1, {(1, (2,)): x})
    assert om == delta(f1.A, f1.rep, f1.curving)


def test_curvature_F2_vertical_rows(f2):
    om = curvature(f2.imc)
    # vertical basis: leading term ad(e3) e_a dx^dy, symbol zero
    ad_e3 = {1: (2, 1), 2: (1, -1)}
    for a in range(1, 4):
        lead = om.lookup(0, (2 + a,), ())
        if a in ad_e3:
            b, s = ad_e3[a]
            assert lead == VForm(2, 3, 2, {(b, (1, 2)): Poly.const(2, s)})
        else:
            assert lead.is_zero
        assert om.lookup(1, (), (2 + a,)).is_zero


def test_curvature_is_horizontal_IM(all_fixtures):
    for fix in all_fixtures:
        om = curvature(fix.imc)
        assert check_IM(fix.A, fix.rep, om).passed
        assert is_horizontal(om, fix.ideal)


def test_bianchi_on_all_fixtures(all_fixtures):
    for fix in all_fixtures:
        assert bianchi_check(fix.imc)


# -- deformations ----------------------------------------------------------------


def test_deform_zero_keeps_curvature(f2):
    gamma = rvform(f2, 1, seed=41)
    L = delta(f2.A, f2.rep, gamma)
    assert curvature(deform(f2.imc, L, 0)) == curvature(f2.imc)


def test_deform_abelian_curving_shift(f1):
    # L = delta0(gamma), gamma = y e dx: new curvature = delta0(F + d gamma)
    y = Poly.var(2, 1)
    gamma = VForm(2, 1, 1, {(1, (1,)): y})
    L = delta(f1.A, f1.rep, gamma)
    imc2 = deform(f1.imc, L, 1)
    want = delta(f1.A, f1.rep, f1.curving + gamma.d())
    assert curvature(imc2) == want


@pytest.mark.parametrize("lam", [-1, 1, 2, 3])
@pytest.mark.parametrize("seed", range(2))
def test_expansion_identity(lam, seed, f2):
    gamma = rvform(f2, 1, seed=seed)
    L = delta(f2.A, f2.rep, gamma)
    om = curvature(f2.imc)
    lhs = curvature(deform(f2.imc, L, lam))
    rhs = om + Dhor(f2.imc, L).scaled(lam) + c2(f2.ideal, L).scaled(lam * lam)
    assert lhs == rhs


def test_expansion_with_kernel_cocycles(f1):
    # bounded-degree horizontal IM kernel elements, not only coboundaries
    from weilcalc import bounded_kernel
    basis = bounded_kernel(f1.A, f1.rep, 1, 1, 1, horizontal_ideal=f1.ideal)
    om = curvature(f1.imc)
    hit = 0
    for L in basis[:6]:
        if not check_IM(f1.A, f1.rep, L).passed:
            continue
        hit += 1
        lhs = curvature(deform(f1.imc, L, 2))
        rhs = om + Dhor(f1.imc, L).scaled(2) + c2(f1.ideal, L).scaled(4)
        assert lhs == rhs
    assert hit > 0


def test_expansion_with_nontrivial_deformations(f3):
    # F3 carries horizontal IM forms that are not coboundaries at the bound
    from weilcalc import bounded_kernel
    basis = bounded_kernel(f3.A, f3.rep, 1, 1, 1, horizontal_ideal=f3.ideal)
    om = curvature(f3.imc)
    nontrivial = 0
    for L in basis:
        if nontrivial >= 3:
            break
        if not check_IM(f3.A, f3.rep, L).passed:
            continue
        if solve_coboundary(f3.A, f3.rep, L, 2) is not None:
            continue
        nontrivial += 1
        for lam in (1, 2):
            lhs = curvature(deform(f3.imc, L, lam))
            rhs = om + Dhor(f3.imc, L).scaled(lam) \
                + c2(f3.ideal, L).scaled(lam * lam)
            assert lhs == rhs
    assert nontrivial > 0


@pytest.mark.parametrize("name", ["f2", "f3"])
def test_expansion_with_sums_of_kernel_cocycles(name, request):
    # c2 vanishes on each horizontal kernel basis vector; sums of
    # neighbours reach a nonzero c2, so the lambda^2 term is exercised
    from weilcalc import bounded_kernel
    fix = request.getfixturevalue(name)
    basis = bounded_kernel(fix.A, fix.rep, 1, 1, 1, horizontal_ideal=fix.ideal)
    om = curvature(fix.imc)
    nonzero = 0
    for L in (x + y for x, y in zip(basis, basis[1:])):
        quad = c2(fix.ideal, L)
        nonzero += not quad.is_zero
        for lam in (-1, 2):
            lhs = curvature(deform(fix.imc, L, lam))
            assert lhs == om + Dhor(fix.imc, L).scaled(lam) + quad.scaled(lam * lam)
    assert nonzero > 0


def test_c2_quadratic_coboundary_identity(f1, f2):
    for fix in (f1, f2):
        for seed in range(3):
            gamma = rvform(fix, 1, seed=seed + 60)
            L = delta(fix.A, fix.rep, gamma)
            lhs = c2(fix.ideal, L)
            gg = bracket_of_forms(fix.ideal, gamma, gamma)
            rhs = delta(fix.A, fix.rep, gg).scaled(Fraction(-1, 2))
            assert lhs == rhs


def test_c2_spec_example_bracket_value(f2):
    one = Poly.const(2, 1)
    gamma = VForm(2, 3, 1, {(1, (1,)): one, (2, (2,)): one})  # e1 dx + e2 dy
    gg = bracket_of_forms(f2.ideal, gamma, gamma)
    assert gg == VForm(2, 3, 2, {(3, (1, 2)): Poly.const(2, 2)})
    L = delta(f2.A, f2.rep, gamma)
    assert c2(f2.ideal, L) == delta(f2.A, f2.rep, gg).scaled(Fraction(-1, 2))


def c2_reference(ideal, L):
    """The evaluation-based c2: c2(L, l)(a) = -(L|_ideal paired with L a,
    L|_ideal . l a), with L|_ideal read by Leibniz evaluation of L on the
    embedded ideal components."""
    A = ideal.A
    n, r, m = A.nvars, A.rank, ideal.m

    def apply_L(xi):
        return evaluate(L, [ideal.embed(Section(n, xi))])

    comps = {}
    for i in range(1, r + 1):
        Li = L.lookup(0, (i,), ())
        acc = VForm.zero(n, m, 2)
        for a, bb in itertools.combinations(range(1, n + 1), 2):
            xi_a = tuple(Li.get(cc, (a,)) for cc in range(1, m + 1))
            xi_b = tuple(Li.get(cc, (bb,)) for cc in range(1, m + 1))
            val = [Poly.zero(n) for _ in range(m)]
            if any(not p.is_zero for p in xi_a):
                va = apply_L(xi_a)
                for cc in range(m):
                    val[cc] = val[cc] + va.get(cc + 1, (bb,))
            if any(not p.is_zero for p in xi_b):
                vb = apply_L(xi_b)
                for cc in range(m):
                    val[cc] = val[cc] - vb.get(cc + 1, (a,))
            acc = acc + VForm(n, m, 2, {(cc + 1, (a, bb)): val[cc] for cc in range(m)})
        comps[(0, (i,), ())] = -acc
    for j in range(1, r + 1):
        lj = L.lookup(1, (), (j,))
        vj = tuple(lj.get(a, ()) for a in range(1, m + 1))
        if any(not p.is_zero for p in vj):
            comps[(1, (), (j,))] = -apply_L(vj)
    return WeilCochain(A, m, 1, 2, comps)


def test_c2_matches_evaluation_reference_on_coboundaries(f1, f2, f3):
    for fix in (f1, f2, f3):
        for seed in range(3):
            gamma = rvform(fix, 1, seed=seed + 90, bound=2)
            L = delta(fix.A, fix.rep, gamma)
            assert is_horizontal(L, fix.ideal)
            assert c2(fix.ideal, L) == c2_reference(fix.ideal, L)


def test_c2_matches_evaluation_reference_on_kernel_elements(f1, f2, f3):
    # c2 is quadratic: each basis element of the horizontal kernel has c2 = 0
    # here, the sums of neighbours do not on F2 and F3
    from weilcalc import bounded_kernel
    for fix in (f1, f2, f3):
        basis = bounded_kernel(fix.A, fix.rep, 1, 1, 1, horizontal_ideal=fix.ideal)
        nonzero = 0
        for L in basis + [x + y for x, y in zip(basis, basis[1:])]:
            assert check_IM(fix.A, fix.rep, L).passed
            got = c2(fix.ideal, L)
            assert got == c2_reference(fix.ideal, L)
            nonzero += not got.is_zero
        assert nonzero > 0 or fix is f1


def test_c2_rejects_non_horizontal_deformation(f1, f2):
    # the connection itself is not horizontal: v restricts to the identity
    for fix in (f1, f2):
        assert not is_horizontal(fix.imc.cochain, fix.ideal)
        with pytest.raises(ContractError):
            c2(fix.ideal, fix.imc.cochain)


def test_deform_rejects_bad_input(f2):
    c = random_cochain(f2.A, f2.rep, 1, 1, 1, seed=71)   # not IM
    with pytest.raises(ContractError):
        deform(f2.imc, c, 1)
    vertical = WeilCochain(f2.A, 3, 1, 1, {(1, (), (3,)): VForm(
        2, 3, 0, {(1, ()): Poly.const(2, 1)})})          # not horizontal
    with pytest.raises(ContractError):
        deform(f2.imc, vertical, 1)


def test_im_connection_rejects_a_cochain_over_another_algebroid(f1):
    # the coupling of F1 with curving 2x dx^dy: the same ideal indices and
    # symbol over another algebroid
    from weilcalc.fixtures import _tangent_presentation
    from weilcalc.ideals import IMConnection
    F = VForm(2, 1, 2, {(1, (1, 2)): Poly.var(2, 0) * 2})
    A, _, other, _ = build_coupled(_tangent_presentation(2), 1, {},
                                   LinearConnection.trivial(2, 1), F)
    assert A != f1.A and other.ideal.indices == f1.ideal.indices
    for validate in (True, False):
        with pytest.raises(StructureError, match="cochain lives over a different algebroid"):
            IMConnection(f1.ideal, other.cochain, validate=validate)


@pytest.mark.parametrize("lam", [0.1, 2.0, True])
def test_deform_rejects_inexact_lambda(f1, lam):
    # a float would deform by its binary fraction, 0.1 by 3602879701896397/2^55
    L = delta(f1.A, f1.rep, VForm(2, 1, 1, {(1, (1,)): Poly.var(2, 1)}))
    with pytest.raises(TypeError, match="not an exact rational"):
        deform(f1.imc, L, lam)
    assert deform(f1.imc, L, Fraction(1, 10)).cochain \
        == (f1.imc.cochain + L.scaled(Fraction(1, 10)))


# -- obstruction cocycles ----------------------------------------------------------


def test_obstruction_of_actual_connection_vanishes(f2):
    vsecs = {j: f2.imc.v_comps(j) for j in range(1, 6)}
    U = {i: f2.imc.U_of_h(f2.A.basis(i)) for i in (1, 2)}
    obs = obstruction_cocycle(f2.A, f2.ideal, vsecs, f2.conn, U)
    assert obs.is_zero


def test_obstruction_with_zero_U(f1):
    vsecs = frame_splitting(f1.ideal)
    obs = obstruction_cocycle(f1.A, f1.ideal, vsecs, f1.conn, None)
    assert not obs.is_zero
    assert is_horizontal(obs, f1.ideal)
    assert delta(f1.A, f1.rep, obs).is_zero
    corr = solve_coboundary(f1.A, f1.rep, obs, 2, horizontal_ideal=f1.ideal)
    assert corr is not None
    fixed = splitting_cochain(f1.A, f1.ideal, vsecs, f1.conn, None) - corr
    assert check_IM(f1.A, f1.rep, fixed).passed


def test_obstruction_triple_independence(f2):
    A, ideal, rep = f2.A, f2.ideal, f2.rep
    vsecs = {j: f2.imc.v_comps(j) for j in range(1, 6)}
    triples = [
        (vsecs, f2.conn, None),
        (vsecs, f2.conn.shifted(EndForm(2, 3, 1, {(1, 1, (1,)): Poly.var(2, 1)})), None),
        (frame_splitting(ideal), LinearConnection.trivial(2, 3), None),
    ]
    cocycles = [obstruction_cocycle(A, ideal, v, c, u) for v, c, u in triples]
    for obs in cocycles:
        assert is_horizontal(obs, ideal)
        assert delta(A, rep, obs).is_zero
    for o1, o2 in itertools.combinations(cocycles, 2):
        corr = solve_coboundary(A, rep, o1 - o2, 2, horizontal_ideal=ideal)
        assert corr is not None


def test_obstruction_rejects_non_splitting(f1):
    vsecs = frame_splitting(f1.ideal)
    vsecs[3] = Section(2, [Poly.zero(2)])   # drop the identity on the ideal
    with pytest.raises(ContractError):
        obstruction_cocycle(f1.A, f1.ideal, vsecs, f1.conn, None)


def test_obstruction_rejects_vertical_U(f1):
    vsecs = frame_splitting(f1.ideal)
    U = {3: VForm(2, 1, 1, {(1, (1,)): Poly.const(2, 1)})}
    with pytest.raises(ContractError):
        obstruction_cocycle(f1.A, f1.ideal, vsecs, f1.conn, U)


# -- coupling data -------------------------------------------------------------------


def test_coupling_checks_pass_on_fixtures(all_fixtures):
    for fix in all_fixtures:
        report = coupling_checks(fix.imc)
        assert report.passed, report.failures


def test_coupling_checks_catch_zeroed_U(f2):
    # replace the connection cochain by one with U = 0: S.2 must fail
    vsecs = {j: f2.imc.v_comps(j) for j in range(1, 6)}
    cv = splitting_cochain(f2.A, f2.ideal, vsecs, f2.conn, None)
    from weilcalc.ideals import IMConnection
    imc = IMConnection(f2.ideal, cv, validate=False)
    report = coupling_checks(imc)
    assert not report.passed
    assert any("S.2" in label for label, _ in report.failures)


def _non_preserving_connection():
    """d + x dx on u_1 only: not a derivation of so(3)'s bracket along d_x."""
    return LinearConnection(2, 3, {(1, 1, 1): Poly.var(2, 0)})


def test_coupling_checks_catch_non_preserving_connection(f2):
    # F2's splitting cochain rebuilt with that connection and F2's U
    U = {i: -f2.curving.iota(f2.A.rho_basis(i)) for i in (1, 2)}
    cv = splitting_cochain(f2.A, f2.ideal, f2.vsecs, _non_preserving_connection(), U)
    from weilcalc.ideals import IMConnection
    report = coupling_checks(IMConnection(f2.ideal, cv, validate=False))
    assert [label for label, _ in report.failures] == [
        "S.1 bracket-preserving", "S.2 curvature vs U", "orbit connection identity"]


def test_abelian_iff_invariant_dichotomy(f1, f2):
    r1 = coupling_checks(f1.imc)
    r2 = coupling_checks(f2.imc)
    assert r1.passed and r2.passed   # both sides of the equivalence hold


# -- the coupling construction ----------------------------------------------------


def test_build_coupled_outputs_validate(all_fixtures):
    for fix in all_fixtures:
        assert validate_algebroid(fix.A).passed


def test_build_coupled_rejects_wrong_curvature(f2):
    from weilcalc.fixtures import _so3_fibre, _tangent_presentation
    B = _tangent_presentation(2)
    x = Poly.var(2, 0)
    conn = LinearConnection(2, 3, {(2, 2, 1): x, (2, 1, 2): -x})
    bad_F = VForm(2, 3, 2, {(3, (1, 2)): Poly.const(2, 1)})   # sign flipped
    with pytest.raises(ContractError) as err:
        build_coupled(B, 3, _so3_fibre(2), conn, bad_F)
    assert "(ii)" in str(err.value)
    # and the raw bracket then genuinely fails Jacobi
    raw = coupled_presentation(B, 3, _so3_fibre(2), conn, bad_F)
    assert not validate_algebroid(raw).passed


def test_build_coupled_rejects_nontransversal_dF():
    from weilcalc.fixtures import _tangent_presentation
    B = _tangent_presentation(2)
    conn = LinearConnection.trivial(2, 1)
    F = VForm(2, 1, 1, {})
    # abelian rank-1 with F = x dy: d-nabla F = dx^dy, iota_rho != 0
    F = VForm(2, 1, 2, {})
    bad_F = VForm(2, 1, 2, {(1, (1, 2)): Poly.zero(2)})
    # use n=3 so dF can be nonzero transversally; here force failure via (iii)
    B3 = _tangent_presentation(3)
    conn3 = LinearConnection.trivial(3, 1)
    F3 = VForm(3, 1, 2, {(1, (2, 3)): Poly.var(3, 0)})   # x1 dx2^dx3, dF = dx1dx2dx3
    with pytest.raises(ContractError) as err:
        build_coupled(B3, 1, {}, conn3, F3)
    assert "(iii)" in str(err.value)
    raw = coupled_presentation(B3, 1, {}, conn3, F3)
    assert not validate_algebroid(raw).passed


def test_build_coupled_rejects_nonpreserving_connection():
    from weilcalc.fixtures import _so3_fibre, _tangent_presentation
    B = _tangent_presentation(2)
    x = Poly.var(2, 0)
    # Gamma with a non-derivation value breaks (i)
    conn = LinearConnection(2, 3, {(2, 1, 1): x})
    F = VForm.zero(2, 3, 2)
    with pytest.raises(ContractError) as err:
        build_coupled(B, 3, _so3_fibre(2), conn, F)
    assert "(i)" in str(err.value)


def test_build_coupled_names_the_first_non_preserving_direction(f2):
    from weilcalc.fixtures import _so3_fibre, _tangent_presentation
    with pytest.raises(ContractError) as err:
        build_coupled(_tangent_presentation(2), 3, _so3_fibre(2),
                      _non_preserving_connection(), f2.curving)
    assert str(err.value) == ("coupling condition (i) fails: connection does not "
                              "preserve the fibre bracket at (x=1, 1,2)")


def test_build_coupled_rejects_an_unordered_fibre_key():
    from weilcalc.fixtures import _tangent_presentation
    fibre = {(2, 1, 1): Poly.const(2, 1)}
    with pytest.raises(StructureError, match="bad structure key"):
        build_coupled(_tangent_presentation(2), 2, fibre, LinearConnection.trivial(2, 2),
                      VForm.zero(2, 2, 2))


def test_semidirect_product_case():
    from weilcalc.fixtures import _tangent_presentation
    B = _tangent_presentation(2)
    conn = LinearConnection.trivial(2, 1)
    A, ideal, imc, F = build_coupled(B, 1, {}, conn, VForm.zero(2, 1, 2))
    assert validate_algebroid(A).passed
    assert curvature(imc).is_zero


# -- curvings ---------------------------------------------------------------------


def test_curving_suite_on_fixtures(f1, f2, f3):
    for fix in (f1, f2, f3):
        gamma = rvform(fix, 1, seed=5)
        report = curving_suite(fix.imc, fix.curving, gamma=gamma)
        assert report.passed, report.failures


def test_F1_threeform_vanishes_on_surface(f1):
    assert f1.conn.dnabla(f1.curving).is_zero   # top degree on Q^2


def test_F3_has_nonzero_threeform(f3):
    G = f3.conn.dnabla(f3.curving)
    assert G == VForm(4, 1, 3, {(1, (2, 3, 4)): Poly.const(4, 1)})
    assert delta(f3.A, f3.rep, G).is_zero
    assert f3.conn.dnabla(G).is_zero


def test_noninvariant_shift_breaks_curving(f1):
    beta = VForm(2, 1, 2, {(1, (1, 2)): Poly.const(2, 1)})   # dx^dy e
    report = curving_suite(f1.imc, f1.curving + beta)
    assert not report.passed
    assert any("delta0(F) == curvature" in label for label, _ in report.failures)


def test_invariant_shift_keeps_curving(f3):
    # x2 dx3^dx4 -> + dx3^dx4: still invariant for the rank-1 foliation
    beta = VForm(4, 1, 2, {(1, (3, 4)): Poly.const(4, 1)})
    assert delta(f3.A, f3.rep, beta).is_zero
    report = curving_suite(f3.imc, f3.curving + beta)
    assert report.passed, report.failures


# -- semisimple tools ----------------------------------------------------------------


def test_semisimple_detection(f0, f1, f2):
    # check_semisimple tests completeness, H^0(g; g) = H^1(g; g) = 0
    assert check_semisimple(f0.ideal)
    assert check_semisimple(f2.ideal)
    assert not check_semisimple(f1.ideal)
    # aff(1), [x, y] = y, is solvable but complete; r_{3,1}, [x, y] = y and
    # [x, z] = z, is centre-free with the outer derivation y -> z
    for name, complete in [("aff1", True), ("sl2", True), ("so3+so3", True),
                           ("r31", False), ("so3+u1", False)]:
        m, table, _ = ALGEBRAS[name]
        assert check_semisimple(fibre_bundle(m, table)) is complete, name


def test_nilpotent_fibre_is_not_semisimple():
    # Heisenberg: [e1, e2] = e3 has a center, so ad is not injective
    from weilcalc.algebroid import AlgebroidPresentation
    from weilcalc import IdealBundle
    A = AlgebroidPresentation(0, 3, {(1, 2, 3): Poly.const(0, 1)}, {})
    assert validate_algebroid(A).passed
    assert not check_semisimple(IdealBundle(A, (1, 2, 3)))


def test_ad_inverse_example(f2):
    one = Poly.const(2, 1)
    D = EndForm(2, 3, 1, {(2, 1, (1,)): -one, (1, 2, (1,)): one})   # -ad(e3) dx
    out = ad_inverse(f2.ideal, D)
    assert out == VForm(2, 3, 1, {(3, (1,)): one})


@pytest.mark.parametrize("seed", range(5))
def test_ad_inverse_roundtrip(seed, f2):
    gamma = rvform(f2, (seed % 2) + 1, seed=seed)
    D = -f2.ideal.ad_endform(gamma)
    assert ad_inverse(f2.ideal, D) == gamma


def test_ad_solve_takes_delta_of_its_target_once(f2, monkeypatch):
    # the solver's unknowns and its solution are 0-cochains, so every
    # delta of a 1-cochain is one of T
    from weilcalc import ideals, weil
    gamma = rvform(f2, 1, seed=0)
    levels = []

    def counting(fn):
        def wrapper(A, rep, c):
            levels.append(c.p)
            return fn(A, rep, c)
        return wrapper

    monkeypatch.setattr(ideals, "delta", counting(ideals.delta))
    monkeypatch.setattr(weil, "delta", counting(weil.delta))
    assert ideals._ad_solve(f2.ideal, -f2.ideal.ad_endform(gamma)) == gamma
    assert levels.count(1) == 1


def test_ad_solve_lets_other_solver_errors_through(f2, monkeypatch):
    from weilcalc import ideals, weil
    D = -f2.ideal.ad_endform(rvform(f2, 1, seed=0))
    monkeypatch.setattr(weil._linsolve, "solve_sparse", lambda columns, rhs: {})
    with pytest.raises(ContractError, match="does not satisfy delta b = target"):
        ideals._ad_solve(f2.ideal, D)


def test_unique_curving_F2(f2):
    F = unique_curving(f2.imc)
    assert F == VForm(2, 3, 2, {(3, (1, 2)): Poly.const(2, -1)})
    assert delta(f2.A, f2.rep, F) == curvature(f2.imc)


def test_delta0_injective_on_so3(f0):
    # zero center: delta^0 xi = 0 forces xi = 0
    from weilcalc import bounded_kernel
    basis = bounded_kernel(f0.A, f0.rep, 0, 0, 0)
    assert basis == []


def test_ad_inverse_rejects_abelian(f1):
    with pytest.raises(ContractError):
        ad_inverse(f1.ideal, EndForm(2, 1, 1, {}))


def test_ad_inverse_rejects_an_endform_over_another_chart(f2):
    x3 = Poly.var(3, 2)
    with pytest.raises(StructureError, match="End-form does not act on the ideal bundle"):
        ad_inverse(f2.ideal, EndForm(3, 3, 0, {(3, 2, ()): x3, (2, 3, ()): -x3}))


@pytest.mark.parametrize("rank", [2, 4])
def test_ad_inverse_rejects_an_endform_of_another_rank(rank, f2):
    one = Poly.const(2, 1)
    with pytest.raises(StructureError, match="End-form does not act on the ideal bundle"):
        ad_inverse(f2.ideal, EndForm(2, rank, 1, {(2, 1, (1,)): -one, (1, 2, (1,)): one}))


def test_primitive_from_pair_reconstructs_F2(f2):
    vsecs = {j: f2.imc.v_comps(j) for j in range(1, 6)}
    imc, F = primitive_from_pair(f2.A, f2.ideal, vsecs, f2.conn)
    assert imc.cochain == f2.imc.cochain
    assert F == f2.curving


def test_primitive_from_pair_rejects_bad_connection(f2):
    vsecs = {j: f2.imc.v_comps(j) for j in range(1, 6)}
    with pytest.raises(ContractError):
        primitive_from_pair(f2.A, f2.ideal, vsecs, LinearConnection.trivial(2, 3))


# -- the abelian case -----------------------------------------------------------------


def test_abelian_checks_pass(f1, f3):
    for fix in (f1, f3):
        report = abelian_primitive_check(fix.A, fix.ideal, fix.vsecs,
                                         fix.conn, fix.curving)
        assert report.passed, report.failures


def test_abelian_check_detects_curved_connection(f1):
    x = Poly.var(2, 0)
    conn = LinearConnection(2, 1, {(2, 1, 1): x})   # d + x dy, R != 0
    report = abelian_primitive_check(f1.A, f1.ideal, f1.vsecs, conn, f1.curving)
    assert not report.passed
    assert any("flat" in label for label, _ in report.failures)


def test_abelian_check_detects_a_flat_connection_off_the_quotient_action(f1):
    conn = LinearConnection(2, 1, {(1, 1, 1): Poly.const(2, 1)})   # d + dx, flat
    report = abelian_primitive_check(f1.A, f1.ideal, f1.vsecs, conn, f1.curving)
    assert [label for label, _ in report.failures] == ["nabla induces the quotient action"]


def test_abelian_check_rejects_nonabelian(f2):
    with pytest.raises(ContractError):
        abelian_primitive_check(f2.A, f2.ideal, f2.vsecs, f2.conn, f2.curving)


def test_splitting_curvature_matches_pullback(f1):
    fv = splitting_curvature(f1.A, f1.ideal, f1.vsecs)
    x = Poly.var(2, 0)
    assert fv[(1, 2)] == Section(2, [x])   # sigma[b1,b2] - [sigma b1, sigma b2] = x e


# -- polynomial-anchor integration ---------------------------------------------


def build_affine_coupled():
    """Coupled algebroid over the affine algebroid on Q^2: the anchor of the
    scaling section is x d/dx, so every anchor-derivative path is exercised."""
    from weilcalc.algebroid import AlgebroidPresentation
    one, x, y = Poly.const(2, 1), Poly.var(2, 0), Poly.var(2, 1)
    B = AlgebroidPresentation(2, 2, {(1, 2, 1): one},
                              {(1, 1): one, (2, 1): x})
    conn = LinearConnection.trivial(2, 1)
    F = VForm(2, 1, 2, {(1, (1, 2)): y})
    return build_coupled(B, 1, {}, conn, F)


@pytest.fixture(scope="module")
def affine_coupled():
    return build_affine_coupled()


def test_affine_coupled_passes_all_checkers(affine_coupled):
    A, ideal, imc, F = affine_coupled
    rep = ideal.adjoint_rep()
    assert validate_algebroid(A).passed
    assert check_IM(A, rep, imc.cochain).passed
    assert coupling_checks(imc).passed
    assert bianchi_check(imc)
    gamma = VForm(2, 1, 1, {(1, (2,)): Poly.var(2, 0)})
    assert curving_suite(imc, F, gamma=gamma).passed


def test_affine_coupled_complex_identities(affine_coupled):
    A, ideal, imc, _ = affine_coupled
    rep = ideal.adjoint_rep()
    for seed in range(3):
        c = random_cochain(A, rep, 2, 1, 1, seed=seed)
        assert delta(A, rep, delta(A, rep, c)).is_zero
        assert hstar(imc, delta(A, rep, c)) == delta(A, rep, hstar(imc, c))
        assert delta(A, rep, Dhor(imc, c)) == Dhor(imc, delta(A, rep, c))


def test_affine_coupled_expansion(affine_coupled):
    A, ideal, imc, _ = affine_coupled
    rep = ideal.adjoint_rep()
    gam = VForm(2, 1, 1, {(1, (1,)): Poly.var(2, 0) * Poly.var(2, 1)})
    L = delta(A, rep, gam)
    om = curvature(imc)
    for lam in (1, 3):
        got = curvature(deform(imc, L, lam))
        want = om + Dhor(imc, L).scaled(lam) + c2(ideal, L).scaled(lam * lam)
        assert got == want
