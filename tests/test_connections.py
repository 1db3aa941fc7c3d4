import itertools
import json
import random

import pytest

from weilcalc import (AlgebroidPresentation, ARep, LinearConnection, Poly, StructureError,
                      VForm, WeilCochain, act, ad_inverse, compose, induced_end_connection,
                      induced_end_rep, invariance_form, is_A_invariant, lieA_derivative,
                      validate_rep)
from weilcalc.algebroid import Section, bracket
from weilcalc.polyring import default_names
from weilcalc.specfile import connection_from_dict, connection_to_dict, dumps_canonical
from weilcalc.fixtures import random_poly, random_vform

from helpers import (lieA_vform, random_endform, random_section, random_symform,
                     scalar_wedge)
from test_algebroid import apply_field, end_form


def rvf(seed, degree, nvars=2, rank=1):
    return random_vform(random.Random(f"cvf:{seed}"), nvars, rank, degree, 2)


def test_dnabla_trivial_connection_reduces_to_d():
    conn = LinearConnection.trivial(2, 1)
    x = Poly.var(2, 0)
    w = VForm(2, 1, 1, {(1, (2,)): x})          # x u dy
    assert conn.dnabla(w) == w.d()


def test_dnabla_f2_coupling_on_constant_section(f2):
    conn = f2.conn
    u1 = VForm(2, 3, 0, {(1, ()): Poly.const(2, 1)})
    out = conn.dnabla(u1)
    x = Poly.var(2, 0)
    assert out == VForm(2, 3, 1, {(2, (2,)): x})   # x dy (x) [e3,e1] = x dy u_2


@pytest.mark.parametrize("seed", range(8))
def test_dnabla_squared_is_curvature_wedge(seed, f2):
    conn = f2.conn
    w = random_vform(random.Random(f"dn2:{seed}"), 2, 3, seed % 2, 1)
    lhs = conn.dnabla(conn.dnabla(w))
    rhs = act(conn.curvature_R(), w)
    assert lhs == rhs


def test_curvature_trivial_is_flat():
    assert LinearConnection.trivial(2, 2).curvature_R().is_zero


def test_curvature_f2_is_ad_e3(f2):
    R = f2.conn.curvature_R()
    want = end_form(2, 3, 2, {(2, 1, (1, 2)): Poly.const(2, 1),
                              (1, 2, (1, 2)): Poly.const(2, -1)})
    assert R == want


@pytest.mark.parametrize("idx", [(2, 1), (1, 7)], ids=["unsorted", "out_of_chart"])
def test_end_valued_form_rejects_bad_form_index(idx):
    with pytest.raises(StructureError):
        end_form(2, 1, 2, {(1, 1, idx): Poly.var(2, 0)})


def test_bianchi_for_any_connection(f2):
    R = f2.conn.curvature_R()
    end_conn = induced_end_connection(f2.conn)
    assert end_conn.dnabla(R).is_zero


@pytest.mark.parametrize("rank", [2, 3])
def test_connection_spec_round_trip_keeps_every_christoffel(rank):
    # Gamma^b_{a c} = (100 a + 10 b + c) x1^b x2^c: every entry differs, and
    # none equals its (b, c) transpose, so a row/column swap anywhere in the
    # End(V) layout moves an entry onto another key
    n, names = 2, default_names(2)
    table = {(a, b, c): Poly.monomial(n, (b, c), 100 * a + 10 * b + c)
             for a, b, c in itertools.product(range(1, n + 1), range(1, rank + 1),
                                              range(1, rank + 1))}
    conn = LinearConnection(n, rank, table)
    assert conn.christoffels() == table
    doc = json.loads(dumps_canonical(connection_to_dict(conn, names)))
    assert set(doc["christoffels"]) == {f"{a},{b},{c}" for a, b, c in table}
    back = connection_from_dict(doc, n, names, "connection")
    assert back == conn
    for (a, b, c), p in table.items():
        assert conn.gamma(a, b, c) == p and back.gamma(a, b, c) == p
    # an index past the bundle never aliases another entry of the layout
    for b, c in ((1, rank + 1), (rank + 1, 1), (0, 1)):
        with pytest.raises(StructureError, match="out of range"):
            conn.gamma(1, b, c)


def _shape_cases(f2):
    """Each End(V)-valued operation on F2's rank-3 ideal bundle V given a
    form of the wrong rank, with the error it must raise."""
    x = Poly.var(2, 0)
    v = VForm(2, 3, 1, {(1, (1,)): x, (2, (1,)): -x})  # V-valued, rank m
    e = end_form(2, 3, 1, {(1, 2, (1,)): x})  # End(V)-valued, rank m^2
    e2 = end_form(2, 2, 1, {(1, 2, (1,)): x})  # End of a rank-2 bundle
    acts = r"End\(V\)-valued form and form bundles differ"
    return {
        "act_on_V_valued_as_End": (lambda: act(v, v), acts),
        "act_with_End_of_other_rank": (lambda: act(e2, v), acts),
        "compose_rank_not_square": (lambda: compose(v, v), "not a perfect square"),
        "compose_other_ranks": (lambda: compose(e, e2), "act on different bundles"),
        "compose_other_ranks_reversed": (lambda: compose(e2, e), "act on different bundles"),
        "shifted_by_rank_m": (lambda: f2.conn.shifted(v), "shift must be an End"),
        "shifted_by_End_of_other_rank": (lambda: f2.conn.shifted(e2), "shift must be an End"),
        "ad_inverse_of_rank_m": (lambda: ad_inverse(f2.ideal, v), "does not act on the ideal"),
    }


@pytest.mark.parametrize("name", ["act_on_V_valued_as_End", "act_with_End_of_other_rank",
                                  "compose_rank_not_square", "compose_other_ranks",
                                  "compose_other_ranks_reversed", "shifted_by_rank_m",
                                  "shifted_by_End_of_other_rank", "ad_inverse_of_rank_m"])
def test_end_valued_operations_reject_a_form_of_the_wrong_rank(f2, name):
    call, message = _shape_cases(f2)[name]
    with pytest.raises(StructureError, match=message):
        call()


def test_dnabla_graded_leibniz_over_scalars(f2):
    conn = f2.conn
    s = rvf(3, 1)
    w = random_vform(random.Random("gl"), 2, 3, 1, 1)
    lhs = conn.dnabla(scalar_wedge(s, w))
    rhs = scalar_wedge(s.d(), w) - scalar_wedge(s, conn.dnabla(w))
    assert lhs == rhs


# -- representations ----------------------------------------------------------


def test_adjoint_reps_are_flat(all_fixtures):
    for fix in all_fixtures:
        assert validate_rep(fix.A, fix.rep).passed


def test_broken_rep_fails_flatness(f2):
    psi = dict(f2.rep.psi)
    psi[(1, 1, 1)] = Poly.var(2, 1)
    report = validate_rep(f2.A, ARep(2, 5, 3, psi))
    assert not report.passed


@pytest.mark.parametrize("seed", range(5))
def test_rep_flatness_on_random_sections(seed, f2):
    A, rep = f2.A, f2.rep
    a = random_section(A, 500 + seed)
    b = random_section(A, 600 + seed)
    xi = VForm(2, 3, 0, {(t + 1, ()): random_poly(random.Random(f"xi:{seed}:{t}"), 2, 1)
                         for t in range(3)})
    lhs = lieA_vform(A, rep, bracket(A, a, b), xi)
    rhs1 = lieA_vform(A, rep, a, lieA_vform(A, rep, b, xi))
    rhs2 = lieA_vform(A, rep, b, lieA_vform(A, rep, a, xi))
    assert lhs == rhs1 - rhs2


# -- Lie derivative on symmetric-slot forms ------------------------------------


def test_lieA_reduces_to_lie_on_F1(f1):
    # rep acts trivially on the constant frame section; rho(f1) = d/dx
    F = f1.curving
    out = lieA_vform(f1.A, f1.rep, f1.A.basis(1), F)
    assert out == VForm(2, 1, 2, {(1, (1, 2)): Poly.const(2, 1)})


def test_lieA_vanishes_for_abelian_vertical_on_constants(f1):
    w = VForm(2, 1, 2, {(1, (1, 2)): Poly.const(2, 5)})
    assert lieA_vform(f1.A, f1.rep, f1.A.basis(3), w).is_zero


def test_lie_derivatives_of_a_function(f2):
    # on a 0-form f: L_X f = X(f) componentwise, and the covariant Lie
    # derivative is nabla_X f = X(f^b) + X^a Gamma^b_{a c} f^c
    conn = f2.conn
    f = random_vform(random.Random("lie0"), 2, 3, 0, 2)
    rng = random.Random("lie0:X")
    X = Section(2, [random_poly(rng, 2, 1), random_poly(rng, 2, 1)])
    assert f.lie(X) == VForm(2, 3, 0, {key: apply_field(X, p) for key, p in f.comps.items()})
    want = {}
    for b in range(1, 4):
        p = apply_field(X, f.get(b, ()))
        for a in range(1, 3):
            for c in range(1, 4):
                p = p + X.get(a, ()) * conn.gamma(a, b, c) * f.get(c, ())
        want[(b, ())] = p
    assert conn.lie_nabla(X, f) == VForm(2, 3, 0, want)


@pytest.mark.parametrize("seed", range(5))
def test_lieA_bracket_compatibility(seed, f2):
    # flatness on the Lie-derivative level: L_[a,b] = [L_a, L_b]
    from weilcalc import bracket
    A, rep = f2.A, f2.rep
    a = random_section(A, 700 + seed, bound=1)
    b = random_section(A, 800 + seed, bound=1)
    gamma = random_symform(f2, 1, 1, seed)
    lhs = lieA_derivative(A, rep, bracket(A, a, b), gamma)
    rhs = lieA_derivative(A, rep, a, lieA_derivative(A, rep, b, gamma)) \
        - lieA_derivative(A, rep, b, lieA_derivative(A, rep, a, gamma))
    assert lhs == rhs


def test_lieA_derivative_rejects_other_slot_rank(f2):
    # a slot index past the algebroid's frame: a row over a larger algebroid
    A = f2.A
    B = AlgebroidPresentation(A.nvars, A.rank + 1, A.structure, A.anchor)
    gamma = WeilCochain(B, 3, 1, 2,
                        {(1, (), (A.rank + 1,)): random_vform(random.Random("slot"), 2, 3, 1, 1)})
    with pytest.raises(StructureError, match="cochain lives over a different algebroid"):
        lieA_derivative(A, f2.rep, A.basis(1), gamma)


# -- invariance form ------------------------------------------------------------


def test_invariance_form_zero_for_F1(f1):
    inv = invariance_form(f1.A, f1.conn, f1.rep)
    assert inv.is_zero
    assert is_A_invariant(f1.A, f1.conn, f1.rep)


def test_theta_of_vertical_basis_is_ad(f2):
    inv = invariance_form(f2.A, f2.conn, f2.rep)
    # e3 sits at frame index 5; theta(e3) = ad(e3)
    want = end_form(2, 3, 0, {(2, 1, ()): Poly.const(2, 1),
                              (1, 2, ()): Poly.const(2, -1)})
    assert inv.lookup(1, (), (5,)) == want
    assert not is_A_invariant(f2.A, f2.conn, f2.rep)


def random_christoffel(fix, seed):
    """A connection on the fixture's ideal bundle whose Christoffel table is
    a seeded random End(V)-valued 1-form of degree <= 1."""
    trivial = LinearConnection.trivial(fix.A.nvars, fix.rep.rank)
    return trivial.shifted(random_endform(fix, 1, 100 + seed))


def christoffel_connections(fix):
    """The fixture's connection, the trivial one and two random tables."""
    return [fix.conn, LinearConnection.trivial(fix.A.nvars, fix.rep.rank),
            random_christoffel(fix, 0), random_christoffel(fix, 1)]


def test_T_explicit_matches_dnabla_theta_minus_iota_R(all_fixtures):
    # T(e_i) = d-nabla theta(e_i) - iota_{rho e_i} R, so theta = 0 leaves
    # T(e_i) = -iota_{rho e_i} R: the pair vanishes exactly when theta does
    # and R has no component along the orbits
    verdicts = set()
    for fix in all_fixtures:
        A = fix.A
        for conn in christoffel_connections(fix):
            inv = invariance_form(A, conn, fix.rep)
            end_conn = induced_end_connection(conn)
            R = conn.curvature_R()
            for i in range(1, A.rank + 1):
                direct = end_conn.dnabla(inv.lookup(1, (), (i,)))
                assert inv.lookup(0, (i,), ()) == direct - R.iota(A.rho_basis(i))
            theta_free = not any(k == 1 for k, _, _ in inv.comps)
            orbit_flat = all(R.iota(A.rho_basis(i)).is_zero for i in range(1, A.rank + 1))
            verdict = is_A_invariant(A, conn, fix.rep)
            assert verdict == (theta_free and orbit_flat), (fix.name, verdict)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_flat_connection_with_pullback_rep_is_invariant(f1):
    # nabla trivial and nabla^A := nabla_rho gives theta = 0, R = 0
    conn = LinearConnection.trivial(2, 1)
    rep = ARep(2, 3, 1)
    assert is_A_invariant(f1.A, conn, rep)


def test_invariant_curvature_is_invariant_form(f3):
    # F3 variant: nabla = d + x2 dx3 on the rank-1 ideal is A-invariant
    # with nonzero curvature; its curvature is an invariant form.
    conn = LinearConnection(4, 1, {(3, 1, 1): Poly.var(4, 1)})
    assert is_A_invariant(f3.A, conn, f3.rep)
    R = conn.curvature_R()
    assert not R.is_zero
    endrep = induced_end_rep(f3.rep)
    for i in range(1, f3.A.rank + 1):
        assert lieA_vform(f3.A, endrep, f3.A.basis(i), R).is_zero
        assert R.iota(f3.A.rho_basis(i)).is_zero


# -- induced End structures ------------------------------------------------------


def test_trivial_connection_induces_trivial_end():
    assert not induced_end_connection(LinearConnection.trivial(2, 3)).form.comps


def test_end_connection_acts_by_commutator(f2):
    end_conn = induced_end_connection(f2.conn)
    T = random_endform(f2, 0, seed=4)
    lhs = end_conn.dnabla(T)
    # direct: dT + [Gamma_a, T] dx^a
    direct = {}
    for a in range(1, 3):
        gam = end_form(2, 3, 0, {(b, c, ()): f2.conn.gamma(a, b, c)
                                 for b in range(1, 4) for c in range(1, 4)})
        comm = compose(gam, T) - compose(T, gam)
        for (f, ()), p in comm.comps.items():
            key = (f, (a,))
            direct[key] = direct.get(key, Poly.zero(2)) + p
    for (f, ()), p in T.comps.items():
        for a in range(1, 3):
            dp = p.diff(a - 1)
            if not dp.is_zero:
                key = (f, (a,))
                direct[key] = direct.get(key, Poly.zero(2)) + dp
    assert lhs == VForm(2, 9, 1, direct)


def test_end_connection_example_f2(f2):
    # covariant y-derivative of ad(e1) is x ad([e3, e1])
    ad_e1 = end_form(2, 3, 0, {(3, 2, ()): Poly.const(2, 1),
                               (2, 3, ()): Poly.const(2, -1)})
    end_conn = induced_end_connection(f2.conn)
    out = end_conn.dnabla(ad_e1)
    dy = Section(2, [Poly.zero(2), Poly.const(2, 1)])
    got = out.iota(dy)
    x = Poly.var(2, 0)
    ad_e2 = end_form(2, 3, 0, {(1, 3, ()): x, (3, 1, ()): -x})  # x ad(e2)
    assert got == ad_e2


def test_induced_end_rep_is_flat(f2):
    endrep = induced_end_rep(f2.rep)
    assert validate_rep(f2.A, endrep).passed
