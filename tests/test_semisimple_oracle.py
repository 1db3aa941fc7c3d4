"""The semisimple tools of ``ideals`` against the hand-built linear algebra.

``check_semisimple`` and ``ad_inverse`` read the fibre g of a bundle of
ideals as a Lie algebroid with zero anchor and V = g as its adjoint
representation, so that delta on W^{p,0} is the Chevalley-Eilenberg
complex C^p(g; g): H^0 is the centre and H^1 the outer derivations, and
-ad(gamma) = D is delta gamma = T with T(u_d) = D(u_d). The references
below are the rational matrices they replaced: the ad columns of the
fibre, the nullspace of the derivation constraints and one exact solve per
form component and monomial.

``check_semisimple`` runs on so(3), sl(2), so(3)+so(3), aff(1), the 2-dim
abelian algebra, the Heisenberg algebra, so(3)+u(1) and r_{3,1}, and on
seeded random antisymmetric constant tables of rank 2-4 that need not
satisfy Jacobi: both sides compute "ker ad = 0 and Der in span ad".
``ad_inverse`` runs on seeded random forms over so(3) and sl(2) on Q^2, and
both sides must reject a D outside ad(g) and a non-constant fibre with
the same text.
"""

import itertools
import random
from fractions import Fraction

import pytest

from weilcalc import (AlgebroidPresentation, ContractError, IdealBundle, Poly,
                      VForm, ad_inverse, check_semisimple, primitive_from_pair)
from weilcalc import _linsolve
from weilcalc.fixtures import _SO3 as SO3, random_vform

from test_algebroid import end_form


# -- references ------------------------------------------------------------------


def antisymmetric_ref(table, zero):
    """Lookup of structure constants stored for a < b as table[(a, b, c)],
    extended antisymmetrically in (a, b)."""
    def fib(a, b, c):
        if a == b:
            return zero
        if a < b:
            return table.get((a, b, c), zero)
        return -table.get((b, a, c), zero)
    return fib


def constant_fibre_ref(ideal):
    """Fibre bracket constants as an antisymmetric Fraction lookup; rejects
    non-constant structure."""
    n = ideal.A.nvars
    zero_exp = (0,) * n
    out = {}
    for a, b in itertools.combinations(range(1, ideal.m + 1), 2):
        f = ideal.restrict(ideal.A.bracket_basis(ideal.indices[a - 1], ideal.indices[b - 1]))
        for (c, _), p in f.comps.items():
            if not p.is_constant:
                raise ContractError("semisimple tools need constant fibre structure")
            out[(a, b, c)] = p.coeff(zero_exp)
    return antisymmetric_ref(out, Fraction(0))


def ad_columns_ref(m, fib):
    """ad(u_a) flattened as columns of an (m^2 x m) rational matrix."""
    cols = []
    for a in range(1, m + 1):
        col = {}
        for d in range(1, m + 1):
            for b in range(1, m + 1):
                v = fib(a, d, b)
                if v:
                    col[(b, d)] = v
        cols.append(col)
    return cols


def semisimple_ad_ref(ideal):
    """The ad columns of the fibre when ad is injective and every fibre
    derivation is inner; None otherwise."""
    m = ideal.m
    fib = constant_fibre_ref(ideal)
    cols = ad_columns_ref(m, fib)
    if _linsolve.nullspace_sparse(cols):
        return None
    # derivation constraints: D[u_a,u_b] = [D u_a, u_b] + [u_a, D u_b]
    dcols = []
    for row in range(1, m + 1):
        for colm in range(1, m + 1):
            col = {}
            for a, b in itertools.combinations(range(1, m + 1), 2):
                for d in range(1, m + 1):
                    # coefficient of D^{row}_{colm} in the (a,b,d) constraint
                    v = Fraction(0)
                    if row == d:
                        v -= fib(a, b, colm)
                    if colm == a:
                        v += fib(row, b, d)
                    if colm == b:
                        v += fib(a, row, d)
                    if v:
                        col[(a, b, d)] = col.get((a, b, d), Fraction(0)) + v
            dcols.append(col)
    # every derivation must be a combination of the ad columns
    for vec in _linsolve.nullspace_sparse(dcols):
        flat = {}
        for idx, v in vec.items():
            row, colm = divmod(idx, m)
            flat[(row + 1, colm + 1)] = v
        if _linsolve.solve_sparse(cols, flat) is None:
            return None
    return cols


def ad_solve_ref(ideal, cols, D):
    """The form gamma with -ad(gamma) = D, given the ad columns of the fibre."""
    n, m = ideal.A.nvars, ideal.m
    groups = {}
    for (f, idx), p in D.comps.items():
        b, d = divmod(f - 1, m)  # E^b_d sits at the End(V) index (b - 1) m + d
        for exps, (num, den) in p.items():
            groups.setdefault((idx, exps), {})[(b + 1, d + 1)] = Fraction(num, den)
    comps = {}
    for (idx, exps), rhs in groups.items():
        x = _linsolve.solve_sparse(cols, {k: -v for k, v in rhs.items()})
        if x is None:
            raise ContractError("End(V)-valued form is not ad of an ideal-valued form")
        for a, v in sorted(x.items()):
            key = (a + 1, idx)
            q = Poly.monomial(n, exps, v)
            cur = comps.get(key)
            comps[key] = q if cur is None else cur + q
    return VForm(n, ideal.m, D.degree, comps)


def ad_inverse_ref(ideal, D):
    cols = semisimple_ad_ref(ideal)
    if cols is None:
        raise ContractError("fibre is not semisimple: ad is not invertible onto Der")
    return ad_solve_ref(ideal, cols, D)


# -- inputs ----------------------------------------------------------------------


# name: (rank, {(a, b, c): [u_a, u_b]^c for a < b}, complete)
ALGEBRAS = {
    "so3": (3, SO3, True),
    "sl2": (3, {(1, 2, 2): 2, (1, 3, 3): -2, (2, 3, 1): 1}, True),   # h, e, f
    "so3+so3": (6, {**SO3, **{(a + 3, b + 3, c + 3): v for (a, b, c), v in SO3.items()}},
                True),
    "aff1": (2, {(1, 2, 2): 1}, True),
    "abelian2": (2, {}, False),
    "heisenberg": (3, {(1, 2, 3): 1}, False),
    "so3+u1": (4, SO3, False),
    "r31": (3, {(1, 2, 2): 1, (1, 3, 3): 1}, False),
}


def fibre_bundle(m, table, nvars=0):
    """The constant Lie algebra bundle with fibre table over an nvars chart,
    as the ideal spanned by its whole frame."""
    A = AlgebroidPresentation(nvars, m, {key: Poly.const(nvars, v)
                                         for key, v in table.items()})
    return IdealBundle(A, range(1, m + 1))


def random_table(seed):
    rng = random.Random(f"semisimple:{seed}")
    m = rng.randint(2, 4)
    return m, {(a, b, c): rng.randint(-2, 2)
               for a, b in itertools.combinations(range(1, m + 1), 2)
               for c in range(1, m + 1)}


# -- check_semisimple --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_check_semisimple_named(name):
    m, table, complete = ALGEBRAS[name]
    ideal = fibre_bundle(m, table)
    assert check_semisimple(ideal) is complete
    assert (semisimple_ad_ref(ideal) is not None) is complete


@pytest.mark.parametrize("seed", range(40))
def test_check_semisimple_random_tables(seed):
    ideal = fibre_bundle(*random_table(seed))
    assert check_semisimple(ideal) is (semisimple_ad_ref(ideal) is not None)


def test_random_tables_reach_both_verdicts():
    verdicts = {semisimple_ad_ref(fibre_bundle(*random_table(seed))) is not None
                for seed in range(40)}
    assert verdicts == {True, False}


def test_check_semisimple_over_a_chart():
    # the verdict reads the constants of the fibre, not the chart
    for name, (m, table, complete) in ALGEBRAS.items():
        assert check_semisimple(fibre_bundle(m, table, nvars=2)) is complete, name


# -- ad_inverse ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name", ["so3", "sl2"])
def test_ad_inverse_matches_reference(name, seed):
    m, table, _ = ALGEBRAS[name]
    ideal = fibre_bundle(m, table, nvars=2)
    rng = random.Random(f"ad_inverse:{name}:{seed}")
    gamma = random_vform(rng, 2, m, seed % 3, 2)
    D = -ideal.ad_endform(gamma)
    out = ad_inverse(ideal, D)
    assert out == ad_inverse_ref(ideal, D)
    assert out == gamma


def _same_error(fn, ref, *args):
    with pytest.raises(ContractError) as want:
        ref(*args)
    with pytest.raises(ContractError) as got:
        fn(*args)
    assert str(got.value) == str(want.value)
    return str(got.value)


@pytest.mark.parametrize("name", ["so3", "sl2"])
def test_ad_inverse_rejects_non_inner(name):
    m, table, _ = ALGEBRAS[name]
    ideal = fibre_bundle(m, table, nvars=2)
    x = Poly.var(2, 0)
    # x times the identity: not a derivation, so not ad of anything
    D = end_form(2, m, 1, {(a, a, (2,)): x for a in range(1, m + 1)})
    assert _same_error(ad_inverse, ad_inverse_ref, ideal, D) \
        == "End(V)-valued form is not ad of an ideal-valued form"


@pytest.mark.parametrize("name", ["abelian2", "r31"])
def test_ad_inverse_rejects_incomplete_fibre(name):
    m, table, _ = ALGEBRAS[name]
    ideal = fibre_bundle(m, table, nvars=2)
    assert _same_error(ad_inverse, ad_inverse_ref, ideal, end_form(2, m, 1, {})) \
        == "fibre is not semisimple: ad is not invertible onto Der"


def test_non_constant_fibre_is_rejected():
    x = Poly.var(2, 0)
    A = AlgebroidPresentation(2, 3, {(1, 2, 3): x, (2, 3, 1): Poly.const(2, 1),
                                     (1, 3, 2): Poly.const(2, -1)})
    ideal = IdealBundle(A, (1, 2, 3))
    want = "semisimple tools need constant fibre structure"
    assert _same_error(check_semisimple, semisimple_ad_ref, ideal) == want
    assert _same_error(ad_inverse, ad_inverse_ref, ideal, end_form(2, 3, 1, {})) == want
    with pytest.raises(ContractError, match=want):
        primitive_from_pair(A, ideal, {}, None)
