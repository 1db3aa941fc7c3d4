"""The two hazards of accumulator rows that are changed in place.

Every cochain operator adds its terms into mutable term dicts and wraps
them once at the end. An operator must therefore never add into a term
dict that its input or an earlier output still holds (aliasing), and its
in-place products must keep the degree limit of ``Poly.__mul__``.
"""

import pytest

from weilcalc import (Dhor, Poly, VForm, WeilCochain, build_fixture, delta, dnabla_cochain,
                      hstar, invariance_form, wedge_Ttheta)
from weilcalc.errors import StructureError
from weilcalc.fixtures import random_cochain, random_section
from weilcalc.polyring import MAX_DEGREE
from weilcalc.weil import _contract


@pytest.fixture(scope="module")
def f2():
    return build_fixture("F2_semisimple_2d")


def operators(fix):
    inv = invariance_form(fix.A, fix.conn, fix.rep)
    alpha = random_section(fix.A, 1)
    return {
        "delta": lambda c: delta(fix.A, fix.rep, c),
        "dnabla_cochain": lambda c: dnabla_cochain(fix.conn, c),
        "wedge_Ttheta": lambda c: wedge_Ttheta(inv, c),
        "_contract": lambda c: _contract(c, alpha),
        "hstar": lambda c: hstar(fix.imc, c),
        "Dhor": lambda c: Dhor(fix.imc, c),
    }


def snapshot(c):
    """A deep copy of the term dicts of a cochain."""
    return {cell: {key: dict(p.terms) for key, p in v.comps.items()}
            for cell, v in c.comps.items()}


@pytest.mark.parametrize("name", ["delta", "dnabla_cochain", "wedge_Ttheta", "_contract",
                                  "hstar", "Dhor"])
def test_output_terms_survive_every_operator(f2, name):
    ops = operators(f2)
    c = random_cochain(f2.A, f2.rep, 2, 1, 2, seed=3)
    before = snapshot(c)
    out = ops[name](c)
    assert not out.is_zero
    returned = snapshot(out)
    for op in ops.values():
        op(out)
        op(c)
    assert snapshot(out) == returned
    assert snapshot(c) == before


def one_cell(fix, p, q, cell, exps):
    """The cochain with x^exps u_1 in one cell, a form of degree q - k."""
    A, m = fix.A, fix.ideal.m
    vf = VForm(A.nvars, m, q - cell[0], {(1, ()): Poly.monomial(A.nvars, exps, 1)})
    return WeilCochain(A, m, p, q, {cell: vf})


# each input meets a coefficient of degree one on F2: delta the structure
# function c^4_{23} = x1 (and ad(e_2) = x1 on the ideal), d-nabla the
# Christoffel symbol x1 of the coupling connection, h* the 1-form
# C(e_3)^2 = x1 dx2 that K pairs with the ideal slot u_2 = e_4
_CASES = {
    "delta": (1, 0, (0, (4,), ()), lambda fix, c: delta(fix.A, fix.rep, c)),
    "dnabla_cochain": (1, 0, (0, (1,), ()), lambda fix, c: dnabla_cochain(fix.conn, c)),
    "hstar": (1, 1, (1, (), (4,)), lambda fix, c: hstar(fix.imc, c)),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_degree_limit_holds_in_place(f2, name):
    p, q, cell, op = _CASES[name]
    x1 = Poly.var(2, 0)
    top = Poly.monomial(2, (MAX_DEGREE, 0))
    with pytest.raises(StructureError, match=f"product degree exceeds the limit {MAX_DEGREE}"):
        top * x1
    with pytest.raises(StructureError, match=f"product degree exceeds the limit {MAX_DEGREE}"):
        op(f2, one_cell(f2, p, q, cell, (MAX_DEGREE, 0)))
    # a product of degree exactly MAX_DEGREE passes
    out = op(f2, one_cell(f2, p, q, cell, (MAX_DEGREE - 1, 0)))
    assert max(sum(e) for v in out.comps.values() for poly in v.comps.values()
               for e, _ in poly.items()) == MAX_DEGREE
