"""The two hazards of accumulator rows that are changed in place.

Every cochain operator, and every form operator of the chart calculus,
adds its terms into mutable term dicts and wraps them once at the end. An
operator must therefore never add into a term dict that its input or an
earlier output still holds (aliasing), and its in-place products must
keep the degree limit of ``Poly.__mul__``.
"""

import random

import pytest

from weilcalc import (Dhor, Poly, Section, VForm, WeilCochain, act, bracket_of_forms,
                      build_fixture, compose, delta, dnabla_cochain, hstar, invariance_form,
                      wedge_Ttheta)
from weilcalc.errors import StructureError
from weilcalc.fixtures import random_cochain, random_poly, random_vform
from weilcalc.polyring import MAX_DEGREE
from weilcalc.weil import _contract

from helpers import random_endform, random_section, scalar_wedge


@pytest.fixture(scope="module")
def f2():
    return build_fixture("F2_semisimple_2d")


def operators(fix):
    """Each operator as (its inputs, a call on them): the cochain operators
    on one random cochain, the form operators on seeded ideal-valued and
    End(V)-valued 1-forms, a scalar 1-form and a vector field."""
    inv = invariance_form(fix.A, fix.conn, fix.rep)
    alpha = random_section(fix.A, 1)
    c = random_cochain(fix.A, fix.rep, 2, 1, 2, seed=3)
    rng = random.Random("form-rows")
    v, w = (random_vform(rng, fix.A.nvars, fix.ideal.m, 1, 2) for _ in range(2))
    s = random_vform(rng, fix.A.nvars, 1, 1, 2)
    E, E2 = random_endform(fix, 1, seed=1, bound=2), random_endform(fix, 1, seed=2, bound=2)
    X = Section(fix.A.nvars, [random_poly(rng, fix.A.nvars, 2) for _ in range(fix.A.nvars)])
    return {
        "delta": ([c], lambda c: delta(fix.A, fix.rep, c)),
        "dnabla_cochain": ([c], lambda c: dnabla_cochain(fix.conn, c)),
        "wedge_Ttheta": ([c], lambda c: wedge_Ttheta(inv, c)),
        "_contract": ([c], lambda c: _contract(c, alpha)),
        "hstar": ([c], lambda c: hstar(fix.imc, c)),
        "Dhor": ([c], lambda c: Dhor(fix.imc, c)),
        "VForm.d": ([v], VForm.d),
        "VForm.iota": ([v, X], VForm.iota),
        "VForm.lie": ([v, X], VForm.lie),
        "act": ([E, v], act),
        "compose": ([E, E2], compose),
        "scalar_wedge": ([s, v], scalar_wedge),
        "LinearConnection.dnabla": ([v], fix.conn.dnabla),
        "bracket_of_forms": ([v, w], lambda a, b: bracket_of_forms(fix.ideal, a, b)),
    }


def snapshot(x):
    """A deep copy of the term dicts of a cochain or a form."""
    if isinstance(x, WeilCochain):
        return {cell: snapshot(v) for cell, v in x.comps.items()}
    return {key: dict(p.terms) for key, p in x.comps.items()}


@pytest.mark.parametrize("name", ["delta", "dnabla_cochain", "wedge_Ttheta", "_contract",
                                  "hstar", "Dhor", "VForm.d", "VForm.iota", "VForm.lie",
                                  "act", "compose", "scalar_wedge",
                                  "LinearConnection.dnabla", "bracket_of_forms"])
def test_output_terms_survive_every_operator(f2, name):
    ops = operators(f2)
    args, op = ops[name]
    before = [snapshot(x) for x in args]
    out = op(*args)
    assert not out.is_zero
    returned = snapshot(out)
    # every operator runs on its own inputs, and on the output in place of
    # a first input of the same kind
    for inputs, other in ops.values():
        other(*inputs)
        if type(out) is type(inputs[0]) and out.rank == inputs[0].rank:
            other(out, *inputs[1:])
    assert snapshot(out) == returned
    assert [snapshot(x) for x in args] == before


def one_cell(fix, p, q, cell, exps):
    """The cochain with x^exps u_1 in one cell, a form of degree q - k."""
    A, m = fix.A, fix.ideal.m
    vf = VForm(A.nvars, m, q - cell[0], {(1, ()): Poly.monomial(A.nvars, exps, 1)})
    return WeilCochain(A, m, p, q, {cell: vf})


def _x1(e=1):
    return Poly.monomial(2, (e, 0))


def _u(rank, degree, b, idx, p):
    return VForm(2, rank, degree, {(b, idx): p})


# each input meets a factor of degree one or two on F2: delta the structure
# function c^4_{23} = x1 (and ad(e_2) = x1 on the ideal), d-nabla the
# Christoffel symbol x1 of the coupling connection, h* the 1-form
# C(e_3)^2 = x1 dx2 that K pairs with the ideal slot u_2 = e_4; each form
# operator a factor built here (d multiplies by no factor and is left out)
_CASES = {
    "delta": lambda fix, e: delta(fix.A, fix.rep, one_cell(fix, 1, 0, (0, (4,), ()), (e, 0))),
    "dnabla_cochain": lambda fix, e: dnabla_cochain(
        fix.conn, one_cell(fix, 1, 0, (0, (1,), ()), (e, 0))),
    "hstar": lambda fix, e: hstar(fix.imc, one_cell(fix, 1, 1, (1, (), (4,)), (e, 0))),
    "VForm.iota": lambda fix, e: _u(3, 1, 1, (1,), _x1(e)).iota(Section(2, [_x1(), _x1(0)])),
    # L_X v = dX^2 ^ iota_{d_2} v for X = x1^2 d_2 and v = x1^e dx2
    "VForm.lie": lambda fix, e: _u(3, 1, 1, (2,), _x1(e)).lie(Section(2, [_x1(0), _x1(2)])),
    # E^1_1 of End(V), V of rank 3, is the index 1 of the rank-9 bundle
    "act": lambda fix, e: act(_u(9, 0, 1, (), _x1()), _u(3, 0, 1, (), _x1(e))),
    "compose": lambda fix, e: compose(_u(9, 0, 1, (), _x1(e)), _u(9, 1, 1, (1,), _x1())),
    "scalar_wedge": lambda fix, e: scalar_wedge(_u(1, 1, 1, (1,), _x1()),
                                                _u(3, 0, 1, (), _x1(e))),
    "LinearConnection.dnabla": lambda fix, e: fix.conn.dnabla(_u(3, 0, 1, (), _x1(e))),
    # ad(x1 dx1 u_1) = x1 dx1 (E_32 - E_23) meets x1^e dx2 u_2
    "bracket_of_forms": lambda fix, e: bracket_of_forms(
        fix.ideal, _u(3, 1, 1, (1,), _x1()), _u(3, 1, 2, (2,), _x1(e))),
}


def top_degree(x):
    polys = [p for v in x.comps.values() for p in v.comps.values()] \
        if isinstance(x, WeilCochain) else list(x.comps.values())
    return max(sum(e) for poly in polys for e, _ in poly.items())


@pytest.mark.parametrize("name", sorted(_CASES))
def test_degree_limit_holds_in_place(f2, name):
    op = _CASES[name]
    x1 = Poly.var(2, 0)
    top = Poly.monomial(2, (MAX_DEGREE, 0))
    with pytest.raises(StructureError, match=f"product degree exceeds the limit {MAX_DEGREE}"):
        top * x1
    with pytest.raises(StructureError, match=f"product degree exceeds the limit {MAX_DEGREE}"):
        op(f2, MAX_DEGREE)
    # a product of degree exactly MAX_DEGREE passes
    assert top_degree(op(f2, MAX_DEGREE - 1)) == MAX_DEGREE


def test_dnabla_cochain_differentiates_only_what_d_keeps(f2, monkeypatch):
    # d v = sum_a dx^a ^ d_a v: dx^a kills an entry whose form index holds
    # a, so d_a of that entry is never taken
    c = random_cochain(f2.A, f2.rep, 1, 1, 2, seed=5)
    calls = []
    diff = Poly.diff
    monkeypatch.setattr(Poly, "diff", lambda self, i: calls.append(i) or diff(self, i))
    dnabla_cochain(f2.conn, c)
    want = sum(f2.A.nvars - len(idx) for v in c.comps.values() for _, idx in v.comps)
    assert any(idx for v in c.comps.values() for _, idx in v.comps)
    assert len(calls) == want
