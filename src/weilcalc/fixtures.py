"""Canonical example builders and seeded random generators.

The named fixtures are produced by the coupling construction, so they are
consistent by construction and exercise it at the same time:

  F0_so3          so(3) over a point (all positive-degree forms vanish)
  F1_abelian_2d   Q^2, TM (+) rank-1 abelian ideal, curving x dx^dy
  F2_semisimple_2d Q^2, TM (+) so(3), nabla = d + x ad(e3) dy, curving -e3 dx^dy
  F3_foliation_4d Q^4, rank-1 foliation (+) rank-1 abelian ideal,
                  curving x2 dx3^dx4 with nonzero 3-form curvature
"""

import random
from fractions import Fraction

from .algebroid import AlgebroidPresentation, Section, VForm, sorted_multisets
from .connections import EndForm, LinearConnection
from .errors import StructureError
from .ideals import (IdealBundle, IMConnection, build_coupled, frame_splitting,
                     splitting_cochain)
from .polyring import Poly
from .weil import WeilCochain, frame_rows, increasing_tuples, monomials_upto

FIXTURE_NAMES = ("F0_so3", "F1_abelian_2d", "F2_semisimple_2d", "F3_foliation_4d")

_SO3 = {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}


class Fixture:
    """Validated object graph for one named example."""

    def __init__(self, name, A, ideal, imc, curving, vsecs):
        self.name = name
        self.A = A
        self.ideal = ideal
        self.imc = imc
        self.curving = curving
        self.vsecs = vsecs

    @property
    def rep(self):
        return self.ideal.adjoint_rep()

    @property
    def conn(self):
        return self.imc.coupling_connection()


def _so3_fibre(nvars):
    return {key: Poly.const(nvars, val) for key, val in _SO3.items()}


def build_fixture(name):
    if name == "F0_so3":
        A = AlgebroidPresentation(0, 3, _so3_fibre(0), {})
        ideal = IdealBundle(A, (1, 2, 3))
        vsecs = frame_splitting(ideal)
        imc = IMConnection(ideal, splitting_cochain(A, ideal, vsecs,
                                                    LinearConnection.trivial(0, 3)))
        return Fixture(name, A, ideal, imc, VForm.zero(0, 3, 2), vsecs)

    if name == "F1_abelian_2d":
        B = _tangent_presentation(2)
        conn = LinearConnection.trivial(2, 1)
        F = VForm(2, 1, 2, {(1, (1, 2)): Poly.var(2, 0)})
        A, ideal, imc, curving = build_coupled(B, 1, {}, conn, F)
        return Fixture(name, A, ideal, imc, curving, frame_splitting(ideal))

    if name == "F2_semisimple_2d":
        B = _tangent_presentation(2)
        x = Poly.var(2, 0)
        conn = LinearConnection(2, 3, {(2, 2, 1): x, (2, 1, 2): -x})
        F = VForm(2, 3, 2, {(3, (1, 2)): Poly.const(2, -1)})
        A, ideal, imc, curving = build_coupled(B, 3, _so3_fibre(2), conn, F)
        return Fixture(name, A, ideal, imc, curving, frame_splitting(ideal))

    if name == "F3_foliation_4d":
        B = AlgebroidPresentation(4, 1, {}, {(1, 1): Poly.const(4, 1)})
        conn = LinearConnection.trivial(4, 1)
        F = VForm(4, 1, 2, {(1, (3, 4)): Poly.var(4, 1)})
        A, ideal, imc, curving = build_coupled(B, 1, {}, conn, F)
        return Fixture(name, A, ideal, imc, curving, frame_splitting(ideal))

    raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")


def _tangent_presentation(n):
    """TM over Q^n: coordinate frame, zero structure, identity anchor."""
    return AlgebroidPresentation(n, n, {}, {(i, i): Poly.const(n, 1)
                                            for i in range(1, n + 1)})


# -- randomized inputs ---------------------------------------------------------


def random_poly(rng, nvars, bound):
    terms = {}
    for exps in monomials_upto(nvars, bound):
        num = rng.randint(-3, 3)
        if num == 0:
            continue
        if rng.random() < 0.5:
            continue
        terms[exps] = Fraction(num, rng.randint(1, 2))
    return Poly(nvars, terms)


def random_vform(rng, nvars, rank, degree, bound):
    comps = {}
    for b in range(1, rank + 1):
        for idx in increasing_tuples(nvars, degree):
            comps[(b, idx)] = random_poly(rng, nvars, bound)
    return VForm(nvars, rank, degree, comps)


def random_section(A, seed, bound=1):
    rng = random.Random(f"section:{seed}")
    return Section(A.nvars, [random_poly(rng, A.nvars, bound)
                             for _ in range(A.rank)])


def random_cochain(A, rep, p, q, degree_bound=1, seed=0):
    """Deterministic random W^{p,q} cochain; at p = 0 its single cell
    (0, (), ()) is a plain form.

    Every stored component table is filled with small random rational
    coefficients up to the polynomial degree bound.
    """
    if p < 0 or q < 0:
        raise StructureError("cochain bidegree must be nonnegative")
    rng = random.Random(f"cochain:{p}:{q}:{degree_bound}:{seed}")
    comps = {}
    for k, I, Js in frame_rows(A, p, q):
        for J in Js:
            comps[(k, I, J)] = random_vform(rng, A.nvars, rep.rank, q - k, degree_bound)
    return WeilCochain(A, rep.rank, p, q, comps)


def random_symform(fix, arity, degree, seed, bound=1):
    """Random ideal-valued form with open symmetric slots (pairing tests),
    as the level-``arity`` row of a W^{arity, arity + degree} cochain."""
    rng = random.Random(f"symform:{fix.name}:{arity}:{degree}:{seed}")
    A = fix.A
    return WeilCochain(A, fix.ideal.m, arity, arity + degree, {
        (arity, (), J): random_vform(rng, A.nvars, fix.ideal.m, degree, bound)
        for J in sorted_multisets(A.rank, arity)})


def random_endform(fix, degree, seed, bound=1):
    """Random End-valued form on a fixture's ideal bundle."""
    rng = random.Random(f"endform:{fix.name}:{degree}:{seed}")
    n, m = fix.A.nvars, fix.ideal.m
    comps = {}
    for b in range(1, m + 1):
        for c in range(1, m + 1):
            for idx in increasing_tuples(n, degree):
                comps[(b, c, idx)] = random_poly(rng, n, bound)
    return EndForm(n, m, degree, comps)
