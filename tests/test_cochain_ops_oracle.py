"""``weil.dnabla_cochain``, ``weil.wedge_Ttheta`` and ``ideals.hstar``
against the row-driven references.

The three operators walk the cells of their input and add each one's
terms to the output cells it reaches. The references below are the
row-driven forms they replaced: they loop over every output row (k, I, J)
and read the input there with signed lookups, or, for h*, through the
rows of every split of I, slot insertion and the iterated pairing.

The inputs of d-nabla and (T, theta) are those of
``tests/test_delta_oracle.py``: the fixtures F0-F3 with the trivial
representation of their ideal's rank and with their ideal's adjoint
representation, the polynomial-anchor ``affine_algebroid``, and seeded
random presentations that break the axioms. On each: every bidegree
p, q <= 3, dense, one-cell and zero cochains, with the coupling connection
of the fixtures and with a seeded random connection, and with the
invariance form (T, theta) of each.

h* runs on the IM connections of F0-F3, on two deformations of each of
F1-F3 by a coboundary delta(gamma), whose splitting v is not the frame one
(so h is not diagonal), and on the coupled affine algebroid of
``tests/test_ideals.py``. On each: every bidegree p, q <= 3, dense,
one-cell and zero ideal-valued cochains, and a dense cochain whose bundle
rank is not the ideal's.
"""

import functools
import itertools
import random

import pytest

from weilcalc import (ARep, LinearConnection, VForm, WeilCochain, act, build_fixture,
                      deform, delta, hstar, invariance_form)
from weilcalc.algebroid import sort_sign, symmetric_slots
from weilcalc.fixtures import FIXTURE_NAMES, random_cochain, random_poly, random_vform
from weilcalc.weil import dnabla_cochain, eval_row, frame_rows, wedge_Ttheta

from helpers import wedgedot_multi
from test_delta_oracle import BIDEGREES, CASES, _one_cells, build_case
from test_ideals import build_affine_coupled


def dnabla_rows(conn, c):
    """The row-driven d-nabla: each output row (k, I, J) reads d-nabla of
    c_k(I || J) and the slot terms c_{k-1}(b_i, I || J minus b_i)."""
    A = c.A
    p, q = c.p, c.q
    out = {}
    for k, I, Js in frame_rows(A, p, q + 1):
        for J in Js:
            src = c.lookup(k, I, J)
            acc = conn.dnabla(src) if not src.is_zero \
                else VForm.zero(A.nvars, c.rank, q + 1 - k)
            for j, rest, mult in symmetric_slots(J):
                sub = c.lookup(k - 1, (j,) + I, rest)
                if sub.is_zero:
                    continue
                acc = acc - sub.scaled(mult)
            if not acc.is_zero:
                out[(k, I, J)] = -acc if k % 2 == 1 else acc
    return WeilCochain(A, c.rank, p, q + 1, out)


def wedge_Ttheta_rows(inv, c):
    """The row-driven (T, theta) ^ c: each output row (k, I, J) reads
    T(e_i) ^ c_k(I minus i || J) and theta(e_j) . c_{k-1}(I || J minus j),
    with T(e_i) and theta(e_j) read off the cells (0, (i,), ()) and
    (1, (), (j,)) of the pair."""
    A = c.A
    p, q = c.p, c.q
    out = {}
    for k, I, Js in frame_rows(A, p + 1, q + 1):
        for J in Js:
            acc = VForm.zero(A.nvars, c.rank, q + 1 - k)
            for pos in range(len(I)):
                sub = c.lookup(k, I[:pos] + I[pos + 1:], J)
                if sub.is_zero:
                    continue
                term = act(inv.lookup(0, (I[pos],), ()), sub)
                if term.is_zero:
                    continue
                acc = acc + term if pos % 2 == 0 else acc - term
            for j, rest, mult in symmetric_slots(J):
                sub = c.lookup(k - 1, I, rest)
                if sub.is_zero:
                    continue
                term = act(inv.lookup(1, (), (j,)), sub)
                if term.is_zero:
                    continue
                acc = acc + term.scaled(mult)
            out[(k, I, J)] = acc
    return WeilCochain(A, c.rank, p + 1, q + 1, out)


def hstar_rows(imc, c):
    """The row-driven h*: each output row (k, I, J) reads

    (h*c)_k(a_1..a_{p-k} || b_1..b_k)
      = sum_{j=k}^{p} (-1)^{j-k} sum_{(j-k, p-j)-shuffles s} sgn(s)
        c_j(a_{s(j-k+1)}, ..., a_{s(p-k)} || h b_1, ..., h b_k, .)
          paired one by one with (C a_{s(1)}, ..., C a_{s(j-k)}),

    the rows c_j(a's || .) taken by split of I and filled slot by slot."""
    A = c.A
    p, q = c.p, c.q

    @functools.cache
    def row_of(j, I):
        return eval_row(c, j, [A.basis(i) for i in I])

    out = {}
    for k, I, Js in frame_rows(A, p, q):
        rows = []
        for j in range(k, p + 1):
            if q - j > A.nvars:
                continue
            for picks in itertools.combinations(range(p - k), j - k):
                restpos = tuple(t for t in range(p - k) if t not in picks)
                _, sgn = sort_sign(picks + restpos)
                row = row_of(j, tuple(I[t] for t in restpos))
                if not row.is_zero:
                    rows.append((row, [imc.C0(I[t]) for t in picks],
                                 -sgn if (j - k) % 2 else sgn))
        for J in Js:
            acc = VForm.zero(A.nvars, c.rank, q - k)
            for row, pairs, sign in rows:
                for jb in J:
                    row = row.insert(imc.h_basis(jb))
                term = wedgedot_multi(row, pairs, imc.ideal).as_vform()
                acc = acc + term if sign > 0 else acc - term
            out[(k, I, J)] = acc
    return WeilCochain(A, c.rank, p, q, out)


def random_connection(A, rank, seed):
    """A connection on the trivial rank-``rank`` bundle whose Christoffel
    symbols are random polynomials of degree <= 1."""
    rng = random.Random(f"connection-oracle:{seed}")
    n = A.nvars
    table = {key: random_poly(rng, n, 1)
             for key in itertools.product(range(1, n + 1), range(1, rank + 1),
                                          range(1, rank + 1))}
    return LinearConnection(n, rank, table)


@pytest.fixture(scope="module", params=CASES)
def case(request):
    """(A, rep, [(conn, inv)]): the coupling connection where the case is a
    fixture, and a seeded random connection, each with its invariance form."""
    name = request.param
    A, rep = build_case(name)
    conns = [random_connection(A, rep.rank, name)]
    if name.startswith("F"):
        conns.append(build_fixture(name.split("/")[0]).conn)
    return A, rep, [(conn, invariance_form(A, conn, rep)) for conn in conns]


def _inputs(A, rep, p, q):
    c = random_cochain(A, rep, p, q, 1, seed=p * 4 + q)
    rng = random.Random(f"ops-one-cells:{p}:{q}")
    return [c, WeilCochain(A, rep.rank, p, q)] + _one_cells(c, 3, rng)


@pytest.mark.parametrize("p,q", BIDEGREES)
def test_dnabla_matches_row_driven_reference(case, p, q):
    A, rep, pairs = case
    for conn, _ in pairs:
        for x in _inputs(A, rep, p, q):
            assert dnabla_cochain(conn, x) == dnabla_rows(conn, x), sorted(x.comps)


@pytest.mark.parametrize("p,q", BIDEGREES)
def test_wedge_Ttheta_matches_row_driven_reference(case, p, q):
    A, rep, pairs = case
    for _, inv in pairs:
        for x in _inputs(A, rep, p, q):
            assert wedge_Ttheta(inv, x) == wedge_Ttheta_rows(inv, x), sorted(x.comps)


def test_random_connections_are_not_invariant():
    # the random connections reach both maps of wedge_Ttheta: T and theta
    # are nonzero on every case with a nonzero chart
    for name in CASES:
        A, rep = build_case(name)
        if A.nvars:
            inv = invariance_form(A, random_connection(A, rep.rank, name), rep)
            assert any(k == 0 for k, _, _ in inv.comps), name
            assert any(k == 1 for k, _, _ in inv.comps), name


IMC_CASES = list(FIXTURE_NAMES) \
    + [f"{name}/deformed{s}" for name in FIXTURE_NAMES[1:] for s in range(2)] \
    + ["affine_coupled"]


def build_imc(name):
    """The IM connection of a case: a fixture's own, the fixture's deformed
    by delta of a seeded random ideal-valued 1-form, or the coupled affine
    algebroid's."""
    if name == "affine_coupled":
        return build_affine_coupled()[2]
    fix = build_fixture(name.split("/")[0])
    if "/" not in name:
        return fix.imc
    gamma = random_vform(random.Random(f"hstar-oracle:{name}"), fix.A.nvars, fix.ideal.m, 1, 1)
    return deform(fix.imc, delta(fix.A, fix.rep, gamma), 1)


@pytest.fixture(scope="module", params=IMC_CASES)
def imc_case(request):
    return build_imc(request.param)


@pytest.mark.parametrize("p,q", BIDEGREES)
def test_hstar_matches_row_driven_reference(imc_case, p, q):
    A, m = imc_case.A, imc_case.ideal.m
    other = _inputs(A, ARep(A.nvars, A.rank, m + 1), p, q)[0]
    for x in _inputs(A, imc_case.ideal.adjoint_rep(), p, q) + [other]:
        assert hstar(imc_case, x) == hstar_rows(imc_case, x), sorted(x.comps)


def test_deformed_cases_have_non_frame_splittings():
    # v(e_j) is nonzero on some non-ideal j, so h(e_j) leaves the frame
    for name in IMC_CASES:
        if "/" in name:
            imc = build_imc(name)
            assert any(not imc.v_comps(j).is_zero
                       for j in range(1, imc.A.rank + 1) if j not in imc.ideal.indices), name
