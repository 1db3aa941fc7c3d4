"""``weil.dnabla_cochain`` and ``weil.wedge_Ttheta`` against the row-driven
references.

Both operators walk the cells of their input and add each one's terms to
the output cells it reaches. The references below are the row-driven
forms they replaced: they loop over every output row (k, I, J) and read
the input there with signed lookups.

The inputs are those of ``tests/test_delta_oracle.py``: the fixtures F0-F3
with their own and their ideal's adjoint representation, the
polynomial-anchor ``affine_algebroid``, and seeded random presentations
that break the axioms. On each: every bidegree p, q <= 3, dense, one-cell
and zero cochains, with the coupling connection of the fixtures and with
a seeded random connection, and with the invariance form (T, theta) of
each.
"""

import itertools
import random

import pytest

from weilcalc import LinearConnection, VForm, WeilCochain, build_fixture
from weilcalc.algebroid import symmetric_slots
from weilcalc.connections import invariance_form
from weilcalc.fixtures import random_cochain, random_poly
from weilcalc.weil import dnabla_cochain, frame_rows, wedge_Ttheta

from test_delta_oracle import BIDEGREES, CASES, _one_cells, build_case


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
    T(e_i) ^ c_k(I minus i || J) and theta(e_j) . c_{k-1}(I || J minus j)."""
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
                term = inv.T[I[pos]].wedge_vform(sub)
                if term.is_zero:
                    continue
                acc = acc + term if pos % 2 == 0 else acc - term
            for j, rest, mult in symmetric_slots(J):
                sub = c.lookup(k - 1, I, rest)
                if sub.is_zero:
                    continue
                term = inv.theta[j].act_vform(sub)
                if term.is_zero:
                    continue
                acc = acc + term.scaled(mult)
            out[(k, I, J)] = acc
    return WeilCochain(A, c.rank, p + 1, q + 1, out)


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
    if p == 0:
        c = WeilCochain.from_vform(A, c)
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
            assert any(not t.is_zero for t in inv.T.values()), name
            assert any(not t.is_zero for t in inv.theta.values()), name
