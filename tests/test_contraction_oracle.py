"""Evaluation and the algebroid Lie derivatives against the slot-by-slot
references they replaced.

``weil.eval_row`` reads the level-k row of iterated contractions
iota_alpha, and ``connections.lieA_vform`` and ``lieA_derivative`` are the
Cartan formula L_alpha = iota_alpha delta + delta iota_alpha on W. The
references are the forms they replaced: the recursive Leibniz expansion
of the antisymmetric arguments (below), and the Lie derivative of values
and form slots plus each symmetric slot e_j replaced by [alpha, e_j]
(``lieA_vform_ref`` and ``lieA_derivative_ref`` of
``tests/test_delta_oracle.py``).

The inputs are those of the delta oracle: the fixtures F0-F3 with the
trivial and the adjoint representation, the polynomial-anchor
``affine_algebroid`` and the seeded random presentations with polynomial
anchors and non-constant structure functions. The sections have
coefficients of degree <= 2, so the Leibniz and anchor terms fire. On
each: every p, q <= 3 at every level, frame sections, and
symmetric-slot forms of arity 0-2 and every degree.
"""

import functools
import itertools
import random

import pytest

from weilcalc import VForm, WeilCochain
from weilcalc.algebroid import d_scalar, scalar_wedge, sorted_multisets
from weilcalc.connections import lieA_derivative, lieA_vform
from weilcalc.fixtures import random_cochain, random_section, random_vform
from weilcalc.weil import eval_row, evaluate

from test_delta_oracle import CASES, build_case, lieA_derivative_ref, lieA_vform_ref


def eval_basis_ref(c, k, prefix, rest, J):
    """Leibniz expansion with a basis prefix and general remaining sections."""
    if not rest:
        return c.lookup(k, prefix, J)
    n, r = c.A.nvars, c.A.rank
    alpha = rest[0]
    tail = rest[1:]
    pos = len(prefix)
    out = VForm.zero(n, c.rank, c.q - k)
    for i in range(1, r + 1):
        ai = alpha.get(i, ())
        if not ai.is_zero:
            sub = eval_basis_ref(c, k, prefix + (i,), tail, J)
            if not sub.is_zero:
                out = out + sub.scaled(ai)
        if not ai.is_constant:
            sub = eval_basis_ref(c, k + 1, prefix, tail, tuple(sorted(J + (i,))))
            if not sub.is_zero:
                w = scalar_wedge(d_scalar(ai, n), sub)
                out = out + (w if pos % 2 == 0 else -w)
    return out


def eval_row_ref(c, k, sections):
    """Partial evaluation c_k(sections || .) by the Leibniz expansion, as
    the level-k row of a W^{k,q} cochain."""
    return WeilCochain(c.A, c.rank, k, c.q,
                       {(k, (), J): eval_basis_ref(c, k, (), list(sections), J)
                        for J in sorted_multisets(c.A.rank, k)})


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return build_case(request.param)


def _sections(A, count, seed):
    return [random_section(A, f"contract:{seed}:{s}", bound=2) for s in range(count)]


@pytest.mark.parametrize("p", range(4))
def test_eval_row_matches_leibniz_reference(case, p):
    A, rep = case
    rng = random.Random(f"eval-row:{p}")
    for q in range(4):
        c = random_cochain(A, rep, p, q, 1, seed=10 * p + q)
        for k in range(min(p, q) + 1):
            if q - k > A.nvars:
                continue
            sections = _sections(A, p - k, (p, q, k))
            row = eval_row(c, k, sections)
            assert row == eval_row_ref(c, k, sections), (q, k)
            syms = _sections(A, k, (p, q, k, "sym"))
            assert evaluate(c, sections, syms) \
                == functools.reduce(WeilCochain.insert, syms, row).as_vform()
            # frame sections read the table: the cells (k, I, J)
            I = tuple(sorted(rng.sample(range(1, A.rank + 1), min(p - k, A.rank))))
            if len(I) == p - k:
                want = {(k, (), J): vf for (lvl, I2, J), vf in c.comps.items()
                        if (lvl, I2) == (k, I)}
                assert eval_row(c, k, [A.basis(i) for i in I]).comps == want


def test_lieA_vform_matches_reference(case):
    A, rep = case
    rng = random.Random("lieA-vform")
    for degree in range(A.nvars + 1):
        vf = random_vform(rng, A.nvars, rep.rank, degree, 2)
        for alpha in _sections(A, 2, ("vform", degree)) + [A.basis(1 + degree % A.rank)]:
            assert lieA_vform(A, rep, alpha, vf) == lieA_vform_ref(A, rep, alpha, vf)
    alpha = _sections(A, 1, "zero")[0]
    for degree in (-1, 0, 1):
        zero = VForm.zero(A.nvars, rep.rank, degree)
        assert lieA_vform(A, rep, alpha, zero) == zero


def _symform(A, rank, arity, degree, rng):
    """A symmetric-slot form, the level-``arity`` row of a
    W^{arity, arity + degree} cochain, with a random form on each multiset
    with probability 0.7."""
    rows = {(arity, (), J): random_vform(rng, A.nvars, rank, degree, 2)
            for J in sorted_multisets(A.rank, arity) if rng.random() < 0.7}
    return WeilCochain(A, rank, arity, arity + degree, rows)


@pytest.mark.parametrize("arity", range(3))
def test_lieA_derivative_matches_reference(case, arity):
    A, rep = case
    rng = random.Random(f"lieA-derivative:{arity}")
    for degree, seed in itertools.product(range(A.nvars + 1), range(2)):
        gamma = _symform(A, rep.rank, arity, degree, rng)
        for alpha in _sections(A, 1, (arity, degree, seed)) + [A.basis(1 + seed % A.rank)]:
            assert lieA_derivative(A, rep, alpha, gamma) \
                == lieA_derivative_ref(A, rep, alpha, gamma), (degree, seed)
