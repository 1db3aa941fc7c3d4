"""Polynomial kernel against an independent oracle: random small polynomials
are checked against sympy's expansion, and so is a chain of in-place
``_axpy`` products accumulated into one term dict."""

import functools
import re
from math import gcd

import pytest

from weilcalc import Poly, poly_from_str, poly_to_str
from weilcalc.polyring import _axpy, _make, _product

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_SYMS = sympy.symbols("x1:5")


def _from_terms(n, terms):
    out = Poly.zero(n)
    for e, c in terms.items():
        out = out + Poly.monomial(n, e, c)
    return out


@functools.lru_cache(maxsize=None)
def polys(n):
    """Random polynomials in n variables: total degree <= 3, at most 4 terms."""
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.dictionaries(exps, coeff, max_size=4).map(lambda t: _from_terms(n, t))


@st.composite
def poly_pairs(draw):
    """Two random polynomials in the same 1-4 variables, total degree <= 3."""
    n = draw(st.integers(1, 4))
    return n, draw(polys(n)), draw(polys(n))


def to_sympy(p):
    return sum((sympy.Rational(num, den)
                * sympy.Mul(*[s ** k for s, k in zip(_SYMS, e)])
                for e, (num, den) in p.items()), sympy.Integer(0))


def same(expr, p):
    return sympy.expand(expr - to_sympy(p)) == 0


_oracle = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@_oracle
@given(poly_pairs())
def test_arithmetic_matches_sympy(pair):
    n, a, b = pair
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(sa + sb, a + b)
    assert same(sa - sb, a - b)
    assert same(sa * sb, a * b)
    for i in range(n):
        assert same(sympy.diff(sa, _SYMS[i]), a.diff(i))


@_oracle
@given(poly_pairs())
def test_printer_roundtrip_matches_sympy(pair):
    n, a, _ = pair
    text = poly_to_str(a)
    assert poly_from_str(text, n) == a
    assert sympy.expand(sympy.sympify(text.replace("^", "**"))) == sympy.expand(to_sympy(a))
    if a:  # the printed terms come in sympy's descending graded lex order
        printed = [poly_from_str(term, n).items()[0][0]
                   for term in re.split(r" [+-] ", text.lstrip("-"))]
        assert printed == sympy.Poly(to_sympy(a), *_SYMS[:n]).monoms(order="grlex")


@st.composite
def axpy_chains(draw):
    """Products a * b in the same 1-4 variables, followed by the negations
    of some of them, so that keys cancel in the accumulating dict."""
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(polys(n), polys(n)), min_size=1, max_size=5))
    undo = draw(st.lists(st.sampled_from(pairs), max_size=3))
    return n, pairs + [(-a, b) for a, b in undo]


@_oracle
@given(axpy_chains())
def test_axpy_chain_matches_sympy(chain):
    n, pairs = chain
    out = {}
    for a, b in pairs:
        assert _axpy(out, a.terms, b.terms) is out
        assert _product(a.terms, b.terms) == _axpy({}, a.terms, b.terms)
    want = sympy.expand(sum((to_sympy(a) * to_sympy(b) for a, b in pairs), sympy.Integer(0)))
    p = _make(n, out)
    assert same(want, p)
    # no zero and no unnormalized entry: a cancelled key is deleted
    assert all(num and den > 0 and gcd(num, den) == 1 for num, den in out.values())
    assert {e for e, _ in p.items()} == set(
        sympy.Poly(want, *_SYMS[:n]).monoms() if want != 0 else ())
