import random
from fractions import Fraction

import pytest

from weilcalc import Poly, StructureError, poly_from_str, poly_to_str
from weilcalc.fixtures import random_poly
from weilcalc.polyring import MAX_DEGREE


def rand(seed, nvars=3, bound=3):
    return random_poly(random.Random(f"poly:{seed}"), nvars, bound)


def test_difference_of_squares():
    x = Poly.var(1, 0)
    assert (x + 1) * (x - 1) == x * x - 1


def test_multiplication_by_zero_absorbs():
    x = Poly.var(2, 0)
    assert x * Poly.zero(2) == Poly.zero(2)
    assert (x * 0).is_zero


def test_exact_rational_scaling():
    x = Poly.var(1, 0)
    p = x * Fraction(1, 2) + Fraction(1, 3)
    assert p * 3 == x * Fraction(3, 2) + 1
    assert p.coeff((1,)) == Fraction(1, 2)
    big = 10 ** 40
    assert (x * Fraction(big, 3)) * Fraction(3, big) == x
    assert (x + big) + Fraction(1, 3) == x + Fraction(3 * big + 1, 3)


def test_partial_derivative_examples():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    assert (x * x * y).diff(0) == 2 * x * y
    assert Poly.const(2, 7).diff(1).is_zero
    f, g = x, x * y
    assert (f * g).diff(0) == f.diff(0) * g + f * g.diff(0)


@pytest.mark.parametrize("seed", range(25))
def test_ring_axioms(seed):
    a, b, c = rand(3 * seed), rand(3 * seed + 1), rand(3 * seed + 2)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


@pytest.mark.parametrize("seed", range(25))
def test_leibniz_and_mixed_partials(seed):
    a, b = rand(2 * seed), rand(2 * seed + 1)
    for i in range(3):
        assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)
    assert a.diff(0).diff(1) == a.diff(1).diff(0)
    assert a.diff(1).diff(2) == a.diff(2).diff(1)


def test_variable_count_mismatch_rejected():
    with pytest.raises(StructureError):
        Poly.var(2, 0) + Poly.var(3, 0)
    with pytest.raises(StructureError):
        Poly.var(2, 0) * Poly.var(1, 0)
    with pytest.raises(StructureError):
        Poly.var(2, 0).diff(5)


def test_zero_vars_polynomials_are_constants():
    one = Poly.const(0, 1)
    assert (one + one) * one == Poly.const(0, 2)
    assert poly_to_str(one) == "1"


def test_printer_is_graded_lex_descending():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    p = y + x * x * y * Fraction(1, 2) - 3 + x * y
    assert poly_to_str(p) == "1/2*x1^2*x2 + x1*x2 + x2 - 3"


def test_printer_uses_chart_names():
    x = Poly.var(2, 0)
    assert poly_to_str(x * x * -1, ["x", "y"]) == "-x^2"


@pytest.mark.parametrize("seed", range(20))
def test_parse_print_roundtrip(seed):
    p = rand(seed)
    assert poly_from_str(poly_to_str(p), 3) == p


def test_parse_examples():
    p = poly_from_str("1/2*x1^2*x2 - 3", 2)
    assert p.coeff((2, 1)) == Fraction(1, 2)
    assert p.coeff((0, 0)) == -3
    assert poly_from_str("-x1", 2) == -Poly.var(2, 0)
    assert poly_from_str("0", 2).is_zero
    # zero and cancelling terms leave no entry
    assert poly_from_str("0*x1 + 0", 2).terms == {}
    assert poly_from_str("x1*x2 - 1/2*x2*x1 - 1/2*x1*x2", 2).terms == {}
    assert poly_from_str("x1 - x1 + 2 - x1", 2) == 2 - Poly.var(2, 0)
    with pytest.raises(ValueError):
        poly_from_str("x9", 2)
    with pytest.raises(ValueError):
        poly_from_str("", 2)


def test_no_zero_terms_stored():
    x = Poly.var(1, 0)
    assert not (x - x).terms
    assert (x * 2 - x - x).is_zero


def test_product_past_the_degree_limit_raises():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    top = Poly.monomial(2, (MAX_DEGREE, 0))
    assert top.coeff((MAX_DEGREE, 0)) == 1
    assert (top * 3).diff(0) == Poly.monomial(2, (MAX_DEGREE - 1, 0), 3 * MAX_DEGREE)
    for factor in (x, y):
        with pytest.raises(StructureError):
            top * factor
    with pytest.raises(StructureError):
        Poly.monomial(2, (40000, 0)) * Poly.monomial(2, (0, 30000))
    with pytest.raises(StructureError):
        Poly.monomial(2, (MAX_DEGREE, 1))


@pytest.mark.parametrize("value", [True, False, 0.5, 1.0])
def test_inexact_coefficients_are_rejected(value):
    # a bool is an int subclass but not an exact rational, as in _linsolve and deform
    x = Poly.var(2, 0)
    for build in (lambda: Poly.const(2, value), lambda: Poly(2, {(1, 0): value}),
                  lambda: Poly.monomial(2, (0, 1), value), lambda: x + value,
                  lambda: x * value):
        with pytest.raises(TypeError, match="not an exact rational"):
            build()


def test_comparison_with_a_bool_is_false():
    one, zero = Poly.const(2, 1), Poly.zero(2)
    assert one == 1 and zero == 0
    assert not one == True  # noqa: E712
    assert not zero == False  # noqa: E712
    assert one != True  # noqa: E712


def test_parse_adds_each_term_once_into_one_dict(monkeypatch):
    # the parse adds every term into one term dict and wraps that dict once,
    # so its work grows linearly with the number of terms
    from weilcalc import polyring
    added, made = [], []
    iadd, make = polyring._iadd, polyring._make
    monkeypatch.setattr(polyring, "_iadd", lambda out, b: added.append(len(b)) or iadd(out, b))
    monkeypatch.setattr(polyring, "_make", lambda n, t: made.append(n) or make(n, t))
    terms = [f"{k}/3*x1^{k}*x2" for k in range(1, 2001)]
    p = poly_from_str(" + ".join(terms) + " - 0*x1 + x2 - x2 + 7", 2)
    assert (sum(added), len(added), made) == (2003, 2003, [2])
    assert p == sum((Poly.monomial(2, (k, 1), Fraction(k, 3)) for k in range(1, 2001)),
                    Poly.const(2, 7))
    assert len(p.terms) == 2001
