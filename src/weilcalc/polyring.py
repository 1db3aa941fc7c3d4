"""Exact sparse multivariate polynomials over the rationals.

A :class:`Poly` in ``n`` variables maps packed monomial keys to nonzero
rational coefficients, each a normalized pair ``(num, den)`` with
``den > 0`` and ``gcd(num, den) == 1``; the zero polynomial has no terms.
A key packs an exponent vector ``(e1, ..., en)`` into one int: the total
degree in the top field, then ``e1``, ..., ``en`` in fixed-width fields
below it (Monagan & Pearce, CASC 2007). A monomial product is then one int
addition, and descending key order is descending graded lex order. The
layout is private to this module: other code reads exponent tuples through
:meth:`Poly.items` and builds terms from them with the public constructors.
No term may have total degree above :data:`MAX_DEGREE`, so no field can
carry into its neighbour; a product that would exceed it raises
:class:`StructureError`. All arithmetic is exact and values are immutable.

The textual syntax is sums of terms ``<rational>*x1^e1*...*xn^en``,
e.g. ``1/2*x1^2*x2 - 3``; ``poly_to_str`` emits terms in descending
graded lexicographic order, so output is canonical.
"""

import re
from fractions import Fraction
from math import gcd

from .errors import StructureError

_BITS = 16
_MASK = (1 << _BITS) - 1
MAX_DEGREE = _MASK
"""Largest total degree of a term (the width of one exponent field)."""


def _pack(nvars, exps):
    """The key of an exponent tuple; rejects bad tuples and degrees over MAX_DEGREE."""
    exps = tuple(exps)
    if len(exps) != nvars or any(e < 0 for e in exps):
        raise StructureError(f"bad exponent tuple {exps} for {nvars} variables")
    key = sum(exps)
    if key > MAX_DEGREE:
        raise StructureError(f"monomial degree {key} exceeds the limit {MAX_DEGREE}")
    for e in exps:
        key = (key << _BITS) | e
    return key


def _unpack(nvars, key):
    return tuple((key >> s) & _MASK for s in range(_BITS * (nvars - 1), -1, -_BITS))


def _pair(c):
    """Coerce an int or Fraction, not a bool, to a normalized pair."""
    if type(c) is int:
        return (c, 1)
    if type(c) is Fraction:
        return (c.numerator, c.denominator)
    raise TypeError(f"not an exact rational: {c!r}")


def _iadd(out, b):
    """Add the term dict b into ``out`` in place and return it."""
    if not out:
        out.update(b)
        return out
    for k, c in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = c
            continue
        num, den = cur
        bn, bd = c
        if den == bd:
            num += bn
        else:
            num, den = num * bd + bn * den, den * bd
        if not num:
            del out[k]
            continue
        if den != 1:
            g = gcd(num, den)
            if g != 1:
                num //= g
                den //= g
        out[k] = (num, den)
    return out


def _neg(a):
    return {k: (-num, den) for k, (num, den) in a.items()}


def _axpy(out, a, b):
    """Add a * b into the term dict ``out`` in place and return it (keys add;
    a = +-1 adds b without multiplying). A product past MAX_DEGREE raises
    StructureError: a carry out of the top (degree) field adds a field."""
    if not a or not b:
        return out
    if len(a) == 1 and a.get(0) in ((1, 1), (-1, 1)):
        return _iadd(out, b if a[0][0] == 1 else _neg(b))
    ka = max(a)
    if ka and (kb := max(b)) and (ka + kb).bit_length() > -(-ka.bit_length() // _BITS) * _BITS:
        raise StructureError(f"product degree exceeds the limit {MAX_DEGREE}")
    get = out.get
    bitems = list(b.items())
    for ka, (an, ad) in a.items():
        for kb, (bn, bd) in bitems:
            k = ka + kb
            num = an * bn
            den = ad * bd
            cur = get(k)
            if cur is not None:
                cn, cd = cur
                if cd == den:
                    num += cn
                else:
                    num, den = cn * den + num * cd, cd * den
                if not num:
                    del out[k]
                    continue
            if den != 1:
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
            out[k] = (num, den)
    return out


def _product(a, b):
    """Term dict of a * b."""
    return _axpy({}, a, b)


_new = object.__new__


def _make(nvars, terms):
    """Wrap a packed term dict without copying or checking it."""
    p = _new(Poly)
    _set_nvars(p, nvars)
    _set_terms(p, terms)
    return p


class Poly:
    """Immutable exact polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        """The sum of ``c * x^exps`` over a dict ``{exps: c}`` of exponent
        tuples and exact rationals."""
        packed = {}
        for exps, c in (terms or {}).items():
            key = _pack(nvars, exps)
            c = _pair(c)
            if c[0]:
                packed[key] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", packed)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars):
        return _make(nvars, {})

    @staticmethod
    def const(nvars, c):
        c = _pair(c)
        return _make(nvars, {0: c} if c[0] else {})

    @classmethod
    def var(cls, nvars, i):
        """The variable with 0-based index ``i``."""
        if not 0 <= i < nvars:
            raise StructureError(f"variable index {i} out of range for {nvars} variables")
        return cls(nvars, {tuple(1 if j == i else 0 for j in range(nvars)): 1})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): c})

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise StructureError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        return _make(self.nvars, _iadd(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.nvars, _neg(self.terms))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        return _make(self.nvars, _iadd(dict(self.terms), _neg(other.terms)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        return _make(self.nvars, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def diff(self, i):
        """Formal partial derivative with respect to variable ``i`` (0-based)."""
        n = self.nvars
        if not 0 <= i < n:
            raise StructureError(f"variable index {i} out of range for {n} variables")
        shift = _BITS * (n - 1 - i)
        step = (1 << shift) + (1 << (_BITS * n))
        out = {}
        for k, (num, den) in self.terms.items():
            e = (k >> shift) & _MASK
            if e:
                num *= e
                if den != 1:
                    g = gcd(num, den)
                    if g != 1:
                        num //= g
                        den //= g
                out[k - step] = (num, den)
        return _make(n, out)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_constant(self):
        """True iff no term has positive degree (the zero polynomial included)."""
        return self.terms.keys() <= {0}

    def coeff(self, exps):
        c = self.terms.get(_pack(self.nvars, exps))
        return Fraction(*c) if c else Fraction(0)

    def items(self):
        """The terms as (exponent tuple, (num, den)) pairs."""
        n = self.nvars
        return [(_unpack(n, k), c) for k, c in self.terms.items()]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if type(other) is int or type(other) is Fraction:
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({poly_to_str(self)})"


# the slot setters bypass the immutability guard for internal construction
_set_nvars = Poly.nvars.__set__
_set_terms = Poly.terms.__set__


def default_names(n):
    return [f"x{i + 1}" for i in range(n)]


def poly_to_str(p, names=None):
    """Canonical string form: descending graded lex term order."""
    if not p.terms:
        return "0"
    names = names or default_names(p.nvars)
    parts = []
    for k in sorted(p.terms, reverse=True):
        num, den = p.terms[k]
        mag = []
        c = abs(num)
        coeff = str(c) if den == 1 else f"{c}/{den}"
        factors = [names[i] + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(_unpack(p.nvars, k)) if e > 0]
        if not factors:
            mag.append(coeff)
        else:
            if coeff != "1":
                mag.append(coeff)
            mag.extend(factors)
        term = "*".join(mag)
        if not parts:
            parts.append(term if num > 0 else "-" + term)
        else:
            parts.append(("+ " if num > 0 else "- ") + term)
    return " ".join(parts)


_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_VAR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*?)(?:\^(\d+))?$")


def poly_from_str(s, nvars, names=None):
    """Parse the textual polynomial syntax. Inverse of :func:`poly_to_str`."""
    names = names or default_names(nvars)
    index = {nm: i for i, nm in enumerate(names)}
    s = s.strip()
    if not s:
        raise ValueError("empty polynomial string")
    # split into signed chunks at top level (no parentheses in the grammar)
    chunks = []
    sign, buf = 1, []
    prev_op = True
    for ch in s:
        if ch in "+-" and prev_op is False:
            chunks.append((sign, "".join(buf).strip()))
            sign, buf = (1 if ch == "+" else -1), []
            prev_op = True
        elif ch == "-" and prev_op and not buf:
            sign = -sign
            prev_op = True
        else:
            if not ch.isspace():
                prev_op = ch in "*^/"
            buf.append(ch)
    chunks.append((sign, "".join(buf).strip()))

    out = {}
    for sign, chunk in chunks:
        if not chunk:
            raise ValueError(f"malformed polynomial term in {s!r}")
        coeff = Fraction(sign)
        exps = [0] * nvars
        for factor in chunk.split("*"):
            factor = factor.strip()
            m = _RAT_RE.match(factor)
            if m:
                den = int(m.group(2) or 1)
                if den == 0:
                    raise ValueError(f"zero denominator in polynomial {s!r}")
                coeff *= Fraction(int(m.group(1)), den)
                continue
            m = _VAR_RE.match(factor)
            if m and m.group(1) in index:
                exps[index[m.group(1)]] += int(m.group(2) or 1)
                continue
            raise ValueError(f"unknown factor {factor!r} in polynomial {s!r}")
        key = _pack(nvars, exps)  # a zero term past the degree limit still raises
        if coeff:
            _iadd(out, {key: (coeff.numerator, coeff.denominator)})
    return _make(nvars, out)
