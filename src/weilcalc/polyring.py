"""Exact sparse multivariate polynomials over the rationals.

A :class:`Poly` in ``n`` variables stores a dict from exponent tuples to
nonzero rational coefficients. All arithmetic is exact and delegated to
the selected kernel backend; values are immutable after construction.

The textual syntax is sums of terms ``<rational>*x1^e1*...*xn^en``,
e.g. ``1/2*x1^2*x2 - 3``; ``poly_to_str`` emits terms in descending
graded lexicographic order, so output is canonical.
"""

import re
from fractions import Fraction

from .backend import kernel
from .errors import StructureError

_K = kernel


def _pair(c):
    """Coerce an int, Fraction, or (num, den) pair to a normalized pair."""
    if isinstance(c, tuple):
        return _K.rnorm(c[0], c[1])
    if isinstance(c, int):
        return (c, 1)
    if isinstance(c, Fraction):
        return (c.numerator, c.denominator)
    raise TypeError(f"not an exact rational: {c!r}")


class Poly:
    """Immutable exact polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", dict(terms) if terms else {})

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        p = _pair(c)
        if p[0] == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: p})

    @classmethod
    def var(cls, nvars, i):
        """The variable with 0-based index ``i``."""
        if not 0 <= i < nvars:
            raise StructureError(f"variable index {i} out of range for {nvars} variables")
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {e: (1, 1)})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise StructureError(f"bad exponent tuple {exps} for {nvars} variables")
        p = _pair(c)
        if p[0] == 0:
            return cls(nvars)
        return cls(nvars, {tuple(exps): p})

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise StructureError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        return Poly(self.nvars, _K.padd(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, _K.pneg(self.terms))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        return Poly(self.nvars, _K.psub(self.terms, other.terms))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.nvars, _K.pscale(self.terms, _pair(other)))
        self._check(other)
        return Poly(self.nvars, _K.pmul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, i):
        """Formal partial derivative with respect to variable ``i`` (0-based)."""
        if not 0 <= i < self.nvars:
            raise StructureError(f"variable index {i} out of range for {self.nvars} variables")
        return Poly(self.nvars, _K.pdiff(self.terms, i))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, exps):
        c = self.terms.get(tuple(exps))
        return Fraction(*c) if c else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Poly({poly_to_str(self)})"


def _grlex_key(item):
    e = item[0]
    return (-sum(e), tuple(-x for x in e))


def default_names(n):
    return [f"x{i + 1}" for i in range(n)]


def poly_to_str(p, names=None):
    """Canonical string form: descending graded lex term order."""
    if not p.terms:
        return "0"
    names = names or default_names(p.nvars)
    parts = []
    for e, (num, den) in sorted(p.terms.items(), key=_grlex_key):
        mag = []
        c = abs(num)
        coeff = str(c) if den == 1 else f"{c}/{den}"
        factors = [names[i] + (f"^{k}" if k > 1 else "")
                   for i, k in enumerate(e) if k > 0]
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

    out = Poly.zero(nvars)
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
        out = out + Poly.monomial(nvars, exps, coeff)
    return out
