"""Trivialized Lie algebroid presentations over a polynomial chart.

The base is a single chart Q^n with coordinate frame d_1..d_n; the
algebroid is trivialized by a global frame e_1..e_r. Structure data are
the polynomials c^k_{ij} (stored for i < j and extended antisymmetrically)
and the anchor components rho^a_i. Sections, vector fields and
bundle-valued forms are component tuples / sparse tables of Poly.
"""

import bisect
import itertools
import operator

from .errors import StructureError
from .polyring import Poly, poly_to_str


def sort_sign(idx):
    """Sort an index tuple, returning (sorted tuple, sign); sign 0 on repeats."""
    idx = tuple(idx)
    n = len(idx)
    if len(set(idx)) != n:
        return idx, 0
    perm = sorted(range(n), key=lambda t: idx[t])
    sign = 1
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length, t = 0, start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(idx[t] for t in perm), sign


def sorted_multisets(r, length):
    return itertools.combinations_with_replacement(range(1, r + 1), length)


def symmetric_slots(J):
    """Each distinct index j of a sorted multiset J once, as (j, J with one
    copy of j removed, multiplicity of j in J)."""
    for t in range(len(J)):
        if t > 0 and J[t] == J[t - 1]:
            continue
        yield J[t], J[:t] + J[t + 1:], J.count(J[t])


def is_form_index(idx, degree, nvars):
    """True iff idx is a strictly increasing tuple of ``degree`` chart indices."""
    return len(idx) == degree and (
        degree == 0 or (1 <= idx[0] and idx[-1] <= nvars
                        and all(map(operator.lt, idx, idx[1:]))))


class Section:
    """Section of the algebroid: components alpha^i over the frame e_1..e_r."""

    __slots__ = ("nvars", "comps")

    def __init__(self, nvars, comps):
        self.nvars = nvars
        self.comps = tuple(comps)
        for c in self.comps:
            if c.nvars != nvars:
                raise StructureError("section component over wrong chart")

    @property
    def rank(self):
        return len(self.comps)

    def __add__(self, other):
        if self.rank != other.rank:
            raise StructureError("section rank mismatch")
        return Section(self.nvars, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        if self.rank != other.rank:
            raise StructureError("section rank mismatch")
        return Section(self.nvars, [a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return Section(self.nvars, [-a for a in self.comps])

    def scaled(self, f):
        return Section(self.nvars, [f * a for a in self.comps])

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.comps)

    def __eq__(self, other):
        return (isinstance(other, Section) and self.nvars == other.nvars
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.nvars, self.comps))

    def __repr__(self):
        return f"Section({[poly_to_str(c) for c in self.comps]})"


class VField:
    """Vector field on the chart: components X^a over d_1..d_n."""

    __slots__ = ("nvars", "comps")

    def __init__(self, nvars, comps):
        self.nvars = nvars
        self.comps = tuple(comps)
        if len(self.comps) != nvars:
            raise StructureError("vector field needs one component per chart variable")

    def apply(self, f):
        """Derivation X(f) = sum_a X^a d_a f."""
        out = Poly.zero(self.nvars)
        for a, xa in enumerate(self.comps):
            if not xa.is_zero:
                out = out + xa * f.diff(a)
        return out

    def __eq__(self, other):
        return (isinstance(other, VField) and self.nvars == other.nvars
                and self.comps == other.comps)


def vfield_bracket(x, y):
    """Lie bracket of vector fields, [X,Y]^a = X(Y^a) - Y(X^a)."""
    return VField(x.nvars, [x.apply(ya) - y.apply(xa)
                            for xa, ya in zip(x.comps, y.comps)])


class SparseTable:
    """Linear structure of a module element stored as a sparse table.

    ``comps`` maps keys to nonzero values; ``_shape()`` gives the
    constructor arguments in front of the table. Sums, negatives and
    multiples are taken entry by entry and built through the subclass
    constructor, which validates the keys and drops zero values; only
    tables of one class and one shape can be added.
    """

    __slots__ = ()

    @classmethod
    def zero(cls, *shape):
        return cls(*shape)

    def __add__(self, other):
        shape = self._shape()
        if type(other) is not type(self) or other._shape() != shape:
            raise StructureError(f"{type(self).__name__} shape mismatch")
        out = dict(self.comps)
        for key, v in other.comps.items():
            cur = out.get(key)
            out[key] = v if cur is None else cur + v
        return type(self)(*shape, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(*self._shape(), {key: -v for key, v in self.comps.items()})

    def scaled(self, c):
        """Scale by a rational or a Poly (module structure over the chart ring)."""
        return type(self)(*self._shape(), {key: v * c for key, v in self.comps.items()})

    __mul__ = scaled

    @property
    def is_zero(self):
        return not self.comps

    def __eq__(self, other):
        return (type(other) is type(self) and self._shape() == other._shape()
                and self.comps == other.comps)


class VForm(SparseTable):
    """Bundle-valued differential form.

    Components live in a dict (b, A) -> Poly with b a 1-based bundle index
    and A a strictly increasing tuple of chart indices; missing entries are
    zero. Degree above the chart dimension makes the form the zero object.
    """

    __slots__ = ("nvars", "rank", "degree", "comps")

    def __init__(self, nvars, rank, degree, comps=None):
        self.nvars = nvars
        self.rank = rank
        self.degree = degree
        clean = {}
        for (b, idx), p in (comps or {}).items():
            idx = tuple(idx)
            if not 1 <= b <= rank:
                raise StructureError(f"bundle index {b} out of range 1..{rank}")
            if not is_form_index(idx, degree, nvars):
                raise StructureError(f"bad form index tuple {idx}")
            if not p.is_zero:
                clean[(b, idx)] = p
        self.comps = clean

    def _shape(self):
        return self.nvars, self.rank, self.degree

    def get(self, *key):
        """Component at value indices followed by an arbitrary-order form
        index tuple, with antisymmetry sign."""
        srt, sign = sort_sign(key[-1])
        if sign == 0:
            return Poly.zero(self.nvars)
        p = self.comps.get(key[:-1] + (srt,))
        if p is None:
            return Poly.zero(self.nvars)
        return p if sign > 0 else -p

    def __repr__(self):
        name = type(self).__name__
        return f"{name}(q={self.degree}, m={self.rank}, {len(self.comps)} comps)"

    # -- Cartan calculus ----------------------------------------------------

    def d(self):
        """Exterior derivative with trivial coefficients: d_a of each
        component, with dx^a moved into place past the t smaller indices."""
        acc = {}
        for key, p in self.comps.items():
            head, idx = key[:-1], key[-1]
            for a in range(1, self.nvars + 1):
                if a in idx:
                    continue
                dp = p.diff(a - 1)
                if dp.is_zero:
                    continue
                t = bisect.bisect(idx, a)
                q = dp if t % 2 == 0 else -dp
                out = head + (idx[:t] + (a,) + idx[t:],)
                cur = acc.get(out)
                acc[out] = q if cur is None else cur + q
        return type(self)(self.nvars, self.rank, self.degree + 1, acc)

    def iota(self, x):
        """Interior product with a vector field; on a 0-form, the zero form
        of degree -1 (so that d of it is a zero 0-form)."""
        return type(self)(self.nvars, self.rank, self.degree - 1, _iota(self.comps, x))

    def lie(self, x):
        """Lie derivative along a vector field (trivial coefficients)."""
        return type(self)(*self._shape(), _lie(self, x))


def _iota(comps, x):
    """The table of iota_X of a form table keyed (value head..., form index)."""
    acc = {}
    for key, p in comps.items():
        head, idx = key[:-1], key[-1]
        for t, a in enumerate(idx):
            xa = x.comps[a - 1]
            if xa.is_zero:
                continue
            q = xa * p if t % 2 == 0 else -(xa * p)
            rest = head + (idx[:t] + idx[t + 1:],)
            cur = acc.get(rest)
            acc[rest] = q if cur is None else cur + q
    return acc


def _lie(form, x):
    """The table of L_X of a form keyed (value head..., form index), by the
    chain rule: X applied to each coefficient, plus each slot dx^c replaced
    in turn by d(X^c) = d_a X^c dx^a."""
    dx = {c: [(a, dxc) for a in range(1, x.nvars + 1) if not (dxc := xc.diff(a - 1)).is_zero]
          for c, xc in enumerate(x.comps, start=1)} if form.degree > 0 else {}
    acc = {key: q for key, p in form.comps.items() if not (q := x.apply(p)).is_zero}
    for key, p in form.comps.items():
        head, idx = key[:-1], key[-1]
        for t, c in enumerate(idx):
            for a, dxc in dx[c]:
                srt, sign = sort_sign(idx[:t] + (a,) + idx[t + 1:])
                if sign == 0:
                    continue
                q = dxc * p if sign > 0 else -(dxc * p)
                out = head + (srt,)
                cur = acc.get(out)
                acc[out] = q if cur is None else cur + q
    return acc


def _wedge(left, right, pair):
    """Exterior product of two tables keyed (value head..., form index).

    ``pair(lkey, rkey)`` gives the value head of the product of two entries,
    or None where they do not pair; the form indices are joined left first
    and sorted with their sign. Returns the product table.
    """
    acc = {}
    for lkey, p in left.items():
        for rkey, q in right.items():
            head = pair(lkey, rkey)
            if head is None:
                continue
            srt, sign = sort_sign(lkey[-1] + rkey[-1])
            if sign == 0:
                continue
            pq = p * q if sign > 0 else -(p * q)
            key = head + (srt,)
            cur = acc.get(key)
            acc[key] = pq if cur is None else cur + pq
    return acc


def scalar_wedge(sf, vf):
    """Wedge a scalar form (rank-1 VForm) onto a bundle-valued form, sf ^ vf."""
    if sf.rank != 1:
        raise StructureError("left factor of scalar_wedge must be a scalar form")
    if sf.nvars != vf.nvars:
        raise StructureError("chart mismatch in scalar_wedge")
    return VForm(vf.nvars, vf.rank, sf.degree + vf.degree,
                 _wedge(sf.comps, vf.comps, lambda s, v: v[:1]))


def d_scalar(p, nvars):
    """Differential of a function as a scalar 1-form."""
    return VForm(nvars, 1, 0, {(1, ()): p}).d()


class AlgebroidPresentation:
    """Rank-r trivialized Lie algebroid over an n-variable chart.

    ``structure`` maps (i, j, k) with i < j to c^k_{ij}; ``anchor`` maps
    (i, a) to rho^a_i. The constructor never assumes the axioms:
    ``weil.validate_algebroid`` checks them separately, as delta^2 = 0.
    """

    __slots__ = ("nvars", "rank", "structure", "anchor", "_basis_cache",
                 "_rho_cache", "_bracket_cache")

    def __init__(self, nvars, rank, structure=None, anchor=None):
        self.nvars = nvars
        self.rank = rank
        self.structure = {}
        for (i, j, k), p in (structure or {}).items():
            if not (1 <= i < j <= rank and 1 <= k <= rank):
                raise StructureError(f"bad structure key {(i, j, k)} (need 1 <= i < j <= r)")
            if p.nvars != nvars:
                raise StructureError("structure polynomial over wrong chart")
            if not p.is_zero:
                self.structure[(i, j, k)] = p
        self.anchor = {}
        for (i, a), p in (anchor or {}).items():
            if not (1 <= i <= rank and 1 <= a <= nvars):
                raise StructureError(f"bad anchor key {(i, a)}")
            if p.nvars != nvars:
                raise StructureError("anchor polynomial over wrong chart")
            if not p.is_zero:
                self.anchor[(i, a)] = p
        self._basis_cache = {}
        self._rho_cache = {}
        self._bracket_cache = {}

    def basis(self, i):
        """The frame section e_i (cached: sections are immutable)."""
        e = self._basis_cache.get(i)
        if e is None:
            e = Section(self.nvars, [Poly.const(self.nvars, 1 if t == i else 0)
                                     for t in range(1, self.rank + 1)])
            self._basis_cache[i] = e
        return e

    def zero_section(self):
        return Section(self.nvars, [Poly.zero(self.nvars)] * self.rank)

    def rho_basis(self, i):
        x = self._rho_cache.get(i)
        if x is None:
            x = VField(self.nvars, [self.anchor.get((i, a), Poly.zero(self.nvars))
                                    for a in range(1, self.nvars + 1)])
            self._rho_cache[i] = x
        return x

    def rho(self, alpha):
        """Anchor image of a section as a vector field."""
        comps = [Poly.zero(self.nvars) for _ in range(self.nvars)]
        for i, ai in enumerate(alpha.comps, start=1):
            if ai.is_zero:
                continue
            for a in range(self.nvars):
                ra = self.anchor.get((i, a + 1))
                if ra is not None:
                    comps[a] = comps[a] + ai * ra
        return VField(self.nvars, comps)

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a (cached) section."""
        w = self._bracket_cache.get((i, j))
        if w is None:
            if i < j:
                w = Section(self.nvars, [self.structure.get((i, j, k), Poly.zero(self.nvars))
                                         for k in range(1, self.rank + 1)])
            else:
                w = self.zero_section() if i == j else -self.bracket_basis(j, i)
            self._bracket_cache[(i, j)] = w
        return w

    def __eq__(self, other):
        return (isinstance(other, AlgebroidPresentation)
                and (self.nvars, self.rank) == (other.nvars, other.rank)
                and self.structure == other.structure
                and self.anchor == other.anchor)


def bracket(A, alpha, beta):
    """Frame-expanded algebroid bracket.

    [alpha, beta]^k = alpha^i beta^j c^k_{ij} + rho(alpha)(beta^k)
                      - rho(beta)(alpha^k).
    """
    if alpha.rank != A.rank or beta.rank != A.rank:
        raise StructureError("section rank does not match algebroid rank")
    ra, rb = A.rho(alpha), A.rho(beta)
    comps = []
    for k in range(1, A.rank + 1):
        p = ra.apply(beta.comps[k - 1]) - rb.apply(alpha.comps[k - 1])
        for (i, j, kk), c in A.structure.items():
            if kk != k:
                continue
            ai, aj = alpha.comps[i - 1], alpha.comps[j - 1]
            bi, bj = beta.comps[i - 1], beta.comps[j - 1]
            coef = ai * bj - aj * bi
            if not coef.is_zero:
                p = p + coef * c
        comps.append(p)
    return Section(A.nvars, comps)

