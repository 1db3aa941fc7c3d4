"""Trivialized Lie algebroid presentations over a polynomial chart.

The base is a single chart Q^n with coordinate frame d_1..d_n; the
algebroid is trivialized by a global frame e_1..e_r. Structure data are
the polynomials c^k_{ij} (stored for i < j and extended antisymmetrically)
and the anchor components rho^a_i. Bundle-valued forms are sparse tables
of Poly. A section of a trivialized bundle is its degree-0 form, keyed
(i, ()); a vector field is a section of TM, the rank-n degree-0 form with
components X^a over d_1..d_n.

An End(V)-valued form of a rank-m bundle V is a VForm of rank m^2 over
End(V), with E^b_c at the index (b - 1) m + c; ``end_index`` and
``end_entry`` are the one encoding of that layout.

The chart calculus lives here as cell maps on term-dict tables keyed
(value head..., form index): d, iota_{d_a}, L_X, the exterior product and
the action of End(V)-valued forms each add their terms in place into one
cell of an accumulator {cell: {key: term dict}} through ``_add_into``.
Forms use the single cell () and wrap it once; the Weil complex uses one
cell (k, I, J) per frame layout.
"""

import bisect
import itertools
import operator

from .errors import StructureError
from .polyring import Poly, _axpy, _make, _neg, _pair, _product


def sort_sign(idx):
    """Sort an index tuple, returning (sorted tuple, sign); sign 0 on repeats."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return idx, 0
    odd = sum(a > b for a, b in itertools.combinations(idx, 2)) % 2
    return tuple(sorted(idx)), -1 if odd else 1


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
            if p.nvars != nvars:
                raise StructureError("form component over wrong chart")
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
        return f"VForm(q={self.degree}, m={self.rank}, {len(self.comps)} comps)"

    # -- Cartan calculus ----------------------------------------------------

    def d(self):
        """Exterior derivative with trivial coefficients."""
        acc = {}
        _d_into(acc, (), self.comps, self.nvars)
        return _form(self.nvars, self.rank, self.degree + 1, acc)

    def iota(self, x):
        """Interior product with a vector field x; on a 0-form, the zero form
        of degree -1 (so that d of it is a zero 0-form)."""
        acc, table = {}, _terms(self.comps)
        for a, xa, _ in _field(x, self.nvars, False):
            _add_into(acc, (), _iota_axis(table, a), xa)
        return _form(self.nvars, self.rank, self.degree - 1, acc)

    def lie(self, x):
        """Lie derivative along a vector field x (trivial coefficients)."""
        acc, field = {}, _field(x, self.nvars, self.degree > 0)
        _lie_into(acc, (), _axes(self.comps, [a for a, _, _ in field]), field)
        return _form(self.nvars, self.rank, self.degree, acc)


def Section(nvars, comps):
    """The section with components comps[i - 1] over the frame e_1..e_r of
    a rank-r bundle, as its degree-0 form; with r = nvars, the vector field
    with components X^a over d_1..d_n."""
    comps = tuple(comps)
    return VForm(nvars, len(comps), 0, {(i, ()): c for i, c in enumerate(comps, start=1)})


def check_section(alpha, rank, nvars, bundle="algebroid"):
    """Reject anything but a section (a degree-0 form) of a rank-``rank``
    bundle over the ``nvars``-variable chart."""
    if not isinstance(alpha, VForm) or alpha.degree != 0:
        raise StructureError("a section is a degree-0 form")
    if alpha.rank != rank:
        raise StructureError(f"section rank does not match {bundle} rank")
    if alpha.nvars != nvars:
        raise StructureError("section over wrong chart")


def d_scalar(p, nvars):
    """Differential of a function as a scalar 1-form."""
    return VForm(nvars, 1, 0, {(1, ()): p}).d()


# -- term-dict cell maps ---------------------------------------------------------


def _add_into(acc, cell, table, coef, scale=1, left=()):
    """acc[cell] += scale * coef * dx^left ^ table, for a term-dict table
    keyed (value head..., form index), left an increasing form index, coef
    an int or Poly and scale a nonzero int or Fraction; entries whose form
    index meets left are skipped. Accumulator rows map keys to term dicts;
    each row entry is a dict of its own, changed in place by
    ``polyring._axpy``, and the table is only read."""
    if not table or not coef:
        return
    row = acc.setdefault(cell, {})
    terms = coef.terms if isinstance(coef, Poly) else {0: (coef, 1)}
    if scale != 1:
        terms = _product(terms, {0: _pair(scale)})
    signed, slots, rev = ((terms, _neg(terms)), set(left), left[::-1]) if left else (None,) * 3
    for key, t in table.items():
        a = terms
        if left:
            idx, odd = key[-1], 0
            if not slots.isdisjoint(idx):
                continue
            for s in rev:  # dx^s moves past the indices below it, the last s first
                pos = bisect.bisect(idx, s)
                idx, odd = idx[:pos] + (s,) + idx[pos:], odd ^ (pos & 1)
            key, a = key[:-1] + (idx,), signed[odd]
        out = row.get(key)
        if out is None:
            out = row[key] = {}
        _axpy(out, a, t)


def _form(nvars, rank, degree, acc, cell=()):
    """The form from the row acc[cell], each term dict wrapped once as it
    is, keys not validated again; empty entries are dropped."""
    f = object.__new__(VForm)
    f.nvars, f.rank, f.degree = nvars, rank, degree
    f.comps = {key: _make(nvars, t) for key, t in acc.get(cell, {}).items() if t}
    return f


def _terms(comps):
    """The term dicts of a form table {key: Poly}, shared, not copied."""
    return {key: p.terms for key, p in comps.items()}


def _partial(comps, a, outside=False):
    """The term-dict table of d_a of each entry of a form table; with
    ``outside``, only of the entries whose form index lacks a."""
    return {key: d for key, p in comps.items()
            if not (outside and a in key[-1]) and (d := p.diff(a - 1).terms)}


def _iota_axis(table, a):
    """The term-dict table of iota_{d_a} of a term-dict table."""
    return {key[:-1] + (idx[:pos] + idx[pos + 1:],): _neg(t) if pos % 2 else t
            for key, t in table.items() if a in (idx := key[-1]) for pos in (idx.index(a),)}


def _d_into(acc, cell, comps, nvars, scale=1):
    """acc[cell] += scale * d v = sum_a dx^a ^ d_a v for v given by its form
    table; d_a is taken only of the entries that dx^a ^ does not kill."""
    for a in range(1, nvars + 1):
        _add_into(acc, cell, _partial(comps, a, True), scale, 1, (a,))


def end_index(m, b, c):
    """The index (b - 1) m + c of E^b_c in End(V), V of rank m."""
    if not (1 <= b <= m and 1 <= c <= m):
        raise StructureError(f"End(V) entry {(b, c)} out of range 1..{m}")
    return (b - 1) * m + c


def end_entry(m, f):
    """The (row, column) pair (b, c) of the End(V) index f = (b - 1) m + c."""
    b, c = divmod(f - 1, m)
    return b + 1, c + 1


def _act_into(acc, cell, entries, table, m, scale=1, stride=1):
    """acc[cell] += scale * E ^ v for an End(V)-valued form E, V of rank m,
    given by its entries ((f, idx), E_f), and v by its term-dict table
    keyed (value index, head..., form index). The matrix acts on the V
    factor of the value index: the index itself at stride 1 (v V-valued),
    its row at stride m (v End(V)-valued, E^b_e v^e_c at b's row). The
    value indices of factor c fill the block ((c - 1) stride, c stride],
    and E^b_c moves that block to b's by adding (b - c) * stride."""
    for (f, idx), coef in entries:
        b, c = end_entry(m, f)
        lo, hi, shift = (c - 1) * stride, c * stride, (b - c) * stride
        _add_into(acc, cell, {(key[0] + shift,) + key[1:]: t for key, t in table.items()
                              if lo < key[0] <= hi}, coef, scale, idx)


def _field(x, nvars, forms=True):
    """The entries (a, X^a, dX^a table) of a vector field X, a section of TM
    on an n-variable chart. dX^a is left empty where X^a is constant, and
    without ``forms`` (iota_X and L_X of a 0-form read no dX^a)."""
    check_section(x, nvars, nvars, "tangent")
    return [(a, xa, d_scalar(xa, x.nvars).comps if forms and not xa.is_constant else {})
            for (a, _), xa in x.comps.items()]


def _axes(comps, axes):
    """{a: (d_a v, iota_{d_a} v)} as term-dict tables, for v given by its
    form table and each chart index a in axes."""
    table = _terms(comps)
    return {a: (_partial(comps, a), _iota_axis(table, a)) for a in axes}


def _lie_into(acc, cell, axes, field, scale=1):
    """acc[cell] += scale * L_X v = sum_a X^a d_a v + dX^a ^ iota_{d_a} v,
    for v given by its ``_axes`` tables and X by its ``_field`` entries."""
    for a, xa, dxa in field:
        partial, iota = axes[a]
        _add_into(acc, cell, partial, xa, scale)
        for key, f in dxa.items():
            _add_into(acc, cell, iota, f, scale, key[-1])


class AlgebroidPresentation:
    """Rank-r trivialized Lie algebroid over an n-variable chart.

    ``structure`` maps (i, j, k) with i < j to c^k_{ij}; ``anchor`` maps
    (i, a) to rho^a_i. The constructor never assumes the axioms:
    ``weil.validate_algebroid`` checks them separately, as delta^2 = 0.
    It builds the frame data every operator reads, sized by the entries:
    rho(e_i) per anchored index, [e_i, e_j] per bracketed pair in both
    orders, and the tables of ``delta_tables``; an index without entries
    reads one shared zero form.
    """

    __slots__ = ("nvars", "rank", "structure", "anchor", "_rho", "_brackets",
                 "_zero_field", "_zero_section", "_delta_tables", "_frame_memo")

    def __init__(self, nvars, rank, structure=None, anchor=None):
        if nvars < 0 or rank < 0:
            raise StructureError(
                f"chart dimension and rank must be nonnegative, got {nvars} and {rank}")
        self.nvars = nvars
        self.rank = rank
        self.structure, pairs, brackets, frame_lie = {}, {}, {}, {}
        for (i, j, k), p in (structure or {}).items():
            if not (1 <= i < j <= rank and 1 <= k <= rank):
                raise StructureError(f"bad structure key {(i, j, k)} (need 1 <= i < j <= r)")
            if p.nvars != nvars:
                raise StructureError("structure polynomial over wrong chart")
            if not p.is_zero:
                self.structure[(i, j, k)] = p
                pairs.setdefault((i, j), {})[(k, ())] = p
                brackets.setdefault(k, []).append((i, j, p))
                frame_lie.setdefault((i, k), []).append((j, p))
                frame_lie.setdefault((j, k), []).append((i, -p))
        self.anchor, fields = {}, {}
        for (i, a), p in (anchor or {}).items():
            if not (1 <= i <= rank and 1 <= a <= nvars):
                raise StructureError(f"bad anchor key {(i, a)}")
            if p.nvars != nvars:
                raise StructureError("anchor polynomial over wrong chart")
            if not p.is_zero:
                self.anchor[(i, a)] = p
                fields.setdefault(i, {})[(a, ())] = p
        self._rho = {i: VForm(nvars, nvars, 0, comps) for i, comps in fields.items()}
        self._brackets = {}
        for (i, j), comps in pairs.items():
            w = self._brackets[(i, j)] = VForm(nvars, rank, 0, comps)
            self._brackets[(j, i)] = -w
        self._zero_field = VForm.zero(nvars, nvars, 0)
        self._zero_section = VForm.zero(nvars, rank, 0)
        leibniz = {l: [(s, t, d_scalar(cst, nvars).comps) for s, t, cst in terms
                       if not cst.is_constant]
                   for l, terms in brackets.items()}
        self._delta_tables = (brackets, frame_lie, leibniz,
                              {i: _field(self._rho[i], nvars) for i in sorted(self._rho)},
                              sorted({a for _, a in self.anchor}))
        self._frame_memo = {}

    def basis(self, i):
        """The frame section e_i."""
        return VForm(self.nvars, self.rank, 0, {(i, ()): Poly.const(self.nvars, 1)})

    def rho_basis(self, i):
        """rho(e_i) as a vector field."""
        return self._rho.get(i, self._zero_field)

    def delta_tables(self):
        """The frame data ``weil.delta`` reads, built with the presentation:
        brackets[l] lists (s, t, c^l_{st}) on s < t, frame_lie[(i, l)] lists
        (j, c^l_{ij}), leibniz[l] lists (s, t, d c^l_{st}) for the
        non-constant c^l_{st}, anchor[i] holds the ``_field`` entries of
        rho(e_i), and axes the chart indices the anchor reaches. The solver
        reads the anchor entries for its symbols, and keeps the delta of
        each frame cell beside these tables, in ``frame_memo``."""
        return self._delta_tables

    def frame_memo(self, p, q, rep, build):
        """The solver's memo of the frame columns of W^{p,q} over ``rep``:
        ``build()`` the first time, and again whenever another representation
        (by identity) asks, so one rep's columns never serve another's. It
        holds while the presentation and the representation are left
        unchanged, as every caller does."""
        entry = self._frame_memo.get((p, q))
        if entry is None or entry[0] is not rep:
            entry = self._frame_memo[(p, q)] = rep, build()
        return entry[1]

    def rho(self, alpha):
        """Anchor image of a section as a vector field."""
        check_section(alpha, self.rank, self.nvars)
        acc = {}
        for (i, _), ai in alpha.comps.items():
            _add_into(acc, (), _terms(self.rho_basis(i).comps), ai)
        return _form(self.nvars, self.nvars, 0, acc)

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a section."""
        return self._brackets.get((i, j), self._zero_section)

    def __eq__(self, other):
        return (isinstance(other, AlgebroidPresentation)
                and (self.nvars, self.rank) == (other.nvars, other.rank)
                and self.structure == other.structure
                and self.anchor == other.anchor)


def bracket(A, alpha, beta):
    """Frame-expanded algebroid bracket, rho(alpha)(beta^k) read off the
    Lie derivative of beta along rho(alpha):

    [alpha, beta]^k = alpha^i beta^j c^k_{ij} + rho(alpha)(beta^k)
                      - rho(beta)(alpha^k).
    """
    ra, rb, acc = A.rho(alpha), A.rho(beta), {}
    for (i, j, k), c in A.structure.items():
        coef = alpha.get(i, ()) * beta.get(j, ()) - alpha.get(j, ()) * beta.get(i, ())
        _add_into(acc, (), {(k, ()): coef.terms}, c)
    return beta.lie(ra) - alpha.lie(rb) + _form(A.nvars, A.rank, 0, acc)
