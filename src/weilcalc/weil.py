"""The Weil complex W^{p,q}(A;V) over a trivialized algebroid.

A cochain is stored by its values on frame tuples, in one flat sparse
table keyed (k, I, J): k is the correction index, I a strictly increasing
tuple of p-k frame indices (antisymmetric slots), J a sorted multiset of
k frame indices (symmetric slots), and the value a degree-(q-k)
bundle-valued form; absent keys read as zero. Sums and multiples come
from ``algebroid.SparseTable``, which the forms share. Every operator
adds its terms through the cell maps of ``algebroid`` into one cell
(k, I, J) per frame layout: delta's first map is the Lie cell map of
``VForm.lie``, ``dnabla_cochain`` the d-nabla one of
``LinearConnection.dnabla``. Evaluation on
arbitrary sections reads the contraction cell map iota_alpha (``_contract``),
which fills the first antisymmetric slot by the Leibniz identity

    c_k(f a_1, a_2, ... || .) = f c_k(a_1, ... || .)
                                + df ^ c_{k+1}(a_2, ... || a_1, .)

and signs level k by (-1)^k, so c_k(a_1..a_s || .) is (-1)^(k s) times
the level-k row of iota_{a_s} ... iota_{a_1} c; it is C^infty-multilinear
in the symmetric arguments, which ``WeilCochain.insert`` fills one at a
time. A form with k open symmetric slots is such a row, the cells
(k, (), J) of a W^{k,q} cochain. Any table respecting the symmetry constraints
is accepted; evaluation-order consistency is a tested property.

The axiom checkers read ``delta``: the algebroid axioms and the flatness
of a representation are delta^2 = 0, the IM conditions are delta c = 0.
"""

import bisect
import functools
import itertools
import operator
from fractions import Fraction

from . import _linsolve
from .algebroid import (SparseTable, VForm, _act_into, _add_into, _axes, _form,
                        _lie_into, _terms, check_section, d_scalar, sort_sign,
                        sorted_multisets, symmetric_slots)
from .connections import ARep, EndForm, LinearConnection, _dnabla_into, induced_end_rep
from .errors import ContractError, StructureError
from .polyring import MAX_DEGREE, Poly
from .report import CheckReport


def increasing_tuples(r, length):
    return itertools.combinations(range(1, r + 1), length)


def monomials_upto(nvars, bound):
    out = []
    for exps in itertools.product(range(bound + 1), repeat=nvars):
        if sum(exps) <= bound:
            out.append(exps)
    return sorted(out)


def frame_rows(A, p, q):
    """The frame layout of W^{p,q}: (k, I, Js) for each correction level k
    whose degree-(q-k) forms do not vanish on the chart, each increasing
    tuple I of p-k antisymmetric slots, and Js the sorted k-multisets of
    symmetric slots."""
    for k in range(0, min(p, q) + 1):
        if q - k > A.nvars:
            continue
        Js = tuple(sorted_multisets(A.rank, k))
        for I in increasing_tuples(A.rank, p - k):
            yield k, I, Js


class WeilCochain(SparseTable):
    """Element of W^{p,q}(A;V) with a rank-``rank`` value bundle."""

    __slots__ = ("A", "rank", "p", "q", "comps")

    def __init__(self, A, rank, p, q, comps=None):
        self.A = A
        self.rank = rank
        self.p = p
        self.q = q
        clean = {}
        for (k, I, J), vf in (comps or {}).items():
            if not 0 <= k <= min(p, q):
                raise StructureError(f"correction index {k} out of range for W^{p},{q}")
            if q - k > A.nvars:
                # degree q-k forms on the chart vanish identically
                continue
            I, J = tuple(I), tuple(J)
            if len(I) != p - k or any(not 1 <= i <= A.rank for i in I) \
                    or any(I[t] >= I[t + 1] for t in range(len(I) - 1)):
                raise StructureError(f"bad antisymmetric index tuple {I}")
            if len(J) != k or any(not 1 <= j <= A.rank for j in J) \
                    or tuple(sorted(J)) != J:
                raise StructureError(f"bad symmetric index tuple {J}")
            if vf.degree != q - k or vf.rank != self.rank or vf.nvars != A.nvars:
                raise StructureError("table entry has wrong shape")
            if not vf.is_zero:
                clean[(k, I, J)] = vf
        self.comps = clean

    def _shape(self):
        return self.A, self.rank, self.p, self.q

    @classmethod
    def from_vform(cls, A, vf):
        """A plain form as a level-0 cochain."""
        return cls(A, vf.rank, 0, vf.degree, {(0, (), ()): vf})

    def as_vform(self):
        if self.p != 0:
            raise StructureError("only level-0 cochains are plain forms")
        return self.lookup(0, (), ())

    def insert(self, section):
        """Fill one symmetric slot with a section, W^{p,q} -> W^{p-1,q-1}
        (C^infty-linear): a cell (k, I, J) with value v sends section^j v to
        (k - 1, I, J - j), once for each distinct j in J."""
        if self.p == 0:
            raise StructureError("no symmetric slot to fill")
        A = self.A
        check_section(section, A.rank, A.nvars)
        acc = {}
        for (k, I, J), v in self.comps.items():
            for j, rest, _ in symmetric_slots(J):
                _add_into(acc, (k - 1, I, rest), _terms(v.comps), section.get(j, ()))
        return _cochain(A, self.rank, self.p - 1, self.q - 1, acc)

    # -- access --------------------------------------------------------------

    def lookup(self, k, I, J):
        """Signed table access; I in any order, J any order. Zero when absent."""
        srt, sign = sort_sign(I)
        vf = self.comps.get((k, srt, tuple(sorted(J)))) if sign else None
        if vf is None:
            return VForm.zero(self.A.nvars, self.rank, self.q - k)
        return vf if sign > 0 else -vf

    def __repr__(self):
        return f"WeilCochain(p={self.p}, q={self.q}, m={self.rank}, {len(self.comps)} comps)"


def evaluate(c, antis, syms=()):
    """Evaluate a cochain on sections: antisymmetric args first, symmetric second.

    The arity pair (len(antis), len(syms)) must match a correction level:
    len(antis) = p - k and len(syms) = k.
    """
    k0 = len(syms)
    if len(antis) != c.p - k0:
        raise StructureError(
            f"arity mismatch: got {len(antis)} antisymmetric and {k0} symmetric "
            f"arguments for a level-{c.p} cochain")
    row = eval_row(c, k0, antis)
    return functools.reduce(WeilCochain.insert, syms, row).as_vform()


def eval_row(c, k, sections):
    """Partial evaluation c_k(sections || .) as the level-k row of a
    W^{k,q} cochain: the level-k cells of the contractions by the sections,
    the first one first, times (-1)^(k s) for s sections."""
    if len(sections) != c.p - k:
        raise StructureError("wrong number of antisymmetric arguments")
    for alpha in sections:
        c = _contract(c, alpha)
    odd = k * len(sections) % 2
    return WeilCochain(c.A, c.rank, k, c.q,
                       {cell: -v if odd else v for cell, v in c.comps.items() if cell[0] == k})


def _insert(I, i):
    """(I with i inserted in order, the position of i); I is sorted."""
    pos = bisect.bisect(I, i)
    return I[:pos] + (i,) + I[pos:], pos


def _cochain(A, rank, p, q, acc):
    """The W^{p,q} cochain of an accumulator {(k, I, J): {(b, idx): term dict}},
    each row wrapped once by ``algebroid._form``; empty entries and cells of
    degree above the chart dimension are dropped."""
    n, comps = A.nvars, {}
    for cell in sorted(acc):
        if q - cell[0] <= n and (vf := _form(VForm, n, rank, q - cell[0], acc, cell)).comps:
            comps[cell] = vf
    c = object.__new__(WeilCochain)
    c.A, c.rank, c.p, c.q, c.comps = A, rank, p, q, comps
    return c


def _contract(c, alpha):
    """The contraction iota_alpha: W^{p,q} -> W^{p-1,q}. It fills the first
    antisymmetric slot with the section alpha and signs level k by (-1)^k:
    a cell (k, I, J) with value v sends (-1)^(k+t) alpha^i v to
    (k, I - i, J) for i = I[t], and, for each distinct i in J with
    alpha^i not constant, (-1)^(k-1) d(alpha^i) ^ v to (k - 1, I, J - i)."""
    A = c.A
    check_section(alpha, A.rank, A.nvars)
    coefs = {i: ai for (i, _), ai in alpha.comps.items()}
    dcoefs = {i: d_scalar(ai, A.nvars).comps for i, ai in coefs.items() if not ai.is_constant}
    acc = {}
    for (k, I, J), v in c.comps.items():
        table = _terms(v.comps)
        for t, i in enumerate(I):
            ai = coefs.get(i)
            if ai is not None:
                _add_into(acc, (k, I[:t] + I[t + 1:], J), table, ai, -1 if (k + t) % 2 else 1)
        for i, rest, _ in symmetric_slots(J):
            for (_, idx), f in dcoefs.get(i, {}).items():
                _add_into(acc, (k - 1, I, rest), table, f, 1 if k % 2 else -1, idx)
    return _cochain(A, c.rank, c.p - 1, c.q, acc)


def delta(A, rep, c):
    """The simplicial differential, level p -> p+1.

    delta is first order (a derivation of the Weil algebra on its
    generators), so it walks the cells of c and adds each one's terms to
    the few output cells it reaches. For a cell (k, I, J) with value v,
    pos the position of an inserted index in the output I, mult_j(J') the
    multiplicity of j in J', and every term signed by (-1)^k of its
    output level k:

    1. Lie, on values: (k, I + i, J) gets (-1)^pos L^A_{e_i} v, i not in I.
    2. Lie, on slots: for each distinct l in J and each j with
       c^l_{ij} != 0, (k, I + i, J') gets -(-1)^pos mult_j(J') c^l_{ij} v,
       with J' = J - l + j.
    3. Bracket insertion: for each l in I at position p_l and s < t not in
       I - l, (k, I - l + {s, t}, J) gets (-1)^(pos_s + pos_t + p_l) c^l_{st} v.
    4. Its Leibniz part, where c^l_{st} is not constant: for k >= 1, each
       distinct l in J and s < t not in I, (k - 1, I + {s, t}, J - l) gets
       (-1)^(pos_s + pos_t) d(c^l_{st}) ^ v.
    5. Slot interior products, for v of degree >= 1: (k + 1, I, J + j) gets
       -mult_j(J + j) iota_{rho(e_j)} v.

    Every output level k is at most min(p + 1, q).
    """
    if isinstance(c, VForm):
        c = WeilCochain.from_vform(A, c)
    elif c.A != A:
        raise StructureError("cochain lives over a different algebroid")
    if rep.rank != c.rank or rep.secrank != A.rank:
        raise StructureError("representation does not match cochain")
    r = A.rank
    brackets, frame_lie, leibniz, anchor, axes = A.delta_tables()
    psi = {i: rep.endo(i).comps.items() for i in range(1, r + 1)}
    acc = {}
    for (k, I, J), v in c.comps.items():
        sign = -1 if k % 2 else 1
        table = _terms(v.comps)
        jet = _axes(v.comps, axes)
        slots = tuple(symmetric_slots(J))
        for i in range(1, r + 1):
            if i in I:
                continue
            out, pos = _insert(I, i)
            sgn = -sign if pos % 2 else sign
            cell = (k, out, J)
            _lie_into(acc, cell, jet, anchor.get(i, ()), sgn)
            _act_into(acc, cell, psi[i], table, sgn)
            for l, rest, _ in slots:
                for j, cij in frame_lie.get((i, l), ()):
                    Jout, _ = _insert(rest, j)
                    _add_into(acc, (k, out, Jout), table, cij, -sgn * Jout.count(j))
        for pl, l in enumerate(I):
            rest = I[:pl] + I[pl + 1:]
            for s, t, cst in brackets.get(l, ()):
                if s in rest or t in rest:
                    continue
                out, ps = _insert(rest, s)
                out, pt = _insert(out, t)
                _add_into(acc, (k, out, J), table, cst, -1 if (k + ps + pt + pl) % 2 else 1)
        if k:
            for l, rest, _ in slots:
                for s, t, dcst in leibniz.get(l, ()):
                    if s in I or t in I:
                        continue
                    out, ps = _insert(I, s)
                    out, pt = _insert(out, t)
                    sgn = sign if (ps + pt) % 2 else -sign
                    for (_, idx), f in dcst.items():
                        _add_into(acc, (k - 1, out, rest), table, f, sgn, idx)
        for j, rhos in anchor.items() if v.degree else ():
            Jout, _ = _insert(J, j)
            for a, rho, _ in rhos:
                _add_into(acc, (k + 1, I, Jout), jet[a][1], rho, sign * Jout.count(j))
    return _cochain(A, c.rank, c.p + 1, c.q, acc)


def dnabla_cochain(conn, c):
    """Exterior covariant derivative of Weil cochains, degree q -> q+1.

    (d c)_0 = d-nabla of the leading term; the corrections are
    (-1)^k (d c)_k = d-nabla c_k - sum_i c_{k-1}(b_i, . || b's minus b_i).

    It walks the cells of c. A cell (k, I, J) with value v sends
    (-1)^k d-nabla v to (k, I, J), and for each i at position pos in I,
    (-1)^(k + pos) mult_i(J + i) v to (k + 1, I - i, J + i).
    """
    if isinstance(c, VForm):
        raise StructureError("wrap plain forms with WeilCochain.from_vform first")
    if conn.rank != c.rank or conn.nvars != c.A.nvars:
        raise StructureError("connection does not match cochain bundle")
    acc = {}
    for (k, I, J), v in c.comps.items():
        sign = -1 if k % 2 else 1
        _dnabla_into(acc, (k, I, J), conn, v, sign)
        table = _terms(v.comps)
        for pos, i in enumerate(I):
            Jout, _ = _insert(J, i)
            _add_into(acc, (k + 1, I[:pos] + I[pos + 1:], Jout), table,
                      (-sign if pos % 2 else sign) * Jout.count(i))
    return _cochain(c.A, c.rank, c.p, c.q + 1, acc)


def invariance_form(A, conn, rep):
    """The pair (T, theta) of a connection as the W^{1,1}(A; End V) cochain
    d Psi - delta_End Gamma, Psi the W^{1,0} cochain e_i -> psi_i: the mixed
    part of the curvature of delta + d-nabla. Its cells (0, (i,), ()) and
    (1, (), (j,)) are the flattened T(e_i) = d psi_i + [Gamma, psi_i]
    - L_{rho e_i} Gamma and theta(e_j) = psi_j - iota_{rho e_j} Gamma."""
    if conn.rank != rep.rank:
        raise StructureError("connection and representation act on different bundles")
    m2 = rep.rank * rep.rank
    psi = WeilCochain(A, m2, 1, 0, {(0, (i,), ()): rep.endo(i).to_flat()
                                   for i in range(1, A.rank + 1)})
    return dnabla_cochain(LinearConnection.trivial(A.nvars, m2), psi) \
        - delta(A, induced_end_rep(rep), conn.form.to_flat())


def is_A_invariant(A, conn, rep):
    """True iff d-nabla commutes with delta: the invariance pair vanishes."""
    return invariance_form(A, conn, rep).is_zero


def wedge_Ttheta(inv, c):
    """The operator (T,theta) ^ c for the pair ``inv`` of ``invariance_form``,
    raising level and degree by one.

    ((T,theta)^c)_k = sum_i (-1)^i T(a_i) ^ c_k(a's minus a_i || b's)
                      + sum_j theta(b_j) . c_{k-1}(a's || b's minus b_j).

    It walks the cells of c. A cell (k, I, J) with value v sends
    (-1)^pos T(e_i) ^ v to (k, I + i, J) for each i not in I, pos the
    position of i in I + i, and mult_j(J + j) theta(e_j) . v to
    (k + 1, I, J + j) for every j.
    """
    if isinstance(c, VForm):
        raise StructureError("wrap plain forms with WeilCochain.from_vform first")
    A, m = c.A, c.rank
    if inv.A != A:
        raise StructureError("cochain lives over a different algebroid")
    if inv.rank != m * m or (inv.p, inv.q) != (1, 1):
        raise StructureError("invariance form acts on a different bundle")
    T = {i: EndForm.from_flat(inv.lookup(0, (i,), ()), m) for i in range(1, A.rank + 1)}
    theta = {j: EndForm.from_flat(inv.lookup(1, (), (j,)), m) for j in range(1, A.rank + 1)}
    acc = {}
    for (k, I, J), v in c.comps.items():
        table = _terms(v.comps)
        for i in range(1, A.rank + 1):
            if i not in I:
                out, pos = _insert(I, i)
                _act_into(acc, (k, out, J), T[i].comps.items(), table, -1 if pos % 2 else 1)
        for j in range(1, A.rank + 1):
            Jout, _ = _insert(J, j)
            _act_into(acc, (k + 1, I, Jout), theta[j].comps.items(), table, Jout.count(j))
    return _cochain(A, m, c.p + 1, c.q + 1, acc)


# -- axiom checks: cells of delta -------------------------------------------


def _record_cells(report, table, name, cells, detail):
    """Record name(indices) for each (indices, cell) in order: it passes
    exactly when the cell is absent from the delta table."""
    for idx, cell in cells:
        ok = cell not in table
        report.record(f"{name}({','.join(map(str, idx))})", ok, "" if ok else detail)


def _delta2(A, rep, c):
    return delta(A, rep, delta(A, rep, c)).comps


def validate_algebroid(A):
    """Antisymmetry, Jacobi and the anchor-morphism property as delta^2 = 0
    with trivial representations: delta^2 of the coframe c(e_i) = u_i is minus
    the Jacobiator, and delta^2 x (e_i, e_j) of the coordinate map
    x = sum_a x_a u_a is ([rho e_i, rho e_j] - rho[e_i, e_j])(x)."""
    report = CheckReport("algebroid axioms")
    report.record("antisymmetry", True, "structure stored on i<j, extended antisymmetrically")
    n, r = A.nvars, A.rank
    one = Poly.const(n, 1)
    coframe = WeilCochain(A, r, 1, 0, {(0, (i,), ()): VForm(n, r, 0, {(i, ()): one})
                                       for i in range(1, r + 1)})
    _record_cells(report, _delta2(A, ARep(n, r, r), coframe), "jacobi",
                  ((I, (0, I, ())) for I in increasing_tuples(r, 3)),
                  "Jacobiator nonzero on this basis triple")
    x = VForm(n, n, 0, {(a, ()): Poly.var(n, a - 1) for a in range(1, n + 1)})
    _record_cells(report, _delta2(A, ARep(n, r, n), x), "anchor_morphism",
                  ((I, (0, I, ())) for I in increasing_tuples(r, 2)),
                  "rho[e_i,e_j] != [rho e_i, rho e_j]")
    return report


def validate_rep(A, rep):
    """Exact flatness check of a representation on all basis pairs: column c
    of nabla^A_[e_i,e_j] - [nabla^A_i, nabla^A_j] is minus the cell (0,(i,j),())
    of delta^2 u_c for the constant section u_c."""
    report = CheckReport("representation axioms")
    report.record("leibniz", True, "coefficient form satisfies the Leibniz rule by construction")
    one = Poly.const(A.nvars, 1)
    curvature = set()
    for c in range(1, rep.rank + 1):
        curvature.update(_delta2(A, rep, VForm(A.nvars, rep.rank, 0, {(c, ()): one})))
    _record_cells(report, curvature, "flatness",
                  ((I, (0, I, ())) for I in increasing_tuples(A.rank, 2)),
                  "nabla^A_[e_i,e_j] != [nabla^A_i, nabla^A_j]")
    return report


def check_IM(A, rep, c):
    """Exact pass/fail of the compatibility conditions (C.1)-(C.3) on basis
    pairs: they are the cells (0,(i,j),()), (1,(i,),(j,)) and (2,(),(i,j))
    of delta c, so c is IM exactly when delta c = 0."""
    if c.p != 1:
        raise StructureError("IM check applies to level-1 cochains")
    report = CheckReport("IM compatibility conditions")
    r, dc = A.rank, delta(A, rep, c).comps
    _record_cells(report, dc, "C.1", ((I, (0, I, ())) for I in increasing_tuples(r, 2)),
                  "c0[e_i,e_j] != L_i c0(e_j) - L_j c0(e_i)")
    _record_cells(report, dc, "C.2", (((i, j), (1, (i,), (j,)))
                                      for i, j in itertools.product(range(1, r + 1), repeat=2)),
                  "c1[e_i,e_j] != L_i(c1 e_j) - i_rho(e_j) c0(e_i)")
    _record_cells(report, dc, "C.3", ((J, (2, (), J)) for J in sorted_multisets(r, 2)),
                  "symbol is not anchor-antisymmetric")
    return report


def is_horizontal(c, ideal):
    """Correction terms vanish whenever a symmetric slot carries an ideal index."""
    forbidden = set(ideal.indices)
    return not any(k and forbidden.intersection(J) for k, _, J in c.comps)


# -- bounded-degree linear solving -------------------------------------------


def _flatten(c):
    """The coefficients of c keyed (k, I, J, b, idx, exps): an int where the
    coefficient is integral, a Fraction otherwise, so the solver's columns
    stay in int arithmetic."""
    flat = {}
    for (k, I, J), vf in c.comps.items():
        for (b, idx), poly in vf.comps.items():
            for exps, (num, den) in poly.items():
                flat[(k, I, J, b, idx, exps)] = num if den == 1 else Fraction(num, den)
    return flat


def _unknown_cells(A, rank, p, q, degree_bound, horizontal_ideal=None):
    cells = []
    n = A.nvars
    forbidden = set(horizontal_ideal.indices) if horizontal_ideal is not None else set()
    monomials = monomials_upto(n, degree_bound)
    for k, I, Js in frame_rows(A, p, q):
        for J in Js:
            if k > 0 and forbidden.intersection(J):
                continue
            for b in range(1, rank + 1):
                for idx in itertools.combinations(range(1, n + 1), q - k):
                    for exps in monomials:
                        cells.append((k, I, J, b, idx, exps))
    return cells


def _cell_cochain(A, rank, p, q, cell):
    k, I, J, b, idx, exps = cell
    vf = VForm(A.nvars, rank, q - k, {(b, idx): Poly.monomial(A.nvars, exps, 1)})
    return WeilCochain(A, rank, p, q, {(k, I, J): vf})


def _symbols(A, head):
    """The symbols S_a(e) = delta(x_a e) - x_a delta(e), a = 1..n, of the frame
    cell e = (k, I, J, b, idx), flattened. Only the anchor term rho(e_i)(f)
    of the leading Lie derivatives is not C^infty-linear in the coefficient
    f of e, so S_a(e) is (-1)^(k+pos) rho^a_i at (k, I', J, b, idx), where
    I' is I with i inserted at position pos, for each i not in I."""
    k, I, J, b, idx = head
    out = [{} for _ in range(A.nvars)]
    for i in range(1, A.rank + 1):
        if i in I:
            continue
        pos = sum(1 for t in I if t < i)
        head_i = (k, I[:pos] + (i,) + I[pos:], J, b, idx)
        sign = -1 if (k + pos) % 2 else 1
        for a, sym in enumerate(out, start=1):
            rho = A.anchor.get((i, a))
            if rho is not None:
                for exps, (num, den) in rho.items():
                    sym[head_i + (exps,)] = sign * num if den == 1 else Fraction(sign * num, den)
    return out


def _top_degree(flat):
    return max((sum(key[5]) for key in flat), default=0)


def _shift_into(col, flat, top, beta, scale):
    """Add scale * x^beta * flat to the flat column ``col``; ``top`` is the
    highest total degree in ``flat``."""
    if top + sum(beta) > MAX_DEGREE:
        raise StructureError(f"product degree exceeds the limit {MAX_DEGREE}")
    for key, v in flat.items():
        key = key[:5] + (tuple(map(operator.add, key[5], beta)),)
        cur = col.get(key)
        col[key] = v * scale if cur is None else cur + v * scale


def _delta_columns(A, rep, rank, p, q, degree_bound, horizontal_ideal):
    """The unknown cells of W^{p,q} and the flattened delta of each.

    delta is first order in the coefficients, so by the Leibniz rule

        delta(x^alpha e) = x^alpha delta(e) + sum_a alpha_a x^(alpha - eps_a) S_a(e)

    for a frame cell e: one delta per frame cell, and the symbols S_a read
    off the anchor. Cells come grouped by frame cell, monomials innermost.
    """
    cells = _unknown_cells(A, rank, p, q, degree_bound, horizontal_ideal)
    columns = []
    origin = (0,) * A.nvars
    for head, group in itertools.groupby(cells, key=operator.itemgetter(slice(5))):
        frame = _flatten(delta(A, rep, _cell_cochain(A, rank, p, q, head + (origin,))))
        frame_top = _top_degree(frame)
        symbols = [(a, sym, _top_degree(sym))
                   for a, sym in enumerate(_symbols(A, head)) if sym]
        for cell in group:
            alpha = cell[5]
            col = {}
            _shift_into(col, frame, frame_top, alpha, 1)
            for a, sym, top in symbols:
                if alpha[a]:
                    beta = alpha[:a] + (alpha[a] - 1,) + alpha[a + 1:]
                    _shift_into(col, sym, top, beta, alpha[a])
            columns.append({key: v for key, v in col.items() if v})
    return cells, columns


def _assemble(A, rank, p, q, cells, coeffs):
    """The cochain sum of x * cell over the sparse {cell index: x} coeffs,
    built in one pass."""
    acc = {}
    for i, x in coeffs.items():
        k, I, J, b, idx, exps = cells[i]
        _add_into(acc, (k, I, J), {(b, idx): Poly.monomial(A.nvars, exps, x).terms}, 1)
    return _cochain(A, rank, p, q, acc)


def solve_coboundary(A, rep, target, degree_bound, horizontal_ideal=None):
    """Find b with delta b = target and coefficient degree <= degree_bound.

    The target must be an exact delta-cocycle. Returns None when the
    bounded-degree system is infeasible; the verdict is relative to the
    bound. With ``horizontal_ideal`` the unknown is constrained to the
    horizontal subcomplex.
    """
    if not delta(A, rep, target).is_zero:
        raise ContractError("solve_coboundary target is not a delta-cocycle")
    return _solve(A, rep, target, degree_bound, horizontal_ideal)


def _solve(A, rep, target, degree_bound, horizontal_ideal=None):
    """``solve_coboundary`` for a target known to be a delta-cocycle."""
    if target.p == 0:
        raise ContractError("no level below a level-0 cochain")
    p, q = target.p - 1, target.q
    cells, columns = _delta_columns(A, rep, target.rank, p, q, degree_bound,
                                    horizontal_ideal)
    x = _linsolve.solve_sparse(columns, _flatten(target))
    if x is None:
        return None
    out = _assemble(A, target.rank, p, q, cells, x)
    if delta(A, rep, out) != target:
        raise ContractError("solve_coboundary solution does not satisfy delta b = target")
    return out


def bounded_kernel(A, rep, p, q, degree_bound, horizontal_ideal=None):
    """Basis of delta-cocycles at level p with coefficient degree <= bound."""
    rank = rep.rank
    cells, columns = _delta_columns(A, rep, rank, p, q, degree_bound, horizontal_ideal)
    basis = _linsolve.nullspace_sparse(columns)
    return [_assemble(A, rank, p, q, cells, x) for x in basis]
