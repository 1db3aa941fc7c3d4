"""Linear connections, algebroid representations, and the invariance form.

All objects are frame-expanded over the chart: a connection is its
Christoffel table Gamma^b_{a c} (nabla_{d_a} u_c = Gamma^b_{a c} u_b), a
representation its coefficient table psi^b_{i c} (nabla^A_{e_i} u_c =
psi^b_{i c} u_b). End(V)-valued objects are polynomial matrices.
"""

import itertools

from .algebroid import SparseTable, VForm, bracket, sort_sign, symmetric_slots
from .errors import StructureError
from .polyring import Poly
from .report import CheckReport


class LinearConnection:
    """Connection on a trivialized rank-m bundle over the chart."""

    __slots__ = ("nvars", "rank", "christoffels")

    def __init__(self, nvars, rank, christoffels=None):
        self.nvars = nvars
        self.rank = rank
        self.christoffels = {}
        for (a, b, c), p in (christoffels or {}).items():
            if not (1 <= a <= nvars and 1 <= b <= rank and 1 <= c <= rank):
                raise StructureError(f"bad christoffel key {(a, b, c)}")
            if not p.is_zero:
                self.christoffels[(a, b, c)] = p

    @classmethod
    def trivial(cls, nvars, rank):
        return cls(nvars, rank)

    def gamma(self, a, b, c):
        return self.christoffels.get((a, b, c), Poly.zero(self.nvars))

    def dnabla(self, vf):
        """Exterior covariant derivative of a bundle-valued form."""
        if vf.rank != self.rank or vf.nvars != self.nvars:
            raise StructureError("form does not match connection bundle")
        out = vf.d()
        deg = vf.degree + 1
        extra = {}
        for (a, b, c), g in self.christoffels.items():
            for (cc, idx), p in vf.comps.items():
                if cc != c or a in idx:
                    continue
                srt, sign = sort_sign((a,) + idx)
                q = g * p
                key = (b, srt)
                q = q if sign > 0 else -q
                cur = extra.get(key)
                extra[key] = q if cur is None else cur + q
        if extra:
            out = out + VForm(self.nvars, self.rank, deg, extra)
        return out

    def lie_nabla(self, x, vf):
        """Covariant Lie derivative via Cartan: d-nabla iota + iota d-nabla."""
        return self.dnabla(vf.iota(x)) + self.dnabla(vf).iota(x)

    def curvature_R(self):
        """Curvature as an End-valued 2-form.

        R(d_a, d_b) = d_a Gamma_b - d_b Gamma_a + [Gamma_a, Gamma_b].
        """
        comps = {}
        for a1, a2 in itertools.combinations(range(1, self.nvars + 1), 2):
            for b in range(1, self.rank + 1):
                for c in range(1, self.rank + 1):
                    p = self.gamma(a2, b, c).diff(a1 - 1) - self.gamma(a1, b, c).diff(a2 - 1)
                    for e in range(1, self.rank + 1):
                        p = p + self.gamma(a1, b, e) * self.gamma(a2, e, c) \
                              - self.gamma(a2, b, e) * self.gamma(a1, e, c)
                    comps[(b, c, (a1, a2))] = p
        return EndForm(self.nvars, self.rank, 2, comps)

    def shifted(self, gamma):
        """The connection nabla + gamma for an End-valued 1-form gamma."""
        if gamma.degree != 1 or gamma.rank != self.rank:
            raise StructureError("shift must be an End-valued 1-form on the same bundle")
        table = dict(self.christoffels)
        for (b, c, (a,)), p in gamma.comps.items():
            key = (a, b, c)
            cur = table.get(key)
            table[key] = p if cur is None else cur + p
        return LinearConnection(self.nvars, self.rank, table)

    def __eq__(self, other):
        return (isinstance(other, LinearConnection)
                and (self.nvars, self.rank) == (other.nvars, other.rank)
                and self.christoffels == other.christoffels)


class ARep:
    """Algebroid representation in coefficient form (flatness checked separately)."""

    __slots__ = ("nvars", "secrank", "rank", "psi")

    def __init__(self, nvars, secrank, rank, psi=None):
        self.nvars = nvars
        self.secrank = secrank
        self.rank = rank
        self.psi = {}
        for (i, b, c), p in (psi or {}).items():
            if not (1 <= i <= secrank and 1 <= b <= rank and 1 <= c <= rank):
                raise StructureError(f"bad representation key {(i, b, c)}")
            if not p.is_zero:
                self.psi[(i, b, c)] = p

    @classmethod
    def trivial(cls, nvars, secrank, rank):
        return cls(nvars, secrank, rank)

    def act(self, A, alpha, xi):
        """nabla^A_alpha applied to a value-bundle section (component tuple)."""
        rho = A.rho(alpha)
        out = [rho.apply(x) for x in xi]
        for (i, b, c), p in self.psi.items():
            ai = alpha.comps[i - 1]
            if ai.is_zero or xi[c - 1].is_zero:
                continue
            out[b - 1] = out[b - 1] + ai * p * xi[c - 1]
        return tuple(out)


class EndForm(SparseTable):
    """End(V)-valued form: components (row, col, A) -> Poly in the frame."""

    __slots__ = ("nvars", "rank", "degree", "comps")

    def __init__(self, nvars, rank, degree, comps=None):
        self.nvars = nvars
        self.rank = rank
        self.degree = degree
        clean = {}
        for (b, c, idx), p in (comps or {}).items():
            idx = tuple(idx)
            if not (1 <= b <= rank and 1 <= c <= rank) or len(idx) != degree:
                raise StructureError(f"bad End-form key {(b, c, idx)}")
            if not p.is_zero:
                clean[(b, c, idx)] = p
        self.comps = clean

    # keys are VForm keys with the column index after the row index
    _shape = VForm._shape
    get = VForm.get
    iota = VForm.iota
    __repr__ = VForm.__repr__

    def wedge_vform(self, vf):
        """Matrix-acting wedge with a V-valued form: (T ^ w)^b = T^b_c ^ w^c."""
        if vf.rank != self.rank:
            raise StructureError("End-form and form bundle ranks differ")
        deg = self.degree + vf.degree
        acc = {}
        for (b, c, sidx), tp in self.comps.items():
            for (cc, vidx), vp in vf.comps.items():
                if cc != c:
                    continue
                srt, sign = sort_sign(sidx + vidx)
                if sign == 0:
                    continue
                q = tp * vp if sign > 0 else -(tp * vp)
                key = (b, srt)
                cur = acc.get(key)
                acc[key] = q if cur is None else cur + q
        return VForm(self.nvars, vf.rank, deg, acc)

    def act_vform(self, vf):
        """Pointwise matrix action on a form (degree-0 End-forms only)."""
        if self.degree != 0:
            raise StructureError("matrix action requires a degree-0 End-form")
        return self.wedge_vform(vf)

    def compose(self, other):
        """Matrix product of degree-0 End-forms."""
        if self.degree != 0 or other.degree != 0:
            raise StructureError("compose requires degree-0 End-forms")
        acc = {}
        for (b, e, _), p in self.comps.items():
            for (ee, c, _), q in other.comps.items():
                if ee != e:
                    continue
                key = (b, c, ())
                cur = acc.get(key)
                acc[key] = p * q if cur is None else cur + p * q
        return EndForm(self.nvars, self.rank, 0, acc)

    def to_flat(self):
        """Flatten to a VForm over the rank-m^2 endomorphism bundle."""
        m = self.rank
        comps = {((b - 1) * m + c, idx): p for (b, c, idx), p in self.comps.items()}
        return VForm(self.nvars, m * m, self.degree, comps)

    @classmethod
    def from_flat(cls, vf, rank):
        if vf.rank != rank * rank:
            raise StructureError("flat form rank is not a perfect square of the bundle rank")
        comps = {}
        for (f, idx), p in vf.comps.items():
            b, c = divmod(f - 1, rank)
            comps[(b + 1, c + 1, idx)] = p
        return cls(vf.nvars, rank, vf.degree, comps)


class SymForm(SparseTable):
    """Form valued in S^k(A*) (x) V: table of VForms keyed by sorted multisets."""

    __slots__ = ("nvars", "rank", "secrank", "arity", "degree", "comps")

    def __init__(self, nvars, rank, secrank, arity, degree, comps=None):
        self.nvars = nvars
        self.rank = rank
        self.secrank = secrank
        self.arity = arity
        self.degree = degree
        clean = {}
        for j, vf in (comps or {}).items():
            j = tuple(j)
            if len(j) != arity or any(not 1 <= t <= secrank for t in j) \
                    or tuple(sorted(j)) != j:
                raise StructureError(f"bad symmetric multi-index {j}")
            if vf.degree != degree or vf.rank != rank:
                raise StructureError("symmetric table entry has wrong shape")
            if not vf.is_zero:
                clean[j] = vf
        self.comps = clean

    def _shape(self):
        return self.nvars, self.rank, self.secrank, self.arity, self.degree

    def get(self, j):
        vf = self.comps.get(tuple(sorted(j)))
        if vf is None:
            return VForm.zero(self.nvars, self.rank, self.degree)
        return vf

    def vform(self):
        if self.arity != 0:
            raise StructureError("still has open symmetric slots")
        return self.get(())

    def insert(self, section):
        """Fill one symmetric slot with a section (C^infty-linear).

        out(J') = sum_l section^l * self(sort(J' + (l,))); each stored row
        contributes once per distinct value it can donate to the slot.
        """
        if self.arity == 0:
            raise StructureError("no symmetric slot to fill")
        acc = {}
        for J, vf in self.comps.items():
            for j, rest, _ in symmetric_slots(J):
                coeff = section.comps[j - 1]
                if coeff.is_zero:
                    continue
                term = vf.scaled(coeff)
                cur = acc.get(rest)
                acc[rest] = term if cur is None else cur + term
        return SymForm(self.nvars, self.rank, self.secrank, self.arity - 1, self.degree, acc)

    def iota(self, x):
        return SymForm(self.nvars, self.rank, self.secrank, self.arity, self.degree - 1,
                       {j: vf.iota(x) for j, vf in self.comps.items()})


def lieA_vform(A, rep, alpha, vf):
    """Lie derivative on a plain V-valued form, by the chain rule."""
    n = A.nvars
    rho = A.rho(alpha)
    acc = {}

    def add(key, p):
        cur = acc.get(key)
        acc[key] = p if cur is None else cur + p

    # derivative of coefficients along the anchor
    for (b, idx), p in vf.comps.items():
        q = rho.apply(p)
        if not q.is_zero:
            add((b, idx), q)
    # representation acting on values
    for (i, b, c), psi in rep.psi.items():
        ai = alpha.comps[i - 1]
        if ai.is_zero:
            continue
        for (cc, idx), p in vf.comps.items():
            if cc != c:
                continue
            add((b, idx), ai * psi * p)
    # form-slot insertions of [rho(alpha), d_a]: reading from the input side,
    # a component at index tuple idx feeds the output at idx with slot t
    # replaced by a, weighted by d_a(rho^{idx_t})
    if vf.degree > 0:
        danchor = {}
        for c in range(1, n + 1):
            xc = rho.comps[c - 1]
            if xc.is_zero:
                continue
            for a in range(1, n + 1):
                d = xc.diff(a - 1)
                if not d.is_zero:
                    danchor[(a, c)] = d
        for (b, idx), p in vf.comps.items():
            for t, cold in enumerate(idx):
                for anew in range(1, n + 1):
                    d = danchor.get((anew, cold))
                    if d is None:
                        continue
                    repl = idx[:t] + (anew,) + idx[t + 1:]
                    srt, sign = sort_sign(repl)
                    if sign == 0:
                        continue
                    q = d * p if sign > 0 else -(d * p)
                    add((b, srt), q)
    return VForm(n, vf.rank, vf.degree, acc)


def lieA_derivative(A, rep, alpha, gamma):
    """Lie derivative on S^k(A*)-valued forms: chain rule over all slots.

    (L^A_a gamma)(J) = L^A_a(gamma(J)) applied to values and form slots,
    minus the sum over symmetric positions t of gamma with e_{J_t}
    replaced by [a, e_{J_t}] (positions with equal index contribute with
    multiplicity).
    """
    candidates = set(gamma.comps)
    for J in gamma.comps:
        for _, rest, _ in symmetric_slots(J):
            for s in range(1, gamma.secrank + 1):
                candidates.add(tuple(sorted(rest + (s,))))
    wcache = {}
    rows = {}
    for J in candidates:
        vf = gamma.comps.get(J)
        acc = lieA_vform(A, rep, alpha, vf) if vf is not None else None
        for j, rest, mult in symmetric_slots(J):
            w = wcache.get(j)
            if w is None:
                w = bracket(A, alpha, A.basis(j))
                wcache[j] = w
            for l in range(1, gamma.secrank + 1):
                wl = w.comps[l - 1]
                if wl.is_zero:
                    continue
                src = gamma.comps.get(tuple(sorted(rest + (l,))))
                if src is None:
                    continue
                coeff = wl if mult == 1 else wl * mult
                term = src.scaled(-coeff)
                acc = term if acc is None else acc + term
        if acc is not None:
            rows[J] = acc
    return SymForm(gamma.nvars, gamma.rank, gamma.secrank, gamma.arity, gamma.degree, rows)


def validate_rep(A, rep):
    """Exact flatness check of a representation on all basis pairs."""
    rep_report = CheckReport("representation axioms")
    rep_report.record("leibniz", True, "coefficient form satisfies the Leibniz rule by construction")
    m = rep.rank
    for i, j in itertools.combinations(range(1, A.rank + 1), 2):
        w = A.bracket_basis(i, j)
        lhs = {}
        for (k, b, c), p in rep.psi.items():
            wk = w.comps[k - 1]
            if wk.is_zero:
                continue
            key = (b, c)
            cur = lhs.get(key)
            lhs[key] = wk * p if cur is None else cur + wk * p
        ri, rj = A.rho_basis(i), A.rho_basis(j)
        ok = True
        for b in range(1, m + 1):
            for c in range(1, m + 1):
                rhs = ri.apply(rep.psi.get((j, b, c), Poly.zero(A.nvars))) \
                    - rj.apply(rep.psi.get((i, b, c), Poly.zero(A.nvars)))
                for e in range(1, m + 1):
                    rhs = rhs + rep.psi.get((i, b, e), Poly.zero(A.nvars)) \
                        * rep.psi.get((j, e, c), Poly.zero(A.nvars))
                    rhs = rhs - rep.psi.get((j, b, e), Poly.zero(A.nvars)) \
                        * rep.psi.get((i, e, c), Poly.zero(A.nvars))
                if lhs.get((b, c), Poly.zero(A.nvars)) != rhs:
                    ok = False
        rep_report.record(f"flatness({i},{j})", ok,
                          "" if ok else "nabla^A_[e_i,e_j] != [nabla^A_i, nabla^A_j]")
    return rep_report


class InvarianceForm:
    """The pair (T, theta) measuring the failure of d-nabla to commute with delta."""

    __slots__ = ("nvars", "rank", "T", "theta")

    def __init__(self, nvars, rank, T, theta):
        self.nvars = nvars
        self.rank = rank
        self.T = T          # basis index -> End-valued 1-form
        self.theta = theta  # basis index -> End-valued 0-form

    @property
    def is_zero(self):
        return all(t.is_zero for t in self.T.values()) \
            and all(t.is_zero for t in self.theta.values())

    def __eq__(self, other):
        return (isinstance(other, InvarianceForm)
                and self.T == other.T and self.theta == other.theta)

    def __sub__(self, other):
        return InvarianceForm(
            self.nvars, self.rank,
            {i: self.T[i] - other.T[i] for i in self.T},
            {i: self.theta[i] - other.theta[i] for i in self.theta})


def invariance_form(A, conn, rep):
    """(T, theta) of a connection: theta(a) = nabla^A_a - nabla_{rho a},
    T(a)(X) = nabla_X nabla^A_a - nabla^A_a nabla_X + nabla_{[rho a, X]}."""
    if conn.rank != rep.rank:
        raise StructureError("connection and representation act on different bundles")
    n, m, r = A.nvars, conn.rank, A.rank
    theta, T = {}, {}
    for i in range(1, r + 1):
        th = {}
        for b in range(1, m + 1):
            for c in range(1, m + 1):
                p = rep.psi.get((i, b, c), Poly.zero(n))
                for a in range(1, n + 1):
                    ra = A.anchor.get((i, a))
                    if ra is not None:
                        p = p - ra * conn.gamma(a, b, c)
                th[(b, c, ())] = p
        theta[i] = EndForm(n, m, 0, th)
        rho_i = A.rho_basis(i)
        tcomps = {}
        for al in range(1, n + 1):
            for b in range(1, m + 1):
                for c in range(1, m + 1):
                    p = rep.psi.get((i, b, c), Poly.zero(n)).diff(al - 1)
                    p = p - rho_i.apply(conn.gamma(al, b, c))
                    for e in range(1, m + 1):
                        p = p + conn.gamma(al, b, e) * rep.psi.get((i, e, c), Poly.zero(n))
                        p = p - rep.psi.get((i, b, e), Poly.zero(n)) * conn.gamma(al, e, c)
                    for be in range(1, n + 1):
                        rb = A.anchor.get((i, be))
                        if rb is not None:
                            p = p - rb.diff(al - 1) * conn.gamma(be, b, c)
                    tcomps[(b, c, (al,))] = p
        T[i] = EndForm(n, m, 1, tcomps)
    return InvarianceForm(n, m, T, theta)


def is_A_invariant(A, conn, rep):
    """True iff theta = 0 and iota_{rho e_i} R-nabla = 0 on all basis sections."""
    inv = invariance_form(A, conn, rep)
    if not all(t.is_zero for t in inv.theta.values()):
        return False
    R = conn.curvature_R()
    return all(R.iota(A.rho_basis(i)).is_zero for i in range(1, A.rank + 1))


def induced_end_connection(conn):
    """Connection on End(V) acting by commutator with the Christoffels."""
    m = conn.rank
    table = {}

    def put(a, row, col, p):
        key = (a, row, col)
        cur = table.get(key)
        table[key] = p if cur is None else cur + p

    for (a, b, c), g in conn.christoffels.items():
        for s in range(1, m + 1):
            # coefficient of E_{b s} in Gamma_a . E_{c s}
            put(a, (b - 1) * m + s, (c - 1) * m + s, g)
            # coefficient of E_{s c} in -E_{s b} . Gamma_a
            put(a, (s - 1) * m + c, (s - 1) * m + b, -g)
    return LinearConnection(conn.nvars, m * m, table)


def induced_end_rep(rep):
    """Representation on End(V) acting by commutator with psi."""
    m = rep.rank
    table = {}

    def put(i, row, col, p):
        key = (i, row, col)
        cur = table.get(key)
        table[key] = p if cur is None else cur + p

    for (i, b, c), psi in rep.psi.items():
        for s in range(1, m + 1):
            put(i, (b - 1) * m + s, (c - 1) * m + s, psi)
            put(i, (s - 1) * m + c, (s - 1) * m + b, -psi)
    return ARep(rep.nvars, rep.secrank, m * m, table)
