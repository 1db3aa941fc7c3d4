"""Linear connections, algebroid representations, and the invariance form.

All objects are frame-expanded over the chart. A connection nabla = d + Gamma
is its End(V)-valued 1-form Gamma, with Gamma(d_a) u_c = Gamma^b_{a c} u_b
stored as the End-form entry (b, c, (a,)); d-nabla, the curvature R = d Gamma
+ Gamma ^ Gamma and the invariance pair (T, theta) are End-form algebra on it.
A representation is its coefficient table psi^b_{i c} (nabla^A_{e_i} u_c =
psi^b_{i c} u_b), with psi_i available as a degree-0 End-form. Products and
Lie derivatives of End-forms are the single ones of ``algebroid``.
"""

from .algebroid import (SparseTable, VForm, _lie, _wedge, check_section, is_form_index,
                        symmetric_slots)
from .errors import StructureError


class LinearConnection:
    """Connection on a trivialized rank-m bundle over the chart.

    The constructor takes the Christoffel table (a, b, c) -> Gamma^b_{a c}
    and stores it as the End-valued 1-form ``form``.
    """

    __slots__ = ("nvars", "rank", "form")

    def __init__(self, nvars, rank, christoffels=None):
        self.nvars = nvars
        self.rank = rank
        comps = {}
        for (a, b, c), p in (christoffels or {}).items():
            if not (1 <= a <= nvars and 1 <= b <= rank and 1 <= c <= rank):
                raise StructureError(f"bad christoffel key {(a, b, c)}")
            comps[(b, c, (a,))] = p
        self.form = EndForm(nvars, rank, 1, comps)

    @classmethod
    def trivial(cls, nvars, rank):
        return cls(nvars, rank)

    def gamma(self, a, b, c):
        return self.form.get(b, c, (a,))

    def dnabla(self, vf):
        """Exterior covariant derivative of a bundle-valued form, d + Gamma ^."""
        if vf.rank != self.rank or vf.nvars != self.nvars:
            raise StructureError("form does not match connection bundle")
        if self.form.is_zero:
            return vf.d()
        return vf.d() + self.form.wedge_vform(vf)

    def lie_nabla(self, x, vf):
        """Covariant Lie derivative via Cartan: d-nabla iota + iota d-nabla."""
        return self.dnabla(vf.iota(x)) + self.dnabla(vf).iota(x)

    def curvature_R(self):
        """Curvature as an End-valued 2-form, R = d Gamma + Gamma ^ Gamma."""
        return self.form.d() + self.form.compose(self.form)

    def shifted(self, gamma):
        """The connection nabla + gamma for an End-valued 1-form gamma."""
        if gamma.degree != 1 or gamma.rank != self.rank:
            raise StructureError("shift must be an End-valued 1-form on the same bundle")
        out = LinearConnection(self.nvars, self.rank)
        out.form = self.form + gamma
        return out

    def __eq__(self, other):
        return isinstance(other, LinearConnection) and self.form == other.form


class ARep:
    """Algebroid representation in coefficient form (flatness checked separately)."""

    __slots__ = ("nvars", "secrank", "rank", "psi", "_columns")

    def __init__(self, nvars, secrank, rank, psi=None):
        self.nvars = nvars
        self.secrank = secrank
        self.rank = rank
        self.psi = {}
        self._columns = {}
        for (i, b, c), p in (psi or {}).items():
            if not (1 <= i <= secrank and 1 <= b <= rank and 1 <= c <= rank):
                raise StructureError(f"bad representation key {(i, b, c)}")
            if not p.is_zero:
                self.psi[(i, b, c)] = p
                self._columns.setdefault(i, {}).setdefault(c, []).append((b, p))

    @classmethod
    def trivial(cls, nvars, secrank, rank):
        return cls(nvars, secrank, rank)

    def psi_columns(self, i):
        """The entries of psi_i by the column they read: {c: [(b, psi^b_{i c})]}."""
        return self._columns.get(i, {})

    def endo(self, i):
        """psi_i = nabla^A_{e_i} - rho(e_i) as a degree-0 End-form."""
        return EndForm(self.nvars, self.rank, 0,
                       {(b, c, ()): p for (j, b, c), p in self.psi.items() if j == i})


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
            if not (1 <= b <= rank and 1 <= c <= rank) \
                    or not is_form_index(idx, degree, nvars):
                raise StructureError(f"bad End-form key {(b, c, idx)}")
            if not p.is_zero:
                clean[(b, c, idx)] = p
        self.comps = clean

    # keys are VForm keys with the column index after the row index
    _shape = VForm._shape
    get = VForm.get
    iota = VForm.iota
    d = VForm.d
    lie = VForm.lie
    __repr__ = VForm.__repr__

    def wedge_vform(self, vf):
        """Matrix-acting wedge with a V-valued form: (T ^ w)^b = T^b_c ^ w^c."""
        if vf.rank != self.rank:
            raise StructureError("End-form and form bundle ranks differ")
        return VForm(self.nvars, vf.rank, self.degree + vf.degree,
                     _wedge(self.comps, vf.comps,
                            lambda t, v: (t[0],) if t[1] == v[0] else None))

    def act_vform(self, vf):
        """Pointwise matrix action on a form (degree-0 End-forms only)."""
        if self.degree != 0:
            raise StructureError("matrix action requires a degree-0 End-form")
        return self.wedge_vform(vf)

    def compose(self, other):
        """Wedge product with matrices multiplied in order:
        (S ^ T)^b_c = S^b_e ^ T^e_c."""
        if other.rank != self.rank or other.nvars != self.nvars:
            raise StructureError("End-forms act on different bundles")
        return EndForm(self.nvars, self.rank, self.degree + other.degree,
                       _wedge(self.comps, other.comps,
                              lambda s, t: (s[0], t[1]) if s[1] == t[0] else None))

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
        check_section(section, self.secrank)
        acc = {}
        for J, vf in self.comps.items():
            for j, rest, _ in symmetric_slots(J):
                coeff = section.comps.get((j, ()))
                if coeff is None:
                    continue
                term = vf.scaled(coeff)
                cur = acc.get(rest)
                acc[rest] = term if cur is None else cur + term
        return SymForm(self.nvars, self.rank, self.secrank, self.arity - 1, self.degree, acc)

    def iota(self, x):
        return SymForm(self.nvars, self.rank, self.secrank, self.arity, self.degree - 1,
                       {j: vf.iota(x) for j, vf in self.comps.items()})


def _lieA(vf, x, columns):
    """The table of L^A on a V-valued form: the Lie derivative along the
    vector field x, plus the matrix given by its columns {c: [(b, f)]}
    acting on the values."""
    acc = _lie(vf, x)
    for (c, idx), p in vf.comps.items():
        for b, f in columns.get(c, ()):
            q = f * p
            cur = acc.get((b, idx))
            acc[(b, idx)] = q if cur is None else cur + q
    return acc


def lieA_vform(A, rep, alpha, vf):
    """L^A_alpha on a plain V-valued form, delta vf evaluated on alpha; a
    zero form (also the degree -1 form iota leaves on a 0-form) is kept."""
    # weil imports this module, so its operators are imported at call time
    from .weil import delta, evaluate
    return vf if vf.is_zero else evaluate(delta(A, rep, vf), [alpha])


def lieA_derivative(A, rep, alpha, gamma):
    """L^A_alpha on S^k(A*)-valued forms by the Cartan formula
    L^A_alpha = iota_alpha delta + delta iota_alpha on the Weil complex:
    gamma of arity k and degree q is the level-k part of a W^{k,q+k}
    cochain c with cells (k, (), J), and the result is that of
    iota_alpha delta c + delta iota_alpha c."""
    # weil imports this module, so its operators are imported at call time
    from .weil import WeilCochain, _contract, delta, eval_row
    if gamma.secrank != A.rank:
        raise StructureError("symmetric slots do not match the algebroid rank")
    k = gamma.arity
    c = WeilCochain(A, gamma.rank, k, gamma.degree + k,
                    {(k, (), J): vf for J, vf in gamma.comps.items()})
    out = _contract(delta(A, rep, c), alpha) + delta(A, rep, _contract(c, alpha))
    return eval_row(out, k, [])


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


def invariance_form(A, conn, rep):
    """(T, theta) of a connection: theta(a) = nabla^A_a - nabla_{rho a},
    T(a)(X) = nabla_X nabla^A_a - nabla^A_a nabla_X + nabla_{[rho a, X]}.

    On the frame, theta_i = psi_i - iota_{rho_i} Gamma and
    T_i = d psi_i + [Gamma, psi_i] - L_{rho_i} Gamma.
    """
    if conn.rank != rep.rank:
        raise StructureError("connection and representation act on different bundles")
    gam = conn.form
    theta, T = {}, {}
    for i in range(1, A.rank + 1):
        psi, rho_i = rep.endo(i), A.rho_basis(i)
        theta[i] = psi - gam.iota(rho_i)
        T[i] = psi.d() + gam.compose(psi) - psi.compose(gam) - gam.lie(rho_i)
    return InvarianceForm(A.nvars, conn.rank, T, theta)


def is_A_invariant(A, conn, rep):
    """True iff theta = 0 and iota_{rho e_i} R-nabla = 0 on all basis sections."""
    inv = invariance_form(A, conn, rep)
    if not all(t.is_zero for t in inv.theta.values()):
        return False
    R = conn.curvature_R()
    return all(R.iota(A.rho_basis(i)).is_zero for i in range(1, A.rank + 1))


def _commutator_table(m, entries):
    """Coefficients of the commutator [M, .] on End(V), flattened by
    E_{b s} -> (b - 1) m + s, for matrices given by (head, b, c) -> M^b_c;
    keyed (head, row, col)."""
    table = {}

    def put(key, p):
        cur = table.get(key)
        table[key] = p if cur is None else cur + p

    for (head, b, c), p in entries:
        for s in range(1, m + 1):
            # coefficient of E_{b s} in M . E_{c s}
            put((head, (b - 1) * m + s, (c - 1) * m + s), p)
            # coefficient of E_{s c} in -E_{s b} . M
            put((head, (s - 1) * m + c, (s - 1) * m + b), -p)
    return table


def induced_end_connection(conn):
    """Connection on End(V) acting by commutator with Gamma."""
    entries = (((a, b, c), p) for (b, c, (a,)), p in conn.form.comps.items())
    return LinearConnection(conn.nvars, conn.rank ** 2,
                            _commutator_table(conn.rank, entries))


def induced_end_rep(rep):
    """Representation on End(V) acting by commutator with psi."""
    return ARep(rep.nvars, rep.secrank, rep.rank ** 2,
                _commutator_table(rep.rank, rep.psi.items()))
