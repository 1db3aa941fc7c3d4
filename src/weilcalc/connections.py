"""Linear connections, algebroid representations, and End-valued forms.

All objects are frame-expanded over the chart. A connection nabla = d + Gamma
is its End(V)-valued 1-form Gamma, with Gamma(d_a) u_c = Gamma^b_{a c} u_b
stored as the End-form entry (b, c, (a,)); d-nabla and the curvature
R = d Gamma + Gamma ^ Gamma are End-form algebra on it. A representation is
its coefficient table psi^b_{i c} (nabla^A_{e_i} u_c = psi^b_{i c} u_b), with
psi_i available as a degree-0 End-form. End-forms flatten by E_{b c} ->
(b - 1) m + c onto the bundle End(V) of the induced connection and
representation. d, iota, L and the exterior products of End-forms, and
d-nabla, are the term-dict cell maps of ``algebroid``; ``_dnabla_into`` is
the one d-nabla cell map, which ``weil.dnabla_cochain`` shares.
"""

from .algebroid import SparseTable, VForm, _act_into, _d_into, _form, _terms, is_form_index
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
        acc = {}
        _dnabla_into(acc, (), self, vf)
        return _form(VForm, self.nvars, self.rank, vf.degree + 1, acc)

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


def _dnabla_into(acc, cell, conn, v, scale=1):
    """acc[cell] += scale * d-nabla v = d v + Gamma ^ v, for a form v and the
    connection conn = d + Gamma."""
    _d_into(acc, cell, v.comps, v.nvars, scale)
    _act_into(acc, cell, conn.form.comps.items(), _terms(v.comps), scale)


class ARep:
    """Algebroid representation in coefficient form (flatness checked separately)."""

    __slots__ = ("nvars", "secrank", "rank", "psi", "_endo_cache")

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
        self._endo_cache = {}

    @classmethod
    def trivial(cls, nvars, secrank, rank):
        return cls(nvars, secrank, rank)

    def endo(self, i):
        """psi_i = nabla^A_{e_i} - rho(e_i) as a (cached) degree-0 End-form."""
        psi = self._endo_cache.get(i)
        if psi is None:
            psi = EndForm(self.nvars, self.rank, 0,
                          {(b, c, ()): p for (j, b, c), p in self.psi.items() if j == i})
            self._endo_cache[i] = psi
        return psi


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
            if p.nvars != nvars:
                raise StructureError("End-form component over wrong chart")
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
        if vf.rank != self.rank or vf.nvars != self.nvars:
            raise StructureError("End-form and form bundles differ")
        acc = {}
        _act_into(acc, (), self.comps.items(), _terms(vf.comps))
        return _form(VForm, self.nvars, vf.rank, self.degree + vf.degree, acc)

    def compose(self, other):
        """Wedge product with matrices multiplied in order:
        (S ^ T)^b_c = S^b_e ^ T^e_c."""
        if other.rank != self.rank or other.nvars != self.nvars:
            raise StructureError("End-forms act on different bundles")
        acc = {}
        _act_into(acc, (), self.comps.items(), _terms(other.comps))
        return _form(EndForm, self.nvars, self.rank, self.degree + other.degree, acc)

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


def lieA_vform(A, rep, alpha, vf):
    """L^A_alpha on a plain V-valued form, delta vf evaluated on alpha; a
    zero form (also the degree -1 form iota leaves on a 0-form) is kept."""
    # weil imports this module, so its operators are imported at call time
    from .weil import delta, evaluate
    return vf if vf.is_zero else evaluate(delta(A, rep, vf), [alpha])


def lieA_derivative(A, rep, alpha, gamma):
    """L^A_alpha on S^k(A*)-valued forms by the Cartan formula
    L^A_alpha = iota_alpha delta + delta iota_alpha on the Weil complex:
    gamma of arity k and degree q is the level-k row of a W^{k,q+k}
    cochain, cells (k, (), J), and the result is that of
    iota_alpha delta gamma + delta iota_alpha gamma."""
    # weil imports this module, so its operators are imported at call time
    from .weil import _contract, delta, eval_row
    if gamma.A != A:
        raise StructureError("cochain lives over a different algebroid")
    out = _contract(delta(A, rep, gamma), alpha) + delta(A, rep, _contract(gamma, alpha))
    return eval_row(out, gamma.p, [])


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
