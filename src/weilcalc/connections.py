"""Linear connections, algebroid representations, and End(V)-valued forms.

All objects are frame-expanded over the chart. An End(V)-valued form is
a VForm of rank m^2 over End(V), with E^b_c at the index (b - 1) m + c
(``algebroid.end_index``): the layout of the bundle End(V) that carries
the induced connection and representation. A connection nabla = d + Gamma
is its End(V)-valued 1-form Gamma, with Gamma(d_a) u_c = Gamma^b_{a c} u_b
stored at E^b_c dx^a; d-nabla and the curvature R = d Gamma + Gamma ^ Gamma
are End(V)-valued form algebra on it. A representation is its coefficient
table psi^b_{i c} (nabla^A_{e_i} u_c = psi^b_{i c} u_b), with psi_i
available as an End(V)-valued 0-form. ``act`` and ``compose``, the
matrix-acting wedges on V- and End(V)-valued forms, and d-nabla are the
term-dict cell maps of ``algebroid``; ``_dnabla_into`` is the one d-nabla
cell map, which ``weil.dnabla_cochain`` shares.
"""

import math

from .algebroid import VForm, _act_into, _d_into, _form, _terms, end_entry, end_index
from .errors import StructureError


class LinearConnection:
    """Connection on a trivialized rank-m bundle over the chart.

    The constructor takes the Christoffel table (a, b, c) -> Gamma^b_{a c}
    and stores it as the End(V)-valued 1-form ``form``.
    """

    __slots__ = ("nvars", "rank", "form")

    def __init__(self, nvars, rank, christoffels=None):
        self.nvars = nvars
        self.rank = rank
        comps = {}
        for (a, b, c), p in (christoffels or {}).items():
            if not (1 <= a <= nvars and 1 <= b <= rank and 1 <= c <= rank):
                raise StructureError(f"bad christoffel key {(a, b, c)}")
            comps[(end_index(rank, b, c), (a,))] = p
        self.form = VForm(nvars, rank * rank, 1, comps)

    @classmethod
    def trivial(cls, nvars, rank):
        return cls(nvars, rank)

    def gamma(self, a, b, c):
        return self.form.get(end_index(self.rank, b, c), (a,))

    def christoffels(self):
        """The Christoffel table (a, b, c) -> Gamma^b_{a c} of the constructor."""
        return {(a,) + end_entry(self.rank, f): p for (f, (a,)), p in self.form.comps.items()}

    def dnabla(self, vf):
        """Exterior covariant derivative of a bundle-valued form, d + Gamma ^."""
        if vf.rank != self.rank or vf.nvars != self.nvars:
            raise StructureError("form does not match connection bundle")
        acc = {}
        _dnabla_into(acc, (), self, vf)
        return _form(self.nvars, self.rank, vf.degree + 1, acc)

    def lie_nabla(self, x, vf):
        """Covariant Lie derivative via Cartan: d-nabla iota + iota d-nabla."""
        return self.dnabla(vf.iota(x)) + self.dnabla(vf).iota(x)

    def curvature_R(self):
        """Curvature as an End(V)-valued 2-form, R = d Gamma + Gamma ^ Gamma."""
        return self.form.d() + compose(self.form, self.form)

    def shifted(self, gamma):
        """The connection nabla + gamma for an End(V)-valued 1-form gamma."""
        if gamma.degree != 1 or gamma.rank != self.rank ** 2 or gamma.nvars != self.nvars:
            raise StructureError("shift must be an End(V)-valued 1-form on the same bundle")
        out = LinearConnection(self.nvars, self.rank)
        out.form = self.form + gamma
        return out

    def __eq__(self, other):
        return isinstance(other, LinearConnection) and self.form == other.form


def _dnabla_into(acc, cell, conn, v, scale=1):
    """acc[cell] += scale * d-nabla v = d v + Gamma ^ v, for a form v and the
    connection conn = d + Gamma."""
    _d_into(acc, cell, v.comps, v.nvars, scale)
    _act_into(acc, cell, conn.form.comps.items(), _terms(v.comps), conn.rank, scale)


class ARep:
    """Algebroid representation in coefficient form (flatness checked separately)."""

    __slots__ = ("nvars", "secrank", "rank", "psi", "_endo", "_zero")

    def __init__(self, nvars, secrank, rank, psi=None):
        self.nvars = nvars
        self.secrank = secrank
        self.rank = rank
        self.psi, endo = {}, {}
        for (i, b, c), p in (psi or {}).items():
            if not (1 <= i <= secrank and 1 <= b <= rank and 1 <= c <= rank):
                raise StructureError(f"bad representation key {(i, b, c)}")
            if not p.is_zero:
                self.psi[(i, b, c)] = p
                endo.setdefault(i, {})[(end_index(rank, b, c), ())] = p
        self._endo = {i: VForm(nvars, rank * rank, 0, comps) for i, comps in endo.items()}
        self._zero = VForm.zero(nvars, rank * rank, 0)

    def endo(self, i):
        """psi_i = nabla^A_{e_i} - rho(e_i) as an End(V)-valued 0-form; an
        index without entries reads one shared zero form."""
        return self._endo.get(i, self._zero)


def act(E, vf):
    """The matrix-acting wedge (E ^ w)^b = E^b_c ^ w^c of an End(V)-valued
    form E and a V-valued form w."""
    if E.rank != vf.rank ** 2 or E.nvars != vf.nvars:
        raise StructureError("End(V)-valued form and form bundles differ")
    acc = {}
    _act_into(acc, (), E.comps.items(), _terms(vf.comps), vf.rank)
    return _form(vf.nvars, vf.rank, E.degree + vf.degree, acc)


def compose(S, T):
    """Wedge product of End(V)-valued forms with matrices multiplied in
    order: (S ^ T)^b_c = S^b_e ^ T^e_c."""
    m = math.isqrt(S.rank)
    if m * m != S.rank:
        raise StructureError(f"rank {S.rank} is not that of End(V): not a perfect square")
    if T.rank != S.rank or T.nvars != S.nvars:
        raise StructureError("End(V)-valued forms act on different bundles")
    acc = {}
    _act_into(acc, (), S.comps.items(), _terms(T.comps), m, stride=m)
    return _form(S.nvars, S.rank, S.degree + T.degree, acc)


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
    """Coefficients of the commutator [M, .] on End(V), for matrices given
    by (head, b, c) -> M^b_c; keyed (head, row, col) over End(V)."""
    table = {}

    def put(key, p):
        cur = table.get(key)
        table[key] = p if cur is None else cur + p

    for (head, b, c), p in entries:
        for s in range(1, m + 1):
            # coefficient of E_{b s} in M . E_{c s}
            put((head, end_index(m, b, s), end_index(m, c, s)), p)
            # coefficient of E_{s c} in -E_{s b} . M
            put((head, end_index(m, s, c), end_index(m, s, b)), -p)
    return table


def induced_end_connection(conn):
    """Connection on End(V) acting by commutator with Gamma."""
    return LinearConnection(conn.nvars, conn.rank ** 2,
                            _commutator_table(conn.rank, conn.christoffels().items()))


def induced_end_rep(rep):
    """Representation on End(V) acting by commutator with psi."""
    return ARep(rep.nvars, rep.secrank, rep.rank ** 2,
                _commutator_table(rep.rank, rep.psi.items()))
