"""Bundles of ideals, IM connections, and the horizontal calculus.

The ideal is frame-aligned: it is spanned by a designated subset of the
algebroid frame, so the symbol v, the horizontal projection h, and all
restriction operators act at index level. The adjoint action
nabla^A_a xi = [a, xi] is generated from the structure polynomials.
ad(F), the bracket [w1 ^ w2] = ad(w1) ^ w2, the slot pairing and h* add
their terms through the term-dict cell maps of ``algebroid``.
"""

import functools
import itertools
import operator
from fractions import Fraction

from .algebroid import (AlgebroidPresentation, VForm, _add_into, _form, _terms, bracket,
                        check_section, symmetric_slots)
from .connections import ARep, EndForm, LinearConnection
from .errors import ContractError, StructureError
from .report import CheckReport
from .weil import (WeilCochain, _cochain, _insert, _solve, bounded_kernel, check_IM, delta,
                   dnabla_cochain, evaluate, is_A_invariant, is_horizontal)


class IdealBundle:
    """Constant subbundle of ker rho spanned by part of the frame and closed
    under bracket with every section."""

    __slots__ = ("A", "indices", "m", "_pos", "_adjoint", "_fibre")

    def __init__(self, A, indices):
        self.A = A
        self.indices = tuple(sorted(indices))
        if len(set(self.indices)) != len(self.indices) \
                or any(not 1 <= k <= A.rank for k in self.indices):
            raise StructureError(f"bad ideal index set {indices}")
        self.m = len(self.indices)
        self._pos = {k: a for a, k in enumerate(self.indices, start=1)}
        for k in self.indices:
            for a in range(1, A.nvars + 1):
                if (k, a) in A.anchor:
                    raise StructureError(f"anchor does not vanish on ideal index {k}")
        # closure under [e_i, .] and the adjoint action psi_(i, b, a), the
        # u_b component of [e_i, u_a], are read off the same brackets
        psi = {}
        for i in range(1, A.rank + 1):
            for a, k in enumerate(self.indices, start=1):
                comps = A.bracket_basis(i, k).comps
                outside = [l for l, _ in comps if l not in self._pos]
                if outside:
                    raise StructureError(
                        f"[e_{i}, e_{k}] leaves the ideal (component {min(outside)})")
                for b, l in enumerate(self.indices, start=1):
                    if (p := comps.get((l, ()))) is not None:
                        psi[(i, b, a)] = p
        self._adjoint = ARep(A.nvars, A.rank, self.m, psi)
        self._fibre = None

    def embed(self, xi):
        """A section of the ideal (a rank-m 0-form) as a section of A."""
        check_section(xi, self.m, self.A.nvars, "ideal")
        return VForm(self.A.nvars, self.A.rank, 0,
                     {(self.indices[a - 1], ()): p for (a, _), p in xi.comps.items()})

    def restrict(self, section):
        """A section of A known to lie in the ideal as a section of the ideal."""
        check_section(section, self.A.rank, self.A.nvars)
        if any(l not in self._pos for l, _ in section.comps):
            raise StructureError("section does not lie in the ideal")
        return VForm(self.A.nvars, self.m, 0, {
            (a, ()): p for a, k in enumerate(self.indices, start=1)
            if (p := section.comps.get((k, ()))) is not None})

    def fibre_bracket(self, a, b):
        """[u_a, u_b] as a section of the ideal."""
        return self.restrict(self.A.bracket_basis(self.indices[a - 1], self.indices[b - 1]))

    def fibre(self):
        """The fibre g as (G, adj): G the zero-anchor algebroid over the chart
        with structure [u_a, u_b] for a < b, adj its adjoint representation,
        psi_a = ad(u_a)."""
        if self._fibre is None:
            fibre = range(1, self.m + 1)
            G = AlgebroidPresentation(self.A.nvars, self.m, {
                (a, b, c): p for a, b in itertools.combinations(fibre, 2)
                for (c, _), p in self.fibre_bracket(a, b).comps.items()})
            self._fibre = G, IdealBundle(G, fibre).adjoint_rep()
        return self._fibre

    @property
    def is_abelian(self):
        return not self.fibre()[0].structure

    def adjoint_rep(self):
        """The representation nabla^A_alpha xi = [alpha, xi] in coefficient form."""
        return self._adjoint

    def ad_endform(self, vf):
        """ad(F) for an ideal-valued form F, as an End-valued form."""
        return _ad(self.fibre()[1], vf)


def _ad(adj, vf):
    """ad(F) = sum_e F^e psi_e for a fibre-valued form F, with psi_e = ad(u_e)
    read off the fibre's adjoint representation adj, as an End-form."""
    if vf.nvars != adj.nvars:
        raise StructureError("ad of a form over another chart")
    acc, table = {}, _terms(vf.comps)
    for (e, b, c), p in adj.psi.items():
        _add_into(acc, (), {(b, c, key[-1]): t for key, t in table.items() if key[0] == e}, p)
    return _form(EndForm, adj.nvars, adj.rank, vf.degree, acc)


def bracket_of_forms(ideal, w1, w2):
    """Fibre-bracket-induced bracket of ideal-valued forms, [w1 ^ w2] = ad(w1) ^ w2."""
    return ideal.ad_endform(w1).wedge_vform(w2)


class IMConnection:
    """IM connection (C, v): a W^{1,1} ideal-valued cochain whose symbol
    restricts to the identity on the ideal."""

    __slots__ = ("ideal", "cochain", "_conn", "_hsec")

    def __init__(self, ideal, cochain, validate=True, im_report=None):
        """With ``validate``, the cochain must pass ``check_IM``; a caller
        that already holds that report passes it as ``im_report``."""
        A = ideal.A
        if cochain.p != 1 or cochain.q != 1 or cochain.rank != ideal.m:
            raise StructureError("IM connection needs an ideal-valued W^{1,1} cochain")
        if cochain.A != A:
            raise StructureError("cochain lives over a different algebroid")
        self.ideal = ideal
        self.cochain = cochain
        self._conn = None
        self._hsec = {}
        for k in ideal.indices:
            if cochain.lookup(1, (), (k,)) != ideal.restrict(A.basis(k)):
                raise ContractError(f"symbol does not restrict to the identity at e_{k}")
        if validate:
            rep = im_report if im_report is not None \
                else check_IM(A, ideal.adjoint_rep(), cochain)
            if not rep.passed:
                raise ContractError(
                    "cochain is not infinitesimally multiplicative: "
                    + "; ".join(label for label, _ in rep.failures[:3]))

    @property
    def A(self):
        return self.ideal.A

    def C0(self, i):
        """C(e_i) as an ideal-valued 1-form."""
        return self.cochain.lookup(0, (i,), ())

    def v_comps(self, j):
        """v(e_j) as a section of the ideal."""
        return self.cochain.lookup(1, (), (j,))

    def v_section(self, alpha):
        """v(alpha) as a section of the ideal (tensorial)."""
        return evaluate(self.cochain, [], [alpha])

    def h_section(self, alpha):
        """Horizontal component h(alpha) = alpha - v(alpha)."""
        return alpha - self.ideal.embed(self.v_section(alpha))

    def h_basis(self, i):
        sec = self._hsec.get(i)
        if sec is None:
            sec = self.h_section(self.A.basis(i))
            self._hsec[i] = sec
        return sec

    def coupling_connection(self):
        """nabla = d + M_C, C restricted to the ideal."""
        if self._conn is None:
            self._conn = LinearConnection.trivial(self.A.nvars, self.ideal.m).shifted(
                _on_ideal(self.ideal, self.cochain))
        return self._conn

    def U_of_h(self, alpha):
        """U(h alpha) = -C(h alpha) as an ideal-valued 1-form."""
        return -evaluate(self.cochain, [self.h_section(alpha)])


# -- the pairing --------------------------------------------------------------


def wedgedot(gamma, theta, ideal):
    """The slot-consuming pairing of a symmetric-slot form (a W^{k,q} row)
    with an ideal-valued form, (gamma . theta)(J) = sum_a theta^a ^ gamma(J, u_a):
    one symmetric slot is filled by the values of theta and the form
    degrees add. A cell (k, I, J) with value v sends theta^a ^ v to
    (k - 1, I, J - u_a) for each distinct ideal index u_a in J."""
    A = gamma.A
    if gamma.p < 1:
        raise StructureError("no symmetric slot left for the pairing")
    if theta.rank != ideal.m or theta.nvars != A.nvars:
        raise StructureError("pairing expects an ideal-valued form on the same chart")
    # thetas[l]: the entries (idx, theta^a_idx) of theta^a, l = u_a
    thetas = {k: [(idx, p) for (b, idx), p in theta.comps.items() if b == a]
              for a, k in enumerate(ideal.indices, start=1)}
    acc = {}
    for (k, I, J), v in gamma.comps.items():
        for j, rest, _ in symmetric_slots(J):
            for idx, p in thetas.get(j, ()):
                _add_into(acc, (k - 1, I, rest), _terms(v.comps), p, 1, idx)
    return _cochain(A, gamma.rank, gamma.p - 1, gamma.q - 1 + theta.degree, acc)


def wedgedot_multi(gamma, thetas, ideal):
    """Iterated pairing, last form first: gamma . (t_1, ..., t_l)
    = gamma . t_l . t_{l-1} ... . t_1."""
    out = gamma
    for theta in reversed(thetas):
        out = wedgedot(out, theta, ideal)
    return out


# -- horizontal projection and derivative -------------------------------------


def hstar(imc, c):
    """Horizontal projection of Weil cochains, h* c = h^(exp(-K) c).

    K pairs one ideal symmetric slot with C: a cell (k, I, J) with value v
    sends (-1)^pos C(e_i)^a ^ v to (k - 1, I + i, J - l) for each distinct
    ideal index l = u_a in J and each i not in I, pos the position of i in
    I + i. The sum over m of (-K)^m / m! is the sum over
    (j - k, p - j)-shuffles of the C-pairings. h^ fills every symmetric slot
    with h: a cell (k, I, J) sends prod_s h^{l_s}_{b_s} v to (k, I, b) for
    each distinct ordering l of J and each nondecreasing b.

    h kills the ideal, so the result is horizontal for any value bundle.
    """
    A = imc.A
    if c.A != A:
        raise StructureError("cochain lives over a different algebroid")
    r = A.rank
    # pairs[l]: (i, [((d,), C(e_i)^a_d)]), C(e_i)^a = sum_d C(e_i)^a_d dx^d, l = u_a
    pairs = {}
    for a, l in enumerate(imc.ideal.indices, start=1):
        for i in range(1, r + 1):
            ci = [(idx, p) for (b, idx), p in imc.C0(i).comps.items() if b == a]
            if ci:
                pairs.setdefault(l, []).append((i, ci))
    # hrow[l]: (b, h^l_b) for the nonzero components l of h(e_b)
    hrow = {}
    for b in range(1, r + 1):
        for (l, _), hlb in imc.h_basis(b).comps.items():
            hrow.setdefault(l, []).append((b, hlb))
    # exp(-K) c one term (-K)^m c / m! = -(1/m) K(previous term) at a time,
    # each filled by h^ into acc; fills[J]: {b: sum over the distinct
    # orderings l of J of prod_s h^{l_s}_{b_s}}
    fills, acc = {}, {}
    term, m = {cell: _terms(v.comps) for cell, v in c.comps.items()}, 0
    while term:
        m += 1
        scale, kterm = Fraction(-1, m), {}
        for (k, I, J), table in term.items():
            fill = fills.get(J)
            if fill is None:
                fill = fills[J] = {}
                for ls in sorted(set(itertools.permutations(J))):
                    for picks in itertools.product(*(hrow.get(l, ()) for l in ls)):
                        bs = tuple(b for b, _ in picks)
                        if all(map(operator.le, bs, bs[1:])):
                            coef = functools.reduce(operator.mul, (h for _, h in picks), 1)
                            cur = fill.get(bs)
                            fill[bs] = coef if cur is None else cur + coef
            for bs, coef in fill.items():
                _add_into(acc, (k, I, bs), table, coef)
            for l, rest, _ in symmetric_slots(J):
                for i, ci in pairs.get(l, ()):
                    if i not in I:
                        out, pos = _insert(I, i)
                        for idx, p in ci:
                            _add_into(kterm, (k - 1, out, rest), table, p,
                                      -scale if pos % 2 else scale, idx)
        term = kterm
    return _cochain(A, c.rank, c.p, c.q, acc)


def Dhor(imc, c):
    """Horizontal exterior covariant derivative, h* after d-nabla of the
    coupling connection."""
    if c.rank != imc.ideal.m:
        raise StructureError("horizontal derivative acts on ideal-valued cochains")
    return hstar(imc, dnabla_cochain(imc.coupling_connection(), c))


def curvature(imc):
    """Curvature of an IM connection: the horizontal derivative of itself."""
    return Dhor(imc, imc.cochain)


def bianchi_check(imc):
    """True iff the horizontal derivative of the curvature vanishes exactly."""
    return Dhor(imc, curvature(imc)).is_zero


# -- affine deformations -------------------------------------------------------


def deform(imc, L, lam=1):
    """Deform an IM connection by lam times a horizontal IM 1-form; lam is
    an int or a Fraction (a float or a bool is not an exact rational)."""
    A = imc.A
    if type(lam) is not int and type(lam) is not Fraction:
        raise TypeError(f"not an exact rational: {lam!r}")
    if L.p != 1 or L.q != 1 or L.rank != imc.ideal.m:
        raise ContractError("deformation must be an ideal-valued W^{1,1} cochain")
    if not is_horizontal(L, imc.ideal):
        raise ContractError("deformation is not horizontal")
    if not check_IM(A, imc.ideal.adjoint_rep(), L).passed:
        raise ContractError("deformation is not an IM form")
    return IMConnection(imc.ideal, imc.cochain + L.scaled(lam))


def c2(ideal, L):
    """Second-order curvature coefficient of an affine deformation by a
    horizontal L: M_L ^ L(e_i) at (0, (i,), ()) and -M_L ^ l(e_j) at
    (1, (), (j,)), with M_L u_a = L(u_a)."""
    if L.p != 1 or L.q != 1 or L.rank != ideal.m or not is_horizontal(L, ideal):
        raise ContractError("c2 needs a horizontal ideal-valued W^{1,1} cochain")
    M = _on_ideal(ideal, L)
    return WeilCochain(ideal.A, ideal.m, 1, 2, {
        (k, I, J): M.wedge_vform(v) if k == 0 else -M.wedge_vform(v)
        for (k, I, J), v in L.comps.items()})


def _on_ideal(ideal, c):
    """The level-0 part of an ideal-valued W^{1,1} cochain on the ideal, as
    the End-valued 1-form M with entries (b, a, idx) = c_0(u_a)^b_idx."""
    return EndForm(ideal.A.nvars, ideal.m, 1, {
        (b, a, idx): p for a, k in enumerate(ideal.indices, start=1)
        for (b, idx), p in c.lookup(0, (k,), ()).comps.items()})


# -- obstruction cocycle -------------------------------------------------------


def splitting_cochain(A, ideal, vsecs, conn, U=None):
    """The W^{1,1} cochain (C, v) of a triple: C = nabla(v .) - U(h .).

    ``vsecs`` maps a frame index j to v(e_j), a section of the ideal, and
    must restrict to the identity on the ideal; ``U`` maps non-ideal frame
    indices to U(h e_i) as an ideal-valued 1-form (vertical slots are not
    part of the domain of U and are rejected).
    """
    for k in ideal.indices:
        if vsecs[k] != ideal.restrict(A.basis(k)):
            raise ContractError(f"v is not a splitting: v(e_{k}) != e_{k}")
    U = U or {}
    for i in U:
        if i in ideal.indices:
            raise ContractError("U is only defined on the horizontal frame")
    comps = {}
    for i in range(1, A.rank + 1):
        cf = conn.dnabla(vsecs[i])
        ui = U.get(i)
        if ui is not None:
            cf = cf - ui
        comps[(0, (i,), ())] = cf
        comps[(1, (), (i,))] = vsecs[i]
    return WeilCochain(A, ideal.m, 1, 1, comps)


def obstruction_cocycle(A, ideal, vsecs, conn, U=None):
    """delta of the splitting cochain: the obstruction to an IM connection.

    The output is a horizontal delta-cocycle in W^{2,1}; its class does not
    depend on the chosen triple (tested up to horizontal coboundary).
    """
    cv = splitting_cochain(A, ideal, vsecs, conn, U)
    return delta(A, ideal.adjoint_rep(), cv)


def _horizontal_frame(A, ideal, vsecs):
    """h(e_i) = e_i - v(e_i) for every frame index i of a splitting v."""
    return {i: A.basis(i) - ideal.embed(vsecs[i]) for i in range(1, A.rank + 1)}


def frame_splitting(ideal):
    """The frame-aligned splitting v = projection onto the ideal indices."""
    A = ideal.A
    zero = VForm.zero(A.nvars, ideal.m, 0)
    return {j: ideal.restrict(A.basis(j)) if j in ideal.indices else zero
            for j in range(1, A.rank + 1)}


# -- coupling data -------------------------------------------------------------


def _bracket_failure(G, adj, conn):
    """First (x, a, b) with a < b at which nabla_{d_x} is not a derivation of
    the bracket of the fibre algebroid G, or None when nabla preserves it.

    With [u_a, u_b] = psi_a u_b and nabla u_b = Gamma u_b, the defect is
    nabla[u_a, u_b] - [nabla u_a, u_b] - [u_a, nabla u_b]
    = (d psi_a + Gamma psi_a - psi_a Gamma - ad(Gamma u_a)) u_b.
    G has zero anchor, so T_a = d psi_a + Gamma psi_a - psi_a Gamma is the
    T part of its invariance pair against adj, and the entry (d, b, (x,)) of
    T_a - ad(Gamma u_a) is the u_d component of the defect along d_x.
    """
    gam = conn.form
    failing = []
    for a in range(1, G.rank + 1):
        psi = adj.endo(a)
        T = psi.d() + gam.compose(psi) - psi.compose(gam)
        gamma_u = VForm(G.nvars, G.rank, 1, {(b, idx): p for (b, c, idx), p
                                             in gam.comps.items() if c == a})
        failing += [(x, a, b) for _, b, (x,) in (T - _ad(adj, gamma_u)).comps if a < b]
    return min(failing, default=None)


def _induces_orbit_derivative(A, ideal, conn, sigma):
    """True iff nabla_{rho(e_i)} u_d = [sigma(i), u_d] for every frame index i
    and ideal frame vector u_d. The ideal frame is constant and lies in
    ker rho, so [sigma, u_d] = sum_j sigma^j [e_j, u_d], and the identity
    reads iota_{rho(e_i)} Gamma = sum_j sigma(i)^j psi_j, psi the adjoint
    representation."""
    psi = [ideal.adjoint_rep().endo(j) for j in range(1, A.rank + 1)]
    zero = EndForm(A.nvars, ideal.m, 0)
    return all(
        conn.form.iota(A.rho_basis(i))
        == sum((psi[j - 1].scaled(s) for (j, _), s in sigma(i).comps.items()), zero)
        for i in range(1, A.rank + 1))


def coupling_checks(imc):
    """Structure conditions S.1-S.3 plus the orbit identities of the coupling
    data, and the abelian <-> A-invariance equivalence."""
    A = imc.A
    ideal = imc.ideal
    r = A.rank
    conn = imc.coupling_connection()
    rep = ideal.adjoint_rep()
    report = CheckReport("coupling data")

    # S.1: nabla preserves the fibre bracket
    report.record("S.1 bracket-preserving",
                  _bracket_failure(*ideal.fibre(), conn) is None)

    # S.2: iota_{rho(a)} R = [U(h a), .]
    U = {i: imc.U_of_h(A.basis(i)) for i in range(1, r + 1)}
    R = conn.curvature_R()
    ok = True
    for i in range(1, r + 1):
        lhs = R.iota(A.rho_basis(i))
        rhs = ideal.ad_endform(U[i])
        if lhs != rhs:
            ok = False
    report.record("S.2 curvature vs U", ok)

    # S.3: U(h[a,b]) = L_{rho a} U(h b) - L_{rho b} U(h a) + nabla(U(h a)(rho b))
    ok = True
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if i == j:
                continue
            w = A.bracket_basis(i, j)
            lhs = imc.U_of_h(w)
            ua, ub = U[i], U[j]
            rhs = conn.lie_nabla(A.rho_basis(i), ub) \
                - conn.lie_nabla(A.rho_basis(j), ua) \
                + conn.dnabla(ua.iota(A.rho_basis(j)))
            if lhs != rhs:
                ok = False
    report.record("S.3 U on brackets", ok)

    # nabla_{rho(a)} xi = [h(a), xi]
    report.record("orbit connection identity",
                  _induces_orbit_derivative(A, ideal, conn, imc.h_basis))

    # v[h a, h b] = U(h a)(rho b)
    report.record("U along orbits", all(
        imc.v_section(bracket(A, imc.h_basis(i), imc.h_basis(j))) == U[i].iota(A.rho_basis(j))
        for i, j in itertools.permutations(range(1, r + 1), 2)))

    inv = is_A_invariant(A, conn, rep)
    report.record("abelian iff A-invariant", inv == ideal.is_abelian,
                  f"is_A_invariant={inv}, abelian={ideal.is_abelian}")
    return report


# -- the coupling construction --------------------------------------------------


def _check_coupling_inputs(B, m, fibre, conn, F):
    G = AlgebroidPresentation(B.nvars, m, fibre)
    adj = IdealBundle(G, range(1, m + 1)).adjoint_rep()
    # (i) nabla preserves the fibre bracket
    failure = _bracket_failure(G, adj, conn)
    if failure is not None:
        x, a, b = failure
        raise ContractError(
            "coupling condition (i) fails: connection does not "
            f"preserve the fibre bracket at (x={x}, {a},{b})")
    # (ii) R = -ad F
    defect = conn.curvature_R() + _ad(adj, F)
    if not defect.is_zero:
        a1, a2 = min(idx for _, _, idx in defect.comps)
        raise ContractError("coupling condition (ii) fails: R-nabla != -ad F "
                            f"at (d_{a1}, d_{a2})")
    # (iii) iota_{rho_B} d-nabla F = 0
    dF = conn.dnabla(F)
    for i in range(1, B.rank + 1):
        if not dF.iota(B.rho_basis(i)).is_zero:
            raise ContractError(
                f"coupling condition (iii) fails: iota_rho(b_{i}) d-nabla F != 0")


def coupled_presentation(B, m, fibre, conn, F):
    """Raw presentation of B (+) ideal with the F-twisted bracket; no
    precondition checks (used to exhibit Jacobi failure on tampered input)."""
    n, rB = B.nvars, B.rank
    r = rB + m
    structure = {}
    for (i, j, k), p in B.structure.items():
        structure[(i, j, k)] = p
    for i, j in itertools.combinations(range(1, rB + 1), 2):
        val = F.iota(B.rho_basis(i)).iota(B.rho_basis(j))  # F(rho b_i, rho b_j)
        for a in range(1, m + 1):
            structure[(i, j, rB + a)] = -val.get(a, ())
    for i in range(1, rB + 1):
        g = conn.form.iota(B.rho_basis(i))
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                structure[(i, rB + a, rB + b)] = g.get(b, a, ())
    for (a, b, c), p in fibre.items():
        structure[(rB + a, rB + b, rB + c)] = p
    anchor = {(i, x): p for (i, x), p in B.anchor.items()}
    return AlgebroidPresentation(n, r, structure, anchor)


def build_coupled(B, m, fibre, conn, F):
    """The coupled algebroid B (+) ideal with its primitive IM connection.

    ``fibre`` maps (a, b, c) with a < b to the fibre bracket coefficients;
    the conditions (i)-(iii) are checked exactly before construction and a
    violation is rejected with the failed condition named. Returns
    (presentation, ideal, im_connection, curving).
    """
    if F.rank != m or F.degree != 2:
        raise StructureError("curving candidate must be an ideal-valued 2-form")
    _check_coupling_inputs(B, m, fibre, conn, F)
    A = coupled_presentation(B, m, fibre, conn, F)
    ideal = IdealBundle(A, range(B.rank + 1, B.rank + m + 1))
    U = {i: -F.iota(B.rho_basis(i)) for i in range(1, B.rank + 1)}
    cochain = splitting_cochain(A, ideal, frame_splitting(ideal), conn, U)
    imc = IMConnection(ideal, cochain)
    return A, ideal, imc, F


# -- curvings -------------------------------------------------------------------


def curving_suite(imc, F, gamma=None):
    """All curving identities: delta^0 F = curvature, the determination of
    R and U by F, the 3-form Bianchi identities, and (optionally) the
    gamma-deformation identities."""
    A = imc.A
    ideal = imc.ideal
    rep = ideal.adjoint_rep()
    conn = imc.coupling_connection()
    report = CheckReport("curving identities")

    omega = curvature(imc)
    report.record("delta0(F) == curvature", delta(A, rep, F) == omega)
    report.record("R == -ad(F)", conn.curvature_R() == -ideal.ad_endform(F))
    ok = True
    for i in range(1, A.rank + 1):
        if imc.U_of_h(A.basis(i)) != -F.iota(A.rho_basis(i)):
            ok = False
    report.record("U == -iota_rho(F)", ok)
    G = conn.dnabla(F)
    report.record("delta0(G) == 0", delta(A, rep, G).is_zero)
    report.record("dnabla(G) == 0", conn.dnabla(G).is_zero)
    if gamma is not None:
        L = delta(A, rep, gamma)
        imc2 = deform(imc, L, 1)
        Fg = F + conn.dnabla(gamma) - bracket_of_forms(ideal, gamma, gamma).scaled(Fraction(1, 2))
        report.record("F^gamma is a curving of the deformed connection",
                      delta(A, rep, Fg) == curvature(imc2))
        G2 = imc2.coupling_connection().dnabla(Fg)
        report.record("G^gamma == G", G2 == G)
    return report


# -- semisimple tools ------------------------------------------------------------


def _constant_fibre(ideal):
    """``ideal.fibre()``, rejecting non-constant fibre structure."""
    G, adj = ideal.fibre()
    if not all(p.is_constant for p in G.structure.values()):
        raise ContractError("semisimple tools need constant fibre structure")
    return G, adj


def check_semisimple(ideal):
    """True iff the fibre g is complete: H^0(g; g) = H^1(g; g) = 0.

    At coefficient degree bound 0, delta on W^{p,0} of the fibre algebroid
    is the Chevalley-Eilenberg complex C^p(g; g), as over a point. H^0 is
    the centre, so H^0 = 0 says ad is injective; delta xi (u_d) = [u_d, xi],
    so H^1 is the outer derivations and H^1 = 0 says every derivation is
    inner. This is what ``ad_inverse`` needs. Every semisimple g passes, and
    so does the solvable aff(1), [x, y] = y.
    """
    G, adj = _constant_fibre(ideal)
    return not bounded_kernel(G, adj, 0, 0, 0) and all(
        _solve(G, adj, z, 0) is not None for z in bounded_kernel(G, adj, 1, 0, 0))


def ad_inverse(ideal, D):
    """Solve [xi, gamma] = D . xi for gamma.

    D is an End-valued form with values in ad(ideal); the solution is the
    unique form with -ad(gamma) = D. Rejects fibres that fail
    ``check_semisimple`` and values outside the image of ad.
    """
    if not check_semisimple(ideal):
        raise ContractError("fibre is not semisimple: ad is not invertible onto Der")
    return _ad_solve(ideal, D)


def _ad_solve(ideal, D):
    """The form gamma with -ad(gamma) = D, for a fibre with trivial centre.

    On the fibre algebroid, delta gamma (u_d) = [u_d, gamma] = -ad(gamma) u_d,
    so gamma solves delta gamma = T for the W^{1,q} cochain T with
    T(u_d) = D(u_d). With zero anchor delta is C^infty-linear, so the
    largest coefficient degree of D bounds gamma's exactly.
    """
    if D.nvars != ideal.A.nvars or D.rank != ideal.m:
        raise StructureError("End-form does not act on the ideal bundle over its chart")
    G, adj = _constant_fibre(ideal)
    rows = {}
    for (b, d, idx), p in D.comps.items():
        _add_into(rows, (0, (d,), ()), {(b, idx): p.terms}, 1)
    T = _cochain(G, ideal.m, 1, D.degree, rows)
    bound = max((sum(exps) for p in D.comps.values() for exps, _ in p.items()), default=0)
    gamma = _solve(G, adj, T, bound) if delta(G, adj, T).is_zero else None
    if gamma is None:
        raise ContractError("End-valued form is not ad of an ideal-valued form")
    return gamma.as_vform()


def unique_curving(imc):
    """The unique curving of an IM connection with semisimple fibre, solved
    from R = -ad(F); uniqueness holds because ad has trivial kernel."""
    R = imc.coupling_connection().curvature_R()
    F = ad_inverse(imc.ideal, R)
    return F


def primitive_from_pair(A, ideal, vsecs, conn):
    """Build the primitive IM connection of a pair (v, nabla) over a
    semisimple ideal; the curving is implicitly defined by R = -ad F."""
    if not check_semisimple(ideal):
        raise ContractError("pair construction needs a semisimple fibre")
    # nabla must be bracket-preserving and induce the orbit derivative
    if _bracket_failure(*ideal.fibre(), conn) is not None:
        raise ContractError("connection does not preserve the fibre bracket")
    hsec = _horizontal_frame(A, ideal, vsecs)
    if not _induces_orbit_derivative(A, ideal, conn, hsec.get):
        raise ContractError(
            "connection does not induce the orbit derivative nabla^A_h")
    F = _ad_solve(ideal, conn.curvature_R())
    U = {i: -F.iota(A.rho_basis(i)) for i in range(1, A.rank + 1)
         if i not in ideal.indices}
    cv = splitting_cochain(A, ideal, vsecs, conn, U)
    imc = IMConnection(ideal, cv)
    return imc, F


# -- the abelian case -------------------------------------------------------------


def splitting_curvature(A, ideal, vsecs):
    """Curvature of a splitting: sigma [b_i, b_j]_B - [sigma b_i, sigma b_j],
    as a section of the ideal, for pairs of non-ideal frame indices."""
    hsec = _horizontal_frame(A, ideal, vsecs)
    out = {}
    horiz = [i for i in range(1, A.rank + 1) if i not in ideal.indices]
    for i, j in itertools.combinations(horiz, 2):
        z = bracket(A, hsec[i], hsec[j])
        sigma_pr = sum((hsec[k].scaled(zk) for (k, _), zk in z.comps.items() if k in horiz),
                       VForm.zero(A.nvars, A.rank, 0))
        out[(i, j)] = ideal.restrict(sigma_pr - z)
    return out


def abelian_primitive_check(A, ideal, vsecs, conn, F):
    """Criteria for a triple (v, nabla, F) to present a primitive connection
    over an abelian ideal: flatness, inducing the quotient action, matching
    the splitting curvature through the anchor, and transverse d-nabla F."""
    if not ideal.is_abelian:
        raise ContractError("abelian criteria need an abelian ideal")
    report = CheckReport("abelian primitive criteria")
    report.record("nabla is flat", conn.curvature_R().is_zero)
    report.record("nabla induces the quotient action",
                  _induces_orbit_derivative(A, ideal, conn, A.basis))

    # F(rho e_i, rho e_j)
    report.record("splitting curvature is the anchor pullback of F", all(
        sigma == F.iota(A.rho_basis(i)).iota(A.rho_basis(j))
        for (i, j), sigma in splitting_curvature(A, ideal, vsecs).items()))

    dF = conn.dnabla(F)
    ok = all(dF.iota(A.rho_basis(i)).is_zero for i in range(1, A.rank + 1))
    report.record("transverse coboundary", ok)
    return report

