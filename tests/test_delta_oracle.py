"""``weil.delta`` against the row-driven reference.

``delta`` walks the cells of its input and adds each one's terms to the
output cells it reaches. The reference below is the row-driven form it
replaced: it loops over every output row (k, I, J) of W^{p+1,q} and reads
the input there through the Lie derivative of symmetric-slot forms, the
bracket insertions and the slot interior products. The Lie derivatives
are the slot-by-slot forms that ``lieA_vform`` (now in ``helpers``) and
``connections.lieA_derivative`` replaced (those now read ``delta``), on top of the
chain-rule Lie derivative of forms ``_lie`` that ``VForm.lie`` replaced
(that one now shares delta's Lie cell map); the rows and the
bracket insertions are read with ``weil.eval_row``, which contracts and
does not call ``delta``.

The inputs are the fixtures F0-F3 with the trivial representation of
their ideal's rank (case ``F*``) and with the adjoint representation of
their ideal (case ``F*/adjoint``), the polynomial-anchor
``affine_algebroid``, and seeded random presentations whose structure,
anchor and representation are random polynomials that break the axioms
(the axiom checkers read delta of such inputs). On each: every bidegree
p, q <= 3, plain ``VForm`` inputs, one-cell inputs and the zero cochain.
"""

import functools
import itertools
import random

import pytest

from weilcalc import (AlgebroidPresentation, ARep, VForm, WeilCochain, build_fixture,
                      validate_algebroid, validate_rep)
from weilcalc.algebroid import sort_sign, symmetric_slots
from weilcalc.fixtures import FIXTURE_NAMES, random_cochain, random_poly
from weilcalc.weil import _cell_cochain, _unknown_cells, delta, eval_row, frame_rows

from test_algebroid import apply_field
from test_weil import affine_algebroid, affine_rep


def _lie(form, x):
    """The table of L_X of a form keyed (value head..., form index), by the
    chain rule: X applied to each coefficient, plus each slot dx^c replaced
    in turn by d(X^c) = d_a X^c dx^a."""
    n = x.nvars
    dx = {c: [(a, dxc) for a in range(1, n + 1) if not (dxc := x.get(c, ()).diff(a - 1)).is_zero]
          for c in range(1, n + 1)} if form.degree > 0 else {}
    acc = {key: q for key, p in form.comps.items() if not (q := apply_field(x, p)).is_zero}
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


def lieA_vform_ref(A, rep, alpha, vf):
    """L^A_alpha on a plain V-valued form: the Lie derivative along
    rho(alpha) plus psi(alpha) = sum_i alpha^i psi_i acting on the values."""
    columns = {}
    for (i, b, c), f in rep.psi.items():
        ai = alpha.comps.get((i, ()))
        if ai is not None:
            columns.setdefault(c, []).append((b, ai * f))
    return VForm(A.nvars, vf.rank, vf.degree, _lieA(vf, A.rho(alpha), columns))


def bracket_with_frame_ref(A, alpha, j):
    """Components of [alpha, e_j] = sum_i alpha^i [e_i, e_j] - rho(e_j)(alpha^i) e_i,
    read from the cached frame brackets."""
    rho_j = A.rho_basis(j)
    out = [-apply_field(rho_j, alpha.get(i, ())) for i in range(1, A.rank + 1)]
    for (i, _), ai in alpha.comps.items():
        for (k, _), w in A.bracket_basis(i, j).comps.items():
            out[k - 1] = out[k - 1] + ai * w
    return out


def lieA_derivative_ref(A, rep, alpha, gamma):
    """Lie derivative on S^k(A*)-valued forms: chain rule over all slots.

    (L^A_a gamma)(J) = L^A_a(gamma(J)) applied to values and form slots,
    minus the sum over symmetric positions t of gamma with e_{J_t}
    replaced by [a, e_{J_t}] (positions with equal index contribute with
    multiplicity). gamma of arity k is the level-k row of a W^{k,q}
    cochain, cells (k, (), J), and so is the result.
    """
    k, table = gamma.p, {J: vf for (_, _, J), vf in gamma.comps.items()}
    candidates = set(table)
    for J in table:
        for _, rest, _ in symmetric_slots(J):
            for s in range(1, A.rank + 1):
                candidates.add(tuple(sorted(rest + (s,))))
    brackets = {j: bracket_with_frame_ref(A, alpha, j)
                for j in range(1, A.rank + 1)} if k else {}
    rows = {}
    for J in candidates:
        vf = table.get(J)
        acc = lieA_vform_ref(A, rep, alpha, vf) if vf is not None else None
        for j, rest, mult in symmetric_slots(J):
            for l in range(1, A.rank + 1):
                wl = brackets[j][l - 1]
                if wl.is_zero:
                    continue
                src = table.get(tuple(sorted(rest + (l,))))
                if src is None:
                    continue
                coeff = wl if mult == 1 else wl * mult
                term = src.scaled(-coeff)
                acc = term if acc is None else acc + term
        if acc is not None:
            rows[(k, (), J)] = acc
    return WeilCochain(A, gamma.rank, k, gamma.q, rows)


def delta_rows(A, rep, c):
    """The row-driven delta: each output row (k, I, J) reads its leading Lie
    derivatives, its bracket insertions and its slot interior products."""
    p, q, n = c.p, c.q, A.nvars

    @functools.cache
    def row_of(k, I):
        return eval_row(c, k, [A.basis(i) for i in I])

    out = {}
    for k, I, Js in frame_rows(A, p + 1, q):
        lds = []
        for pos in range(len(I)):
            row = row_of(k, I[:pos] + I[pos + 1:])
            lds.append(None if row.is_zero
                       else lieA_derivative_ref(A, rep, A.basis(I[pos]), row))
        brs = []
        for s, t in itertools.combinations(range(len(I)), 2):
            w = A.bracket_basis(I[s], I[t])
            if not w.is_zero:
                rest = [A.basis(I[u]) for u in range(len(I)) if u not in (s, t)]
                brs.append((s + t, eval_row(c, k, [w] + rest)))
        for J in Js:
            acc = VForm.zero(n, c.rank, q - k)
            for pos, ld in enumerate(lds):
                if ld is not None:
                    term = ld.lookup(k, (), J)
                    acc = acc + term if pos % 2 == 0 else acc - term
            for sgn, row in brs:
                term = row.lookup(k, (), J)
                acc = acc + term if sgn % 2 == 0 else acc - term
            for j, rest, mult in symmetric_slots(J):
                sub = c.lookup(k - 1, I, rest)
                if not sub.is_zero:
                    acc = acc - sub.iota(A.rho_basis(j)).scaled(mult)
            if not acc.is_zero:
                out[(k, I, J)] = -acc if k % 2 == 1 else acc
    return WeilCochain(A, c.rank, p + 1, q, out)


def random_presentation(seed):
    """A rank-3 algebroid on Q^2 with a rank-2 representation whose
    structure, anchor and psi entries are random polynomials of degree <= 2:
    nonconstant structure functions, a polynomial anchor, no axioms."""
    rng = random.Random(f"delta-oracle:{seed}")
    n, r, m = 2, 3, 2
    structure = {(i, j, k): random_poly(rng, n, 2)
                 for i, j in itertools.combinations(range(1, r + 1), 2)
                 for k in range(1, r + 1) if rng.random() < 0.5}
    anchor = {(i, a): random_poly(rng, n, 2)
              for i in range(1, r + 1) for a in range(1, n + 1) if rng.random() < 0.6}
    psi = {key: random_poly(rng, n, 2)
           for key in itertools.product(range(1, r + 1), range(1, m + 1), range(1, m + 1))
           if rng.random() < 0.4}
    return AlgebroidPresentation(n, r, structure, anchor), ARep(n, r, m, psi)


CASES = [name + suffix for name in FIXTURE_NAMES for suffix in ("", "/adjoint")] \
    + ["affine"] + [f"random{seed}" for seed in range(3)]
BIDEGREES = [(p, q) for p in range(4) for q in range(4)]


def build_case(name):
    if name == "affine":
        A = affine_algebroid()
        return A, affine_rep(A)
    if name.startswith("random"):
        return random_presentation(int(name[len("random"):]))
    fix = build_fixture(name.split("/")[0])
    if name.endswith("/adjoint"):
        return fix.A, fix.ideal.adjoint_rep()
    return fix.A, ARep(fix.A.nvars, fix.A.rank, fix.ideal.m)


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return build_case(request.param)


def _one_cells(c, count, rng):
    """For up to ``count`` cells of c: the cochain of that cell alone, and
    the cochain of one term of it."""
    cells = sorted(c.comps)
    out = []
    for cell in rng.sample(cells, min(count, len(cells))):
        vf = c.comps[cell]
        key = rng.choice(sorted(vf.comps))
        single = VForm(vf.nvars, vf.rank, vf.degree, {key: vf.comps[key]})
        out.append(WeilCochain(c.A, c.rank, c.p, c.q, {cell: vf}))
        out.append(WeilCochain(c.A, c.rank, c.p, c.q, {cell: single}))
    return out


@pytest.mark.parametrize("p,q", BIDEGREES)
def test_delta_matches_row_driven_reference(case, p, q):
    A, rep = case
    c = random_cochain(A, rep, p, q, 1, seed=p * 4 + q)
    if p == 0:
        assert delta(A, rep, c.as_vform()) == delta_rows(A, rep, c)
    rng = random.Random(f"one-cells:{p}:{q}")
    zero = WeilCochain(A, rep.rank, p, q)
    assert delta(A, rep, zero).is_zero
    for x in [c, zero] + _one_cells(c, 6, rng):
        assert delta(A, rep, x) == delta_rows(A, rep, x), sorted(x.comps)


def test_random_presentations_break_the_axioms():
    # the random inputs reach every map of delta: nonconstant structure
    # functions (the Leibniz part of the bracket insertions), a polynomial
    # anchor and psi, and delta^2 != 0
    for seed in range(3):
        A, rep = random_presentation(seed)
        assert any(not p.is_constant for p in A.structure.values())
        assert any(not p.is_constant for p in A.anchor.values())
        assert rep.psi
        assert not validate_algebroid(A).passed
        assert not validate_rep(A, rep).passed


def test_solver_frame_cells():
    # the inputs of the solver's column build: one monomial in one cell
    A, rep = random_presentation(0)
    rng = random.Random("frame-cells")
    for p, q in BIDEGREES:
        cells = _unknown_cells(A, rep.rank, p, q, 1)
        for cell in rng.sample(cells, min(20, len(cells))):
            x = _cell_cochain(A, rep.rank, p, q, cell)
            assert delta(A, rep, x) == delta_rows(A, rep, x), cell
