"""The axiom checkers against direct formulas.

``validate_algebroid``, ``validate_rep`` and ``check_IM`` each return a
report of named pass/fail items. Here every report is compared, label by
label and in order, verdict and detail text, with a reference computed from
the defining formulas:

- jacobi(i,j,k): the Jacobiator of the frame through ``bracket``;
- anchor_morphism(i,j): rho[e_i, e_j] against the vector-field bracket;
- flatness(i,j): sum_k [e_i, e_j]^k psi_k against
  L_{rho_i} psi_j - L_{rho_j} psi_i + [psi_i, psi_j] as End(V)-valued forms;
- C.1-C.3: evaluation, the Lie derivative of forms and slot insertion.

The inputs are the fixtures and seeded tamperings of them (structure,
anchor and representation entries replaced by random polynomials, random
W^{1,q} cochains), so that both verdicts occur for every kind of label.
"""

import itertools
import random

import pytest

from weilcalc import (AlgebroidPresentation, ARep, VForm, bracket, check_IM, compose,
                      evaluate, validate_algebroid, validate_rep)
from weilcalc.fixtures import random_cochain, random_poly
from weilcalc.weil import eval_row

from helpers import lieA_vform
from test_algebroid import field_bracket

SEEDS = range(6)

# the detail text of each kind of item: always for the two structural
# items, only on failure for the others
DETAILS = {
    "antisymmetry": "structure stored on i<j, extended antisymmetrically",
    "leibniz": "coefficient form satisfies the Leibniz rule by construction",
    "jacobi": "Jacobiator nonzero on this basis triple",
    "anchor_morphism": "rho[e_i,e_j] != [rho e_i, rho e_j]",
    "flatness": "nabla^A_[e_i,e_j] != [nabla^A_i, nabla^A_j]",
    "C.1": "c0[e_i,e_j] != L_i c0(e_j) - L_j c0(e_i)",
    "C.2": "c1[e_i,e_j] != L_i(c1 e_j) - i_rho(e_j) c0(e_i)",
    "C.3": "symbol is not anchor-antisymmetric",
}


def with_details(reference):
    return [(label, ok, DETAILS[label.split("(")[0]] if not ok or "(" not in label else "")
            for label, ok in reference]


def algebroid_reference(A):
    r = A.rank
    out = [("antisymmetry", True)]
    for i, j, k in itertools.combinations(range(1, r + 1), 3):
        e = A.basis
        jac = bracket(A, bracket(A, e(i), e(j)), e(k)) \
            + bracket(A, bracket(A, e(j), e(k)), e(i)) \
            + bracket(A, bracket(A, e(k), e(i)), e(j))
        out.append((f"jacobi({i},{j},{k})", jac.is_zero))
    for i, j in itertools.combinations(range(1, r + 1), 2):
        ok = A.rho(A.bracket_basis(i, j)) == field_bracket(A.rho_basis(i), A.rho_basis(j))
        out.append((f"anchor_morphism({i},{j})", ok))
    return out


def rep_reference(A, rep):
    psi = {i: rep.endo(i) for i in range(1, A.rank + 1)}
    out = [("leibniz", True)]
    for i, j in itertools.combinations(range(1, A.rank + 1), 2):
        lhs = VForm.zero(A.nvars, rep.rank ** 2, 0)
        for (k, _), wk in A.bracket_basis(i, j).comps.items():
            lhs = lhs + psi[k].scaled(wk)
        rhs = psi[j].lie(A.rho_basis(i)) - psi[i].lie(A.rho_basis(j)) \
            + compose(psi[i], psi[j]) - compose(psi[j], psi[i])
        out.append((f"flatness({i},{j})", lhs == rhs))
    return out


def im_reference(A, rep, c):
    r = A.rank

    def c0(i):
        return c.lookup(0, (i,), ())

    def c1(j):
        return c.lookup(1, (), (j,))

    def lie(i, vf):
        return lieA_vform(A, rep, A.basis(i), vf)

    out = []
    for i, j in itertools.combinations(range(1, r + 1), 2):
        ok = evaluate(c, [A.bracket_basis(i, j)]) == lie(i, c0(j)) - lie(j, c0(i))
        out.append((f"C.1({i},{j})", ok))
    symbol = eval_row(c, 1, [])
    for i, j in itertools.product(range(1, r + 1), repeat=2):
        lhs = symbol.insert(A.bracket_basis(i, j)).as_vform()
        out.append((f"C.2({i},{j})", lhs == lie(i, c1(j)) - c0(i).iota(A.rho_basis(j))))
    for i, j in itertools.combinations_with_replacement(range(1, r + 1), 2):
        s = c1(j).iota(A.rho_basis(i)) + c1(i).iota(A.rho_basis(j))
        out.append((f"C.3({i},{j})", s.is_zero))
    return out


def tampered_algebroid(A, seed):
    """Two structure entries, and on odd seeds one anchor entry, replaced."""
    rng = random.Random(f"tamper-algebroid:{A.nvars}:{A.rank}:{seed}")
    n, r = A.nvars, A.rank
    structure, anchor = dict(A.structure), dict(A.anchor)
    keys = [(i, j, k) for i, j in itertools.combinations(range(1, r + 1), 2)
            for k in range(1, r + 1)]
    for key in rng.sample(keys, 2):
        structure[key] = random_poly(rng, n, 2)
    if seed % 2 == 1 and n > 0:
        anchor[(rng.randint(1, r), rng.randint(1, n))] = random_poly(rng, n, 2)
    return AlgebroidPresentation(n, r, structure, anchor)


def tampered_rep(A, rep, seed):
    """Two psi entries replaced."""
    rng = random.Random(f"tamper-rep:{A.nvars}:{A.rank}:{seed}")
    m = rep.rank
    psi = dict(rep.psi)
    keys = list(itertools.product(range(1, A.rank + 1), range(1, m + 1), range(1, m + 1)))
    for key in rng.sample(keys, 2):
        psi[key] = random_poly(rng, A.nvars, 2)
    return ARep(A.nvars, A.rank, m, psi)


@pytest.fixture(params=["f0", "f1", "f2", "f3"])
def fix(request):
    return request.getfixturevalue(request.param)


def test_validate_algebroid_matches_direct_formulas(fix):
    failing = 0
    for A in [fix.A] + [tampered_algebroid(fix.A, s) for s in SEEDS]:
        want = algebroid_reference(A)
        assert validate_algebroid(A).items == with_details(want)
        failing += sum(not ok for _, ok in want)
    assert failing > 0


def test_validate_rep_matches_direct_formulas(fix):
    failing = 0
    for rep in [fix.rep] + [tampered_rep(fix.A, fix.rep, s) for s in SEEDS]:
        want = rep_reference(fix.A, rep)
        assert validate_rep(fix.A, rep).items == with_details(want)
        failing += sum(not ok for _, ok in want)
    assert failing > 0


def test_check_IM_matches_direct_formulas(fix):
    A, rep = fix.A, fix.rep
    cochains = [fix.imc.cochain] + [random_cochain(A, rep, 1, q, 1, seed)
                                    for q in range(4) for seed in SEEDS]
    failing = 0
    for c in cochains:
        want = im_reference(A, rep, c)
        assert check_IM(A, rep, c).items == with_details(want)
        failing += sum(not ok for _, ok in want)
    assert failing > 0
