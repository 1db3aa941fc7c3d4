import itertools
import random
import tracemalloc

import pytest

from weilcalc import (ARep, AlgebroidPresentation, Poly, Section, StructureError, VForm,
                      WeilCochain, act, bracket, compose, validate_algebroid)
from weilcalc.algebroid import d_scalar, end_index, sort_sign
from weilcalc.fixtures import random_poly, random_vform

from helpers import random_section, scalar_wedge


def end_form(nvars, m, degree, entries):
    """The End(V)-valued form, V of rank m, with entries (b, c, idx) -> the
    coefficient of E^b_c dx^idx."""
    return VForm(nvars, m * m, degree,
                 {(end_index(m, b, c), idx): p for (b, c, idx), p in entries.items()})


def apply_field(X, f):
    """X(f) = sum_a X^a d_a f for a vector field X (a section of TM)."""
    out = Poly.zero(f.nvars)
    for (a, _), xa in X.comps.items():
        out = out + xa * f.diff(a - 1)
    return out


def field_bracket(X, Y):
    """[X, Y]^a = X(Y^a) - Y(X^a), component by component."""
    n = X.nvars
    return Section(n, [apply_field(X, Y.get(a, ())) - apply_field(Y, X.get(a, ()))
                       for a in range(1, n + 1)])


def so3():
    one = Poly.const(0, 1)
    return AlgebroidPresentation(0, 3, {(1, 2, 3): one, (2, 3, 1): one,
                                        (1, 3, 2): -one}, {})


def test_so3_bracket_readoff():
    A = so3()
    assert bracket(A, A.basis(1), A.basis(2)) == A.basis(3)
    assert bracket(A, A.basis(2), A.basis(3)) == A.basis(1)
    assert bracket(A, A.basis(3), A.basis(1)) == A.basis(2)


@pytest.mark.parametrize("seed", range(10))
def test_bracket_antisymmetry(seed, f2):
    a = random_section(f2.A, seed)
    assert bracket(f2.A, a, a).is_zero


def test_bracket_on_F1(f1):
    w = bracket(f1.A, f1.A.basis(1), f1.A.basis(2))
    x = Poly.var(2, 0)
    assert w == Section(2, [Poly.zero(2), Poly.zero(2), -x])


def test_rank_mismatch_rejected(f1):
    bad = Section(2, [Poly.zero(2)] * 2)
    with pytest.raises(StructureError):
        bracket(f1.A, bad, f1.A.basis(1))


def test_validate_so3_passes():
    assert validate_algebroid(so3()).passed


def test_rescaled_so3_still_satisfies_jacobi():
    # every Jacobiator term on (e1,e2,e3) brackets parallel vectors, so
    # scaling one epsilon constant still yields a Lie algebra
    A = so3()
    structure = dict(A.structure)
    structure[(1, 2, 3)] = Poly.const(0, 2)
    assert validate_algebroid(AlgebroidPresentation(0, 3, structure, {})).passed


def test_broken_so3_fails_jacobi_with_named_triple():
    A = so3()
    structure = dict(A.structure)
    structure[(1, 2, 1)] = Poly.const(0, 1)
    report = validate_algebroid(AlgebroidPresentation(0, 3, structure, {}))
    assert not report.passed
    assert any("jacobi(1,2,3)" in label for label, _ in report.failures)


def test_validate_coupled_fixture(f2):
    assert validate_algebroid(f2.A).passed


@pytest.mark.parametrize("fix", ["f1", "f2", "f3"])
@pytest.mark.parametrize("seed", range(4))
def test_jacobi_on_random_sections(fix, seed, request):
    f = request.getfixturevalue(fix)
    a = random_section(f.A, 10 * seed, bound=1)
    b = random_section(f.A, 10 * seed + 1, bound=1)
    c = random_section(f.A, 10 * seed + 2, bound=1)
    jac = bracket(f.A, bracket(f.A, a, b), c) \
        + bracket(f.A, bracket(f.A, b, c), a) \
        + bracket(f.A, bracket(f.A, c, a), b)
    assert jac.is_zero


@pytest.mark.parametrize("seed", range(6))
def test_anchor_is_bracket_morphism_on_randoms(seed, f2):
    a = random_section(f2.A, 100 + seed)
    b = random_section(f2.A, 200 + seed)
    lhs = f2.A.rho(bracket(f2.A, a, b))
    rhs = field_bracket(f2.A.rho(a), f2.A.rho(b))
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(6))
def test_bracket_leibniz(seed, f2):
    A = f2.A
    a = random_section(A, 300 + seed)
    b = random_section(A, 400 + seed)
    f = random_poly(random.Random(f"lb:{seed}"), A.nvars, 2)
    lhs = bracket(A, a, b.scaled(f))
    rhs = bracket(A, a, b).scaled(f) + b.scaled(apply_field(A.rho(a), f))
    assert lhs == rhs


# -- Cartan calculus -------------------------------------------------------


def rvf(seed, degree, nvars=2, rank=1):
    return random_vform(random.Random(f"vf:{seed}"), nvars, rank, degree, 2)


def test_d_example():
    x = Poly.var(2, 0)
    w = VForm(2, 1, 1, {(1, (2,)): x})           # x dy
    assert w.d() == VForm(2, 1, 2, {(1, (1, 2)): Poly.const(2, 1)})


def test_iota_example():
    x = Poly.var(2, 0)
    w = VForm(2, 1, 2, {(1, (1, 2)): x})         # x dx^dy
    dx_dir = Section(2, [Poly.const(2, 1), Poly.zero(2)])
    assert w.iota(dx_dir) == VForm(2, 1, 1, {(1, (2,)): x})


def test_lie_example_via_cartan():
    x = Poly.var(2, 0)
    w = VForm(2, 1, 2, {(1, (1, 2)): x})
    dx_dir = Section(2, [Poly.const(2, 1), Poly.zero(2)])
    assert w.lie(dx_dir) == VForm(2, 1, 2, {(1, (1, 2)): Poly.const(2, 1)})


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_d_squared_zero(seed, degree):
    assert rvf(seed, degree).d().d().is_zero


@pytest.mark.parametrize("seed", range(8))
def test_cartan_formula_on_randoms(seed):
    rng = random.Random(f"x:{seed}")
    x = Section(2, [random_poly(rng, 2, 1), random_poly(rng, 2, 1)])
    for degree in (0, 1, 2):
        w = rvf(seed, degree)
        assert w.lie(x) == w.iota(x).d() + w.d().iota(x)
        assert w.iota(x).iota(x).is_zero


def test_fields_and_forms_over_another_chart_are_rejected(f2):
    # the cell maps add term dicts, which carry no chart, so each form checks
    # the chart of its components and each operator that of its inputs
    z = Poly.var(3, 2)
    with pytest.raises(StructureError, match="form component over wrong chart"):
        VForm(2, 1, 1, {(1, (1,)): z})
    with pytest.raises(StructureError, match="form component over wrong chart"):
        VForm(2, 4, 0, {(end_index(2, 2, 1), ()): z})  # E^2_1 of End(V), V of rank 2
    with pytest.raises(StructureError, match="form component over wrong chart"):
        Section(2, [z])
    with pytest.raises(StructureError, match="table entry has wrong shape"):
        WeilCochain(f2.A, 1, 1, 1, {(1, (), (1,)): VForm(3, 1, 0, {(1, ()): z})})
    w = VForm(2, 3, 1, {(1, (1,)): Poly.var(2, 0)})
    for op in (w.iota, w.lie):
        with pytest.raises(StructureError, match="section over wrong chart"):
            op(VForm(3, 2, 0, {(1, ()): z}))
    with pytest.raises(StructureError, match="section over wrong chart"):
        f2.A.rho(VForm(3, f2.A.rank, 0, {(1, ()): z}))
    with pytest.raises(StructureError, match="ad of a form over another chart"):
        f2.ideal.ad_endform(VForm(3, 3, 1, {(1, (1,)): z}))
    E = VForm(2, 9, 0, {(end_index(3, 1, 1), ()): Poly.var(2, 0)})
    with pytest.raises(StructureError, match=r"End\(V\)-valued form and form bundles differ"):
        act(E, VForm(3, 3, 0, {(1, ()): z}))
    with pytest.raises(StructureError, match=r"End\(V\)-valued forms act on different bundles"):
        compose(E, VForm(3, 9, 0, {(1, ()): z}))


def test_degree_overflow_is_zero_object():
    w = rvf(1, 2)
    assert w.d().d().degree == 4
    assert w.d().d().is_zero
    assert VForm.zero(2, 1, 5).is_zero


def _mismatched_pair(kind, A):
    one = Poly.const(2, 1)
    if kind == "VForm":
        return VForm(2, 1, 1, {(1, (1,)): one}), VForm(2, 2, 1, {(1, (1,)): one})
    if kind == "End(V)-valued":
        # E^1_1 dx^1 of End(V) for V of rank 3 and of rank 2
        return (VForm(2, 9, 1, {(end_index(3, 1, 1), (1,)): one}),
                VForm(2, 4, 1, {(end_index(2, 1, 1), (1,)): one}))
    return (WeilCochain(A, 1, 1, 1, {(0, (1,), ()): VForm(2, 1, 1, {(1, (1,)): one})}),
            WeilCochain(A, 1, 1, 2, {(0, (1,), ()): VForm(2, 1, 2, {(1, (1, 2)): one})}))


@pytest.mark.parametrize("kind", ["VForm", "End(V)-valued", "WeilCochain"])
def test_adding_mismatched_shapes_is_rejected(kind, f1):
    left, right = _mismatched_pair(kind, f1.A)
    with pytest.raises(StructureError):
        left + right


@pytest.mark.parametrize("seed", range(6))
def test_scalar_wedge_graded_leibniz(seed):
    s = rvf(seed, 1)          # scalar 1-form
    w = rvf(seed + 50, 1)
    lhs = scalar_wedge(s, w).d()
    rhs = scalar_wedge(s.d(), w) - scalar_wedge(s, w.d())
    assert lhs == rhs


def test_d_scalar_matches_form_d():
    rng = random.Random("ds")
    f = random_poly(rng, 2, 3)
    as_form = VForm(2, 1, 0, {(1, ()): f})
    assert d_scalar(f, 2) == as_form.d()


def test_construction_scales_with_the_entries():
    # a presentation and a representation build their frame tables per
    # entry: a rank-10^5 build without entries allocates a few small objects
    tracemalloc.start()
    try:
        A = AlgebroidPresentation(1, 10**5)
        rep = ARep(1, 10**5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.rho_basis(10**5).is_zero and rep.endo(10**5).is_zero
    assert peak < 64 * 1024


@pytest.mark.parametrize("fix", ["f0", "f1", "f2", "f3"])
def test_frame_sections_are_cached_units(fix, request):
    A = request.getfixturevalue(fix).A
    for i in range(1, A.rank + 1):
        assert A.basis(i) == Section(A.nvars, [Poly.const(A.nvars, 1 if t == i else 0)
                                               for t in range(1, A.rank + 1)])


def test_sort_sign_is_the_permutation_signature():
    # every tuple over 1..6 of length at most 5: a repeat gives the tuple as
    # it came and sign 0, distinct entries the signature of their ranks
    Permutation = pytest.importorskip("sympy.combinatorics").Permutation
    for length in range(6):
        for idx in itertools.product(range(1, 7), repeat=length):
            srt = tuple(sorted(idx))
            if len(set(idx)) < length:
                assert sort_sign(idx) == (idx, 0)
            else:
                sign = Permutation([srt.index(i) for i in idx]).signature()
                assert sort_sign(idx) == (srt, sign)
