"""Acceptance suite: one test per criterion, zero numerical tolerance.

Every identity is asserted as exact equality of rational polynomial data;
randomized criteria draw at least 50 deterministic seeded inputs spread
over the stated (p, q) grid and the fixtures. Each test prints a single
pass/fail line (run with ``pytest -s`` to see them live).
"""

import itertools
import json
import random
from fractions import Fraction

from weilcalc import (Dhor, LinearConnection, Poly, Section, VForm,
                      WeilCochain, act, bianchi_check, bounded_kernel,
                      bracket_of_forms, build_coupled, c2, check_IM,
                      check_semisimple, coupled_presentation,
                      coupling_checks, curvature, curving_suite, deform, delta, dnabla_cochain,
                      frame_splitting, hstar, induced_end_rep,
                      invariance_form, is_A_invariant, is_horizontal,
                      obstruction_cocycle, solve_coboundary,
                      unique_curving, validate_algebroid,
                      wedge_Ttheta, wedgedot)
from weilcalc.connections import lieA_derivative
from weilcalc.fixtures import random_cochain, random_poly, random_vform
from weilcalc.weil import eval_row

from helpers import (lieA_vform, random_endform, random_section, random_symform, scalar_wedge,
                     wedgedot_multi)
from test_algebroid import end_form
from test_ideals import row_iota


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {num:2d} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def test_criterion_01_complex_axiom(all_fixtures):
    checked = 0
    for p, q in itertools.product((0, 1, 2), repeat=2):
        for fix in all_fixtures:
            for seed in (0, 1):
                c = random_cochain(fix.A, fix.rep, p, q, 1, seed)
                d2 = delta(fix.A, fix.rep, delta(fix.A, fix.rep, c))
                if not d2.is_zero:
                    report(1, "delta^2 = 0", False, f"{fix.name} p={p} q={q} seed={seed}")
                checked += 1
    report(1, "delta^2 = 0", checked >= 50, f"{checked} randomized cochains")


def test_criterion_02_commutator_law(f1, f2):
    checked = 0
    for fix in (f1, f2):
        inv = invariance_form(fix.A, fix.conn, fix.rep)
        for p, q in ((0, 1), (1, 1), (2, 1), (1, 2)):
            for seed in range(7):
                c = random_cochain(fix.A, fix.rep, p, q, 1, seed)
                lhs = dnabla_cochain(fix.conn, delta(fix.A, fix.rep, c)) \
                    - delta(fix.A, fix.rep, dnabla_cochain(fix.conn, c))
                if lhs != wedge_Ttheta(inv, c):
                    report(2, "commutator law", False,
                           f"{fix.name} p={p} q={q} seed={seed}")
                checked += 1
    # equivalence, invariant direction: F1 is invariant and commutes
    ok = is_A_invariant(f1.A, f1.conn, f1.rep)
    # non-invariant direction: F2 fails invariance and some cochain witnesses
    # a nonzero commutator
    ok = ok and not is_A_invariant(f2.A, f2.conn, f2.rep)
    inv2 = invariance_form(f2.A, f2.conn, f2.rep)
    witness = WeilCochain.from_vform(
        f2.A, VForm(2, 3, 0, {(1, ()): Poly.const(2, 1)}))
    comm = dnabla_cochain(f2.conn, delta(f2.A, f2.rep, witness)) \
        - delta(f2.A, f2.rep, dnabla_cochain(f2.conn, witness))
    ok = ok and not comm.is_zero and comm == wedge_Ttheta(inv2, witness)
    report(2, "commutator law + invariance equivalence", ok and checked >= 50,
           f"{checked} randomized cochains, both directions")


def test_criterion_03_invariance_form_is_IM(f1, f2, f3):
    checked = 0
    ok = True
    for fix in (f1, f2, f3):
        endrep = induced_end_rep(fix.rep)
        for seed in range(9):
            rng = random.Random(f"conn:{fix.name}:{seed}")
            n, m = fix.A.nvars, fix.ideal.m
            table = {(a, b, c): random_poly(rng, n, 1)
                     for a in range(1, n + 1)
                     for b in range(1, m + 1) for c in range(1, m + 1)}
            conn = LinearConnection(n, m, table)
            tc = invariance_form(fix.A, conn, fix.rep)
            ok = ok and delta(fix.A, endrep, tc).is_zero
            # shift law: connection + gamma moves (T, theta) by -delta0(gamma)
            gamma = random_endform(fix, 1, seed)
            diff = invariance_form(fix.A, conn.shifted(gamma), fix.rep) - tc
            want = -delta(fix.A, endrep, gamma)
            ok = ok and diff == want
            checked += 2
    report(3, "(T,theta) is IM + shift law", ok and checked >= 50,
           f"{checked} randomized connections/shifts")


def test_criterion_04_pairing_laws(f2):
    A, rep, ideal = f2.A, f2.rep, f2.ideal
    checked = 0
    ok = True
    for seed in range(9):
        g1 = random_symform(f2, 2, 1, seed=seed)
        t1 = random_vform(random.Random(f"a:{seed}"), 2, 3, 1, 1)
        t2 = random_vform(random.Random(f"b:{seed}"), 2, 3, 1, 1)
        f = random_poly(random.Random(f"c:{seed}"), 2, 1)
        # (i) alternating + C^infty-multilinear
        ok = ok and wedgedot_multi(g1, [t1, t2], ideal) == \
            -wedgedot_multi(g1, [t2, t1], ideal)
        ok = ok and wedgedot_multi(g1, [t1.scaled(f), t2], ideal) == \
            wedgedot_multi(g1, [t1, t2], ideal).scaled(f)
        # (ii) simple tensors
        th = VForm(2, 1, 1, {(1, (1,)): random_poly(random.Random(f"d:{seed}"), 2, 1)})
        xi = Section(2, [random_poly(random.Random(f"e:{seed}:{a}"), 2, 1) for a in range(3)])
        simple = VForm(2, 3, 1, {(b, (1,)): th.get(1, (1,)) * xi.get(b, ())
                                 for b in range(1, 4)
                                 if not (th.get(1, (1,)) * xi.get(b, ())).is_zero})
        lhs = wedgedot_multi(g1, [simple, t2], ideal)
        inner = wedgedot(g1.insert(ideal.embed(xi)), t2, ideal)
        rhs = WeilCochain.zero(A, 3, inner.p, inner.q + 1)
        rhs.comps = {j: scalar_wedge(th, vf) for j, vf in inner.comps.items()
                     if not scalar_wedge(th, vf).is_zero}
        ok = ok and lhs == rhs
        # (iii) interior products
        g2 = random_symform(f2, 1, 2, seed=seed + 10)
        tl = random_vform(random.Random(f"f:{seed}"), 2, 3, 1, 1)
        X = Section(2, [random_poly(random.Random(f"g:{seed}"), 2, 1),
                        random_poly(random.Random(f"h:{seed}"), 2, 1)])
        ok = ok and row_iota(wedgedot(g2, tl, ideal), X) == \
            wedgedot(g2, tl.iota(X), ideal) - wedgedot(row_iota(g2, X), tl, ideal)
        # (iv) Lie derivative distributes
        alpha = random_section(A, 1000 + seed, bound=1)
        g3 = random_symform(f2, 1, 1, seed=seed + 20)
        ok = ok and lieA_derivative(A, rep, alpha, wedgedot(g3, t1, ideal)) == \
            wedgedot(lieA_derivative(A, rep, alpha, g3), t1, ideal) \
            + wedgedot(g3, lieA_vform(A, rep, alpha, t1), ideal)
        # (v) cochain Leibniz interaction
        c = random_cochain(A, rep, 3, 2, 1, seed=seed)
        from weilcalc.algebroid import d_scalar
        lhs5 = wedgedot(eval_row(c, 1, [A.basis(2).scaled(f), A.basis(4)]), t1, ideal)
        row = wedgedot(eval_row(c, 1, [A.basis(2), A.basis(4)]), t1, ideal)
        corr = wedgedot(eval_row(c, 2, [A.basis(4)]).insert(A.basis(2)), t1, ideal)
        df = d_scalar(f, 2)
        wedged = WeilCochain.zero(A, 3, row.p, row.q)
        wedged.comps = {j: scalar_wedge(df, vf) for j, vf in corr.comps.items()
                        if not scalar_wedge(df, vf).is_zero}
        ok = ok and lhs5 == row.scaled(f) - wedged
        # sign relation dot-wedge vs End(V)-valued wedge
        for k, l in ((1, 1), (2, 1), (1, 2)):
            g = random_symform(f2, 1, k, seed=seed + 30 + k + l)
            t = random_vform(random.Random(f"i:{seed}:{k}:{l}"), 2, 3, l, 1)
            comps = {}
            for (_, _, (j,)), vf in g.comps.items():
                if j in ideal.indices:
                    col = ideal.indices.index(j) + 1
                    for (b, idx), p in vf.comps.items():
                        comps[(b, col, idx)] = p
            rhs = act(end_form(2, 3, k, comps), t)
            if (k * l) % 2 == 1:
                rhs = -rhs
            ok = ok and wedgedot(g, t, ideal).as_vform() == rhs
            checked += 1
        checked += 6
    report(4, "pairing laws (five clauses + sign relation)", ok and checked >= 50,
           f"{checked} randomized instances")


def test_criterion_05_horizontal_projection_suite(f1, f2, f3, all_fixtures):
    checked = 0
    ok = True
    for fix in (f1, f2):
        for p, q in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for seed in range(3):
                c = random_cochain(fix.A, fix.rep, p, q, 1, seed)
                h = hstar(fix.imc, c)
                ok = ok and hstar(fix.imc, delta(fix.A, fix.rep, c)) == \
                    delta(fix.A, fix.rep, h)
                ok = ok and is_horizontal(h, fix.ideal)
                ok = ok and hstar(fix.imc, h) == h
                checked += 3
    for fix in (f1, f2):
        for seed in range(2):
            gamma = random_vform(random.Random(f"h5:{fix.name}:{seed}"),
                                 fix.A.nvars, fix.ideal.m, 1, 1)
            L = delta(fix.A, fix.rep, gamma)
            ok = ok and hstar(fix.imc, L) == L
            checked += 1
    for fix in all_fixtures:
        ok = ok and hstar(fix.imc, fix.imc.cochain).is_zero
    for fix in (f1, f2, f3):
        ok = ok and hstar(fix.imc, invariance_form(fix.A, fix.conn, fix.rep)).is_zero
    report(5, "h* cochain map / idempotent / h*(C,v)=0 / h*(T,theta)=0",
           ok and checked >= 50, f"{checked} randomized instances")


def test_criterion_06_horizontal_derivative_suite(f1, f2):
    checked = 0
    ok = True
    for fix in (f1, f2):
        for p, q in ((1, 1), (2, 1), (1, 2)):
            for seed in range(3):
                c = random_cochain(fix.A, fix.rep, p, q, 1, seed)
                ok = ok and delta(fix.A, fix.rep, Dhor(fix.imc, c)) == \
                    Dhor(fix.imc, delta(fix.A, fix.rep, c))
                checked += 1
    for fix in (f1, f2):
        for seed in range(8):
            gamma = random_vform(random.Random(f"d6:{fix.name}:{seed}"),
                                 fix.A.nvars, fix.ideal.m, 1, 1)
            L = delta(fix.A, fix.rep, gamma)          # an IM form
            DL = Dhor(fix.imc, L)
            ok = ok and check_IM(fix.A, fix.rep, DL).passed
            ok = ok and is_horizontal(DL, fix.ideal)
            # left column: D delta^0 = delta^0 d-nabla
            ok = ok and DL == delta(fix.A, fix.rep, fix.conn.dnabla(gamma))
            checked += 2
    report(6, "D suite: delta D = D delta, IM -> IM, D delta0 = delta0 d-nabla",
           ok and checked >= 50, f"{checked} randomized instances")


def test_criterion_07_curvature(all_fixtures):
    ok = True
    for fix in all_fixtures:
        om = curvature(fix.imc)
        conn = fix.conn
        R = conn.curvature_R()
        for i in range(1, fix.A.rank + 1):
            v_i = fix.imc.v_comps(i)
            u_i = fix.imc.U_of_h(fix.A.basis(i))
            ok = ok and om.lookup(0, (i,), ()) == act(R, v_i) - conn.dnabla(u_i)
            ok = ok and om.lookup(1, (), (i,)) == -u_i
        ok = ok and check_IM(fix.A, fix.rep, om).passed
        ok = ok and is_horizontal(om, fix.ideal)
        ok = ok and bianchi_check(fix.imc)
    report(7, "curvature formula + IM + horizontal + Bianchi", ok,
           "fixtures F0-F3")


def test_criterion_08_deformation_expansion(f1, f2):
    checked = 0
    ok = True
    for fix in (f1, f2):
        om = curvature(fix.imc)
        for seed in range(7):
            gamma = random_vform(random.Random(f"g8:{fix.name}:{seed}"),
                                 fix.A.nvars, fix.ideal.m, 1, 1)
            L = delta(fix.A, fix.rep, gamma)
            DL = Dhor(fix.imc, L)
            c2L = c2(fix.ideal, L)
            for lam in (-1, 1, 2, 3):
                got = curvature(deform(fix.imc, L, lam))
                want = om + DL.scaled(lam) + c2L.scaled(lam * lam)
                ok = ok and got == want
                checked += 1
            gg = bracket_of_forms(fix.ideal, gamma, gamma)
            ok = ok and c2L == delta(fix.A, fix.rep, gg).scaled(Fraction(-1, 2))
            checked += 1
    report(8, "quadratic expansion + c2 of coboundaries", ok and checked >= 50,
           f"{checked} randomized deformations")


def test_criterion_09_coupling_construction(all_fixtures):
    from weilcalc.fixtures import _so3_fibre, _tangent_presentation
    from weilcalc import ContractError
    ok = True
    for fix in all_fixtures:
        ok = ok and validate_algebroid(fix.A).passed
        ok = ok and coupling_checks(fix.imc).passed
    # tamper condition (ii): flip the curving sign
    B = _tangent_presentation(2)
    x = Poly.var(2, 0)
    conn = LinearConnection(2, 3, {(2, 2, 1): x, (2, 1, 2): -x})
    bad_F = VForm(2, 3, 2, {(3, (1, 2)): Poly.const(2, 1)})
    caught_ii = False
    try:
        build_coupled(B, 3, _so3_fibre(2), conn, bad_F)
    except ContractError as exc:
        caught_ii = "(ii)" in str(exc)
    ok = ok and caught_ii
    ok = ok and not validate_algebroid(
        coupled_presentation(B, 3, _so3_fibre(2), conn, bad_F)).passed
    # tamper condition (iii): non-transversal 3-form coboundary
    B3 = _tangent_presentation(3)
    conn3 = LinearConnection.trivial(3, 1)
    F3 = VForm(3, 1, 2, {(1, (2, 3)): Poly.var(3, 0)})
    caught_iii = False
    try:
        build_coupled(B3, 1, {}, conn3, F3)
    except ContractError as exc:
        caught_iii = "(iii)" in str(exc)
    ok = ok and caught_iii
    ok = ok and not validate_algebroid(
        coupled_presentation(B3, 1, {}, conn3, F3)).passed
    report(9, "coupling construction + precondition tampering", ok,
           "Jacobi fails by brute force on tampered inputs")


def test_criterion_10_curvings(f1, f2, f3):
    checked = 0
    ok = True
    for fix in (f1, f2, f3):
        for seed in range(17):
            gamma = random_vform(random.Random(f"g10:{fix.name}:{seed}"),
                                 fix.A.nvars, fix.ideal.m, 1, 1)
            rep = curving_suite(fix.imc, fix.curving, gamma=gamma)
            ok = ok and rep.passed
            checked += 1
    G3 = f3.conn.dnabla(f3.curving)
    ok = ok and not G3.is_zero
    report(10, "curving identities incl. G^gamma = G, nonzero G on F3",
           ok and checked >= 50, f"{checked} randomized gamma deformations")


def test_criterion_11_semisimple(f0, f2):
    ok = check_semisimple(f2.ideal) and check_semisimple(f0.ideal)
    checked = 0
    for seed in range(50):
        deg = seed % 3
        gamma = random_vform(random.Random(f"ss:{seed}"), 2, 3, deg, 1)
        from weilcalc import ad_inverse
        D = -f2.ideal.ad_endform(gamma)
        ok = ok and ad_inverse(f2.ideal, D) == gamma
        checked += 1
    F = unique_curving(f2.imc)
    ok = ok and F == VForm(2, 3, 2, {(3, (1, 2)): Poly.const(2, -1)})
    ok = ok and delta(f2.A, f2.rep, F) == curvature(f2.imc)
    # trivial kernel of ad: delta0 injective on ideal-valued 0-forms
    ok = ok and bounded_kernel(f0.A, f0.rep, 0, 0, 1) == []
    report(11, "semisimple: ad-inverse roundtrip, unique curving, zero kernel",
           ok and checked >= 50, f"{checked} randomized forms")


def test_criterion_12_obstruction(f1, f2):
    ok = True
    checked = 0
    for fix in (f1, f2):
        vsecs = {j: fix.imc.v_comps(j) for j in range(1, fix.A.rank + 1)}
        triples = []
        for seed in range(12):
            rng = random.Random(f"tri:{fix.name}:{seed}")
            n, m = fix.A.nvars, fix.ideal.m
            conn = LinearConnection(n, m, {
                (a, b, c): random_poly(rng, n, 1)
                for a in range(1, n + 1) for b in range(1, m + 1)
                for c in range(1, m + 1)})
            U = {i: random_vform(rng, n, m, 1, 1)
                 for i in range(1, fix.A.rank + 1) if i not in fix.ideal.indices}
            triples.append((vsecs, conn, U))
        for v, conn, U in triples:
            obs = obstruction_cocycle(fix.A, fix.ideal, v, conn, U)
            ok = ok and is_horizontal(obs, fix.ideal)
            ok = ok and delta(fix.A, fix.rep, obs).is_zero
            checked += 2
        # these fixtures admit IM connections: a horizontal corrector exists
        obs = obstruction_cocycle(fix.A, fix.ideal, vsecs,
                                  LinearConnection.trivial(fix.A.nvars, fix.ideal.m)
                                  if fix.ideal.is_abelian else fix.conn, None)
        corr = solve_coboundary(fix.A, fix.rep, obs, 2, horizontal_ideal=fix.ideal)
        ok = ok and corr is not None
        checked += 1
    # pairwise triple-independence up to horizontal coboundary on F1
    vsecs = frame_splitting(f1.ideal)
    y = Poly.var(2, 1)
    shifted = dict(vsecs)
    shifted[1] = Section(2, [y])    # v' = v + l with l horizontal
    u_table = {i: f1.imc.U_of_h(f1.A.basis(i)) for i in (1, 2)}
    triples = [
        (vsecs, f1.conn, None),
        (vsecs, f1.conn, u_table),
        (shifted, f1.conn, None),
        (vsecs, LinearConnection(2, 1, {(1, 1, 1): y}), None),
    ]
    cocycles = [obstruction_cocycle(f1.A, f1.ideal, v, c, u) for v, c, u in triples]
    for o1, o2 in itertools.combinations(cocycles, 2):
        corr = solve_coboundary(f1.A, f1.rep, o1 - o2, 2, horizontal_ideal=f1.ideal)
        ok = ok and corr is not None
        checked += 1
    report(12, "obstruction cocycles: horizontal, closed, corrector, independence",
           ok and checked >= 50, f"{checked} triples and pairs")


def test_criterion_13_cli(tmp_path, capsys):
    from weilcalc.cli import main
    ok = True
    path = tmp_path / "f1.json"
    code = main(["fixture", "--name", "F1_abelian_2d", "--emit", str(path)])
    ok = ok and code == 0
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    ok = ok and code == 0 and json.loads(out)["status"] == "ok"
    path2 = tmp_path / "f1b.json"
    main(["fixture", "--name", "F1_abelian_2d", "--emit", str(path2)])
    capsys.readouterr()
    ok = ok and path.read_bytes() == path2.read_bytes()
    # tampered so(3): exit 1 with the failing Jacobi triple named
    p0 = tmp_path / "f0.json"
    main(["fixture", "--name", "F0_so3", "--emit", str(p0)])
    capsys.readouterr()
    data = json.loads(p0.read_text())
    data["algebroid"]["structure"]["1,2,1"] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["validate", str(bad)])
    out = capsys.readouterr().out
    doc = json.loads(out)
    ok = ok and code == 1 and doc["status"] == "math_fail"
    ok = ok and any(c["name"] == "algebroid.jacobi(1,2,3)" and c["status"] == "fail"
                    for c in doc["checks"])
    # malformed input: exit 2 with a located diagnostic
    broken = tmp_path / "broken.json"
    broken.write_text("{}")
    code = main(["validate", str(broken)])
    out = capsys.readouterr().out
    ok = ok and code == 2 and json.loads(out)["status"] == "input_error"
    report(13, "CLI round-trip + exit-code contract", ok)
