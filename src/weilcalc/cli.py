"""Batch command-line interface.

Every command reads a JSON spec file, runs computations or checker suites,
and prints a canonical JSON report. Exit codes: 0 all checks passed or the
computation succeeded, 1 a mathematical check failed, 2 the input could not
be parsed or is structurally invalid.
"""

import argparse
import sys
from fractions import Fraction

from .connections import ARep, LinearConnection
from .errors import ContractError, SpecError, StructureError
from .fixtures import FIXTURE_NAMES, build_fixture, random_cochain
from .ideals import (Dhor, IMConnection, bianchi_check, c2, coupling_checks,
                     curvature, curving_suite, deform, frame_splitting, hstar,
                     obstruction_cocycle, splitting_cochain)
from .report import CheckReport
from .specfile import (Spec, _need, cochain_to_dict, dumps_canonical, load_spec_path,
                       vform_to_dict)
from .weil import (check_IM, delta, dnabla_cochain, is_horizontal, solve_coboundary,
                   validate_algebroid, validate_rep)


def _adjoint_or_trivial(spec, cochain):
    if spec.ideal_indices is not None:
        ideal = spec.build_ideal()
        if cochain.rank == ideal.m:
            return ideal.adjoint_rep()
    return ARep(spec.A.nvars, spec.A.rank, cochain.rank)


def cmd_validate(spec, args):
    rep = CheckReport("validate")
    rep.extend(validate_algebroid(spec.A), "algebroid.")
    ideal = None
    if spec.ideal_indices is not None:
        try:
            ideal = spec.build_ideal()
            rep.record("ideal.structure", True)
        except StructureError as exc:
            rep.record("ideal.structure", False, str(exc))
    if ideal is not None:
        rep.extend(validate_rep(spec.A, ideal.adjoint_rep()), "adjoint_rep.")
        c = spec.im_cochain
        if c is not None:
            # delta needs the ideal's rank and check_IM level 1; IMConnection
            # rejects every other shape, and the report records it
            im = check_IM(spec.A, ideal.adjoint_rep(), c) \
                if c.p == 1 and c.rank == ideal.m else None
            try:
                imc = IMConnection(ideal, c, im_report=im)
                rep.record("im_connection.multiplicative", True)
            except (ContractError, StructureError) as exc:
                imc = None
                rep.record("im_connection.multiplicative", False, str(exc))
                if im is not None:
                    for label, detail in im.failures:
                        rep.record(f"im_connection.{label}", False, detail)
            if imc is not None:
                rep.extend(coupling_checks(imc), "coupling.")
                if spec.curving is not None:
                    rep.extend(curving_suite(imc, spec.curving), "curving.")
    return rep, {}


def cmd_delta(spec, args):
    rep = CheckReport("delta")
    out = []
    for c in _selected(spec, args):
        rep_obj = _adjoint_or_trivial(spec, c)
        out.append(cochain_to_dict(delta(spec.A, rep_obj, c), spec.names))
    rep.record("computed", True)
    return rep, {"delta": out}


def cmd_dnabla(spec, args):
    rep = CheckReport("dnabla")
    _need(spec.conn, "connection")
    out = [cochain_to_dict(dnabla_cochain(spec.conn, c), spec.names)
           for c in _selected(spec, args)]
    rep.record("computed", True)
    return rep, {"dnabla": out}


def cmd_hproj(spec, args):
    rep = CheckReport("hproj")
    imc = spec.build_imc()
    out = []
    for c in _selected(spec, args):
        h = hstar(imc, c)
        rep.record("output horizontal", is_horizontal(h, imc.ideal))
        out.append(cochain_to_dict(h, spec.names))
    return rep, {"hproj": out}


def cmd_dhor(spec, args):
    rep = CheckReport("dhor")
    imc = spec.build_imc()
    out = [cochain_to_dict(Dhor(imc, c), spec.names) for c in _selected(spec, args)]
    rep.record("computed", True)
    return rep, {"dhor": out}


def cmd_curvature(spec, args):
    rep = CheckReport("curvature")
    imc = spec.build_imc()
    om = curvature(imc)
    rep.record("curvature is IM",
               check_IM(spec.A, imc.ideal.adjoint_rep(), om).passed)
    rep.record("curvature is horizontal", is_horizontal(om, imc.ideal))
    return rep, {"curvature": cochain_to_dict(om, spec.names)}


def cmd_bianchi(spec, args):
    rep = CheckReport("bianchi")
    imc = spec.build_imc()
    rep.record("D(Omega) == 0", bianchi_check(imc))
    return rep, {}


def cmd_deform(spec, args):
    rep = CheckReport("deform")
    imc = spec.build_imc()
    if not spec.cochains:
        raise SpecError("cochains", "deform needs --with pointing at a spec cochain")
    if not 0 <= args.with_index < len(spec.cochains):
        raise SpecError("--with", f"--with index {args.with_index} out of range")
    L = spec.cochains[args.with_index]
    try:
        imc2 = deform(imc, L, args.lam)
    except ContractError as exc:
        rep.record("deformation admissible", False, str(exc))
        return rep, {}
    rep.record("deformation admissible", True)
    om, om2 = curvature(imc), curvature(imc2)
    expansion = om + Dhor(imc, L).scaled(args.lam) + c2(imc.ideal, L).scaled(args.lam ** 2)
    rep.record("quadratic expansion exact", om2 == expansion)
    return rep, {
        "connection": cochain_to_dict(imc2.cochain, spec.names),
        "curvature": cochain_to_dict(om2, spec.names),
    }


def cmd_obstruction(spec, args):
    rep = CheckReport("obstruction")
    ideal = spec.build_ideal()
    adjoint = ideal.adjoint_rep()
    imc = None
    if spec.im_cochain is not None:
        imc = spec.build_imc(ideal)
    if imc is not None:
        vsecs = {j: imc.v_comps(j) for j in range(1, spec.A.rank + 1)}
        conn = spec.conn or imc.coupling_connection()
    else:
        vsecs = frame_splitting(ideal)
        conn = spec.conn or LinearConnection.trivial(spec.A.nvars, ideal.m)
    U = None
    if args.use_coupling_u:
        if imc is None:
            raise SpecError("im_connection", "--use-coupling-u needs an IM connection")
        U = {i: imc.U_of_h(spec.A.basis(i)) for i in range(1, spec.A.rank + 1)
             if i not in ideal.indices}
    obs = obstruction_cocycle(spec.A, ideal, vsecs, conn, U)
    rep.record("cocycle is horizontal", is_horizontal(obs, ideal))
    rep.record("cocycle is delta-closed", delta(spec.A, adjoint, obs).is_zero)
    result = {"cocycle": cochain_to_dict(obs, spec.names)}
    corr = solve_coboundary(spec.A, adjoint, obs, args.bound, horizontal_ideal=ideal)
    rep.record(f"horizontal corrector at degree bound {args.bound}",
               corr is not None,
               "" if corr is not None else "bound-relative verdict: infeasible")
    if corr is not None:
        fixed = splitting_cochain(spec.A, ideal, vsecs, conn, U) - corr
        rep.record("corrected splitting is an IM connection",
                   check_IM(spec.A, adjoint, fixed).passed)
        result["corrector"] = cochain_to_dict(corr, spec.names)
    return rep, result


def cmd_curving(spec, args):
    rep = CheckReport("curving")
    imc = spec.build_imc()
    if args.solve:
        om = curvature(imc)
        sol = solve_coboundary(spec.A, imc.ideal.adjoint_rep(), om, args.bound)
        rep.record(f"curving found at degree bound {args.bound}", sol is not None,
                   "" if sol is not None else "bound-relative verdict: infeasible")
        if sol is None:
            return rep, {}
        F = sol.as_vform()
        rep.extend(curving_suite(imc, F))
        return rep, {"curving": vform_to_dict(F, spec.names)}
    _need(spec.curving, "curving")
    rep.extend(curving_suite(imc, spec.curving))
    return rep, {}


def cmd_fixture(args):
    fix = build_fixture(args.name)
    cochains = []
    if args.with_cochain:
        p, q = args.with_cochain
        cochains.append(random_cochain(fix.A, fix.rep, p, q, args.degree, args.seed))
    spec = Spec(
        [f"x{i + 1}" for i in range(fix.A.nvars)],
        fix.A,
        ideal_indices=fix.ideal.indices,
        conn=fix.imc.coupling_connection(),
        im_cochain=fix.imc.cochain,
        cochains=cochains,
        curving=fix.curving,
    )
    rep = CheckReport("fixture")
    rep.record("built", True)
    return rep, {"spec": spec.to_dict()}


_COMMANDS = {
    "validate": cmd_validate,
    "delta": cmd_delta,
    "dnabla": cmd_dnabla,
    "hproj": cmd_hproj,
    "dhor": cmd_dhor,
    "curvature": cmd_curvature,
    "bianchi": cmd_bianchi,
    "deform": cmd_deform,
    "obstruction": cmd_obstruction,
    "curving": cmd_curving,
}


def _selected(spec, args):
    if not spec.cochains:
        raise SpecError("cochains", "command needs at least one cochain")
    idx = getattr(args, "index", None)
    if idx is None:
        return spec.cochains
    if not 0 <= idx < len(spec.cochains):
        raise SpecError("--index", f"--index {idx} out of range")
    return [spec.cochains[idx]]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are input errors (exit 2): each is
    located at the option argparse names ("argument --bound: ..."), or else
    at the first argument its message lists, the first unrecognized or
    missing one ("command" when no command is given)."""

    def error(self, message):
        head, _, rest = message.partition(": ")
        if head.startswith("argument "):
            raise SpecError(head.removeprefix("argument "), rest)
        raise SpecError((rest.split() or ["command"])[0].rstrip(","), message)

    def _check_value(self, action, value):
        # one wording on every interpreter: argparse quotes the choices up
        # to 3.12.1, and 3.13 prints them bare
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})")


def _nonnegative(text):
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")


def _rational(text):
    # Fraction would expand 1eN into N digits, without bound
    try:
        if "e" not in text.lower():
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"expected p/q or a decimal without exponent, got {text!r}")


def _bidegree(text):
    try:
        p, q = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected 'p,q'")
    if p < 0 or q < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative bidegree 'p,q'")
    return p, q


def _parser():
    ap = _Parser(
        prog="weilcalc",
        description="Exact checks and computations for algebroid connection calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    def spec_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a JSON spec file")
        return p

    spec_cmd("validate", "run every applicable checker suite")
    for name in ("delta", "dnabla", "hproj", "dhor"):
        p = spec_cmd(name, f"apply {name} to the spec cochains")
        p.add_argument("--index", type=int, default=None,
                       help="operate on one cochain only")
    spec_cmd("curvature", "curvature of the IM connection")
    spec_cmd("bianchi", "check the infinitesimal Bianchi identity")
    p = spec_cmd("deform", "affine deformation of the IM connection")
    p.add_argument("--lambda", dest="lam", type=_rational, default="1",
                   help="rational scale factor")
    p.add_argument("--with", dest="with_index", type=int, required=True,
                   help="index of the deformation cochain in the spec")
    p = spec_cmd("obstruction", "obstruction cocycle of a splitting triple")
    p.add_argument("--bound", type=_nonnegative, default=2, help="solver degree bound")
    p.add_argument("--use-coupling-u", action="store_true",
                   help="take U from the IM connection's coupling data")
    p = spec_cmd("curving", "check or solve for a curving")
    p.add_argument("--solve", action="store_true", help="solve for a curving; else check")
    p.add_argument("--bound", type=_nonnegative, default=2, help="solver degree bound")
    p = sub.add_parser("fixture", help="build a named fixture and emit its spec")
    p.add_argument("--name", required=True, choices=FIXTURE_NAMES)
    p.add_argument("--emit", nargs="?", const="-", default="-",
                   help="output path ('-' for stdout)")
    p.add_argument("--with-cochain", type=_bidegree, default=None, metavar="P,Q",
                   help="embed a seeded random cochain of bidegree p,q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=_nonnegative, default=1,
                   help="polynomial degree bound for the random cochain")
    return ap


def _input_error(doc, exc):
    doc["status"] = "input_error"
    doc["error"] = {"path": exc.path, "reason": exc.reason}
    return doc


def _dispatch(args):
    doc = {"command": args.command}
    try:
        if args.command == "fixture":
            rep, result = cmd_fixture(args)
        else:
            spec = load_spec_path(args.spec)
            rep, result = _COMMANDS[args.command](spec, args)
    except SpecError as exc:
        return _input_error(doc, exc), 2
    except (ContractError, StructureError) as exc:
        doc["status"] = "math_fail"
        doc["error"] = {"reason": str(exc)}
        return doc, 1
    doc["checks"] = rep.to_json()["checks"]
    doc.update(result)
    doc["status"] = "ok" if rep.passed else "math_fail"
    return doc, 0 if rep.passed else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SpecError as exc:
        command = argv[0] if argv and argv[0] in (*_COMMANDS, "fixture") else None
        sys.stdout.write(dumps_canonical(_input_error({"command": command}, exc)))
        return 2
    doc, code = _dispatch(args)
    if args.command == "fixture" and code == 0 and "spec" in doc:
        payload = dumps_canonical(doc["spec"])
        if args.emit and args.emit != "-":
            try:
                with open(args.emit, "w", encoding="utf-8") as handle:
                    handle.write(payload)
            except OSError as exc:
                error = SpecError("--emit", f"cannot write file: {exc}")
                sys.stdout.write(dumps_canonical(_input_error({"command": "fixture"}, error)))
                return 2
            print(f"wrote {args.emit}", file=sys.stderr)
        else:
            sys.stdout.write(payload)
        return 0
    sys.stdout.write(dumps_canonical(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
