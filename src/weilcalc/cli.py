"""Batch command-line interface.

Every spec command reads a JSON spec file, runs computations or checker
suites, and prints one canonical JSON report. The report carries
``command`` (null when the first argument names no command) and
``status``; a command that ran to its end reports its ``checks`` and
results, and one stopped by an error reports ``error`` alone. Exit codes:
0 all checks passed or the computation succeeded; 1 a mathematical check
failed (``math_fail``; a failure outside any named check has
``error.reason``); 2 the arguments or the input could not be parsed or are
structurally invalid (``input_error``, located at ``error.path``).
``fixture`` writes a fixture's canonical spec instead, and reports only
its errors.

A spec command is one subparser in ``_parser`` with its handler as
``run``. A handler takes the loaded spec, the parsed arguments and the
report, records its checks in the report and returns its results; ``main``
is the one place that builds a report, from those or from an error.
"""

import argparse
import sys
from fractions import Fraction

from .connections import ARep, LinearConnection
from .errors import ContractError, SpecError, StructureError
from .fixtures import FIXTURE_NAMES, build_fixture, random_cochain
from .ideals import (Dhor, IMConnection, bianchi_check, c2, coupling_checks,
                     curvature, curving_suite, deform, frame_splitting, hstar,
                     splitting_cochain)
from .report import CheckReport
from .specfile import (Spec, _need, cochain_to_dict, dumps_canonical, load_spec_path,
                       vform_to_dict)
from .weil import (check_IM, delta, dnabla_cochain, is_horizontal, solve_coboundary,
                   validate_algebroid, validate_rep)


def cmd_validate(spec, args, rep):
    rep.extend(validate_algebroid(spec.A), "algebroid.")
    if spec.ideal_indices is None:
        return {}
    try:
        ideal = spec.build_ideal()
    except StructureError as exc:
        rep.record("ideal.structure", False, str(exc))
        return {}
    rep.record("ideal.structure", True)
    rep.extend(validate_rep(spec.A, ideal.adjoint_rep()), "adjoint_rep.")
    c = spec.im_cochain
    if c is None:
        return {}
    # only an ideal-valued W^{1,1} cochain has C.x items to list; IMConnection
    # rejects every other shape, and the report records that failure alone
    im = check_IM(spec.A, ideal.adjoint_rep(), c) \
        if (c.p, c.q, c.rank) == (1, 1, ideal.m) else None
    try:
        imc = IMConnection(ideal, c, im_report=im)
    except (ContractError, StructureError) as exc:
        rep.record("im_connection.multiplicative", False, str(exc))
        for label, detail in im.failures if im is not None else ():
            rep.record(f"im_connection.{label}", False, detail)
        return {}
    rep.record("im_connection.multiplicative", True)
    rep.extend(coupling_checks(imc), "coupling.")
    if spec.curving is not None:
        rep.extend(curving_suite(imc, spec.curving), "curving.")
    return {}


def _computed(spec, args, rep, outputs):
    """The result of a command that maps each selected cochain to one output."""
    rep.record("computed", True)
    return {args.command: [cochain_to_dict(c, spec.names) for c in outputs]}


def cmd_delta(spec, args, rep):
    cochains = _selected(spec, args)
    # a cochain valued in the ideal takes its adjoint representation, any
    # other the trivial representation of its rank
    reps = {c.rank: ARep(spec.A.nvars, spec.A.rank, c.rank) for c in cochains}
    if spec.ideal_indices is not None:
        ideal = spec.build_ideal()
        reps[ideal.m] = ideal.adjoint_rep()
    return _computed(spec, args, rep, [delta(spec.A, reps[c.rank], c) for c in cochains])


def cmd_dnabla(spec, args, rep):
    conn = _need(spec.conn, "connection")
    return _computed(spec, args, rep, [dnabla_cochain(conn, c) for c in _selected(spec, args)])


def cmd_hproj(spec, args, rep):
    imc = spec.build_imc()
    out = []
    for c in _selected(spec, args):
        h = hstar(imc, c)
        rep.record("output horizontal", is_horizontal(h, imc.ideal))
        out.append(cochain_to_dict(h, spec.names))
    return {"hproj": out}


def cmd_dhor(spec, args, rep):
    imc = spec.build_imc()
    return _computed(spec, args, rep, [Dhor(imc, c) for c in _selected(spec, args)])


def cmd_curvature(spec, args, rep):
    imc = spec.build_imc()
    om = curvature(imc)
    rep.record("curvature is IM",
               check_IM(spec.A, imc.ideal.adjoint_rep(), om).passed)
    rep.record("curvature is horizontal", is_horizontal(om, imc.ideal))
    return {"curvature": cochain_to_dict(om, spec.names)}


def cmd_bianchi(spec, args, rep):
    imc = spec.build_imc()
    rep.record("D(Omega) == 0", bianchi_check(imc))
    return {}


def cmd_deform(spec, args, rep):
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
        return {}
    rep.record("deformation admissible", True)
    om, om2 = curvature(imc), curvature(imc2)
    expansion = om + Dhor(imc, L).scaled(args.lam) + c2(imc.ideal, L).scaled(args.lam ** 2)
    rep.record("quadratic expansion exact", om2 == expansion)
    return {
        "connection": cochain_to_dict(imc2.cochain, spec.names),
        "curvature": cochain_to_dict(om2, spec.names),
    }


def cmd_obstruction(spec, args, rep):
    imc = spec.build_imc() if spec.im_cochain is not None else None
    if imc is not None:
        ideal = imc.ideal
        vsecs = {j: imc.v_comps(j) for j in range(1, spec.A.rank + 1)}
        conn = spec.conn or imc.coupling_connection()
    else:
        ideal = spec.build_ideal()
        vsecs = frame_splitting(ideal)
        conn = spec.conn or LinearConnection.trivial(spec.A.nvars, ideal.m)
    U = None
    if args.use_coupling_u:
        if imc is None:
            raise SpecError("im_connection", "--use-coupling-u needs an IM connection")
        U = {i: imc.U_of_h(spec.A.basis(i)) for i in range(1, spec.A.rank + 1)
             if i not in ideal.indices}
    adjoint = ideal.adjoint_rep()
    # the obstruction cocycle is delta of the splitting cochain
    split = splitting_cochain(spec.A, ideal, vsecs, conn, U)
    obs = delta(spec.A, adjoint, split)
    rep.record("cocycle is horizontal", is_horizontal(obs, ideal))
    rep.record("cocycle is delta-closed", delta(spec.A, adjoint, obs).is_zero)
    result = {"cocycle": cochain_to_dict(obs, spec.names)}
    corr = solve_coboundary(spec.A, adjoint, obs, args.bound, horizontal_ideal=ideal)
    if _bounded(rep, "horizontal corrector", args.bound, corr):
        rep.record("corrected splitting is an IM connection",
                   check_IM(spec.A, adjoint, split - corr).passed)
        result["corrector"] = cochain_to_dict(corr, spec.names)
    return result


def cmd_curving(spec, args, rep):
    imc = spec.build_imc()
    if args.solve:
        om = curvature(imc)
        sol = solve_coboundary(spec.A, imc.ideal.adjoint_rep(), om, args.bound)
        if not _bounded(rep, "curving found", args.bound, sol):
            return {}
        F = sol.as_vform()
        rep.extend(curving_suite(imc, F))
        return {"curving": vform_to_dict(F, spec.names)}
    _need(spec.curving, "curving")
    rep.extend(curving_suite(imc, spec.curving))
    return {}


def cmd_fixture(args):
    """Write a named fixture's canonical spec to stdout or to the --emit path."""
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
    payload = dumps_canonical(spec.to_dict())
    if args.emit == "-":
        sys.stdout.write(payload)
        return
    try:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(payload)
    except OSError as exc:
        raise SpecError("--emit", f"cannot write file: {exc}")
    print(f"wrote {args.emit}", file=sys.stderr)


def _bounded(rep, what, bound, solution):
    """Record whether a solve to degree ``bound`` found ``solution``; no
    solution is a verdict relative to the bound, and the detail says so."""
    return rep.record(f"{what} at degree bound {bound}", solution is not None,
                      "" if solution is not None else "bound-relative verdict: infeasible")


def _selected(spec, args):
    if not spec.cochains:
        raise SpecError("cochains", "command needs at least one cochain")
    if args.index is None:
        return spec.cochains
    if not 0 <= args.index < len(spec.cochains):
        raise SpecError("--index", f"--index {args.index} out of range")
    return [spec.cochains[args.index]]


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
    """The argument parser, and its commands in the order they were added
    (the order an invalid-choice reason lists them in)."""
    ap = _Parser(
        prog="weilcalc",
        description="Exact checks and computations for algebroid connection calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    def spec_cmd(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="path to a JSON spec file")
        p.set_defaults(run=run)
        return p

    spec_cmd("validate", cmd_validate, "run every applicable checker suite")
    for name, run in (("delta", cmd_delta), ("dnabla", cmd_dnabla), ("hproj", cmd_hproj),
                      ("dhor", cmd_dhor)):
        p = spec_cmd(name, run, f"apply {name} to the spec cochains")
        p.add_argument("--index", type=int, default=None,
                       help="operate on one cochain only")
    spec_cmd("curvature", cmd_curvature, "curvature of the IM connection")
    spec_cmd("bianchi", cmd_bianchi, "check the infinitesimal Bianchi identity")
    p = spec_cmd("deform", cmd_deform, "affine deformation of the IM connection")
    p.add_argument("--lambda", dest="lam", type=_rational, default="1",
                   help="rational scale factor")
    p.add_argument("--with", dest="with_index", type=int, required=True,
                   help="index of the deformation cochain in the spec")
    p = spec_cmd("obstruction", cmd_obstruction, "obstruction cocycle of a splitting triple")
    p.add_argument("--bound", type=_nonnegative, default=2, help="solver degree bound")
    p.add_argument("--use-coupling-u", action="store_true",
                   help="take U from the IM connection's coupling data")
    p = spec_cmd("curving", cmd_curving, "check or solve for a curving")
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
    return ap, sub.choices


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    doc = {"command": argv[0] if argv and argv[0] in commands else None}
    try:
        args = parser.parse_args(argv)
        if args.command == "fixture":
            cmd_fixture(args)
            return 0
        rep = CheckReport(args.command)
        result = args.run(load_spec_path(args.spec), args, rep)
    except SpecError as exc:
        doc.update(status="input_error", error={"path": exc.path, "reason": exc.reason})
        code = 2
    except (ContractError, StructureError) as exc:
        doc.update(status="math_fail", error={"reason": str(exc)})
        code = 1
    else:
        code = 0 if rep.passed else 1
        doc.update(checks=rep.to_json()["checks"], **result,
                   status="ok" if rep.passed else "math_fail")
    sys.stdout.write(dumps_canonical(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
