"""The three workloads: seeded job plans, set-up, jobs and their correctness gate.

A plan is a list of passes; a pass is a list of job specs (plain tuples), so
the plan depends only on the seed. ``setup`` turns a plan into runnable jobs:
it builds the fixtures and every input the plan names. Each job carries a
digest key; the canonical bytes of its output must hash to the digest
recorded in ``digests.json`` (see ``record.py``).

Every seeded input is drawn from a space of ``SEEDS`` values per kind, so the
recorded digests cover every input any ``--seed`` can produce.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import weilcalc
from weilcalc import cli, fixtures, ideals, weil
from weilcalc.connections import LinearConnection
from weilcalc.polyring import default_names
from weilcalc.specfile import cochain_to_dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

SEEDS = 4                 # size of each seeded input space
BOUNDS = (1, 2, 3, 4, 5, 6)
SOLVER_FIXTURES = ("F1_abelian_2d", "F2_semisimple_2d", "F3_foliation_4d")
BIDEGREES = ((1, 1), (2, 1), (2, 2), (3, 2))
OPERATOR_DEGREE = 3       # coefficient degree bound of the operators cochains
CLI_FIXTURES = weilcalc.FIXTURE_NAMES
# command -> extra argv; the first five read the spec cochain, the rest do not
CLI_COMMANDS = {
    "delta": [], "dnabla": [], "hproj": [], "dhor": [], "deform": ["--with", "0"],
    "validate": [], "curvature": [], "bianchi": [],
    "obstruction": ["--bound", "2"], "curving": ["--solve", "--bound", "2"],
}
CLI_COCHAIN_COMMANDS = ("delta", "dnabla", "hproj", "dhor", "deform")
MUTATIONS_PER_PASS = 8
# Wall seconds of one pass, gate included, on the machine the benchmark was
# written on (2 shared x86 cores, Python 3.11.7; its speed drifts by about
# +-15% over minutes, so these are rounded medians). A run does
# round(--seconds / PASS_SECONDS) whole passes, so the job count depends only
# on --seconds and a parent and a change measure exactly the same jobs.
PASS_SECONDS = {"solver": 11.5, "operators": 6.5, "cli": 8.5}
JOB_TIMEOUT_S = 120


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def load_digests(path=DIGESTS_PATH):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def canonical_json(doc):
    """The CLI's canonical form: sorted keys, two-space indent, newline at EOF."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cochain_bytes(c):
    names = default_names(c.A.nvars)
    return json.dumps(cochain_to_dict(c, names), sort_keys=True).encode()


class Job:
    """One closed-loop request: ``run`` is timed, ``check`` is the gate.

    ``check(result)`` returns (ok, canonical bytes, reason); the bytes are
    hashed and compared with the recorded digest under ``key``.
    """

    __slots__ = ("key", "run", "check", "run_inproc")

    def __init__(self, key, run, check, run_inproc=None):
        self.key = key
        self.run = run
        self.check = check
        self.run_inproc = run_inproc


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# -- solver --------------------------------------------------------------------


def solver_kinds(F, bound):
    """The job kinds of one (fixture, bound) cell of the solver grid.

    F2's coboundary and kernel jobs stop at bound 4: at bounds 5 and 6 they
    take 1.2-3 s each, which would double a pass and leave one pass per run,
    so the tail would rest on single measurements of unlike jobs.
    """
    if F == "F2_semisimple_2d" and bound > 4:
        return ("obstruction", "curvature")
    return ("obstruction", "curvature", "coboundary", "kernel")


def solver_plan(seed, passes, bounds=BOUNDS):
    rng = random.Random(f"solver:{seed}")
    plan = []
    for _ in range(passes):
        specs = []
        for F in SOLVER_FIXTURES:
            for b in bounds:
                for kind in solver_kinds(F, b):
                    specs.append((kind, F, rng.randrange(SEEDS), b) if kind == "coboundary"
                                 else (kind, F, b))
        plan.append(_shuffled(rng, specs))
    return plan


def solver_key(spec):
    return "solver/" + "/".join(map(str, spec))


def _coboundary_degree(bound):
    # b has coefficient degree <= min(2, bound), so delta(b) is feasible at bound
    return min(2, bound)


def solver_setup(plan):
    fix, targets = {}, {}
    for F in SOLVER_FIXTURES:
        f = fixtures.build_fixture(F)
        ideal = f.ideal
        adj = ideal.adjoint_rep()
        fix[F] = (f, adj)
        trivial = LinearConnection.trivial(f.A.nvars, ideal.m)
        targets[("obstruction", F)] = ideals.obstruction_cocycle(
            f.A, ideal, ideals.frame_splitting(ideal), trivial)
        targets[("curvature", F)] = ideals.curvature(f.imc)
    for spec in {s for p in plan for s in p if s[0] == "coboundary"}:
        _, F, s, b = spec
        d = _coboundary_degree(b)
        if ("coboundary", F, s, d) not in targets:
            f, adj = fix[F]
            cb = fixtures.random_cochain(f.A, adj, 1, 1, d, seed=s)
            targets[("coboundary", F, s, d)] = weil.delta(f.A, adj, cb)

    def make(spec):
        kind, F = spec[0], spec[1]
        f, adj = fix[F]
        A, ideal, b = f.A, f.ideal, spec[-1]
        if kind == "kernel":
            def run():
                return weil.bounded_kernel(A, adj, 1, 1, b, horizontal_ideal=ideal)

            def check(basis):
                ok = all(weil.delta(A, adj, v).is_zero for v in basis)
                data = b"[" + b",".join(cochain_bytes(v) for v in basis) + b"]"
                return ok, data, "" if ok else "kernel vector is not delta-closed"
            return Job(solver_key(spec), run, check)

        if kind == "coboundary":
            target = targets[("coboundary", F, spec[2], _coboundary_degree(b))]
        else:
            target = targets[(kind, F)]
        horizontal = ideal if kind == "obstruction" else None

        def run():
            return weil.solve_coboundary(A, adj, target, b, horizontal_ideal=horizontal)

        def check(sol):
            if sol is None:
                # a bound-relative infeasible verdict; impossible for delta(b)
                ok = kind != "coboundary"
                return ok, b"null", "" if ok else "feasible target came back None"
            ok = weil.delta(A, adj, sol) == target
            return ok, cochain_bytes(sol), "" if ok else "delta(b) != target"
        return Job(solver_key(spec), run, check)

    passes = [[make(spec) for spec in p] for p in plan]
    # warm-up: one small solve per fixture fills the per-algebroid caches
    for F in SOLVER_FIXTURES:
        make(("obstruction", F, 1)).run()
    return passes


# -- operators -----------------------------------------------------------------


def operators_plan(seed, passes, bidegrees=BIDEGREES):
    """Each pass runs every suite on every cochain of the seeded input space,
    in an order drawn from the seed.

    The cost of a suite depends on its cochain (an F2 (3,2) suite takes
    575-785 ms across the four), so drawing one cochain per suite would make
    the median and the tail depend on the draw, not on the code.
    """
    rng = random.Random(f"operators:{seed}")
    plan = []
    for _ in range(passes):
        specs = [("curvature", F) for F in SOLVER_FIXTURES]
        for F in SOLVER_FIXTURES:
            for p, q in bidegrees:
                specs += [("suite", F, p, q, s) for s in range(SEEDS)]
        plan.append(_shuffled(rng, specs))
    return plan


def operators_key(spec):
    if spec[0] == "curvature":
        return f"operators/curvature/{spec[1]}"
    _, F, p, q, s = spec
    return f"operators/suite/{F}/{p},{q}/{s}"


def operators_setup(plan):
    fix = {}
    for F in SOLVER_FIXTURES:
        f = fixtures.build_fixture(F)
        fix[F] = (f, f.rep, f.conn)
    cochains = {}
    for spec in {s for p in plan for s in p if s[0] == "suite"}:
        _, F, p, q, s = spec
        f, rep, _ = fix[F]
        cochains[spec] = fixtures.random_cochain(f.A, rep, p, q, OPERATOR_DEGREE, seed=s)

    def make(spec):
        f, rep, conn = fix[spec[1]]
        imc, ideal = f.imc, f.ideal
        if spec[0] == "curvature":
            def run():
                return ideals.curvature(imc), ideals.bianchi_check(imc)

            def check(result):
                om, bianchi = result
                ok = bianchi and weil.is_horizontal(om, ideal)
                return ok, cochain_bytes(om), "" if ok else "Bianchi or horizontality failed"
            return Job(operators_key(spec), run, check)

        c = cochains[spec]

        def run():
            d = weil.delta(f.A, rep, c)
            dd = weil.delta(f.A, rep, d)
            return d, dd, weil.dnabla_cochain(conn, c), ideals.hstar(imc, c), ideals.Dhor(imc, c)

        def check(result):
            d, dd, dn, h, D = result
            if not dd.is_zero:
                return False, b"", "delta(delta(c)) != 0"
            if not weil.is_horizontal(h, ideal):
                return False, b"", "hstar output is not horizontal"
            return True, b"\n".join(cochain_bytes(x) for x in (d, dn, h, D)), ""
        return Job(operators_key(spec), run, check)

    passes = [[make(spec) for spec in p] for p in plan]
    for F in SOLVER_FIXTURES:  # warm-up: fills the fixtures' cached reps and sections
        make(("curvature", F)).run()
    return passes


# -- cli -----------------------------------------------------------------------

_DELETE = object()


def _walk(doc, path=()):
    """(path, value) of every node below the root, in canonical order."""
    items = sorted(doc.items()) if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        yield path + (k,), v
        if isinstance(v, (dict, list)):
            yield from _walk(v, path + (k,))


def _replacements(value):
    if isinstance(value, str):
        out = {"zero_division": "1/0", "unknown_symbol": "y9", "wrong_type": 7}
    elif isinstance(value, int):
        out = {"negative": -1, "wrong_type": "1"}
    elif isinstance(value, dict):
        out = {"wrong_type": []}
    else:
        out = {"wrong_type": {}}
    out["deleted"] = _DELETE
    return out


def mutations(F, doc):
    """Every single-field mutation of a spec document: key -> (path, new value)."""
    out = {}
    for path, value in _walk(doc):
        for kind, new in _replacements(value).items():
            key = "cli/mutation/" + F + "/" + "/".join(map(str, path)) + "/" + kind
            out[key] = (path, new)
    return out


def apply_mutation(doc, path, new):
    mutated = copy.deepcopy(doc)
    node = mutated
    for k in path[:-1]:
        node = node[k]
    if new is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = new
    return mutated


def mutation_pool(digests):
    """Recorded mutation keys that neither crash nor dominate a run."""
    return sorted(k for k in digests["digests"] if k.startswith("cli/mutation/"))


def cli_plan(seed, digests, passes, commands=tuple(CLI_COMMANDS),
             mutations_per_pass=MUTATIONS_PER_PASS):
    rng = random.Random(f"cli:{seed}")
    pool = mutation_pool(digests)
    plan = []
    for _ in range(passes):
        specs = []
        for F in CLI_FIXTURES:
            s = rng.randrange(SEEDS)
            specs += [("spec", F, s, cmd) for cmd in commands]
            specs.append(("emit", F, rng.randrange(SEEDS)))
        specs += [("mutation", k) for k in rng.sample(pool, mutations_per_pass)]
        plan.append(_shuffled(rng, specs))
    return plan


def cli_key(spec):
    if spec[0] == "spec":
        _, F, s, cmd = spec
        return f"cli/{F}/{s}/{cmd}" if cmd in CLI_COCHAIN_COMMANDS else f"cli/{F}/{cmd}"
    if spec[0] == "emit":
        return f"cli/{spec[1]}/{spec[2]}/emit"
    return spec[1]


def emit_argv(F, s, path):
    return ["fixture", "--name", F, "--with-cochain", "1,1", "--seed", str(s),
            "--emit", str(path)]


def cli_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli_subprocess(argv):
    """One job as a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "weilcalc.cli", *argv],
                          capture_output=True, text=True, env=cli_env(),
                          timeout=JOB_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inproc(argv):
    """The same job through ``cli.main`` in this process, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def contract_check(code, stdout, stderr):
    """The CLI contract: (ok, parsed report, reason)."""
    if code not in (0, 1, 2):
        return False, None, f"exit code {code}"
    if "Traceback" in stderr:
        return False, None, "traceback on stderr"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False, None, "stdout is not JSON"
    if canonical_json(doc) != stdout:
        return False, None, "stdout is not canonical JSON"
    if "status" not in doc:
        return False, None, "report has no status"
    if code == 2 and "path" not in doc.get("error", {}):
        return False, None, "exit 2 without error.path"
    return True, doc, ""


def cli_setup(plan, workdir, probe_crashes=()):
    """Write every spec file the plan reads; returns the passes of jobs."""
    workdir = Path(workdir)
    specs_needed = {(s[1], s[2]) for p in plan for s in p if s[0] == "spec"}
    mutation_keys = {s[1] for p in plan for s in p if s[0] == "mutation"}
    mutation_keys.update(probe_crashes)
    specs_needed.update((F, 0) for F in {k.split("/")[2] for k in mutation_keys})
    paths = {}
    for F, s in sorted(specs_needed):
        paths[(F, s)] = workdir / f"{F}.{s}.json"
        code, _, _ = run_cli_inproc(emit_argv(F, s, paths[(F, s)]))
        if code != 0:
            raise RuntimeError(f"could not emit the {F} spec")
    mutated = {}
    for F in sorted({k.split("/")[2] for k in mutation_keys}):
        base = json.loads(paths[(F, 0)].read_text(encoding="utf-8"))
        for key, (path, new) in mutations(F, base).items():
            if key in mutation_keys:
                mutated[key] = workdir / f"m{len(mutated)}.json"
                mutated[key].write_text(json.dumps(apply_mutation(base, path, new)),
                                        encoding="utf-8")

    def make(spec):
        key = cli_key(spec)
        if spec[0] == "emit":
            out = workdir / f"emit.{spec[1]}.{spec[2]}.json"
            argv = emit_argv(spec[1], spec[2], out)

            def check(result):
                code, stdout, stderr = result
                if code != 0 or stdout or "Traceback" in stderr:
                    return False, b"", f"fixture --emit failed with exit {code}"
                data = out.read_bytes()
                ok = canonical_json(json.loads(data)).encode() == data
                return ok, data, "" if ok else "emitted spec is not canonical"
        else:
            if spec[0] == "spec":
                _, F, s, cmd = spec
                argv = [cmd, str(paths[(F, s)]), *CLI_COMMANDS[cmd]]
            else:
                argv = ["validate", str(mutated[spec[1]])]

            def check(result):
                ok, doc, reason = contract_check(*result)
                if not ok:
                    return False, b"", reason
                if spec[0] == "mutation":
                    # the contract part of the report; reasons are free text
                    triple = [result[0], doc["status"], doc.get("error", {}).get("path")]
                    return True, json.dumps(triple).encode(), ""
                return True, result[1].encode(), ""

        return Job(key, lambda: run_cli_subprocess(argv), check,
                   lambda: run_cli_inproc(argv))

    passes = [[make(spec) for spec in p] for p in plan]
    probes = [make(("mutation", k)) for k in sorted(probe_crashes)]
    # warm-up: the first interpreter start compiles the package's bytecode
    passes[0][0].run()
    return passes, probes


# -- gate ----------------------------------------------------------------------


def gate(job, result, digests):
    """(ok, digest, reason) for one job's output."""
    try:
        ok, data, reason = job.check(result)
    except Exception as exc:  # a broken output must count as a failure, not abort
        return False, None, f"gate raised {type(exc).__name__}: {exc}"
    if not ok:
        return False, None, reason
    got = digest(data)
    want = digests["digests"].get(job.key)
    if want is None:
        return False, got, "no recorded digest"
    if got != want:
        return False, got, f"digest {got} != recorded {want}"
    return True, got, ""
