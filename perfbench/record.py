"""Record the digests of every job output the benchmark can produce.

    python3 perfbench/record.py

Runs each job in the seeded input spaces once, in process, gates it, and
writes ``perfbench/digests.json``. Spec mutations that crash the CLI (an
exception instead of a report) are listed under ``crash`` and ones that run
longer than ``HEAVY_S`` under ``heavy``; the timed runs leave both out. Re-run
only when an output is meant to change, and say why in the change.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads as W  # noqa: E402

HEAVY_S = 2.0


def solver_specs():
    out = []
    for F in W.SOLVER_FIXTURES:
        for b in W.BOUNDS:
            for kind in W.solver_kinds(F, b):
                out += [(kind, F, s, b) for s in range(W.SEEDS)] if kind == "coboundary" \
                    else [(kind, F, b)]
    return out


def operators_specs():
    out = [("curvature", F) for F in W.SOLVER_FIXTURES]
    for F in W.SOLVER_FIXTURES:
        for p, q in W.BIDEGREES:
            out += [("suite", F, p, q, s) for s in range(W.SEEDS)]
    return out


def cli_specs(workdir):
    out = []
    for F in W.CLI_FIXTURES:
        for s in range(W.SEEDS):
            out += [("spec", F, s, cmd) for cmd in W.CLI_COMMANDS]
            out.append(("emit", F, s))
        base = workdir / f"base.{F}.json"
        W.run_cli_inproc(W.emit_argv(F, 0, base))
        doc = json.loads(base.read_text(encoding="utf-8"))
        out += [("mutation", key) for key in W.mutations(F, doc)]
    return out


def record_library(passes, table):
    for job in passes[0]:
        ok, data, reason = job.check(job.run())
        if not ok:
            raise SystemExit(f"{job.key}: {reason}")
        table[job.key] = W.digest(data)
        print(job.key, table[job.key], flush=True)


def record_cli(passes, out):
    for job in passes[0]:
        is_mutation = job.key.startswith("cli/mutation/")
        t0 = time.perf_counter()
        try:
            result = job.run_inproc()
        except Exception as exc:
            if not is_mutation:
                raise
            out["crash"][job.key] = type(exc).__name__
            continue
        elapsed = time.perf_counter() - t0
        ok, data, reason = job.check(result)
        if not ok:
            if not is_mutation:
                raise SystemExit(f"{job.key}: {reason}")
            out["crash"][job.key] = reason
        elif is_mutation and elapsed > HEAVY_S:
            out["heavy"][job.key] = round(elapsed, 1)
        else:
            out["digests"][job.key] = W.digest(data)
        print(job.key, out["digests"].get(job.key, "excluded"), flush=True)


def main():
    out = {"seeds": W.SEEDS, "digests": {}, "crash": {}, "heavy": {}}
    record_library(W.solver_setup([solver_specs()]), out["digests"])
    record_library(W.operators_setup([operators_specs()]), out["digests"])
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        plan = [cli_specs(tmp)]
        passes, _ = W.cli_setup(plan, tmp)
        record_cli(passes, out)
    with open(W.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(out['digests'])} digests, {len(out['crash'])} crashing and "
          f"{len(out['heavy'])} heavy mutations", file=sys.stderr)


if __name__ == "__main__":
    main()
