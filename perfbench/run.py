"""weilcalc benchmark: one closed-loop client, one process, seeded job lists.

    python3 perfbench/run.py --workload solver|operators|cli --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the timed phase runs round(S / pass seconds) whole passes
of the seeded job list (about S seconds on the reference machine), gates every
job outside its timed span, and reports the end-to-end metrics. With
``--trace 1`` it runs the first pass untraced and then traced (see
``tracing.py``), checks that both give byte-identical outputs, and reports the
per-layer metrics. The last line of stdout is the JSON result; the lines
before it are the readable report.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("solver", "operators", "cli")
SETUP_REPEATS = 7
WORKDIR = ROOT / ".perfbench_work"  # spec files of the cli workload, removed after a run
_clock = time.perf_counter


def _import_package():
    """Import weilcalc from this checkout's ``src`` only; None if it is absent."""
    if not (SRC / "weilcalc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import weilcalc
    if Path(weilcalc.__file__).resolve().parent != SRC / "weilcalc":
        return None
    return weilcalc


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _commit():
    """HEAD of the git repository rooted at this checkout, or None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "weilcalc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(weilcalc, args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "executable": sys.executable, "commit": _commit(),
        "source_sha256": _source_sha256(), "nproc": os.cpu_count(),
        "backend": getattr(weilcalc, "BACKEND_NAME", None),
    }


def tail(latencies):
    """(value, percentile, jobs beyond): the highest whole percentile that
    leaves at least ten jobs above it, nearest-rank."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100, 0
    pct = 100 * (n - 10) // n
    idx = -(-pct * n // 100) - 1  # ceil(pct * n / 100) - 1
    return xs[idx], pct, n - 1 - idx


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


# -- workloads -------------------------------------------------------------------


class Workload:
    """Binds a workload's plan and set-up; ``small`` shrinks the job list."""

    def __init__(self, name, seed, seconds, digests, workdir, small=False):
        from perfbench import workloads as W
        self.W, self.name, self.workdir = W, name, Path(workdir)
        self.probes = []
        passes = max(1, round(seconds / W.PASS_SECONDS[name]))
        if name == "solver":
            self.plan = W.solver_plan(seed, passes, bounds=(1, 2) if small else W.BOUNDS)
        elif name == "operators":
            self.plan = W.operators_plan(seed, passes, bidegrees=W.BIDEGREES[:2] if small
                                         else W.BIDEGREES)
        else:
            self.plan = W.cli_plan(seed, digests, passes,
                                   commands=("validate", "delta") if small
                                   else tuple(W.CLI_COMMANDS),
                                   mutations_per_pass=2 if small else W.MUTATIONS_PER_PASS)
            # one recorded crash of each exception type, re-run outside the timed phase
            by_type = {}
            for key, exc in sorted(digests["crash"].items()):
                by_type.setdefault(exc, key)
            self.crash_probe_keys = sorted(by_type.values())

    def setup(self):
        if self.name == "solver":
            return self.W.solver_setup(self.plan)
        if self.name == "operators":
            return self.W.operators_setup(self.plan)
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        passes, self.probes = self.W.cli_setup(self.plan, self.workdir,
                                               self.crash_probe_keys)
        return passes


def timed_setup(workload, repeats):
    times, passes = [], None
    for _ in range(repeats):
        passes = None  # let the previous set-up's objects go first
        t0 = _clock()
        passes = workload.setup()
        times.append(_clock() - t0)
    return passes, times


def run_timed(passes, digests):
    """Closed loop over the passes: each job starts when the last one is checked."""
    from perfbench.workloads import gate
    latencies, failures = [], []
    for job in (job for jobs in passes for job in jobs):
        t0 = _clock()
        try:
            result = job.run()
        except Exception as exc:  # count it, keep the loop going
            latencies.append(_clock() - t0)
            failures.append((job.key, f"{type(exc).__name__}: {exc}"))
            continue
        latencies.append(_clock() - t0)
        ok, _, reason = gate(job, result, digests)
        if not ok:
            failures.append((job.key, reason))
    return latencies, failures


def end_to_end(args, digests, small=False):
    work = Workload(args.workload, args.seed, args.seconds, digests, WORKDIR, small)
    try:
        passes, setup_times = timed_setup(work, 1 if small else SETUP_REPEATS)
        latencies, failures = run_timed(passes, digests)
        probe_lines = _crash_probe(work, digests)
    finally:
        shutil.rmtree(work.workdir, ignore_errors=True)
    n = len(latencies)
    total = sum(latencies)
    tail_s, pct, beyond = tail(latencies)
    rss_self = _peak_rss_mb(resource.RUSAGE_SELF)
    rss_child = _peak_rss_mb(resource.RUSAGE_CHILDREN) if work.name == "cli" else 0.0
    metrics = {
        "jobs_per_s": _metric(n / total, "1/s"),
        "job_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": _metric(tail_s * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(max(rss_self, rss_child), "MB"),
    }
    lines = [
        f"jobs_per_s   {n / total:.4f} 1/s   ({n} jobs in {len(passes)} whole passes, "
        f"{total:.3f} s of job time)",
        f"job_p50_ms   {statistics.median(latencies) * 1e3:.3f} ms   (n={n})",
        f"job_tail_ms  {tail_s * 1e3:.3f} ms   (p{pct}, n={n}, {beyond} jobs beyond)",
        f"setup_s      {statistics.median(setup_times):.4f} s   (median of "
        f"{len(setup_times)} set-ups: {', '.join(f'{t:.4f}' for t in setup_times)})",
        f"fail_ratio   {len(failures) / n:.4f}   ({len(failures)} failed of {n} attempted)",
        f"peak_rss_mb  {max(rss_self, rss_child):.1f} MB   (benchmark process "
        f"{rss_self:.1f}" + (f", largest child {rss_child:.1f})" if rss_child else ")"),
    ]
    lines += [f"FAILED {key}: {reason}" for key, reason in failures[:20]]
    lines += probe_lines
    return n, len(failures), metrics, lines


def _crash_probe(work, digests):
    """Re-run one recorded crash per exception type; these spec inputs break the
    CLI contract today and are kept out of the timed sample."""
    if work.name != "cli":
        return []
    from perfbench.workloads import contract_check
    still = 0
    for job in work.probes:
        ok, _, _ = contract_check(*job.run())
        still += not ok
    n_crash, n_heavy = len(digests["crash"]), len(digests["heavy"])
    n_space = len(work.W.mutation_pool(digests)) + n_crash + n_heavy
    return [
        f"cli_contract known-crash mutations {n_crash} of {n_space} in the mutation space "
        f"(ratio {n_crash / n_space:.4f}); excluded from the timed sample",
        f"cli_contract crash probe: {still} of {len(work.probes)} (one per exception type: "
        f"{', '.join(sorted(set(digests['crash'].values())))}) still break the contract",
        f"cli_contract heavy mutations left out: {n_heavy} "
        f"({', '.join(sorted(digests['heavy'])) or 'none'})",
    ]


# -- traced run --------------------------------------------------------------------


# Per-layer metrics in the result JSON: every workload calls these layers, so
# each value is a real measurement on every workload. The others are printed.
PER_LAYER = {
    "polyring.init.calls": "count", "polyring.mul.calls": "count",
    "polyring.add.calls": "count", "polyring.mul_ms": "ms",
    "polyring.terms_per_mul": "count",
    "algebroid.vform_init.calls": "count", "algebroid.bracket.calls": "count",
    "algebroid.bracket_ms": "ms",
    "connections.lieA_derivative.calls": "count", "connections.lieA_derivative_ms": "ms",
    "weil.delta.calls": "count", "weil.delta_ms": "ms",
    "weil.solve.cells": "count", "weil.solve.zero_column_ratio": "ratio",
    "_linsolve.rows": "count", "_linsolve.nonzeros": "count",
    "ideals.hstar.calls": "count",
    "specfile.bytes_in": "bytes", "specfile.bytes_out": "bytes",
    "cli.interp_ms": "ms", "cli.import_ms": "ms",
    "fixtures.build_ms": "ms", "trace.overhead_ratio": "ratio",
}
# Times of layers some workload never calls: printed, not in the result JSON.
REPORT_ONLY = {
    "weil.dnabla_ms": "ms", "weil.solve_ms": "ms",
    "weil.solve.self_ms": "ms", "_linsolve.eliminate_ms": "ms",
    "ideals.hstar_ms": "ms", "ideals.Dhor_ms": "ms", "specfile.load_ms": "ms",
    "specfile.dump_ms": "ms", "cli.dispatch_ms": "ms",
}


def _run_sample(jobs, inproc, tracer, trace_on, digests):
    from perfbench.workloads import gate
    wall, digests_out, failures = 0.0, [], []
    for job in jobs:
        run = job.run_inproc if inproc else job.run
        tracer.on = trace_on
        t0 = _clock()
        try:
            result = run()
        except Exception as exc:  # count it, keep the sample going
            tracer.on = False
            digests_out.append(None)
            failures.append((job.key, f"{type(exc).__name__}: {exc}"))
            continue
        wall += _clock() - t0
        tracer.on = False
        ok, got, reason = gate(job, result, digests)
        digests_out.append(got)
        if not ok:
            failures.append((job.key, reason))
    return wall, digests_out, failures


def _startup_ms(code, repeats=5):
    from perfbench.workloads import cli_env
    times = []
    for _ in range(repeats):
        t0 = _clock()
        subprocess.run([sys.executable, "-c", code], check=True, env=cli_env(),
                       capture_output=True, timeout=60)
        times.append((_clock() - t0) * 1e3)
    return statistics.median(times)


def _layer_values(tracer):
    c = tracer.counts
    muls = tracer.calls("polyring.mul")
    columns = c["_linsolve.columns"]
    return {
        "polyring.init.calls": c["polyring.init"],
        "polyring.mul.calls": muls,
        "polyring.add.calls": c["polyring.add"],
        "polyring.mul_ms": tracer.inclusive_ms("polyring.mul"),
        "polyring.terms_per_mul": c["polyring.term_products"] / muls if muls else 0.0,
        "algebroid.vform_init.calls": c["algebroid.vform_init"],
        "algebroid.bracket.calls": tracer.calls("algebroid.bracket"),
        "algebroid.bracket_ms": tracer.inclusive_ms("algebroid.bracket"),
        "connections.lieA_derivative.calls": tracer.calls("connections.lieA_derivative"),
        "connections.lieA_derivative_ms": tracer.inclusive_ms("connections.lieA_derivative"),
        "weil.delta.calls": tracer.calls("weil.delta"),
        "weil.delta_ms": tracer.inclusive_ms("weil.delta"),
        "weil.dnabla_ms": tracer.inclusive_ms("weil.dnabla"),
        "weil.solve_ms": tracer.inclusive_ms("weil.solve"),
        "weil.solve.self_ms": tracer.self_ms_excluding("weil.solve", "_linsolve.solve"),
        "weil.solve.cells": c["weil.solve.cells"],
        "weil.solve.zero_column_ratio": c["_linsolve.zero_columns"] / columns
        if columns else 0.0,
        "_linsolve.eliminate_ms": tracer.inclusive_ms("_linsolve.eliminate"),
        "_linsolve.rows": c["_linsolve.rows"],
        "_linsolve.nonzeros": c["_linsolve.nonzeros"],
        "ideals.hstar.calls": tracer.calls("ideals.hstar"),
        "ideals.hstar_ms": tracer.inclusive_ms("ideals.hstar"),
        "ideals.Dhor_ms": tracer.inclusive_ms("ideals.Dhor"),
        "specfile.load_ms": tracer.inclusive_ms("specfile.load"),
        "specfile.dump_ms": tracer.inclusive_ms("specfile.dump"),
        "specfile.bytes_in": c["specfile.bytes_in"],
        "specfile.bytes_out": c["specfile.bytes_out"],
        "cli.dispatch_ms": tracer.inclusive_ms("cli.dispatch"),
    }


def traced(args, digests, small=False):
    """Runs the first pass untraced, traced, traced, untraced (so drift and
    first-use costs cancel in the overhead ratio); the layer metrics come from
    the spans of the first traced round."""
    from perfbench.tracing import Tracer
    work = Workload(args.workload, args.seed, args.seconds, digests, WORKDIR, small)
    tracer = Tracer()
    rounds = []
    try:
        tracer.install()
        tracer.on = True
        passes = work.setup()
        tracer.uninstall()  # untraced rounds run the original functions
        build_ms = tracer.inclusive_ms("fixtures.build")
        sample = passes[0]
        if work.name == "solver":  # four rounds of a whole solver pass take over a minute
            sample = [job for job in sample if job.key.endswith(("/1", "/3", "/5"))]
        inproc = work.name == "cli"
        for traced_round in (False, True, True, False):
            if traced_round:
                tracer.reset()
                tracer.install()
            rounds.append((traced_round,
                           _run_sample(sample, inproc, tracer, traced_round, digests)))
            if traced_round and len(rounds) == 2:
                values = _layer_values(tracer)
                spans = len(tracer.span_name)
            tracer.uninstall()
    finally:
        tracer.uninstall()
        shutil.rmtree(work.workdir, ignore_errors=True)
    wall_u = sum(r[0] for t, r in rounds if not t)
    wall_t = sum(r[0] for t, r in rounds if t)
    interp = _startup_ms("pass")
    values.update({
        "cli.interp_ms": interp,
        "cli.import_ms": _startup_ms("import weilcalc.cli") - interp,
        "fixtures.build_ms": build_ms,
        "trace.overhead_ratio": wall_t / wall_u,
    })
    failures = [f for _, r in rounds for f in r[2]]
    identical = all(r[1] == rounds[0][1][1] for _, r in rounds)
    if not identical:
        failures.append(("trace", "traced and untraced outputs differ"))
    lines = [
        f"traced sample: {len(sample)} jobs of the first pass "
        f"({'in-process cli.main' if inproc else 'library'}); rounds untraced, traced, "
        f"traced, untraced: {', '.join(f'{r[0]:.3f}' for _, r in rounds)} s; "
        f"{spans} spans in the first traced round",
        f"traced and untraced outputs byte-identical: {identical}",
    ]
    for name in sorted(values):
        unit = PER_LAYER.get(name) or REPORT_ONLY[name]
        tag = "" if name in PER_LAYER else "   (printed only: some workload never calls it)"
        value = values[name] if isinstance(values[name], int) else f"{values[name]:.6g}"
        lines.append(f"{name:38s} {value} {unit}{tag}")
    lines += [f"FAILED {key}: {reason}" for key, reason in failures[:20]]
    metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}
    return len(sample), len({key for key, _ in failures}), metrics, lines


# -- entry point ----------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args, digests=None, small=False):
    """(result dict, report lines); ``small`` is the minimal run the smoke test uses."""
    from perfbench.workloads import load_digests
    digests = digests or load_digests()
    measure = traced if args.trace else end_to_end
    attempted, failed, metrics, lines = measure(args, digests, small)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    weilcalc = _import_package()
    if weilcalc is None:
        print(f"error: no weilcalc sources under {SRC}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata(weilcalc, args), sort_keys=True), flush=True)
    result, lines = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
