"""One workload process: imports kampe, builds the seeded ops, warms up,
then runs the closed loop, with the speed probe of speed.py, and writes every
op's output and time to a JSON file.

Protocol with run.py: the worker prints "ready" once set up, with the time
the speed probe took during the set-up and its samples, then reads one line
from stdin; "go" starts the timed loop, anything else ends the process.
The library is imported from PYTHONPATH, which run.py points at `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import warnings

import speed
import workloads as W



def _eval_setup(kampe, ops):
    named = kampe.named
    shapes = {
        "F0211": named.shape_f0211(named.ParamsF0211(**W.NAMED["F0211"])),
        "F1211": named.shape_f1211(named.ParamsF1211(**W.NAMED["F1211"])),
        "XI2": named.shape_xi2(named.ParamsXi2(**W.NAMED["XI2"])),
        "F4": kampe.KdFShape(**W.EVAL_SHAPES["F4"]),
    }

    def run(op):
        res = kampe.kdf_eval(shapes[op[0]], (op[1], op[2]))
        return [res.value, res.status.value, res.diagonals_used, res.tail_estimate]

    return run, lambda op: (op[0], op[3])


def _cauchy_setup(kampe, ops):
    problems = [kampe.CauchyProblem(alpha=p["alpha"], beta=p["beta"], lam=p["lambda"],
                                    tau_data=p["tau"], nu_data=p["nu"])
                for p in W.CAUCHY_PROBLEMS]

    def run(op):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", kampe.ConvergenceWarning)
            value = kampe.solve_point(problems[op[0]], (op[1], op[2]), op[3])
        return [value, any(issubclass(w.category, kampe.ConvergenceWarning) for w in caught)]

    return run, lambda op: op[3]


def _residual_setup(kampe, ops):
    cases = []
    for family, params in W.RESIDUAL_SETS:
        if family == "F1211":
            p = kampe.ParamsF1211(**params)
            cases.append((kampe.expanded_system_f1211(p), kampe.solution_pair_f1211(p)))
        else:
            p = kampe.ParamsF0211(**params)
            cases.append((kampe.expanded_system_f0211(p), kampe.solution_pair_f0211(p)))

    def run(op):
        system, pair = cases[op[0]]
        sol = pair[0 if op[1] == "u1" else 1]
        res = kampe.residual(system, kampe.solution_evaluator(sol), (op[2], op[3]))
        return [[r.value, r.scale] for r in res]

    return run, lambda op: (op[0], op[1])


def _cli_setup(kampe):
    """In-process CLI jobs: each op feeds its job document to `kampe.cli.main`
    on stdin, as the CLI reads it."""
    import kampe.cli

    def run(op):
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(op[1]))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = kampe.cli.main([])
        finally:
            sys.stdin = stdin
        return [code, out.getvalue(), err.getvalue()]

    return run


def _loop(run, ops, seconds, records, probe, tracer=None):
    """Closed loop of whole passes over the op list.  A pass starts only if
    the previous one says it ends within `seconds`; at least one runs.  Each
    record is [op index, seconds less probing, output, probes before the op,
    probes by its end]."""
    n = len(ops)
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for i, op in enumerate(ops):
            first, spent = len(probe.samples), probe.spent
            t0 = time.perf_counter()
            try:
                out = run(op) if tracer is None else tracer.run_op(lambda: run(op))
            except Exception as exc:  # an op failure is recorded and counted, not fatal
                out = ["error", type(exc).__name__, str(exc)]
            t1 = time.perf_counter()
            records.append([i, t1 - t0 - (probe.spent - spent), out,
                            first, len(probe.samples)])
        now = time.perf_counter()
        if now - start + (now - p0) > seconds:
            return


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    setup_probe = speed.Probe()  # probes the set-up too, for run.py's setup_s
    setup_probe.start()
    t0 = time.perf_counter()
    import kampe
    import_s = time.perf_counter() - t0 - setup_probe.spent

    ops = W.make_ops(args.workload, args.seed)
    rule_cold_s = 0.0
    if args.trace and args.workload in ("cauchy-grid", "cli-jobs"):
        t0 = time.perf_counter()
        kampe.jacobi_rule(64, -0.2, -0.2, 0.3, 0.6)  # first call in this process
        rule_cold_s = time.perf_counter() - t0
    if args.workload == "cli-jobs":
        run = _cli_setup(kampe)  # cold, as each CLI process is
    else:
        run, kind = {"eval-grid": _eval_setup, "cauchy-grid": _cauchy_setup,
                     "residual-grid": _residual_setup}[args.workload](kampe, ops)
        seen = set()
        for op in ops:  # one untimed warm-up op of each kind
            if kind(op) not in seen:
                seen.add(kind(op))
                run(op)

    setup_probe.stop()
    print("ready", json.dumps([setup_probe.spent, setup_probe.samples]), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    probe = speed.Probe()
    doc = {"records": [], "probe": probe.samples, "import_s": import_s,
           "rule_cold_s": rule_cold_s}
    if not args.trace:
        probe.start()
        try:
            _loop(run, ops, args.seconds, doc["records"], probe)
        finally:
            probe.stop()
    else:
        import kampe.cli  # noqa: F401  (loaded now, not inside a timed pass)
        import tracing
        # whole passes, alternately untraced (and probed) and traced, so
        # drift in machine speed hits both sides of the overhead alike
        tracer = tracing.Tracer()
        doc["traced_records"] = []
        start = time.perf_counter()
        while True:
            probe.start()
            try:
                _loop(run, ops, 0.0, doc["records"], probe)
            finally:
                probe.stop()
            tracer.install()
            try:
                _loop(run, ops, 0.0, doc["traced_records"], probe, tracer)
            finally:
                tracer.uninstall()
            if time.perf_counter() - start >= args.seconds:
                break
        doc["layers"], doc["trace_checks"] = tracing.layer_metrics(
            tracer, list(kampe.checks.ALL_CHECKS))
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
