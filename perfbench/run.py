"""kampe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload eval-grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
`--trace 0` times the workload untraced and reports the end-to-end metrics;
`--trace 1` reports the per-layer metrics from a traced run, plus the
tracing overhead.  Every op's output is checked against an independent
reference.  The full report goes to stdout and to
`perfbench/out/results/<workload>-seed<seed>-trace<t>.json`; the last line of
stdout is one JSON object with the metrics that BENCHMARK.json names.  The
exit code is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import references  # noqa: E402  (after the thread pins, which children inherit)
import speed  # noqa: E402
import workloads as W  # noqa: E402

SETUPS = 7  # fresh processes per run; setup_s is their median

# Output-check tolerances, taken from the repository's own tests:
#   series values   rel 1e-12 (tests/test_named.py), scaled by the condition
#                   sum|terms|/|sum| so the check accepts what double
#                   precision summation can lose and nothing more;
#   Cauchy values   rel 1e-10 (mixed-data test in tests/test_cauchy.py);
#   PDE residuals   |residual| <= 1e-8 * scale (tests/test_frobenius.py).
# A silent error is an op that claims success (converged/terminating status,
# no ConvergenceWarning, no exception) while its true error exceeds what it
# claims; the thresholds are the strictest matching test tolerances.
TOL = {"eval": 1e-12, "cauchy": 1e-10, "residual": 1e-8}
SILENT = {"eval": 1e-12, "cauchy": 1e-11, "residual": 1e-12}
CAUCHY_FLOOR = 0.1  # relative errors of Cauchy values use max(|ref|, 0.1)
OK_STATUS = ("converged", "terminating")

# The twelve end-to-end metrics, then the op times as measured, before the
# scaling of speed.py.
E2E_UNITS = {"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "max_rel_err": "ratio", "silent_error_share": "share",
             "failed_share": "share", "peak_rss_mb": "MB", "cli_eval_s": "s",
             "cli_residual_s": "s", "cli_cauchy_s": "s", "cli_check_s": "s",
             "wall_setup_s": "s", "wall_throughput_ops_s": "1/s",
             "wall_latency_p50_ms": "ms", "wall_latency_p90_ms": "ms"}
POLICY = ("warm: the workload process imports kampe, builds its inputs and runs one "
          "untimed op of each kind before timing; the closed loop then cycles over "
          "the op list, so caches keyed by shape are warm after the first pass. "
          "cli-jobs is cold: its process runs no warm-up op, and its jobs run once "
          "more, each in a fresh interpreter, for the cli_*_s metrics.")


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Checker:
    """Counts ops, failures by type and silent errors; tracks the worst error."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict = {}
        self.silent = 0
        self.max_err = 0.0

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def series(self, out, ref) -> bool:
        """One kdf_eval output [value, status, ...] against [value, condition]."""
        err = abs(out[0] - ref[0]) / abs(ref[0])
        self.max_err = max(self.max_err, err)
        if out[1] not in OK_STATUS:
            self.fail("not_converged")
            return False
        if not err <= TOL["eval"] * max(1.0, ref[1]):
            self.fail("output_check")
            return False
        if err > SILENT["eval"]:
            self.silent += 1
        return True

    def cauchy(self, values, refs, warned: bool) -> bool:
        err = max(abs(v - r) / max(abs(r), CAUCHY_FLOOR) for v, r in zip(values, refs))
        self.max_err = max(self.max_err, err)
        if warned:
            self.fail("not_converged")
            return False
        if not err <= TOL["cauchy"]:
            self.fail("output_check")
            return False
        if err > SILENT["cauchy"]:
            self.silent += 1
        return True

    def residual(self, pairs) -> bool:
        err = max(abs(v) / max(s, 1e-300) for v, s in pairs)
        self.max_err = max(self.max_err, err)
        if not err <= TOL["residual"]:
            self.fail("output_check")
            return False
        if err > SILENT["residual"]:
            self.silent += 1
        return True

    def op(self, workload: str, op, out, ref) -> None:
        self.attempted += 1
        if out and out[0] == "error":
            self.fail("exception")
        elif workload == "eval-grid":
            self.series(out, ref)
        elif workload == "cauchy-grid":
            self.cauchy([out[0]], [ref], out[1])
        elif workload == "residual-grid":
            self.residual(out)
        else:
            self.cli(op, out, ref)

    def cli(self, op, out, ref) -> None:
        """One CLI job [exit code, stdout, stderr]."""
        kind = op[0]
        code, stdout, stderr = out
        lines = stdout.splitlines()
        if "Traceback" in stderr:
            self.fail("traceback")
            return
        if code != 0:
            self.fail("nonzero_exit")
            return
        try:
            if len(lines) != 1:
                raise ValueError
            report = json.loads(lines[0])
        except ValueError:
            self.fail("bad_stdout")
            return
        rows = report.get("results", [])
        if kind == "eval":
            if len(rows) != len(ref):
                self.fail("output_check")
                return
            for row, r in zip(rows, ref):
                if not self.series([row["value"], row["status"]], r):
                    return
        elif kind == "residual":
            if len(rows) != 2 * op[1]["grid"]["nx"] * op[1]["grid"]["ny"]:
                self.fail("output_check")
                return
            self.residual([(row["residual"], row["scale"]) for row in rows])
        elif kind == "cauchy":
            if len(rows) != len(ref):
                self.fail("output_check")
                return
            self.cauchy([row["value"] for row in rows], ref, "ConvergenceWarning" in stderr)
        elif not report.get("all_passed"):
            self.fail("check_failed")


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _spawn_worker(args, out_path: str, go: bool) -> tuple[list, dict | None]:
    """Start a fresh workload process; return ([seconds until ready, the same
    less probing and at the reference speed], results)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if not line.startswith("ready "):
            raise RuntimeError(f"workload process failed during setup: {line!r}")
        spent, samples = json.loads(line[6:])
        setup = [ready, speed.Probe(samples).scale(ready - spent, 0, len(samples))]
        proc.stdin.write("go\n" if go else "exit\n")
        proc.stdin.flush()
        proc.stdin.close()
        proc.stdout.read()
        if proc.wait(timeout=170) != 0:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not go:
        return setup, None
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(out_path)
    return setup, doc


def _cli_pass(ops) -> list:
    """Each job once as a `python -m kampe` process: [op index, wall seconds,
    [exit code, stdout, stderr]] records."""
    records = []
    for i, (_kind, job) in enumerate(ops):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kampe"], input=json.dumps(job),
                              capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=170)
        records.append([i, time.perf_counter() - t0, [proc.returncode, proc.stdout, proc.stderr]])
    return records


def run_record(args, samples: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "thread_pins": THREAD_PINS,
        "policy": POLICY, "setups_per_run": SETUPS, "samples": samples,
        "speed_probe": {"ref_s": speed.REF_S, "every_s": speed.EVERY, "near": speed.NEAR},
        "tolerances": TOL, "silent_thresholds": SILENT, "cauchy_floor": CAUCHY_FLOOR,
        "platform": platform.platform(),
    }


def measure(args, ops, refs, checker: Checker) -> tuple[dict, dict, dict]:
    """(end-to-end metrics, per-layer metrics, run record extras).

    Setup and op times are scaled to the reference speed of speed.py; the
    `wall_` metrics and the subprocess times are as measured."""
    e2e = dict.fromkeys(E2E_UNITS)
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"worker-{os.getpid()}.json")
    setups = [_spawn_worker(args, out_path, go=False)[0] for _ in range(SETUPS - 1)]
    ready, doc = _spawn_worker(args, out_path, go=True)
    setups.append(ready)
    e2e["setup_s"] = statistics.median(s[1] for s in setups)
    e2e["wall_setup_s"] = statistics.median(s[0] for s in setups)
    e2e["peak_rss_mb"] = doc["peak_rss_mb"]
    checked = doc["records"] + doc.get("traced_records", [])
    if args.workload == "cli-jobs":
        jobs = _cli_pass(ops)
        checked += jobs
        for i, wall, _out in jobs:
            e2e[f"cli_{ops[i][0]}_s"] = wall
    for rec in checked:
        checker.op(args.workload, ops[rec[0]], rec[2], refs[rec[0]] if refs else None)

    probe = speed.Probe(doc["probe"])
    wall_s = [r[1] for r in doc["records"]]
    lat_s = [probe.scale(r[1], r[3], r[4]) for r in doc["records"]]
    for prefix, times in (("", lat_s), ("wall_", wall_s)):
        ms = [t * 1e3 for t in times]
        e2e[prefix + "throughput_ops_s"] = len(times) / sum(times)
        e2e[prefix + "latency_p50_ms"] = _percentile(ms, 50)
        e2e[prefix + "latency_p90_ms"] = _percentile(ms, 90)
    e2e["max_rel_err"] = checker.max_err
    e2e["silent_error_share"] = checker.silent / max(checker.attempted, 1)
    e2e["failed_share"] = checker.failed / max(checker.attempted, 1)
    extra = {"samples": {"latency": len(lat_s), "setup": SETUPS, "speed_probes": len(probe.samples)}}
    layers: dict = {}
    if args.trace:
        traced = doc["traced_records"]
        layers = dict(doc["layers"])
        if args.workload == "cli-jobs":
            eval_main = statistics.median(r[1] for r in doc["records"] if ops[r[0]][0] == "eval")
            layers.update({"cli.import_s": doc["import_s"], "cli.process_s": e2e["cli_eval_s"],
                           "cli.startup_share": 1.0 - eval_main / e2e["cli_eval_s"]})
        else:
            layers.update(dict.fromkeys(("cli.import_s", "cli.process_s", "cli.startup_share"), 0.0))
        layers["cauchy.rule_cold_s"] = doc["rule_cold_s"]
        layers["trace.untraced_ops_s"] = len(wall_s) / sum(wall_s)
        layers["trace.traced_ops_s"] = len(traced) / sum(r[1] for r in traced)
        layers["trace.overhead_share"] = 1.0 - layers["trace.traced_ops_s"] / layers["trace.untraced_ops_s"]
        extra["trace_checks"] = doc["trace_checks"]
    return e2e, layers, extra


def main() -> int:
    ap = argparse.ArgumentParser(description="kampe benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "kampe", "__init__.py")):
        print(f"no kampe sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    ops = W.make_ops(args.workload, args.seed)
    refs = references.load_or_generate(args.workload, args.seed, ops)
    checker = Checker()
    e2e, layers, extra = measure(args, ops, refs, checker)
    trace_ok = extra.get("trace_checks", {}).get("self_within_wall", True)
    correct = checker.failed == 0 and trace_ok

    record = run_record(args, extra["samples"])
    result = {"run": record, "correct": correct, "attempted": checker.attempted,
              "failed": checker.failed, "failures": checker.failures,
              "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}}
    if args.trace:
        result["per_layer"] = layers
        result["trace_checks"] = extra["trace_checks"]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"kampe benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"  ops attempted {checker.attempted}, failed {checker.failed} {checker.failures}, "
          f"silent errors {checker.silent}")
    for name, v in e2e.items():
        shown = "n/a" if v is None else f"{v:.6g}"
        note = f"  (n={extra['samples']['latency']})" if "latency" in name else ""
        print(f"  {name:<22} {shown:>12} {E2E_UNITS[name]}{note}")
    for name in sorted(layers):
        print(f"  {name:<40} {layers[name]:.6g}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")

    if args.trace:
        named = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layers
    else:
        named = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = e2e
    metrics = {}
    for name, unit in named.items():
        v = values.get(name)
        if v is None or not math.isfinite(v):
            print(f"metric {name} not measured on {args.workload}", file=sys.stderr)
            return 2
        metrics[name] = {"value": v, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
