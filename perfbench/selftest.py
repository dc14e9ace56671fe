"""Self-test of the span recorder: pinned call counts and the self-time bound.

    python3 perfbench/selftest.py

Run from the root of a checkout.  The counts are those of the library at the
commit that introduced the benchmark; a change that alters the call
structure (for example batching the Cauchy kernel over nodes) updates them
together with its benchmark entry.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import kampe  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

# op -> {span name: calls}
EXPECTED = {
    0: {"cauchy.solve_point": 1, "cauchy.jacobi_rule": 2, "named.shape_f0211": 64,
        "series.kdf_eval": 256, "series.kdf_eval_derivative": 128},
    1: {"pde.residual": 1, "series.kdf_eval": 32},
}


def main() -> int:
    problem = kampe.CauchyProblem(alpha=-0.2, beta=-0.3, lam=0.8,
                                  tau_data=(1.0, -0.5, 0.25), nu_data=(1.0,))
    params = kampe.ParamsF1211(**W.RESIDUAL_SETS[0][1])
    system = kampe.expanded_system_f1211(params)
    u2 = kampe.solution_pair_f1211(params)[1]
    original = kampe.cauchy.kdf_eval

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_op(lambda: kampe.solve_point(problem, (0.3, 0.55), 64))
        tracer.run_op(lambda: kampe.residual(system, kampe.solution_evaluator(u2), (0.2, 0.3)))
    finally:
        tracer.uninstall()

    failures = []
    for op, expected in EXPECTED.items():
        for name, want in expected.items():
            got = sum(1 for s in tracer.spans if s[tracing.OP] == op and s[tracing.NAME] == name)
            if got != want:
                failures.append(f"op {op}: {name} called {got} times, expected {want}")
    _metrics, checks = tracing.layer_metrics(tracer, list(kampe.checks.ALL_CHECKS))
    if not checks["self_within_wall"]:
        failures.append(f"layer self times {checks['layer_self_s']:.6f} s exceed "
                        f"op wall time {checks['op_wall_s']:.6f} s")
    if kampe.cauchy.kdf_eval is not original:
        failures.append("uninstall left a traced function bound in kampe.cauchy")
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed",
          f"({len(tracer.spans)} spans over {len(EXPECTED)} ops)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
