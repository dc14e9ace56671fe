"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The criteria are defined once, in `kampe.checks`, and also run by the CLI
`check` command.  Criterion 5 runs the shared residual measurement over its
full parameter sweep here.  Run as `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math

from kampe import (ParamsF0211, ParamsF1211, TruncationPolicy, checks,
                   expanded_system_f0211, expanded_system_f1211, solution_pair_f0211,
                   solution_pair_f1211)


def _report(num: int, name: str, passed: bool, detail: str = ""):
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:2d}] {name}: {flag}" + (f"  ({detail})" if detail else ""))
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def _criterion(num: int, name: str, check: str):
    (result,) = checks.run_checks([check])
    _report(num, name, result.passed, result.detail)


def test_criterion_1_origin_normalization():
    _criterion(1, "origin normalization", "origin_normalization")


def test_criterion_2_reduction_suite():
    _criterion(2, "reduction suite", "reductions")


def test_criterion_3_derivative_correctness():
    _criterion(3, "derivative correctness", "derivative_shift")


def test_criterion_4_operator_expansion_equivalence():
    _criterion(4, "operator/expansion equivalence", "operator_equivalence")


def test_criterion_5_solution_verification():
    tol = 1e-8
    policy = TruncationPolicy(rel_tol=1e-11)
    grid = [(x, y) for x in (0.05, 0.1667, 0.2833, 0.4)
            for y in (0.05, 0.1667, 0.2833, 0.4)]
    vals, efs, gs = (0.3, 0.7), (1.2, 1.7), (0.4, 1.6)
    cases = [(f"F1211{p}", expanded_system_f1211(p), solution_pair_f1211(p))
             for p in (ParamsF1211(a, b, c, d, e, f, g)
                       for a in vals for b in vals for c in vals for d in vals
                       for e in efs for f in efs for g in gs)]
    cases += [(f"F0211{p}", expanded_system_f0211(p), solution_pair_f0211(p))
              for p in (ParamsF0211(b, c, d, e, g)
                        for b in vals for c in vals for d in vals
                        for e in efs for g in gs)]
    worst, worst_at = 0.0, ""
    for label, system, pair in cases:
        ratio, (eq, pt) = checks.worst_residual(system, pair, grid, policy)
        if ratio > worst:
            worst, worst_at = ratio, f"{label} eq{eq} at {pt}"
    _report(5, "solution verification", worst <= tol,
            f"worst |residual|/scale = {worst:.2e} <= {tol} over {len(cases)} parameter "
            f"sets ({worst_at})")


def test_criterion_6_indicial_roots():
    _criterion(6, "indicial roots", "indicial_roots")


def test_criterion_7_independence():
    _criterion(7, "independence", "independence")


def test_criterion_8_cauchy_constant_solution():
    _criterion(8, "cauchy constant solution", "cauchy_constant")


def test_criterion_9_cauchy_trace():
    _criterion(9, "cauchy trace recovery", "cauchy_trace")


def test_criterion_10_quadrature_exactness():
    _criterion(10, "quadrature exactness", "quadrature_moments")


def test_derivative_oracle_finite_and_nan_fails(monkeypatch):
    seen = []
    oracle = checks.shape_double_sum

    def recording(*args, **kwargs):
        seen.append(oracle(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(checks, "shape_double_sum", recording)
    assert checks.check_derivative_shift().passed
    assert len(seen) == 90 and all(math.isfinite(v) for v in seen)
    monkeypatch.setattr(checks, "shape_double_sum", lambda *args, **kwargs: math.nan)
    result = checks.check_derivative_shift()
    assert not result.passed and result.worst == math.inf
