"""The acceptance criteria and their oracles, defined once.

The CLI `check` command and the acceptance gate (`tests/test_acceptance.py`)
run the same suites.  Each suite re-derives its expected values from an
oracle that does not share code with the path under test (direct
one-dimensional sums, term-wise differentiated double sums, central finite
differences, Beta-function moments), runs deterministically from a seed, and
reports its worst measured deviation against a pinned tolerance.  A
non-finite deviation counts as infinite, so it fails its suite.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cauchy, frobenius, named, pde, series
from .errors import KampeError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


def hyp1d(uppers, lowers, x: float, n_terms: int = 500) -> float:
    """sum_m prod(u)_m / prod(l)_m * x^m / m! by direct term recursion."""
    term, total = 1.0, 1.0
    for m in range(n_terms):
        for u in uppers:
            term *= u + m
        for low in lowers:
            term /= low + m
        term *= x / (m + 1)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-300):
            break
    return total


def _factors(uppers, lowers, size: int, z: float | None = None, w: int = 0) -> np.ndarray:
    """f[m] = prod (u)_m / prod (l)_m for m < size; with a variable z, also
    divided by m! and times the w-th derivative of z^m, m(m-1)...(m-w+1)
    z^(m-w) (zero for m < w).  Built as cumulative products of one-step
    ratios, so f[m] leaves double range only where the factor itself does."""
    k = np.arange(size - 1, dtype=float)
    ratio = np.ones(size - 1)
    for a in uppers:
        ratio *= a + k
    for a in lowers:
        ratio /= a + k
    if z is None:
        return np.cumprod(np.concatenate([[1.0], ratio]))
    ratio /= k + 1.0
    out = np.zeros(size)
    if w < size:
        # from f[w] = w! prod_(k < w) ratio_k on, each step takes one power of z
        steps = ratio[w:] * z * (k[w:] + 1.0) / (k[w:] + 1.0 - w)
        out[w:] = np.cumprod(np.concatenate([[math.factorial(w) * math.prod(ratio[:w])], steps]))
    return out


def shape_double_sum(shape: series.KdFShape, x: float, y: float, rmax: int = 64,
                     smax: int = 64, wx: int = 0, wy: int = 0) -> float:
    """Brute-force double sum over r < rmax, s < smax; wx/wy > 0 differentiate
    term-wise that many times.

    The term (r, s) is J[r + s] X[r] Y[s], with J the joint factor and X, Y
    the x- and y-factors with their powers and derivative weights, so the
    sum is one product X H Y with the Hankel matrix H[r, s] = J[r + s].
    """
    joint = _factors(shape.upper_joint, shape.lower_joint, rmax + smax - 1)
    xs = _factors(shape.upper_x, shape.lower_x, rmax, x, wx)
    ys = _factors(shape.upper_y, shape.lower_y, smax, y, wy)
    return float(xs @ joint[np.add.outer(np.arange(rmax), np.arange(smax))] @ ys)


def _finite(dev: float) -> float:
    """The deviation itself, or inf when it is not finite: a NaN must fail its
    suite, not vanish inside max()."""
    return dev if math.isfinite(dev) else math.inf


def _rel_dev(got: float, ref: float) -> float:
    return _finite(abs(got - ref) / max(abs(ref), 1e-300))


def _random_shape(rng: random.Random) -> series.KdFShape:
    def group(max_len):
        return tuple(round(rng.uniform(0.2, 2.5), 3) for _ in range(rng.randint(0, max_len)))

    while True:
        sh = series.KdFShape(upper_joint=group(2), upper_x=group(2), upper_y=group(2),
                             lower_joint=group(2) or (1.5,), lower_x=group(1),
                             lower_y=group(1))
        if series.validate_shape(sh).ok:
            return sh


def check_origin_normalization(seed: int = 42, **_) -> CheckResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(50):
        sh = _random_shape(rng)
        worst = max(worst, _rel_dev(series.kdf_eval(sh, (0.0, 0.0)).value, 1.0))
    return CheckResult("origin_normalization", worst == 0.0, worst, 0.0,
                       f"worst |value-1| = {worst:.1e} at (0,0) over 50 random shapes, exact")


def check_reductions(seed: int = 42, **_) -> CheckResult:
    rng = random.Random(seed + 1)
    tol = 1e-12
    worst = 0.0
    xs = [rng.uniform(-0.5, 0.5) for _ in range(5)]
    ys = [rng.uniform(-2.0, 2.0) for _ in range(5)]
    for x, y in zip(xs, ys):
        b, c, d = (rng.uniform(0.2, 1.5) for _ in range(3))
        a = rng.uniform(0.2, 1.5)
        e, f, g = (rng.uniform(1.1, 2.2) for _ in range(3))
        v = series.kdf_eval(named.shape_f0211(named.ParamsF0211(b, c, d, e, g)), (x, 0.0))
        worst = max(worst, _rel_dev(v.value, hyp1d((b, c), (e,), x)))
        v = series.kdf_eval(named.shape_f1211(named.ParamsF1211(a, b, c, d, e, f, g)),
                            (x, 0.0))
        worst = max(worst, _rel_dev(v.value, hyp1d((a, b, c), (e, f), x)))
        v = series.kdf_eval(named.shape_f0211(named.ParamsF0211(b, c, g, e, g)), (x, y))
        ref = series.kdf_eval(named.shape_xi2(named.ParamsXi2(b, c, e)), (x, y))
        worst = max(worst, _rel_dev(v.value, ref.value))
    return CheckResult("reductions", worst <= tol, worst, tol,
                       f"axis and parameter-cancellation reductions vs 1-d sums: "
                       f"worst rel dev = {worst:.2e} <= {tol}")


def check_derivative_shift(seed: int = 42, **_) -> CheckResult:
    rng = random.Random(seed + 2)
    tol_term, tol_fd, h = 1e-10, 1e-6, 1e-5
    shapes = [
        named.shape_f1211(named.ParamsF1211(0.4, 0.8, 0.5, 0.9, 1.3, 1.8, 1.1)),
        named.shape_f0211(named.ParamsF0211(0.8, 0.5, 0.9, 1.3, 1.1)),
        named.shape_xi2(named.ParamsXi2(0.8, 0.5, 1.3)),
    ]
    worst_term = worst_fd = 0.0
    for sh in shapes:
        for _ in range(10):
            x, y = rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)
            for dx, dy in ((1, 0), (0, 1), (1, 1)):
                got = series.kdf_eval_derivative(sh, (x, y), dx, dy).value
                ref = shape_double_sum(sh, x, y, wx=dx, wy=dy)
                worst_term = max(worst_term, _rel_dev(got, ref))
                if dx + dy == 1:
                    fd = (series.kdf_eval(sh, (x + dx * h, y + dy * h)).value
                          - series.kdf_eval(sh, (x - dx * h, y - dy * h)).value) / (2 * h)
                    worst_fd = max(worst_fd, _rel_dev(got, fd))
    worst = max(worst_term / tol_term, worst_fd / tol_fd)
    return CheckResult("derivative_shift", worst <= 1.0, worst, 1.0,
                       f"parameter-shift derivative vs term-wise sum {worst_term:.2e} "
                       f"<= {tol_term:g} and finite differences {worst_fd:.2e} <= {tol_fd:g}; "
                       "worst is deviation / tolerance")


def check_operator_equivalence(**_) -> CheckResult:
    param_sets = [
        tuple(Fraction(n, d) for n, d in
              ((1, 2), (3, 4), (2, 3), (5, 4), (7, 5), (9, 7), (4, 3))),
        tuple(Fraction(n, d) for n, d in
              ((1, 3), (2, 5), (5, 6), (7, 6), (11, 8), (13, 9), (3, 2))),
        tuple(Fraction(n, d) for n, d in
              ((2, 1), (1, 1), (3, 1), (1, 2), (5, 2), (7, 3), (5, 3))),
        tuple(Fraction(n, 1) for n in (2, 1, 3, 1, 4, 3, 2)),
    ]
    mismatches = []
    for a, b, c, d, e, f, g in param_sets:
        pf = named.ParamsF1211(a, b, c, d, e, f, g)
        p0 = named.ParamsF0211(b, c, d, e, g)
        systems = (("F1211", pde.expanded_system_f1211(pf), pde.euler_system("F1211", pf)),
                   ("F0211", pde.expanded_system_f0211(p0), pde.euler_system("F0211", p0)))
        for r in range(1, 7):
            for s in range(1, 7):
                for kind, expanded, euler in systems:
                    want = pde.monomial_action(expanded, r, s)
                    got = pde.monomial_action(euler, r, s)
                    for i, (weq, geq) in enumerate(zip(want, got)):
                        if weq != geq:
                            diffs = {k: (geq.get(k, 0), weq.get(k, 0))
                                     for k in set(weq) | set(geq)
                                     if geq.get(k, 0) != weq.get(k, 0)}
                            mismatches.append(f"{kind} eq{i+1} at ({r},{s}): {diffs}")
    return CheckResult("operator_equivalence", not mismatches, float(len(mismatches)), 0.0,
                       f"exact monomial actions, operator vs expanded form, over "
                       f"{len(param_sets)} rational parameter sets, r,s in 1..6"
                       + ("; MISMATCH " + "; ".join(mismatches[:3]) if mismatches else ""))


def check_substitution_consistency(**_) -> CheckResult:
    pf = named.ParamsF1211(Fraction(3, 7), Fraction(5, 7), Fraction(2, 7),
                           Fraction(9, 7), Fraction(11, 7), Fraction(8, 7),
                           Fraction(4, 7))
    sub0 = pde.substituted_system_f1211(pf, Fraction(0), Fraction(0))
    ok = pde.systems_equal(sub0, pde.expanded_system_f1211(pf))
    tau, nu = Fraction(1, 3), Fraction(2, 5)
    expected = -tau * nu * ((pf.e + pf.f + 1) * pf.g - 1)
    defect = pde.substitution_defect_f1211(pf, tau, nu, 2, 3)
    ok = ok and defect[0] == {} and defect[1] == {(2, 2): expected}
    return CheckResult("substitution_consistency", ok, 0.0 if ok else 1.0, 0.0,
                       "zero-exponent reduction exact; generic-exponent defect matches "
                       "the pinned fingerprint -tau*nu*((e+f+1)g-1)/y")


def worst_residual(system, pair, grid,
                   policy: series.TruncationPolicy = series.DEFAULT_POLICY):
    """Worst |residual| / scale of both solutions of `pair` on `system` over
    the grid, with the equation number and point where it occurs."""
    worst, where = 0.0, None
    for sol in pair:
        ev = frobenius.solution_evaluator(sol, policy)
        for pt in grid:
            for i, res in enumerate(pde.residual(system, ev, pt)):
                ratio = _finite(abs(res.value) / max(res.scale, 1e-300))
                if where is None or ratio > worst:
                    worst, where = ratio, (i + 1, pt)
    return worst, where


def check_solution_residuals(**_) -> CheckResult:
    tol = 1e-8
    grid = [(x, y) for x in (0.1, 0.3) for y in (0.1, 0.3)]
    pf = named.ParamsF1211(0.3, 0.7, 0.3, 0.7, 1.2, 1.7, 0.4)
    p0 = named.ParamsF0211(0.7, 0.3, 0.7, 1.7, 1.6)
    cases = ((pde.expanded_system_f1211(pf), frobenius.solution_pair_f1211(pf)),
             (pde.expanded_system_f0211(p0), frobenius.solution_pair_f0211(p0)))
    worst = max(worst_residual(system, pair, grid)[0] for system, pair in cases)
    return CheckResult("solution_residuals", worst <= tol, worst, tol,
                       f"both solutions of both systems on a 2x2 grid: worst "
                       f"|residual|/scale = {worst:.2e} <= {tol}")


def check_indicial_roots(seed: int = 42, **_) -> CheckResult:
    rng = random.Random(seed + 3)
    tol = 1e-14
    worst = 0.0
    for _ in range(100):
        g = rng.uniform(-3.0, 3.0)
        roots = frobenius.indicial_roots(g)
        if len(roots) != 2 or roots[0].nu != 0.0:
            worst = math.inf
            break
        defects = [roots[1].nu - (1.0 - g)]
        for r in roots:
            defects += [r.tau, r.nu * (r.nu + g - 1.0)]
        worst = max(worst, *(_finite(abs(v)) for v in defects))
    return CheckResult("indicial_roots", worst <= tol, worst, tol,
                       f"two roots, nu = 0 exactly and nu = 1 - g; tau = 0 and "
                       f"nu(nu+g-1) = 0 over 100 random g: worst defect = {worst:.1e} <= {tol}")


def check_independence(**_) -> CheckResult:
    pts = [(0.1, 0.2), (0.2, 0.15), (0.15, 0.3), (0.25, 0.1), (0.3, 0.3)]
    ok = True
    for generic in (named.ParamsF0211(0.3, 0.7, 0.7, 1.2, 0.4),
                    named.ParamsF0211(0.5, 0.8, 0.6, 1.4, 0.4)):
        u1, u2 = frobenius.solution_pair_f0211(generic)
        v1, v2 = frobenius.solution_pair_f0211(dataclasses.replace(generic, g=1.0))
        ok = (ok and frobenius.independence_check(u1, u2, pts) is True
              and frobenius.independence_check(v1, v2, pts) is False
              and frobenius.independence_check(
                  u1, dataclasses.replace(u1, scale=3.0), pts) is False)
    return CheckResult("independence", ok, 0.0 if ok else 1.0, 0.0,
                       "over 2 generic parameter sets: generic pair true; "
                       "g=1 pair false; scaled copy false")


def check_cauchy_constant(nodes: int = 64, **_) -> CheckResult:
    c = 2.5
    prob = cauchy.CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0, tau_data=(c,), nu_data=())
    u = cauchy.solve_point(prob, (0.3, 0.6), nodes)
    dev = abs(u - c)
    stab = abs(cauchy.solve_point(prob, (0.3, 0.6), 2 * nodes) - u)
    ok = dev <= 1e-6 and stab <= 1e-8
    return CheckResult("cauchy_constant", ok, _finite(max(dev, stab)), 1e-6,
                       f"constant data: |u - c| = {dev:.2e} <= 1e-6, "
                       f"node-doubling change = {stab:.2e} <= 1e-8")


def check_cauchy_trace(nodes: int = 64, **_) -> CheckResult:
    prob = cauchy.CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0,
                                tau_data=(0.0, 1.0), nu_data=())
    devs = [d for _, d in cauchy.verify_trace(prob, 0.3, (1e-1, 3e-2, 1e-2, 3e-3), nodes)]
    ok = all(a > b for a, b in zip(devs, devs[1:])) and devs[-1] <= 1e-2
    return CheckResult("cauchy_trace", ok, _finite(devs[-1]), 1e-2,
                       "deviations " + " > ".join(f"{v:.2e}" for v in devs)
                       + ", final <= 1e-2")


def check_quadrature_moments(**_) -> CheckResult:
    beta = -0.25
    tol = 1e-12
    worst = 0.0
    for p in (beta, -beta):
        nodes, weights = cauchy.jacobi_rule(5, p, p, 0.0, 1.0)
        for j in range(10):
            got = float(sum(w * t**j for t, w in zip(nodes, weights)))
            # integral of (1-t)^p t^(p+j) over [0,1] = B(p+j+1, p+1)
            ref = math.exp(math.lgamma(p + j + 1.0) + math.lgamma(p + 1.0)
                           - math.lgamma(2.0 * p + j + 2.0))
            worst = max(worst, _rel_dev(got, ref))
    return CheckResult("quadrature_moments", worst <= tol, worst, tol,
                       f"Gauss-Jacobi moments vs Beta closed form, degrees 0..9: "
                       f"worst rel dev = {worst:.2e} <= {tol}")


ALL_CHECKS = {
    "origin_normalization": check_origin_normalization,
    "reductions": check_reductions,
    "derivative_shift": check_derivative_shift,
    "operator_equivalence": check_operator_equivalence,
    "substitution_consistency": check_substitution_consistency,
    "solution_residuals": check_solution_residuals,
    "indicial_roots": check_indicial_roots,
    "independence": check_independence,
    "cauchy_constant": check_cauchy_constant,
    "cauchy_trace": check_cauchy_trace,
    "quadrature_moments": check_quadrature_moments,
}


def run_checks(names=None, seed: int = 42, nodes: int = 64) -> list[CheckResult]:
    selected = list(ALL_CHECKS) if names is None else list(names)
    results = []
    for name in selected:
        fn = ALL_CHECKS.get(name)
        if fn is None:
            raise KeyError(name)
        try:
            results.append(fn(seed=seed, nodes=nodes))
        except KampeError as exc:
            results.append(CheckResult(name, False, math.inf, 0.0,
                                       f"{type(exc).__name__}: {exc}"))
    return results
