"""Independent references for the benchmark's output checks.

Nothing here imports kampe.  Series values come from mpmath at 30 digits:
`hyper2d` in general, and near the Appell-F4 coupled boundary (where
`hyper2d` takes seconds or does not finish) the row sum
F4 = sum_m (a)_m (b)_m / ((c)_m m!) x^m 2F1(a+m, b+m; c'; y).  Cauchy values
are the exact q^2-series solutions of the degenerate hyperbolic equation for
polynomial data, an expansion that shares nothing with the integral
representation under test.

References for the default seed are committed under `refs/`; any other seed
gets them generated here before timing starts and cached under `out/refs/`.
"""

from __future__ import annotations

import json
import math
import os

from workloads import (CAUCHY_PROBLEMS, DEFAULT_SEED, EVAL_SHAPES, GROUP_KEYS,
                       cli_grid_points)

DPS = 30
HERE = os.path.dirname(os.path.abspath(__file__))


def _hyper2d(groups: dict, x: float, y: float):
    import mpmath
    g = {k: [mpmath.mpf(v) for v in groups.get(k, [])] for k in GROUP_KEYS}
    a = {"m+n": g["upper_joint"], "m": g["upper_x"], "n": g["upper_y"]}
    b = {"m+n": g["lower_joint"], "m": g["lower_x"], "n": g["lower_y"]}
    return mpmath.hyper2d(a, b, mpmath.mpf(x), mpmath.mpf(y), maxterms=10**6)


def _appell_f4_rows(groups: dict, x: float, y: float):
    """F4(a, b; c, c'; x, y) as a sum over rows of Gauss functions in y."""
    import mpmath
    (a, b), (c,), (c2,) = groups["upper_joint"], groups["lower_x"], groups["lower_y"]
    a, b, c, c2 = (mpmath.mpf(v) for v in (a, b, c, c2))
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    total, coef, m, small = mpmath.mpf(0), mpmath.mpf(1), 0, 0
    eps = mpmath.mpf(10) ** (-DPS)
    while small < 3:
        term = coef * mpmath.hyp2f1(a + m, b + m, c2, y)
        total += term
        small = small + 1 if abs(term) <= eps * abs(total) else 0
        coef *= (a + m) * (b + m) / ((c + m) * (m + 1)) * x
        m += 1
    return total


def series_reference(shape: str, x: float, y: float, group: str) -> list[float]:
    """[value, condition] where condition = sum|terms| / |sum|.

    Every benchmark shape has positive parameters, so sum|terms| is the
    series at (|x|, |y|)."""
    import mpmath
    groups = EVAL_SHAPES[shape]
    f = _appell_f4_rows if group == "f4_boundary" else _hyper2d
    with mpmath.workdps(DPS):
        value = f(groups, x, y)
        absolute = value if (x >= 0 and y >= 0) else f(groups, abs(x), abs(y))
        return [float(value), float(absolute / abs(value))]


# --- exact solutions of the degenerate hyperbolic equation -----------------
# In p = eta + xi, q = eta - xi the equation reads
#     u_qq + (2 beta / q) u_q = u_pp + (2 alpha / p) u_p + lambda u,
# and polynomial data admit exact expansions in powers of q^2 (trace data)
# and q^(1 - 2 beta) q^2j (weighted-derivative data).

def _bessel_apply(coeffs: dict, alpha: float, lam: float) -> dict:
    out: dict = {}
    for m, c in coeffs.items():
        fac = m * (m + 2.0 * alpha - 1.0)
        if fac != 0.0:
            out[m - 2] = out.get(m - 2, 0.0) + c * fac
        if lam != 0.0:
            out[m] = out.get(m, 0.0) + c * lam
    return out


def _q2_series(cur: dict, fac: float, alpha: float, lam: float, shift: float,
               p: float, q: float) -> float:
    total, small = 0.0, 0
    for j in range(400):
        term = fac * sum(c * p**m for m, c in cur.items())
        total += term
        small = small + 1 if abs(term) < 1e-18 * max(abs(total), 1e-300) else 0
        if small >= 3:
            return total
        cur = _bessel_apply(cur, alpha, lam)
        fac *= (q * q / 4.0) / ((j + 1) * (shift + j))
    raise ArithmeticError(f"q^2 series did not converge at p={p}, q={q}")


def cauchy_reference(problem: dict, xi: float, eta: float) -> float:
    alpha, beta, lam = problem["alpha"], problem["beta"], problem["lambda"]
    p, q = eta + xi, eta - xi
    u_tau = _q2_series({k: c / 2.0**k for k, c in enumerate(problem["tau"])},
                       1.0, alpha, lam, beta + 0.5, p, q)
    scale = -((2.0 * (1.0 - 2.0 * beta)) ** (2.0 * beta)) / (2.0 * (1.0 - 2.0 * beta))
    u_nu = _q2_series({k: scale * c / 2.0**k for k, c in enumerate(problem["nu"])},
                      q ** (1.0 - 2.0 * beta), alpha, lam, 1.5 - beta, p, q)
    value = u_tau + u_nu
    if not math.isfinite(value):
        raise ArithmeticError(f"non-finite exact solution at ({xi}, {eta})")
    return value


def generate(workload: str, ops: list) -> list:
    """References in op order."""
    if workload == "eval-grid":
        return [series_reference(shape, x, y, group) for shape, x, y, group in ops]
    if workload == "cauchy-grid":
        return [cauchy_reference(CAUCHY_PROBLEMS[p], xi, eta) for p, xi, eta, _n in ops]
    if workload == "cli-jobs":
        out = []
        for kind, job in ops:
            if kind == "eval":
                out.append([series_reference(job["function"], x, y, "interior")
                            for x, y in job["points"]])
            elif kind == "cauchy":
                out.append([cauchy_reference(job["problem"], xi, eta)
                            for xi, eta in cli_grid_points(job["grid"])])
            else:
                out.append(None)
        return out
    raise ValueError(f"no references for {workload}")


def path_for(workload: str, seed: int) -> str:
    if seed == DEFAULT_SEED:
        return os.path.join(HERE, "refs", f"{workload}-seed{seed}.json")
    return os.path.join(HERE, "out", "refs", f"{workload}-seed{seed}.json")


def load_or_generate(workload: str, seed: int, ops: list) -> list:
    """Committed or cached references when their inputs match `ops`, else
    freshly generated ones (written to the cache).  residual-grid has none:
    its reference is a zero residual."""
    if workload == "residual-grid":
        return []
    path = path_for(workload, seed)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["inputs"] == ops:
            return doc["values"]
    except (OSError, ValueError, KeyError):
        pass
    values = generate(workload, ops)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "digits": DPS,
                   "inputs": ops, "values": values}, fh)
        fh.write("\n")
    return values
