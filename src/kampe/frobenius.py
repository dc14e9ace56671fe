"""Indicial analysis and the two power-prefactor solutions of each system.

Searching for solutions of the form x^tau y^nu * (double series) forces
tau = 0 and nu (nu + g - 1) = 0, giving the pair nu = 0 and nu = 1 - g.
The second solution shifts every parameter that interacts with the
y-direction by 1 - g and replaces g by 2 - g; it degenerates (collapses
onto the first or requires a logarithm) when those shifts hit nonpositive
integers, which the constructor refuses rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import falling, is_nonpositive_int
from .errors import DegenerateError, DomainError
from .named import ParamsF0211, ParamsF1211, shape_f0211, shape_f1211
from .series import (DEFAULT_POLICY, KdFShape, SeriesResult, SeriesStatus,
                     TruncationPolicy, kdf_eval_jet)


@dataclass(frozen=True)
class Exponents:
    tau: float
    nu: float


@dataclass(frozen=True)
class Solution:
    exponents: Exponents
    shape: KdFShape
    kind: str  # "F1211" | "F0211"
    scale: float = 1.0


def indicial_roots(g: float) -> list[Exponents]:
    """Both exponent pairs: (0, 0) and (0, 1 - g)."""
    return [Exponents(0.0, 0.0), Exponents(0.0, 1.0 - g)]


def _second_shape_guard(first: Solution, **lower) -> None:
    bad = [f"{k} = {v}" for k, v in lower.items() if is_nonpositive_int(v)]
    if bad:
        raise DegenerateError(
            "second solution is degenerate (logarithmic case): shifted lower "
            "parameter(s) " + ", ".join(bad) + " nonpositive integer",
            first_solution=first)


def solution_pair_f1211(params: ParamsF1211) -> list[Solution]:
    u1 = Solution(Exponents(0.0, 0.0), shape_f1211(params), "F1211")
    w = 1.0 - params.g
    _second_shape_guard(u1, e=w + params.e, f=w + params.f, g=2.0 - params.g)
    shape2 = KdFShape(upper_joint=(w + params.a,), upper_x=(params.b, params.c),
                      upper_y=(w + params.d,),
                      lower_joint=(w + params.e, w + params.f),
                      lower_x=(), lower_y=(2.0 - params.g,))
    return [u1, Solution(Exponents(0.0, w), shape2, "F1211")]


def solution_pair_f0211(params: ParamsF0211) -> list[Solution]:
    u1 = Solution(Exponents(0.0, 0.0), shape_f0211(params), "F0211")
    w = 1.0 - params.g
    _second_shape_guard(u1, e=1.0 + params.e - params.g, g=2.0 - params.g)
    shape2 = KdFShape(upper_joint=(), upper_x=(params.b, params.c),
                      upper_y=(1.0 + params.d - params.g,),
                      lower_joint=(1.0 + params.e - params.g,),
                      lower_x=(), lower_y=(2.0 - params.g,))
    return [u1, Solution(Exponents(0.0, w), shape2, "F0211")]


def _prefactor(exp: float, coord: float, axis: str) -> float:
    if exp == 0.0:
        return 1.0
    if float(exp).is_integer():
        if coord == 0.0 and exp < 0.0:
            raise DomainError(f"{axis}^{exp} undefined at {axis} = 0")
        return coord ** exp
    if coord <= 0.0:
        raise DomainError(f"{axis}^{exp} requires {axis} > 0, got {coord}")
    return coord ** exp


def solution_partials(sol: Solution, point, orders,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> list[SeriesResult]:
    """The (dx, dy) partial of scale * x^tau y^nu * series(point) for each
    (dx, dy) in `orders`, by the Leibniz rule over one jet of the series.

    Prefactor derivatives are exact falling-factorial powers and the series
    partials come from one `kdf_eval_jet` sweep, so nothing is
    finite-differenced near y = 0 where y^(1-g) has unbounded derivatives.
    Each result reports the most diagonals any of its series partials took,
    their prefactor-weighted tails, and TRUNCATED_AT_CAP if any of them was.
    """
    x, y = point
    tau, nu = sol.exponents.tau, sol.exponents.nu
    plans = []
    needed: dict = {}
    for dx, dy in orders:
        plan = []
        for p in range(dx + 1):
            ftau = falling(tau, p)
            if ftau == 0.0:
                continue
            for q in range(dy + 1):
                fnu = falling(nu, q)
                if fnu == 0.0:
                    continue
                pref = (math.comb(dx, p) * math.comb(dy, q) * ftau * fnu
                        * _prefactor(tau - p, x, "x") * _prefactor(nu - q, y, "y"))
                plan.append((pref, (dx - p, dy - q)))
                needed[(dx - p, dy - q)] = None
        plans.append(plan)
    jet = dict(zip(needed, kdf_eval_jet(sol.shape, point, list(needed), policy)))
    out = []
    for plan in plans:
        total = tail = 0.0
        for pref, order in plan:
            total += pref * jet[order].value
            tail += abs(pref) * jet[order].tail_estimate
        parts = [jet[order] for _, order in plan]
        statuses = [r.status for r in parts]
        status = (SeriesStatus.TRUNCATED_AT_CAP if SeriesStatus.TRUNCATED_AT_CAP in statuses
                  else statuses[0])
        out.append(SeriesResult(sol.scale * total, max(r.diagonals_used for r in parts),
                                abs(sol.scale) * tail, status))
    return out


def eval_solution(sol: Solution, point,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """scale * x^tau y^nu * series(point)."""
    return solution_partials(sol, point, [(0, 0)], policy)[0]


def solution_derivative(sol: Solution, point, dx: int, dy: int,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """(dx, dy) partial of the prefactored solution (`solution_partials`)."""
    return solution_partials(sol, point, [(dx, dy)], policy)[0].value


def solution_evaluator(sol: Solution, policy: TruncationPolicy = DEFAULT_POLICY):
    """Adapter with the u(x, y, orders) -> [partial per order] signature
    expected by pde.residual."""

    def evaluate(x: float, y: float, orders) -> list[float]:
        return [r.value for r in solution_partials(sol, (x, y), orders, policy)]

    return evaluate


_RATIO_TOL = 1e-6


def independence_check(sol1: Solution, sol2: Solution, points,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> bool:
    """Numerical surrogate for linear independence over the sampled points.

    True iff the ratio u2/u1 varies by more than 1e-6 relative across the
    points.
    """
    if len(points) < 3:
        raise ValueError("independence_check needs at least 3 points")
    ratios = []
    for (x, y) in points:
        v1 = eval_solution(sol1, (x, y), policy).value
        if v1 == 0.0:
            raise DomainError(f"first solution vanishes at ({x}, {y}); ratio undefined")
        ratios.append(eval_solution(sol2, (x, y), policy).value / v1)
    spread = max(ratios) - min(ratios)
    scale = max(max(abs(r) for r in ratios), 1e-300)
    return spread / scale > _RATIO_TOL
