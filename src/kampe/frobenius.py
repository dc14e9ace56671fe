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
from .series import (DEFAULT_POLICY, KdFShape, SeriesResult, TruncationPolicy,
                     kdf_eval, kdf_eval_derivative)


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


def eval_solution(sol: Solution, point,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """scale * x^tau y^nu * series(point)."""
    x, y = point
    pref = (sol.scale * _prefactor(sol.exponents.tau, x, "x")
            * _prefactor(sol.exponents.nu, y, "y"))
    res = kdf_eval(sol.shape, point, policy)
    return SeriesResult(pref * res.value, res.diagonals_used,
                        abs(pref) * res.tail_estimate, res.status)


def solution_derivative(sol: Solution, point, dx: int, dy: int,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """(dx, dy) partial of the prefactored solution by the Leibniz rule.

    Prefactor derivatives are exact falling-factorial powers, the series
    derivatives exact parameter shifts, so nothing is finite-differenced
    near y = 0 where y^(1-g) has unbounded derivatives.
    """
    x, y = point
    tau, nu = sol.exponents.tau, sol.exponents.nu
    total = 0.0
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
            series = kdf_eval_derivative(sol.shape, point, dx - p, dy - q, policy)
            total += pref * series.value
    return sol.scale * total


def solution_evaluator(sol: Solution, policy: TruncationPolicy = DEFAULT_POLICY):
    """Adapter with the (x, y, dx, dy) signature expected by pde.residual."""

    def evaluate(x: float, y: float, dx: int = 0, dy: int = 0) -> float:
        if dx == 0 and dy == 0:
            return eval_solution(sol, (x, y), policy).value
        return solution_derivative(sol, (x, y), dx, dy, policy)

    return evaluate


_RATIO_TOL = 1e-6


def independence_check(sol1, sol2, points,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> bool:
    """Numerical surrogate for linear independence over the sampled points.

    True iff the ratio u2/u1 varies by more than 1e-6 relative across the
    points.  Accepts Solution objects or plain (x, y) -> value callables.
    """
    if len(points) < 3:
        raise ValueError("independence_check needs at least 3 points")

    def as_fn(sol):
        if isinstance(sol, Solution):
            return lambda x, y: eval_solution(sol, (x, y), policy).value
        return sol

    f1, f2 = as_fn(sol1), as_fn(sol2)
    ratios = []
    for (x, y) in points:
        v1 = f1(x, y)
        if v1 == 0.0:
            raise DomainError(f"first solution vanishes at ({x}, {y}); ratio undefined")
        ratios.append(f2(x, y) / v1)
    spread = max(ratios) - min(ratios)
    scale = max(max(abs(r) for r in ratios), 1e-300)
    return spread / scale > _RATIO_TOL
