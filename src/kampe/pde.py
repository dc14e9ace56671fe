"""Annihilating PDE systems in two cross-validated representations.

The systems are carried both as scale-operator (Euler) products, where each
equation is a difference of two factor products applied right to left, and
as literally transcribed expanded systems whose coefficients are bivariate
Laurent polynomials (powers down to x^-1, y^-1).  Monomial actions of both
representations are computed over exact rationals so any transcription error
surfaces as a differing coefficient instead of being averaged away by
floating point.

Coefficient arithmetic preserves the numeric type of the parameters: pass
Fraction values to obtain exact actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import falling
from .errors import DomainError, NegativePowerError
from .named import ParamsF0211, ParamsF1211

# a bivariate Laurent polynomial: {(x_power, y_power): coefficient}
Poly2 = dict


def poly_eval(poly: Poly2, x: float, y: float):
    total = 0.0
    for (i, j), c in poly.items():
        if (i < 0 and x == 0.0) or (j < 0 and y == 0.0):
            raise DomainError("coefficient with negative power evaluated on an axis")
        total += c * x**i * y**j
    return total


@dataclass(frozen=True, eq=True)
class PdeTerm:
    coeff: Poly2
    dx: int
    dy: int


@dataclass(frozen=True, eq=True)
class PdeEquation:
    terms: tuple[PdeTerm, ...]


@dataclass(frozen=True, eq=True)
class PdeSystem:
    equations: tuple[PdeEquation, ...]


@dataclass(frozen=True)
class ThetaFactor:
    """c0 + cx * x d/dx + cy * y d/dy (cx, cy in {0, 1})."""

    c0: object
    cx: int = 0
    cy: int = 0


@dataclass(frozen=True)
class PowerFactor:
    """Multiplication by x^kx y^ky."""

    kx: int = 0
    ky: int = 0


@dataclass(frozen=True)
class OperatorProduct:
    factors: tuple  # leftmost factor first; rightmost acts first


@dataclass(frozen=True)
class EulerEquation:
    plus: OperatorProduct
    minus: OperatorProduct


@dataclass(frozen=True)
class EulerSystem:
    equations: tuple[EulerEquation, ...]


def _eq(term_map) -> PdeEquation:
    return PdeEquation(tuple(PdeTerm(coeff, dx, dy) for (dx, dy), coeff in term_map.items()))


def expanded_system_f1211(params: ParamsF1211) -> PdeSystem:
    a, b, c, d, e, f, g = (params.a, params.b, params.c, params.d,
                           params.e, params.f, params.g)
    eq1 = _eq({
        (3, 0): {(2, 0): 1, (3, 0): -1},
        (2, 1): {(1, 1): 2, (2, 1): -1},
        (1, 2): {(0, 2): 1},
        (2, 0): {(1, 0): e + f + 1, (2, 0): -(a + b + c + 3)},
        (1, 1): {(0, 1): e + f + 1, (1, 1): -(b + c + 1)},
        (1, 0): {(0, 0): e * f, (1, 0): -(a * (b + c + 1) + (b + 1) * (c + 1))},
        (0, 1): {(0, 1): -b * c},
        (0, 0): {(0, 0): -a * b * c},
    })
    eq2 = _eq({
        (0, 4): {(0, 3): 1},
        (2, 2): {(2, 1): 1},
        (1, 3): {(1, 2): 2},
        (0, 3): {(0, 2): e + f + g + 3},
        (1, 2): {(1, 1): e + f + 2 * g + 3},
        (2, 1): {(2, 0): g},
        (0, 2): {(0, 1): (e + 1) * (f + 1) + (e + f + 1) * g, (0, 2): -1},
        (1, 1): {(1, 0): (e + f + 1) * g, (1, 1): -1},
        (1, 0): {(1, 0): -d},
        (0, 1): {(0, 0): e * f * g, (0, 1): -(a + d + 1)},
        (0, 0): {(0, 0): -a * d},
    })
    return PdeSystem((eq1, eq2))


def expanded_system_f0211(params: ParamsF0211) -> PdeSystem:
    b, c, d, e, g = params.b, params.c, params.d, params.e, params.g
    eq1 = _eq({
        (2, 0): {(1, 0): 1, (2, 0): -1},
        (1, 1): {(0, 1): 1},
        (1, 0): {(0, 0): e, (1, 0): -(b + c + 1)},
        (0, 0): {(0, 0): -b * c},
    })
    eq2 = _eq({
        (0, 3): {(0, 2): 1},
        (1, 2): {(1, 1): 1},
        (1, 1): {(1, 0): g},
        (0, 2): {(0, 1): e + g + 1},
        (0, 1): {(0, 0): e * g, (0, 1): -1},
        (0, 0): {(0, 0): -d},
    })
    return PdeSystem((eq1, eq2))


def euler_system(kind: str, params) -> EulerSystem:
    """Annihilator pairs built from scale operators, factors as printed."""
    if kind == "F1211":
        a, b, c, d, e, f, g = (params.a, params.b, params.c, params.d,
                               params.e, params.f, params.g)
        eq1 = EulerEquation(
            plus=OperatorProduct((ThetaFactor(1, cx=1), ThetaFactor(e, 1, 1),
                                  ThetaFactor(f, 1, 1), PowerFactor(kx=-1))),
            minus=OperatorProduct((ThetaFactor(a, 1, 1), ThetaFactor(b, cx=1),
                                   ThetaFactor(c, cx=1))))
        eq2 = EulerEquation(
            plus=OperatorProduct((ThetaFactor(1, cy=1), ThetaFactor(e, 1, 1),
                                  ThetaFactor(f, 1, 1), ThetaFactor(g, cy=1),
                                  PowerFactor(ky=-1))),
            minus=OperatorProduct((ThetaFactor(a, 1, 1), ThetaFactor(d, cy=1))))
        return EulerSystem((eq1, eq2))
    if kind == "F0211":
        b, c, d, e, g = params.b, params.c, params.d, params.e, params.g
        eq1 = EulerEquation(
            plus=OperatorProduct((ThetaFactor(1, cx=1), ThetaFactor(e, 1, 1),
                                  PowerFactor(kx=-1))),
            minus=OperatorProduct((ThetaFactor(b, cx=1), ThetaFactor(c, cx=1))))
        eq2 = EulerEquation(
            plus=OperatorProduct((ThetaFactor(1, cy=1), ThetaFactor(e, 1, 1),
                                  ThetaFactor(g, cy=1), PowerFactor(ky=-1))),
            minus=OperatorProduct((ThetaFactor(d, cy=1),)))
        return EulerSystem((eq1, eq2))
    raise ValueError(f"unknown system kind {kind!r}")


def substituted_system_f1211(params: ParamsF1211, tau, nu) -> PdeSystem:
    """System satisfied by the series factor after peeling x^tau y^nu.

    Transcribed literally; `substitution_defect_f1211` measures how far the
    printed fourth-order equation is from the exact substitution result.
    """
    a, b, c, d, e, f, g = (params.a, params.b, params.c, params.d,
                           params.e, params.f, params.g)
    t, v = tau, nu
    eq1 = _eq({
        (3, 0): {(2, 0): 1, (3, 0): -1},
        (2, 1): {(1, 1): 2, (2, 1): -1},
        (1, 2): {(0, 2): 1},
        (2, 0): {(1, 0): 3 * t + 2 * v + e + f + 1,
                 (2, 0): -(3 * t + v + a + b + c + 3)},
        (1, 1): {(0, 1): 4 * t + 2 * v + e + f + 1,
                 (1, 1): -(2 * t + b + c + 1)},
        (0, 2): {(-1, 2): t},
        (1, 0): {(0, 0): t * (2 * e + 2 * f + 4 * v + 3 * t - 1) + v * (e + f + v) + e * f,
                 (1, 0): -(3 * t * (t - 1) + 2 * t * (v + a + b + c + 3)
                           + (b + c + 1) * v + (b + 1) * (a + c + 1) + a * c)},
        (0, 1): {(-1, 1): t * (2 * t + 2 * v + e + f - 1),
                 (0, 1): -(t * (t + b + c) + b * c)},
        (0, 0): {(-1, 0): t * ((v + e - 1) * (v + f - 1) + t * (t + 2 * v + e + f - 2)),
                 (0, 0): -(t * (t - 1) * (t + a + b + c + 1) + t * v * (t + b + c)
                           + t * (b + 1) * (c + 1) + a * (b + c + 1) * t
                           + b * c * (v + a))},
    })
    eq2 = _eq({
        (0, 4): {(0, 3): 1},
        (2, 2): {(2, 1): 1},
        (1, 3): {(1, 2): 2},
        (0, 3): {(0, 2): e + f + g + 2 * t + 4 * v + 3},
        (2, 1): {(2, 0): 2 * v + g},
        (1, 2): {(1, 1): e + f + 2 * g + 2 * t + 6 * v + 3},
        (2, 0): {(2, -1): v * (g + v - 1)},
        (1, 1): {(1, 0): 2 * v * (2 * t + 3 * v + e + f + 2 * g) + (e + f + 2 * t + 1) * g,
                 (1, 1): -1},
        (0, 2): {(0, 1): ((e + 1) * (f + 1) + (e + f + 1) * g + t * (t + e + f + 2 * g + 2)
                          + 3 * v * (2 * t + 2 * v + e + f + g + 1)),
                 (0, 2): -1},
        (1, 0): {(1, -1): v * (v + g - 1) * (2 * t + 2 * v + e + f - 1),
                 (1, 0): -(v + d)},
        (0, 1): {(0, 0): (v * (v - 1) * (4 * v + 6 * t + 3 * e + 3 * f + 3 * g + 1)
                          + 2 * t * v * (e + f + 2 * g + 3) + 2 * v * (e + 1) * (f + 1)
                          + g * (e + f + 1) * (t + 2 * v) + t * (t - 1) * (2 * v + g)
                          + e * f * g),
                 (0, 1): -(a + d + t + 2 * v + 1)},
        (0, 0): {(0, -1): v * ((v + e - 1) * (v + f - 1) * (v + g - 1)
                               + t * (v - 1) * (t + 2 * v + e + f + 2 * g - 2)
                               + t * (t - 1) * g + t),
                 (0, 0): -(d * t + (t + v + a + d) * v + a * d)},
    })
    return PdeSystem((eq1, eq2))


def _check_powers(action: Poly2) -> Poly2:
    cleaned = {key: c for key, c in action.items() if c != 0}
    for (i, j) in cleaned:
        if i < 0 or j < 0:
            raise NegativePowerError(f"monomial action produced power x^{i} y^{j}")
    return cleaned


def _pde_equation_action(eq: PdeEquation, r, s) -> Poly2:
    out: Poly2 = {}
    for term in eq.terms:
        ff = falling(r, term.dx) * falling(s, term.dy)
        if ff == 0:
            continue
        for (px, py), c in term.coeff.items():
            key = (r - term.dx + px, s - term.dy + py)
            out[key] = out.get(key, 0) + c * ff
    return _check_powers(out)


def _euler_product_action(prod: OperatorProduct, r, s) -> Poly2:
    cur: Poly2 = {(r, s): 1}
    for factor in reversed(prod.factors):
        if isinstance(factor, PowerFactor):
            cur = {(i + factor.kx, j + factor.ky): c for (i, j), c in cur.items()}
        else:
            cur = {(i, j): c * (factor.c0 + factor.cx * i + factor.cy * j)
                   for (i, j), c in cur.items()}
    return cur


def _euler_equation_action(eq: EulerEquation, r, s) -> Poly2:
    out = _euler_product_action(eq.plus, r, s)
    for key, c in _euler_product_action(eq.minus, r, s).items():
        out[key] = out.get(key, 0) - c
    return _check_powers(out)


def monomial_action(system, r, s) -> list[Poly2]:
    """Exact action of each equation on x^r y^s, one polynomial per equation.

    Exact whenever the system coefficients and (r, s) are exact numbers.
    """
    if isinstance(system, PdeSystem):
        return [_pde_equation_action(eq, r, s) for eq in system.equations]
    if isinstance(system, EulerSystem):
        return [_euler_equation_action(eq, r, s) for eq in system.equations]
    raise TypeError(f"unsupported system type {type(system).__name__}")


def equation_table(eq: PdeEquation) -> dict:
    """{(dx, dy): normalized coefficient polynomial}, zero terms dropped."""
    table: dict = {}
    for term in eq.terms:
        slot = table.setdefault((term.dx, term.dy), {})
        for key, c in term.coeff.items():
            slot[key] = slot.get(key, 0) + c
    return {order: {k: c for k, c in poly.items() if c != 0}
            for order, poly in table.items()
            if any(c != 0 for c in poly.values())}


def systems_equal(sys_a: PdeSystem, sys_b: PdeSystem) -> bool:
    if len(sys_a.equations) != len(sys_b.equations):
        return False
    return all(equation_table(ea) == equation_table(eb)
               for ea, eb in zip(sys_a.equations, sys_b.equations))


def substitution_defect_f1211(params: ParamsF1211, tau, nu, r, s) -> list[Poly2]:
    """Printed substituted system minus the exact substitution, acting on x^r y^s.

    The exact action is x^-tau y^-nu L[x^(r+tau) y^(s+nu)] with L the
    expanded system.  A nonzero entry pinpoints a defective printed
    coefficient; the defect carries a factor tau * nu, so both indicial
    exponent choices (tau = 0) are unaffected.
    """
    printed = monomial_action(substituted_system_f1211(params, tau, nu), r, s)
    exact_raw = monomial_action(expanded_system_f1211(params), r + tau, s + nu)
    defects = []
    for printed_eq, exact_eq in zip(printed, exact_raw):
        diff = dict(printed_eq)
        for (i, j), c in exact_eq.items():
            key = (i - tau, j - nu)
            diff[key] = diff.get(key, 0) - c
        defects.append({k: c for k, c in diff.items() if c != 0})
    return defects


@dataclass(frozen=True)
class EquationResidual:
    value: float
    scale: float


def residual(system: PdeSystem, u, point) -> list[EquationResidual]:
    """Apply each equation to the evaluator u at the point.

    ``u(x, y, orders)`` gets the sorted list of distinct (dx, dy) orders
    the system uses and must return one value per order, the (dx, dy)
    partial derivative at (x, y); it is called once per point, so an
    evaluator can share work between the orders
    (`frobenius.solution_evaluator` sums one series jet).  The scale sums
    |coefficient * derivative| over the terms so tolerances are meaningful
    across parameter regimes.
    """
    x, y = point
    orders = sorted({(t.dx, t.dy) for eq in system.equations for t in eq.terms})
    derivs = dict(zip(orders, u(x, y, orders)))
    out = []
    for eq in system.equations:
        val = 0.0
        scale = 0.0
        for term in eq.terms:
            contrib = poly_eval(term.coeff, x, y) * derivs[(term.dx, term.dy)]
            val += contrib
            scale += abs(contrib)
        out.append(EquationResidual(val, scale))
    return out
