import dataclasses
import math
import random

import pytest

from kampe import (DegenerateError, DomainError, ParamsF0211, ParamsF1211,
                   eval_solution, expanded_system_f0211, expanded_system_f1211,
                   independence_check, indicial_roots, kdf_eval, residual,
                   solution_derivative, solution_evaluator, solution_pair_f0211,
                   solution_pair_f1211)
from oracles import hyp1d

PF = ParamsF1211(0.3, 0.7, 0.3, 0.7, 1.2, 1.7, 0.4)
P0 = ParamsF0211(0.3, 0.7, 0.7, 1.2, 0.4)
POINTS = [(0.1, 0.2), (0.2, 0.15), (0.15, 0.3), (0.25, 0.1), (0.3, 0.3)]


def test_indicial_roots_values():
    r1, r2 = indicial_roots(0.3)
    assert (r1.tau, r1.nu) == (0.0, 0.0)
    assert (r2.tau, r2.nu) == (0.0, 0.7)
    r1, r2 = indicial_roots(1.0)
    assert (r2.tau, r2.nu) == (0.0, 0.0)
    r1, r2 = indicial_roots(2.0)
    assert (r2.tau, r2.nu) == (0.0, -1.0)


def test_indicial_roots_satisfy_system():
    rng = random.Random(7)
    for _ in range(100):
        g = rng.uniform(-3.0, 3.0)
        for root in indicial_roots(g):
            assert abs(root.tau) <= 1e-14
            assert abs(root.nu * (root.nu + g - 1.0)) <= 1e-14


def test_pair_f1211_shifts():
    u1, u2 = solution_pair_f1211(PF)
    assert u1.shape.lower_y == (0.4,)
    assert u2.exponents.nu == pytest.approx(0.6)
    assert u2.shape.upper_joint == (pytest.approx(0.3 + 0.6),)
    assert u2.shape.upper_y == (pytest.approx(0.7 + 0.6),)
    assert u2.shape.lower_joint == (pytest.approx(1.8), pytest.approx(2.3))
    assert u2.shape.lower_y == (pytest.approx(1.6),)
    assert u2.shape.upper_x == u1.shape.upper_x  # b, c untouched


def test_pair_f0211_shifts():
    u1, u2 = solution_pair_f0211(P0)
    assert u2.shape.upper_y == (pytest.approx(1.0 + 0.7 - 0.4),)
    assert u2.shape.lower_joint == (pytest.approx(1.0 + 1.2 - 0.4),)
    assert u2.shape.lower_y == (pytest.approx(1.6),)


def test_pair_collapses_at_g_one():
    params = dataclasses.replace(P0, g=1.0)
    u1, u2 = solution_pair_f0211(params)
    assert u2.exponents.nu == 0.0
    # all shifts are by 1 - g = 0, up to float roundoff in 1 + e - g
    assert u2.shape.upper_x == u1.shape.upper_x
    assert u2.shape.upper_y == pytest.approx(u1.shape.upper_y)
    assert u2.shape.lower_joint == pytest.approx(u1.shape.lower_joint)
    assert u2.shape.lower_y == pytest.approx(u1.shape.lower_y)


def test_degenerate_integer_g():
    params = dataclasses.replace(P0, g=2.0)
    with pytest.raises(DegenerateError) as err:
        solution_pair_f0211(params)
    assert err.value.first_solution is not None
    assert err.value.first_solution.shape.lower_y == (2.0,)


def test_degenerate_f1211_via_shifted_lower():
    # 1 - g + e integer <= 0 also blocks the second solution
    params = dataclasses.replace(PF, g=3.2, e=2.2)
    with pytest.raises(DegenerateError):
        solution_pair_f1211(params)


def test_eval_solution_zero_exponents_matches_series():
    u1, _ = solution_pair_f0211(P0)
    got = eval_solution(u1, (0.2, 0.3)).value
    assert got == kdf_eval(u1.shape, (0.2, 0.3)).value


def test_eval_solution_prefactor():
    _, u2 = solution_pair_f0211(dataclasses.replace(P0, g=0.5))
    got = eval_solution(u2, (0.0, 1.0)).value
    # at x = 0 the series collapses to a one-variable sum; prefactor is 1
    ref = hyp1d((u2.shape.upper_y[0],),
                (u2.shape.lower_joint[0], u2.shape.lower_y[0]), 1.0)
    assert got == pytest.approx(ref, rel=1e-12)


def test_eval_solution_prefactor_limit():
    _, u2 = solution_pair_f0211(P0)  # nu = 0.6
    prev = math.inf
    for y in (1e-2, 1e-4, 1e-6):
        val = abs(eval_solution(u2, (0.1, y)).value)
        assert val < prev
        assert val == pytest.approx(y ** 0.6, rel=0.05)
        prev = val


def test_eval_solution_domain_error():
    _, u2 = solution_pair_f0211(P0)
    with pytest.raises(DomainError):
        eval_solution(u2, (0.1, -0.2))
    with pytest.raises(DomainError):
        solution_derivative(u2, (0.1, 0.0), 0, 1)


def test_non_finite_parameters_are_domain_errors():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            solution_pair_f0211(ParamsF0211(0.8, 0.5, 0.9, 1.3, bad))


def test_residuals_f1211_both_solutions():
    system = expanded_system_f1211(PF)
    for sol in solution_pair_f1211(PF):
        ev = solution_evaluator(sol)
        for pt in ((0.2, 0.3), (0.15, 0.25)):
            for res in residual(system, ev, pt):
                assert abs(res.value) <= 1e-8 * res.scale


def test_residuals_f0211_both_solutions():
    system = expanded_system_f0211(P0)
    for sol in solution_pair_f0211(P0):
        ev = solution_evaluator(sol)
        for pt in ((0.2, 0.3), (0.35, 0.1)):
            for res in residual(system, ev, pt):
                assert abs(res.value) <= 1e-8 * res.scale


def test_independence_generic():
    u1, u2 = solution_pair_f0211(P0)
    assert independence_check(u1, u2, POINTS) is True


def test_independence_collapsed_pair():
    u1, u2 = solution_pair_f0211(dataclasses.replace(P0, g=1.0))
    assert independence_check(u1, u2, POINTS) is False


def test_independence_scaled_copy():
    u1, _ = solution_pair_f0211(P0)
    assert independence_check(u1, dataclasses.replace(u1, scale=3.0), POINTS) is False


def test_independence_needs_three_points():
    u1, u2 = solution_pair_f0211(P0)
    with pytest.raises(ValueError):
        independence_check(u1, u2, POINTS[:2])


def test_continuity_at_g_one():
    base = dataclasses.replace(P0, g=1.0)
    u1 = solution_pair_f0211(base)[0]
    for pt in ((0.2, 0.3), (0.1, 0.4)):
        ref = eval_solution(u1, pt).value
        for g in (1.0 - 1e-4, 1.0 + 1e-4):
            _, u2 = solution_pair_f0211(dataclasses.replace(P0, g=g))
            assert abs(eval_solution(u2, pt).value - ref) <= 1e-2
