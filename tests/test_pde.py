from fractions import Fraction

import pytest

from kampe import (DomainError, NegativePowerError, ParamsF0211, ParamsF1211,
                   equation_table, euler_system, expanded_system_f0211,
                   expanded_system_f1211, monomial_action, residual,
                   solution_evaluator, solution_pair_f0211,
                   substituted_system_f1211, substitution_defect_f1211,
                   systems_equal)

PF = ParamsF1211(0.4, 0.8, 0.5, 0.9, 1.3, 1.8, 1.1)
P0 = ParamsF0211(0.8, 0.5, 0.9, 1.3, 1.1)

RATIONAL_SETS = [
    tuple(Fraction(n, d) for n, d in
          ((1, 2), (3, 4), (2, 3), (5, 4), (7, 5), (9, 7), (4, 3))),
    tuple(Fraction(n, d) for n, d in
          ((1, 3), (2, 5), (5, 6), (7, 6), (11, 8), (13, 9), (3, 2))),
    tuple(Fraction(n, 1) for n in (2, 1, 3, 1, 4, 3, 2)),
]


# --- literal coefficients ----------------------------------------------------

def _coeff(system, eq_index, order):
    return equation_table(system.equations[eq_index])[order]


def test_f1211_eq1_key_coefficients():
    a, b, c, d, e, f, g = (PF.a, PF.b, PF.c, PF.d, PF.e, PF.f, PF.g)
    sys1 = expanded_system_f1211(PF)
    assert _coeff(sys1, 0, (3, 0)) == {(2, 0): 1, (3, 0): -1}
    assert _coeff(sys1, 0, (0, 0)) == {(0, 0): -a * b * c}
    assert _coeff(sys1, 0, (0, 1)) == {(0, 1): -b * c}
    assert _coeff(sys1, 0, (1, 0)) == {(0, 0): e * f,
                                       (1, 0): -(a * (b + c + 1) + (b + 1) * (c + 1))}


def test_f1211_eq2_key_coefficients():
    a, d, e, f, g = PF.a, PF.d, PF.e, PF.f, PF.g
    sys1 = expanded_system_f1211(PF)
    assert _coeff(sys1, 1, (2, 1)) == {(2, 0): g}
    assert _coeff(sys1, 1, (0, 1)) == {(0, 0): e * f * g, (0, 1): -(a + d + 1)}
    assert _coeff(sys1, 1, (1, 0)) == {(1, 0): -d}
    assert _coeff(sys1, 1, (0, 0)) == {(0, 0): -a * d}


def test_f0211_key_coefficients():
    b, c, d, e, g = P0.b, P0.c, P0.d, P0.e, P0.g
    sys0 = expanded_system_f0211(P0)
    assert _coeff(sys0, 0, (1, 0)) == {(0, 0): e, (1, 0): -(b + c + 1)}
    assert _coeff(sys0, 1, (0, 1)) == {(0, 0): e * g, (0, 1): -1}
    assert _coeff(sys0, 1, (0, 0)) == {(0, 0): -d}


def test_substituted_key_coefficients():
    params = ParamsF1211(*RATIONAL_SETS[0])
    tau, nu = Fraction(1, 3), Fraction(2, 5)
    e, f, g = params.e, params.f, params.g
    sub = substituted_system_f1211(params, tau, nu)
    assert _coeff(sub, 1, (2, 0)) == {(2, -1): nu * (g + nu - 1)}
    assert _coeff(sub, 1, (0, 3)) == {(0, 2): e + f + g + 2 * tau + 4 * nu + 3}
    assert _coeff(sub, 0, (0, 2)) == {(-1, 2): tau}


# --- euler action ------------------------------------------------------------

def test_theta_eigenvalue():
    sysE = euler_system("F0211", ParamsF0211(*(Fraction(v) for v in (1, 1, 1, 2, 2))))
    # plus part of equation 1 on x^r y^s is r(e+r+s-1) x^(r-1) y^s
    action = monomial_action(sysE, 3, 2)[0]
    assert action[(2, 2)] == 3 * (2 + 3 + 2 - 1)
    assert action[(3, 2)] == -(1 + 3) * (1 + 3)


def test_euler_action_on_constant():
    # the leading (1 + theta_x) factor annihilates the x^-1 monomial, so the
    # action on 1 is just the minus product: -(b)(c) here
    b, c = Fraction(3), Fraction(5)
    sysE = euler_system("F0211", ParamsF0211(b, c, Fraction(1), Fraction(2), Fraction(2)))
    action = monomial_action(sysE, 0, 0)
    assert action[0] == {(0, 0): -b * c}


def test_negative_power_action_raises():
    params = ParamsF1211(*RATIONAL_SETS[0])
    sub = substituted_system_f1211(params, Fraction(1, 3), Fraction(2, 5))
    with pytest.raises(NegativePowerError):
        monomial_action(sub, 0, 1)  # tau x^-1 y^2 w_yy term lands at x^-1


def test_f1211_eq2_contains_g_shift_factor():
    sysE = euler_system("F1211", ParamsF1211(*RATIONAL_SETS[0]))
    c0s = [fac.c0 for fac in sysE.equations[1].plus.factors if hasattr(fac, "c0")]
    assert RATIONAL_SETS[0][6] in c0s  # the g + theta_y factor


# --- operator vs expanded equivalence ----------------------------------------

@pytest.mark.parametrize("values", RATIONAL_SETS)
def test_operator_equivalence_exact(values):
    a, b, c, d, e, f, g = values
    pf = ParamsF1211(a, b, c, d, e, f, g)
    p0 = ParamsF0211(b, c, d, e, g)
    exp_f = expanded_system_f1211(pf)
    exp_0 = expanded_system_f0211(p0)
    eul_f = euler_system("F1211", pf)
    eul_0 = euler_system("F0211", p0)
    for r in range(1, 7):
        for s in range(1, 7):
            got_f = monomial_action(eul_f, r, s)
            want_f = monomial_action(exp_f, r, s)
            assert got_f == want_f, f"F1211 mismatch at ({r},{s})"
            got_0 = monomial_action(eul_0, r, s)
            want_0 = monomial_action(exp_0, r, s)
            assert got_0 == want_0, f"F0211 mismatch at ({r},{s})"


def test_substituted_zero_exponents_equals_expanded():
    params = ParamsF1211(*RATIONAL_SETS[1])
    sub0 = substituted_system_f1211(params, Fraction(0), Fraction(0))
    assert systems_equal(sub0, expanded_system_f1211(params))


def test_substituted_zero_exponents_action_matches():
    params = ParamsF1211(*RATIONAL_SETS[1])
    sub0 = substituted_system_f1211(params, Fraction(0), Fraction(0))
    exp = expanded_system_f1211(params)
    assert monomial_action(sub0, 3, 2) == monomial_action(exp, 3, 2)


def test_substitution_defect_fingerprint():
    # the printed fourth-order equation deviates from the exact substitution
    # by exactly -tau*nu*((e+f+1)g - 1) * y^{-1} * omega; equation one is exact
    params = ParamsF1211(*RATIONAL_SETS[1])
    tau, nu = Fraction(1, 3), Fraction(2, 5)
    for r, s in ((1, 1), (2, 3), (4, 2)):
        d1, d2 = substitution_defect_f1211(params, tau, nu, r, s)
        assert d1 == {}
        expected = -tau * nu * ((params.e + params.f + 1) * params.g - 1)
        assert d2 == {(r, s - 1): expected}


def test_substitution_defect_vanishes_at_tau_zero():
    params = ParamsF1211(*RATIONAL_SETS[2])
    for nu in (Fraction(2, 5), Fraction(-1, 3)):
        d1, d2 = substitution_defect_f1211(params, Fraction(0), nu, 2, 2)
        assert d1 == {} and d2 == {}


# --- residual ----------------------------------------------------------------

def test_residual_constant_function_annihilated():
    # with b = 0 and d = 0 both constant terms vanish on u == 1
    params = ParamsF0211(0.0, 0.5, 0.0, 1.3, 1.1)
    system = expanded_system_f0211(params)

    def const_one(x, y, orders):
        return [1.0 if order == (0, 0) else 0.0 for order in orders]

    for res in residual(system, const_one, (0.2, 0.3)):
        assert res.value == 0.0


def test_residual_solution_small():
    u1, u2 = solution_pair_f0211(P0)
    system = expanded_system_f0211(P0)
    for sol in (u1, u2):
        for res in residual(system, solution_evaluator(sol), (0.2, 0.3)):
            assert abs(res.value) <= 1e-9 * res.scale


def test_residual_axis_guard():
    params = ParamsF1211(*RATIONAL_SETS[0])
    sub = substituted_system_f1211(params, Fraction(1, 3), Fraction(2, 5))

    def const_one(x, y, orders):
        return [1.0 if order == (0, 0) else 0.0 for order in orders]

    with pytest.raises(DomainError):
        residual(sub, const_one, (0.0, 0.3))
