import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kampe import DomainError, KdFShape, PoleError, gamma_ratio, kdf_eval_derivative
from oracles import poch_direct

# 50-digit reference, Gamma(1.7)/Gamma(0.9)
GAMMA_RATIO_17_09 = 0.85028479120134564495


def _rising(a: float, n: int) -> float:
    """(a)_n as the library computes it: the n-th x-derivative at the origin
    of sum_r (a)_r x^r / r! is the parameter-shift coefficient (a)_n."""
    return kdf_eval_derivative(KdFShape(upper_x=(a,)), (0.0, 0.0), n, 0).value


def test_pochhammer_order_zero():
    for a in (0.0, -3.0, 2.5, 17.0):
        assert _rising(a, 0) == 1.0


def test_pochhammer_small_integers():
    assert _rising(3.0, 4) == 360.0
    assert _rising(1.0, 6) == math.factorial(6)


def test_pochhammer_terminating_zero():
    assert _rising(-2.0, 5) == 0.0
    assert _rising(-2.0, 3) == 0.0
    assert _rising(-2.0, 2) == 2.0  # (-2)(-1)


def test_pochhammer_large_order_matches_direct():
    for a in (0.3, 1.7, 4.2):
        for n in (31, 32, 33, 60):
            assert _rising(a, n) == pytest.approx(poch_direct(a, n), rel=1e-13)


def test_gamma_ratio_basic():
    assert gamma_ratio(5.0, 3.0) == pytest.approx(12.0, rel=1e-14)
    assert gamma_ratio(1.0, 1.0) == 1.0
    assert gamma_ratio(1.7, 0.9) == pytest.approx(GAMMA_RATIO_17_09, rel=1e-13)


def test_gamma_ratio_negative_arguments():
    # Gamma(-0.5) = -2 sqrt(pi), Gamma(0.5) = sqrt(pi)
    assert gamma_ratio(-0.5, 0.5) == pytest.approx(-2.0, rel=1e-13)


def test_log_pochhammer_negative_base_sign():
    # (-2.5)_3 = (-2.5)(-1.5)(-0.5) = -1.875, as the derivative coefficient
    # and as Gamma(0.5) / Gamma(-2.5) (reflection in the denominator)
    assert _rising(-2.5, 3) == pytest.approx(-1.875, rel=1e-13)
    assert gamma_ratio(0.5, -2.5) == pytest.approx(-1.875, rel=1e-13)
    assert _rising(-2.5, 40) == pytest.approx(poch_direct(-2.5, 40), rel=1e-12)
    assert gamma_ratio(37.5, -2.5) == pytest.approx(poch_direct(-2.5, 40), rel=1e-12)


def test_gamma_ratio_poles():
    with pytest.raises(PoleError):
        gamma_ratio(0.0, 1.0)
    with pytest.raises(PoleError):
        gamma_ratio(1.0, -3.0)


def test_gamma_ratio_non_finite_arguments():
    for num, den in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(DomainError):
            gamma_ratio(num, den)


@given(st.floats(-5.0, 5.0).filter(lambda a: abs(a - round(a)) > 1e-6),
       st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_pochhammer_recurrence(a, n):
    lhs = _rising(a, n + 1)
    rhs = _rising(a, n) * (a + n)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-280)


@given(st.sampled_from([0.3, 1.7, 4.2]), st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_pochhammer_vs_gamma_ratio(a, n):
    assert poch_direct(a, n) == pytest.approx(gamma_ratio(a + n, a), rel=1e-12)
