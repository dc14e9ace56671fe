import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kampe import (DivergenceError, DomainError, KdFShape, ParamsF0211,
                   ParameterError, ParamsXi2, PoleError,
                   SeriesStatus, TruncationPolicy, classify_convergence,
                   in_region, kdf_derivative_shape, kdf_eval,
                   kdf_eval_derivative, kdf_eval_jet, kdf_eval_points,
                   shape_f0211, shape_f1211,
                   shape_xi2, validate_shape, ParamsF1211)
from oracles import hyp1d, shape_double_sum

F1211_ONES = shape_f1211(ParamsF1211(1, 1, 1, 1, 2, 2, 2))
XI2 = shape_xi2(ParamsXi2(0.7, 1.1, 1.4))
F0211 = shape_f0211(ParamsF0211(0.7, 1.1, 0.9, 1.4, 1.6))


# --- validation -------------------------------------------------------------

def test_validate_clean_shape():
    rep = validate_shape(F0211)
    assert rep.ok and not rep.terminating
    assert "valid, non-terminating" in rep.messages[0]


def test_validate_denominator_pole():
    sh = KdFShape(upper_x=(0.5,), lower_x=(-2.0,))
    rep = validate_shape(sh)
    assert rep.undefined and not rep.ok
    assert any("denominator pole" in m for m in rep.messages)


def test_validate_terminating_numerator():
    sh = KdFShape(upper_x=(-3.0, 0.5), lower_joint=(1.5,))
    rep = validate_shape(sh)
    assert rep.ok
    assert rep.terminates_x == 3
    assert any("terminates in r at order 3" in m for m in rep.messages)


def test_validate_protected_pole():
    # numerator cuts the series at r = 2 before the pole at r = 4
    sh = KdFShape(upper_x=(-2.0,), lower_x=(-3.0,), lower_joint=(1.5,))
    assert validate_shape(sh).ok
    # pole hit before termination
    sh = KdFShape(upper_x=(-5.0,), lower_x=(-3.0,), lower_joint=(1.5,))
    assert not validate_shape(sh).ok


def test_non_finite_shape_entries_are_domain_errors():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            kdf_eval(KdFShape(upper_x=(bad,)), (0.1, 0.1))
        with pytest.raises(DomainError):
            KdFShape(lower_joint=(1.5, bad))


def test_policy_rejects_bad_values():
    for bad in ({"max_diagonal": 5.5}, {"max_diagonal": 40.0}, {"max_diagonal": True},
                {"max_diagonal": "40"}, {"max_diagonal": -1}, {"max_diagonal": 20001},
                {"consecutive_small": 1.5}, {"consecutive_small": False},
                {"consecutive_small": 0}, {"rel_tol": 0.0}, {"rel_tol": 1.0}):
        with pytest.raises(ParameterError):
            TruncationPolicy(**bad)
    assert TruncationPolicy(max_diagonal=0, consecutive_small=1).max_diagonal == 0


# --- coefficients: the (r, s) derivative at the origin is r! s! * coefficient ---

def test_term_at_origin_is_one():
    for sh in (F1211_ONES, XI2, F0211):
        assert kdf_eval_derivative(sh, (0.0, 0.0), 0, 0).value == 1.0


def test_term_xi2_first_x_term():
    sh = shape_xi2(ParamsXi2(0.7, 1.1, 1.4))
    got = kdf_eval_derivative(sh, (0.0, 0.0), 1, 0).value
    assert got == pytest.approx(0.7 * 1.1 / 1.4, rel=1e-15)


def test_term_f1211_ones_at_1_1():
    # hand expansion: (1)_2 / ((2)_2 (2)_2 (2)_1) = 2/72
    got = kdf_eval_derivative(F1211_ONES, (0.0, 0.0), 1, 1).value
    assert got == pytest.approx(1.0 / 36.0, rel=1e-15)


def test_term_f1211_ones_at_2_0():
    # (1)_2 (1)_2 (1)_2 / ((2)_2 (2)_2 2!) = 1/9
    got = kdf_eval_derivative(F1211_ONES, (0.0, 0.0), 2, 0).value
    assert got == pytest.approx(math.factorial(2) / 9.0, rel=1e-15)


def test_term_pole_raises():
    sh = KdFShape(upper_x=(0.5,), lower_x=(-2.0,))
    with pytest.raises(PoleError):
        kdf_eval_derivative(sh, (0.0, 0.0), 3, 0)


# --- evaluation -------------------------------------------------------------

def test_eval_origin_exactly_one():
    for sh in (F1211_ONES, XI2, F0211):
        res = kdf_eval(sh, (0.0, 0.0))
        assert res.value == 1.0
        assert res.status is SeriesStatus.CONVERGED
        assert res.tail_estimate == 0.0


def test_eval_xi2_axis_matches_gauss_series():
    for x in (-0.45, -0.2, 0.1, 0.35, 0.49):
        got = kdf_eval(XI2, (x, 0.0)).value
        ref = hyp1d((0.7, 1.1), (1.4,), x)
        assert got == pytest.approx(ref, rel=1e-12)


def test_eval_terminating_matches_brute_force():
    sh = shape_f1211(ParamsF1211(1.0, -2.0, 1.0, 1.0, 2.0, 2.0, 2.0))
    res = kdf_eval(sh, (0.7, 0.3))
    assert res.status is SeriesStatus.TERMINATING
    ref = shape_double_sum(sh, 0.7, 0.3, rmax=3, smax=120)
    assert res.value == pytest.approx(ref, rel=1e-12)


def test_eval_fully_terminating_is_exact_polynomial():
    sh = KdFShape(upper_x=(-2.0,), upper_y=(-1.0,), lower_joint=(1.5,))
    res = kdf_eval(sh, (2.0, 3.0))
    assert res.status is SeriesStatus.TERMINATING
    assert res.tail_estimate == 0.0
    ref = shape_double_sum(sh, 2.0, 3.0, rmax=4, smax=3)
    assert res.value == pytest.approx(ref, rel=1e-14)


def test_eval_divergence_outside_region():
    with pytest.raises(DivergenceError):
        kdf_eval(F0211, (1.4, 0.2), TruncationPolicy(max_diagonal=2000))


def test_eval_converged_tail_invariant():
    policy = TruncationPolicy(rel_tol=1e-10)
    res = kdf_eval(F0211, (0.4, 0.7), policy)
    assert res.status is SeriesStatus.CONVERGED
    assert res.tail_estimate <= 1e-10 * max(abs(res.value), 1e-300)


# (shape, point, cap, whether the terms keep one sign): each sweep stops at
# the cap long before it converges
_F0211_B = shape_f0211(ParamsF0211(0.8, 0.5, 0.9, 1.3, 1.1))
_F1211 = shape_f1211(ParamsF1211(0.7, 0.8, 0.5, 0.9, 1.3, 1.6, 1.1))
_TRUNCATED = [
    (_F0211_B, (0.95, 0.5), 40, True),
    (_F0211_B, (0.9, 5.0), 100, True),
    (_F1211, (0.5, 0.3), 30, True),
    (_F1211, (0.3, 0.4), 10, True),
    (XI2, (0.9, 2.0), 50, True),
    (F0211, (0.97, -1.0), 120, True),
    (_F0211_B, (-0.9, -3.0), 15, False),
    (XI2, (-0.95, 0.0), 10, False),
]


def test_cap_tail_tracks_true_error():
    # the tail of a truncated sum is within a factor 10 of its true error
    # (taken from the converged sum), for the value and for a jet partial;
    # on alternating terms the geometric tail may only overestimate
    converged = TruncationPolicy(max_diagonal=20000)
    for shape, point, cap, one_sign in _TRUNCATED:
        policy = TruncationPolicy(max_diagonal=cap)
        for got, want in ((kdf_eval(shape, point, policy), kdf_eval(shape, point, converged)),
                          (kdf_eval_jet(shape, point, [(1, 1)], policy)[0],
                           kdf_eval_derivative(shape, point, 1, 1, converged))):
            assert got.status is SeriesStatus.TRUNCATED_AT_CAP
            assert want.status is SeriesStatus.CONVERGED
            error = abs(got.value - want.value)
            assert got.tail_estimate >= error / 10, (point, cap)
            if one_sign:
                assert got.tail_estimate <= 10 * error, (point, cap)


def test_accelerated_alternating_sums_match_closed_forms():
    # just inside |x| = 1 with x < 0 the diagonal sums alternate and shrink
    # slowly; the Levin transform settles within 40 diagonals where plain
    # summation needs hundreds
    xi2 = shape_xi2(ParamsXi2(1.0, 1.0, 2.0))  # -ln(1 - x) / x at y = 0
    binomial = KdFShape(upper_x=(0.5,))  # (1 - x)^(-1/2) e^y
    for x in (-0.85, -0.9, -0.95, -0.97):
        res = kdf_eval(xi2, (x, 0.0))
        exact = -math.log1p(-x) / x
        assert res.status is SeriesStatus.CONVERGED and res.diagonals_used <= 40, (x, res)
        assert abs(res.value - exact) <= 1e-14 * exact, x
        res = kdf_eval(binomial, (x, -3.0))
        exact = (1.0 - x) ** -0.5 * math.exp(-3.0)
        assert res.status is SeriesStatus.CONVERGED and res.diagonals_used <= 40, (x, res)
        # at y = -3 the partial sums reach ~110 |F| before they cancel, and
        # their own rounding (2e-14 to 6e-14 |F| here) bounds any transform
        # of them, so the error is measured against the largest of them
        largest = max(abs(kdf_eval(binomial, (x, -3.0), TruncationPolicy(max_diagonal=n)).value)
                      for n in range(res.diagonals_used + 1))
        assert abs(res.value - exact) <= 1e-14 * largest, x


def test_eval_pole_gate():
    sh = KdFShape(upper_x=(0.5,), lower_y=(-1.0,))
    with pytest.raises(PoleError):
        kdf_eval(sh, (0.3, 0.3))


# --- derivatives ------------------------------------------------------------

def test_derivative_shape_identity():
    c, sh = kdf_derivative_shape(F0211, 0, 0)
    assert c == 1.0 and sh == F0211


def test_derivative_shape_f0211_dx():
    c, sh = kdf_derivative_shape(F0211, 1, 0)
    assert c == pytest.approx(0.7 * 1.1 / 1.4, rel=1e-15)
    assert sh.upper_x == (1.7, 2.1)
    assert sh.lower_joint == (2.4,)
    assert sh.upper_y == (0.9,) and sh.lower_y == (1.6,)


def test_derivative_shape_f0211_dy():
    c, sh = kdf_derivative_shape(F0211, 0, 1)
    assert c == pytest.approx(0.9 / (1.4 * 1.6), rel=1e-15)
    assert sh.upper_y == (1.9,) and sh.lower_y == (2.6,)
    assert sh.lower_joint == (2.4,)
    assert sh.upper_x == (0.7, 1.1)


def test_derivative_mixed_joint_shift():
    _, sh = kdf_derivative_shape(F1211_ONES, 2, 1)
    assert sh.upper_joint == (4.0,)
    assert sh.lower_joint == (5.0, 5.0)
    assert sh.upper_x == (3.0, 3.0) and sh.upper_y == (2.0,)


def test_derivative_pole():
    sh = KdFShape(upper_x=(0.5,), lower_x=(0.0,))
    with pytest.raises(PoleError):
        kdf_derivative_shape(sh, 1, 0)


def test_eval_derivative_at_origin_is_coefficient():
    c, _ = kdf_derivative_shape(F0211, 1, 0)
    res = kdf_eval_derivative(F0211, (0.0, 0.0), 1, 0)
    assert res.value == c


def test_eval_derivative_vs_termwise_sum():
    got = kdf_eval_derivative(F0211, (0.3, 0.4), 1, 1).value
    ref = shape_double_sum(F0211, 0.3, 0.4, wx=1, wy=1)
    assert got == pytest.approx(ref, rel=1e-10)


def test_eval_derivative_vs_finite_difference():
    h = 1e-5
    got = kdf_eval_derivative(F0211, (0.2, 0.1), 1, 0).value
    fd = (kdf_eval(F0211, (0.2 + h, 0.1)).value
          - kdf_eval(F0211, (0.2 - h, 0.1)).value) / (2 * h)
    assert got == pytest.approx(fd, rel=1e-6)


# --- convergence classification ----------------------------------------------

def test_classify_f1211():
    region = classify_convergence(shape_f1211(ParamsF1211(1, 1, 1, 1, 2, 2, 2)))
    assert region.x_radius == 1.0
    assert math.isinf(region.y_radius)
    assert region.coupled is None


def test_classify_f0211_and_xi2():
    for sh in (F0211, XI2):
        region = classify_convergence(sh)
        assert region.x_radius == 1.0
        assert math.isinf(region.y_radius)


def test_classify_entire():
    sh = KdFShape(upper_x=(0.5,), lower_x=(1.5,), lower_joint=(1.0,))
    region = classify_convergence(sh)
    assert math.isinf(region.x_radius) and math.isinf(region.y_radius)


def test_classify_coupled_binomial():
    # single joint numerator: series of (1 - x - y)^(-a); |x| + |y| < 1
    sh = KdFShape(upper_joint=(0.75,))
    region = classify_convergence(sh)
    assert region.coupled == 1
    got = kdf_eval(sh, (0.3, 0.4)).value
    assert got == pytest.approx((1.0 - 0.7) ** -0.75, rel=1e-12)


def test_classify_empty():
    sh = KdFShape(upper_x=(0.5, 0.7, 0.9,), lower_x=(1.5,))
    region = classify_convergence(sh)
    assert region.x_radius == 0.0


def test_in_region_margin():
    region = classify_convergence(F0211)
    assert in_region(region, (0.5, 100.0))
    assert not in_region(region, (1.0, 0.0))
    assert not in_region(region, (0.9995, 0.0))


def test_in_region_coupled():
    region = classify_convergence(KdFShape(upper_joint=(0.75,)))
    assert in_region(region, (0.4, 0.4))
    assert not in_region(region, (0.6, 0.5))


# --- properties ---------------------------------------------------------------

@given(st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.floats(1.1, 2.5),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
@settings(max_examples=25, deadline=None)
def test_permutation_invariance(b, c, e, x, y):
    sh1 = KdFShape(upper_x=(b, c), lower_joint=(e,))
    sh2 = KdFShape(upper_x=(c, b), lower_joint=(e,))
    v1 = kdf_eval(sh1, (x, y)).value
    v2 = kdf_eval(sh2, (x, y)).value
    assert v1 == pytest.approx(v2, rel=5e-16, abs=5e-16)


@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
@settings(max_examples=25, deadline=None)
def test_converges_within_cap_near_origin(x, y):
    res = kdf_eval(F0211, (x, y), TruncationPolicy(max_diagonal=2000))
    assert res.status is SeriesStatus.CONVERGED
    assert res.diagonals_used <= 2000


# --- concurrency ----------------------------------------------------------------

def test_concurrent_first_use_of_a_shape_matches_serial():
    # four threads evaluate a shape nobody has evaluated yet, so they all
    # fill its shared ratio memo at once; a short switch interval makes the
    # interleaving likely
    import sys
    import threading

    from kampe import series

    point = (0.9, 5.0)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(30):
            shape = shape_f0211(ParamsF0211(0.8 + 1e-3 * trial, 0.5, 0.9, 1.3, 1.1))
            outcomes = [None] * 4
            start = threading.Barrier(4)

            def run(i, shape=shape, outcomes=outcomes, start=start):
                try:
                    start.wait(timeout=60)
                    outcomes[i] = kdf_eval(shape, point)
                except Exception as exc:  # the race showed up as IndexError
                    outcomes[i] = exc

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            series._ratio_table.cache_clear()
            want = kdf_eval(shape, point)
            assert outcomes == [want] * 4, f"trial {trial}: {outcomes}"
    finally:
        sys.setswitchinterval(old_interval)


def test_ratio_memo_gives_the_same_bits_cold_and_after_a_long_sweep():
    from kampe import series

    shape = _F1211
    points = [(0.3, 0.4), (0.05, -0.1), (0.6, 0.2)]
    orders = [(0, 0), (1, 0), (0, 1), (2, 1)]

    def bits():
        out = []
        for p in points:
            res = [kdf_eval(shape, p)] + kdf_eval_jet(shape, p, orders)
            out += [(r.value.hex(), r.tail_estimate.hex(), r.diagonals_used) for r in res]
        batch = kdf_eval_points(shape, [p[0] for p in points], [p[1] for p in points])
        out += [(v.hex(), t.hex()) for v, t in zip(batch.values.tolist(),
                                                   batch.tail_estimates.tolist())]
        return out

    series._ratio_table.cache_clear()
    cold = bits()
    long = kdf_eval(shape, (0.99, 0.0), TruncationPolicy(max_diagonal=600))
    assert long.diagonals_used == 600
    assert series._ratio_table.cache_info().currsize >= 7  # sizes 16 .. 1024
    assert bits() == cold
