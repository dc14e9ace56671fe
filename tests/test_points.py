"""kdf_eval_points against the one-point loop kdf_eval, bit for bit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kampe import (DivergenceError, DomainError, KdFShape, ParamsF0211,
                   ParamsF1211, ParamsXi2, PoleError, SeriesStatus,
                   TruncationPolicy, kdf_eval, kdf_eval_points, shape_f0211,
                   shape_f1211, shape_xi2)

F0211 = shape_f0211(ParamsF0211(0.7, 1.1, 0.9, 1.4, 1.6))
XI2 = shape_xi2(ParamsXi2(0.7, 1.1, 1.4))
F1211 = shape_f1211(ParamsF1211(0.7, 0.8, 0.5, 0.9, 1.3, 1.6, 1.1))


def _outcome(call):
    try:
        return call()
    except (PoleError, DivergenceError) as exc:
        return exc


def assert_same_as_scalar(shape, points, policy=None):
    """Every point's kdf_eval result, bit for bit; or the error of the first
    point whose kdf_eval raises."""
    scalar = [_outcome(lambda p=p: kdf_eval(shape, p, policy)) for p in points]
    batched = _outcome(lambda: kdf_eval_points(
        shape, [p[0] for p in points], [p[1] for p in points], policy))
    first_error = next((r for r in scalar if isinstance(r, Exception)), None)
    if first_error is not None:
        assert type(batched) is type(first_error)
        assert str(batched) == str(first_error)
        return
    assert not isinstance(batched, Exception), batched
    assert len(batched) == len(points)
    for want, got in zip(scalar, batched):
        assert got.value.hex() == want.value.hex()
        assert got.diagonals_used == want.diagonals_used
        assert got.tail_estimate.hex() == want.tail_estimate.hex()
        assert got.status is want.status


_upper = st.one_of(st.floats(-2.5, 2.5), st.sampled_from([0.0, -1.0, -2.0, -3.0]))
_lower = st.one_of(st.floats(0.2, 3.0), st.sampled_from([-1.0, -2.0, -4.0]))
_coordinate = st.one_of(st.floats(-1.3, 1.3), st.floats(-12.0, 12.0), st.just(0.0))


@st.composite
def _shapes(draw):
    groups = [draw(st.lists(_upper, max_size=2)) for _ in range(3)]
    groups += [draw(st.lists(_lower, max_size=2)) for _ in range(3)]
    return KdFShape(*groups)


@given(_shapes(), st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=6),
       st.integers(0, 300))
@settings(max_examples=80, deadline=None)
def test_points_equal_scalar_on_drawn_shapes(shape, points, max_diagonal):
    assert_same_as_scalar(shape, points, TruncationPolicy(max_diagonal=max_diagonal))


def test_points_equal_scalar_on_axes():
    points = [(0.0, 0.0), (0.45, 0.0), (-0.8, 0.0), (0.0, 3.0), (0.0, -7.5), (0.3, 0.4)]
    for shape in (F0211, XI2, F1211):
        assert_same_as_scalar(shape, points)


def test_points_equal_scalar_on_terminating_shapes():
    points = [(0.7, 0.3), (2.0, 3.0), (0.0, 0.5), (-0.4, 0.0)]
    fully = KdFShape(upper_x=(-2.0,), upper_y=(-1.0,), lower_joint=(1.5,))
    in_x = shape_f1211(ParamsF1211(1.0, -2.0, 1.0, 1.0, 2.0, 2.0, 2.0))
    joint = KdFShape(upper_joint=(-3.0,), upper_x=(0.5,), lower_y=(1.2,))
    # lower poles beyond the termination: their NaN ratios meet only zero terms
    protected_y = KdFShape(upper_x=(0.5,), upper_y=(-1.0,), lower_joint=(1.5,),
                           lower_y=(-2.0,))
    protected_x = KdFShape(upper_x=(-1.0, 0.7), upper_y=(0.4,), lower_joint=(1.5,),
                           lower_x=(-3.0,))
    for shape in (fully, in_x, joint, protected_y, protected_x):
        assert_same_as_scalar(shape, points)
    res = kdf_eval_points(fully, [2.0], [3.0])
    assert res.statuses == (SeriesStatus.TERMINATING,)
    assert res.tail_estimates[0] == 0.0


def test_points_equal_scalar_under_starved_policy():
    points = [(0.9, 5.0), (0.3, 0.4), (0.0, 0.0), (-0.95, -8.0)]
    for cap in (0, 1, 6):
        policy = TruncationPolicy(max_diagonal=cap)
        assert_same_as_scalar(F0211, points, policy)
        res = kdf_eval_points(F0211, [p[0] for p in points], [p[1] for p in points], policy)
        assert SeriesStatus.TRUNCATED_AT_CAP in res.statuses


def test_points_equal_scalar_where_sums_are_accelerated():
    # alternating diagonal sums just inside |x| = 1: the Levin transform
    # stops these within 40 diagonals, also under caps that cut it short
    points = [(-0.9, -2.5), (-0.9, 2.5), (-0.95, -8.0), (-0.947, -3.69), (0.3, 0.4),
              (-0.85, 1.5)]
    for shape in (F0211, XI2, F1211):
        for cap in (12, 25, 30, 5000):
            assert_same_as_scalar(shape, points, TruncationPolicy(max_diagonal=cap))
    res = kdf_eval_points(F0211, [-0.947, -0.95], [-3.69, -8.0])
    assert res.statuses == (SeriesStatus.CONVERGED,) * 2
    assert res.diagonals_used.max() <= 40


def test_points_errors_match_scalar():
    policy = TruncationPolicy(max_diagonal=2000)
    with pytest.raises(PoleError):
        kdf_eval_points(KdFShape(upper_x=(0.5,), lower_y=(-1.0,)), [0.3], [0.3])
    # growth outside the region; terms beyond double range
    assert_same_as_scalar(F0211, [(0.3, 0.4), (1.4, 0.2)], policy)
    assert_same_as_scalar(XI2, [(0.3, 0.4), (1e300, 0.0)], policy)
    # with two failing points the lower index decides, as in a loop of kdf_eval
    assert_same_as_scalar(F0211, [(1.4, 0.2), (1e300, 0.0)], policy)
    assert_same_as_scalar(F0211, [(1e300, 0.0), (1.4, 0.2)], policy)


def test_points_empty_and_shape_mismatch():
    res = kdf_eval_points(F0211, [], [])
    assert len(res) == 0 and res.statuses == ()
    with pytest.raises(ValueError):
        kdf_eval_points(F0211, [0.1, 0.2], [0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_points_are_domain_errors(bad):
    with pytest.raises(DomainError):
        kdf_eval(F0211, (bad, 0.1))
    with pytest.raises(DomainError):
        kdf_eval(F0211, (0.1, bad))
    with pytest.raises(DomainError):
        kdf_eval_points(F0211, [0.1, bad], [0.2, 0.3])
    with pytest.raises(DomainError):
        kdf_eval_points(F0211, [0.1, 0.2], [bad, 0.3])
