"""kdf_eval_jet against the shift identity kdf_eval_derivative, order by order,
and kdf_eval_points over many points against kdf_eval_jet at each."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kampe import (KampeError, KdFShape, ParamsF0211, ParamsF1211, ParamsXi2,
                   SeriesStatus, TruncationPolicy, expanded_system_f1211,
                   kdf_derivative_shape, kdf_eval, kdf_eval_derivative,
                   kdf_eval_jet, kdf_eval_points, residual, shape_f0211,
                   shape_f1211, shape_xi2, solution_evaluator,
                   solution_pair_f1211)

F0211 = shape_f0211(ParamsF0211(0.7, 1.1, 0.9, 1.4, 1.6))
XI2 = shape_xi2(ParamsXi2(0.7, 1.1, 1.4))
F1211 = shape_f1211(ParamsF1211(0.7, 0.8, 0.5, 0.9, 1.3, 1.6, 1.1))
ORDERS = [(i, j) for i in range(4) for j in range(5) if i + j <= 4]


def _outcome(call):
    try:
        return call()
    except KampeError as exc:
        return exc


def _diagonals(shape, point, diagonals: int) -> list[tuple[float, float]]:
    """(sum of terms, sum of |term|) of each of the first `diagonals` + 1
    diagonals, each term from prefix sums of log|a + k| for its Pochhammer
    factors, with the signs of those factors and of x^r y^s."""
    x, y = point
    n = diagonals + 1

    def log_poch(params):
        logs, signs = [0.0] * (n + 1), [1.0] * (n + 1)
        for k in range(n):
            step = sum(math.log(abs(a + k)) if a + k != 0.0 else -math.inf for a in params)
            logs[k + 1] = logs[k] + step
            signs[k + 1] = signs[k] * math.prod(-1.0 if a + k < 0.0 else 1.0 for a in params)
        return logs, signs

    uj, ux, uy = (log_poch(g) for g in (shape.upper_joint, shape.upper_x, shape.upper_y))
    lj, lx, ly = (log_poch(g) for g in (shape.lower_joint, shape.lower_x, shape.lower_y))
    log_x = math.log(abs(x)) if x else -math.inf
    log_y = math.log(abs(y)) if y else -math.inf
    out = []
    for d in range(n):
        terms = []
        for r in range(d + 1):
            s = d - r
            num = (uj[0][d] + ux[0][r] + uy[0][s] + (r * log_x if r else 0.0)
                   + (s * log_y if s else 0.0))
            if num > -math.inf:
                sign = (uj[1][d] * ux[1][r] * uy[1][s] * lj[1][d] * lx[1][r] * ly[1][s]
                        * (-1.0 if x < 0.0 and r % 2 else 1.0)
                        * (-1.0 if y < 0.0 and s % 2 else 1.0))
                terms.append(sign * math.exp(num - lj[0][d] - lx[0][r] - ly[0][s]
                                             - math.lgamma(r + 1) - math.lgamma(s + 1)))
        out.append((math.fsum(terms), sum(abs(t) for t in terms)))
    return out


def _abs_sum(shape, point, diagonals: int) -> float:
    """Sum of |term| over the first `diagonals` + 1 diagonals."""
    return sum(a for _, a in _diagonals(shape, point, diagonals))


def _cancels(shape, point, diagonals: int) -> bool:
    """Whether some diagonal sum d_n among the first `diagonals` + 1 cancels
    to rounding: |d_n| <= 4 (n + 1) u sum|t_n| with sum|t_n| > 0, u = 2^-53."""
    return any(0.0 < a and abs(d) <= 4 * (n + 1) * 2.0 ** -53 * a
               for n, (d, a) in enumerate(_diagonals(shape, point, diagonals)))


def assert_jet_matches_shift(shape, point, orders, policy=None):
    """Per order: the shift identity's diagonals and status, and its value
    within 1e-12 * max(1, kappa), kappa = sum|terms| / |sum| of the shifted
    series; for (0, 0), kdf_eval's value and tail to the bit; where kdf_eval
    at the point raises, an error of the same type.

    The jet's weighted sums and the shifted series' own sums round apart,
    so where a diagonal sum of the shifted series cancels to rounding
    (`_cancels`), their stopping decisions may differ: there the diagonals
    and status may too, and kappa is taken over the diagonals that either
    summed."""
    jet = _outcome(lambda: kdf_eval_jet(shape, point, orders, policy))
    base = _outcome(lambda: kdf_eval(shape, point, policy))
    if isinstance(base, Exception):
        assert type(jet) is type(base), (jet, base)
        return
    refs = [_outcome(lambda o=o: kdf_eval_derivative(shape, point, *o, policy)) for o in orders]
    raised = {type(r) for r in refs if isinstance(r, Exception)}
    if raised:
        assert type(jet) in raised, (jet, refs)
        return
    assert not isinstance(jet, Exception), jet
    assert len(jet) == len(orders)
    for order, got in zip(orders, jet):
        if order == (0, 0):
            assert got.value.hex() == base.value.hex()
            assert got.tail_estimate.hex() == base.tail_estimate.hex()
    for order, got, want in zip(orders, jet, refs):
        coeff, shifted = kdf_derivative_shape(shape, *order)
        summed = max(got.diagonals_used, want.diagonals_used)
        if (got.diagonals_used, got.status) != (want.diagonals_used, want.status):
            assert _cancels(shifted, point, summed), (order, got, want)
        if abs(got.value - want.value) <= 1e-12 * abs(want.value):
            continue
        # the bound 1e-12 * max(1, kappa) * |value| without dividing by it
        spread = abs(coeff) * _abs_sum(shifted, point, summed)
        assert abs(got.value - want.value) <= 1e-12 * max(abs(want.value), spread), order


_upper = st.one_of(st.floats(-2.5, 2.5), st.sampled_from([0.0, -1.0, -2.0, -3.0]))
_lower = st.one_of(st.floats(0.2, 3.0), st.sampled_from([-1.0, -2.0, -4.0]))
_coordinate = st.one_of(st.floats(-1.3, 1.3), st.floats(-12.0, 12.0),
                        st.sampled_from([0.0, 1e-80, -1e-80, 1e-200, -1e-200]))
_orders = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=6)


@st.composite
def _shapes(draw):
    groups = [draw(st.lists(_upper, max_size=2)) for _ in range(3)]
    groups += [draw(st.lists(_lower, max_size=2)) for _ in range(3)]
    return KdFShape(*groups)


@given(_shapes(), st.tuples(_coordinate, _coordinate), _orders,
       st.integers(0, 300))
# F = exp(x + y): the shift identity's diagonal sums (x + y)^n / n! are 0 at
# (10, -10) and it stops converged after 3 diagonals, the jet's sum to ~1e-14
@example(KdFShape(), (10.0, -10.0), [(0, 1)], 3)
@example(KdFShape(), (10.0, -10.0), [(0, 1)], 300)
@settings(max_examples=150, deadline=None)
def test_jet_matches_shift_identity_on_drawn_shapes(shape, point, orders, max_diagonal):
    assert_jet_matches_shift(shape, point, orders, TruncationPolicy(max_diagonal=max_diagonal))


def assert_points_match_jets(shape, points, orders, policy=None):
    """kdf_eval_points over all points against kdf_eval_jet at each: the
    jet's diagonals and status per order; for (0, 0), kdf_eval's value and
    tail to the bit; other orders the jet's value within the bound of
    assert_jet_matches_shift; where points fail, the error type of the
    lowest failing index."""
    batch = _outcome(lambda: kdf_eval_points(shape, [p[0] for p in points],
                                             [p[1] for p in points], policy, orders))
    jets = [_outcome(lambda p=p: kdf_eval_jet(shape, p, orders, policy)) for p in points]
    failed = [jet for jet in jets if isinstance(jet, Exception)]
    if failed:
        assert type(batch) is type(failed[0]), (batch, jets)
        return
    assert not isinstance(batch, Exception), batch
    assert len(batch) == len(orders)
    for i, (point, jet) in enumerate(zip(points, jets)):
        for order, res, want in zip(orders, batch, jet):
            got = res[i]
            assert got.diagonals_used == want.diagonals_used, (point, order)
            assert got.status is want.status, (point, order)
            if order == (0, 0):
                base = kdf_eval(shape, point, policy)
                assert got.value.hex() == base.value.hex()
                assert got.tail_estimate.hex() == base.tail_estimate.hex()
            elif abs(got.value - want.value) > 1e-12 * abs(want.value):
                coeff, shifted = kdf_derivative_shape(shape, *order)
                spread = abs(coeff) * _abs_sum(shifted, point, want.diagonals_used)
                assert abs(got.value - want.value) <= 1e-12 * max(abs(want.value), spread)


@given(_shapes(), st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=6),
       _orders, st.booleans(), st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_points_match_jets_on_drawn_shapes(shape, points, orders, on_x_axis, max_diagonal):
    # y = 0 at every point sends each order (i, j > 0) to one batched
    # fallback sweep; tiny coordinates send some points' orders there
    if on_x_axis:
        points = [(x, 0.0) for x, _ in points]
    assert_points_match_jets(shape, points, orders, TruncationPolicy(max_diagonal=max_diagonal))


def test_jet_matches_shift_identity_on_named_shapes():
    points = [(0.2, 0.3), (-0.45, 0.1), (0.3, -0.8), (0.6, 4.0), (-0.9, -2.5)]
    for shape in (F0211, XI2, F1211):
        for point in points:
            assert_jet_matches_shift(shape, point, ORDERS)


def test_jet_matches_shift_identity_where_sums_are_accelerated():
    # alternating diagonal sums just inside |x| = 1, where the Levin
    # transform stops the sums: per order the same diagonals and status as
    # the shift identity, at one point and over many ((-0.9, -2.5) is one
    # of the named points above).  Each x-derivative raises the x-group's
    # excess by one, and where the ratio of the shifted sums then falls
    # toward |x| they are summed plainly, so the orders stay low in x.
    points = [(-0.9, 2.5), (-0.95, -8.0), (-0.85, 1.5)]
    orders = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (0, 3)]
    for shape in (F0211, XI2, F1211):
        for point in points:
            assert_jet_matches_shift(shape, point, orders)
        assert_points_match_jets(shape, points, orders)


def test_jet_on_axes_and_tiny_coordinates():
    points = [(0.0, 0.0), (0.45, 0.0), (0.0, -0.7), (1e-80, 0.3), (-1e-80, 1e-80),
              (0.2, 1e-200), (-1e-200, -0.4)]
    for shape in (F0211, XI2, F1211):
        for point in points:
            assert_jet_matches_shift(shape, point, ORDERS)


def test_jet_on_terminating_shapes():
    points = [(0.7, 0.3), (2.0, 3.0), (0.0, 0.5), (-0.4, 0.0)]
    fully = KdFShape(upper_x=(-2.0,), upper_y=(-1.0,), lower_joint=(1.5,))
    in_x = shape_f1211(ParamsF1211(1.0, -2.0, 1.0, 1.0, 2.0, 2.0, 2.0))
    joint = KdFShape(upper_joint=(-3.0,), upper_x=(0.5,), lower_y=(1.2,))
    protected_y = KdFShape(upper_x=(0.5,), upper_y=(-1.0,), lower_joint=(1.5,),
                           lower_y=(-2.0,))
    for shape in (fully, in_x, joint, protected_y):
        for point in points:
            assert_jet_matches_shift(shape, point, ORDERS)
    res = kdf_eval_jet(fully, (2.0, 3.0), [(0, 0), (1, 1), (2, 1)])
    assert [r.status for r in res] == [SeriesStatus.TERMINATING] * 3
    assert [r.diagonals_used for r in res] == [3, 1, 0]


def test_jet_under_starved_policy():
    points = [(0.9, 5.0), (0.3, 0.4), (-0.95, -8.0)]
    for cap in (0, 1, 6):
        policy = TruncationPolicy(max_diagonal=cap)
        for point in points:
            assert_jet_matches_shift(F0211, point, ORDERS, policy)
        res = kdf_eval_jet(F0211, (0.3, 0.4), ORDERS, policy)
        assert {r.status for r in res} == {SeriesStatus.TRUNCATED_AT_CAP}
        assert {r.diagonals_used for r in res} == {cap}


def test_jet_errors_match_kdf_eval():
    policy = TruncationPolicy(max_diagonal=2000)
    for shape, point in ((F0211, (1.4, 0.2)), (XI2, (1e300, 0.0)),
                         (KdFShape(upper_x=(0.5,), lower_y=(-1.0,)), (0.3, 0.3))):
        assert_jet_matches_shift(shape, point, ORDERS, policy)
        assert isinstance(_outcome(lambda: kdf_eval_jet(shape, point, [(1, 0)], policy)),
                          Exception)
    with pytest.raises(ValueError):
        kdf_eval_jet(F0211, (0.1, 0.2), [(-1, 0)])


def test_jet_orders_whose_weighted_terms_overflow():
    # base terms beyond double range under a starved cap: kdf_eval stops
    # first, and the shifted series of (2, 0) and (0, 2) stay in range
    for point in ((1e100, 0.3), (0.3, 1e100), (-1e130, 0.2)):
        for cap in (1, 2, 3):
            assert_jet_matches_shift(F0211, point, ORDERS, TruncationPolicy(max_diagonal=cap))


def test_jet_answers_in_request_order_with_duplicates():
    orders = [(2, 1), (0, 0), (2, 1), (0, 3)]
    res = kdf_eval_jet(F1211, (0.2, 0.3), orders)
    assert res[0] == res[2]
    assert res[1] == kdf_eval_jet(F1211, (0.2, 0.3), [(0, 0)])[0]


def test_jet_results_do_not_depend_on_block_size(monkeypatch):
    from kampe import series
    points = [(0.2, 0.3), (-0.9, 2.5), (0.5, -4.0), (0.0, 0.4)]
    want = [kdf_eval_jet(F1211, point, ORDERS) for point in points]
    for block in (1, 5, 40):
        monkeypatch.setattr(series, "_JET_BLOCK", block)
        assert [kdf_eval_jet(F1211, point, ORDERS) for point in points] == want


def test_points_results_do_not_depend_on_block_size(monkeypatch):
    from kampe import series
    points = [(0.2, 0.3), (-0.9, 2.5), (0.5, -4.0), (0.0, 0.4), (1e-200, 0.1)]

    def bits():
        res = kdf_eval_points(F1211, [p[0] for p in points], [p[1] for p in points],
                              None, ORDERS)
        return [(r.values.tobytes(), r.diagonals_used.tolist(), r.tail_estimates.tobytes(),
                 r.statuses) for r in res]

    want = bits()
    for block in (1, 5, 40):
        monkeypatch.setattr(series, "_JET_BLOCK", block)
        assert bits() == want


def test_residual_point_is_one_jet(monkeypatch):
    from kampe import frobenius, series
    calls = {"jet": 0, "eval": 0, "derivative": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(frobenius, "kdf_eval_jet", counted("jet", frobenius.kdf_eval_jet))
    monkeypatch.setattr(series, "kdf_eval", counted("eval", series.kdf_eval))
    monkeypatch.setattr(series, "kdf_eval_derivative",
                        counted("derivative", series.kdf_eval_derivative))
    params = ParamsF1211(0.3, 0.7, 0.3, 0.7, 1.2, 1.7, 0.4)
    u2 = solution_pair_f1211(params)[1]
    residual(expanded_system_f1211(params), solution_evaluator(u2), (0.2, 0.3))
    assert calls == {"jet": 1, "eval": 0, "derivative": 0}
