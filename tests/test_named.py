import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kampe import (DomainError, ParamsF0211, ParamsF1211, ParamsXi2, ShapeError, kdf_eval,
                   kdf_eval_derivative, shape_f0211, shape_f1211, shape_xi2)
from oracles import hyp1d

P1211 = ParamsF1211(0.4, 0.8, 0.5, 0.9, 1.3, 1.8, 1.1)
P0211 = ParamsF0211(0.8, 0.5, 0.9, 1.3, 1.1)
PXI2 = ParamsXi2(0.8, 0.5, 1.3)


def test_shape_orders():
    assert shape_f1211(P1211).orders == (1, 2, 1, 2, 0, 1)
    assert shape_f0211(P0211).orders == (0, 2, 1, 1, 0, 1)
    assert shape_xi2(PXI2).orders == (0, 2, 0, 1, 0, 0)


def test_shape_f1211_layout():
    sh = shape_f1211(ParamsF1211(1, 1, 1, 1, 2, 2, 2))
    assert sh.upper_joint == (1.0,)
    assert sh.upper_x == (1.0, 1.0)
    assert sh.upper_y == (1.0,)
    assert sh.lower_joint == (2.0, 2.0)
    assert sh.lower_x == ()
    assert sh.lower_y == (2.0,)


def test_invalid_lower_parameters():
    with pytest.raises(ShapeError):
        shape_f1211(ParamsF1211(1, 1, 1, 1, -2.0, 2, 2))
    with pytest.raises(ShapeError):
        shape_f0211(ParamsF0211(1, 1, 1, 2, 0.0))
    with pytest.raises(ShapeError):
        shape_xi2(ParamsXi2(1, 1, -1.0))


def test_non_finite_parameters_are_domain_errors():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            shape_f0211(ParamsF0211(bad, 0.5, 0.9, 1.3, 1.1))
        with pytest.raises(DomainError):
            shape_f0211(ParamsF0211(0.8, 0.5, 0.9, 1.3, bad))


def test_origin_values():
    assert kdf_eval(shape_f1211(P1211), (0.0, 0.0)).value == 1.0
    assert kdf_eval(shape_f0211(P0211), (0.0, 0.0)).value == 1.0
    assert kdf_eval(shape_xi2(PXI2), (0.0, 0.0)).value == 1.0


def test_f1211_term_2_0():
    sh = shape_f1211(ParamsF1211(1, 1, 1, 1, 2, 2, 2))
    # 2! * (a)_2 (b)_2 (c)_2 / ((e)_2 (f)_2 2!) = 2! * 8/72
    got = kdf_eval_derivative(sh, (0.0, 0.0), 2, 0).value
    assert got == pytest.approx(math.factorial(2) / 9.0, rel=1e-15)


def test_f0211_x_axis_is_gauss_series():
    for x in (-0.4, 0.25, 0.45):
        got = kdf_eval(shape_f0211(P0211), (x, 0.0)).value
        assert got == pytest.approx(hyp1d((0.8, 0.5), (1.3,), x), rel=1e-12)


def test_f0211_y_axis_series():
    for y in (-1.5, 0.5, 1.8):
        got = kdf_eval(shape_f0211(P0211), (0.0, y)).value
        assert got == pytest.approx(hyp1d((0.9,), (1.3, 1.1), y), rel=1e-12)


def test_f1211_x_axis_is_3f2():
    for x in (-0.4, 0.3):
        got = kdf_eval(shape_f1211(P1211), (x, 0.0)).value
        assert got == pytest.approx(hyp1d((0.4, 0.8, 0.5), (1.3, 1.8), x), rel=1e-12)


def test_xi2_axes():
    for x in (-0.3, 0.45):
        got = kdf_eval(shape_xi2(PXI2), (x, 0.0)).value
        assert got == pytest.approx(hyp1d((0.8, 0.5), (1.3,), x), rel=1e-12)
    for y in (-1.0, 1.7):
        got = kdf_eval(shape_xi2(PXI2), (0.0, y)).value
        assert got == pytest.approx(hyp1d((), (1.3,), y), rel=1e-12)


def test_f0211_d_equals_g_reduces_to_xi2():
    xs = (-0.5, -0.25, 0.0, 0.25, 0.5)
    ys = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for x in xs:
        for y in ys:
            v = kdf_eval(shape_f0211(ParamsF0211(0.8, 0.5, 1.1, 1.3, 1.1)), (x, y)).value
            ref = kdf_eval(shape_xi2(PXI2), (x, y)).value
            assert v == pytest.approx(ref, rel=1e-12)


@given(st.floats(0.2, 1.5), st.floats(0.2, 1.5), st.floats(1.1, 2.2),
       st.floats(-0.45, 0.45), st.floats(-1.5, 1.5))
@settings(max_examples=20, deadline=None)
def test_bc_symmetry(b, c, e, x, y):
    v1 = kdf_eval(shape_f0211(ParamsF0211(b, c, 0.9, e, 1.4)), (x, y)).value
    v2 = kdf_eval(shape_f0211(ParamsF0211(c, b, 0.9, e, 1.4)), (x, y)).value
    assert v1 == pytest.approx(v2, rel=5e-16, abs=5e-16)


@given(st.floats(1.1, 2.0), st.floats(1.1, 2.0), st.floats(-0.45, 0.45))
@settings(max_examples=20, deadline=None)
def test_ef_symmetry_f1211(e, f, x):
    v1 = kdf_eval(shape_f1211(ParamsF1211(0.4, 0.8, 0.5, 0.9, e, f, 1.1)), (x, 0.3)).value
    v2 = kdf_eval(shape_f1211(ParamsF1211(0.4, 0.8, 0.5, 0.9, f, e, 1.1)), (x, 0.3)).value
    assert v1 == pytest.approx(v2, rel=5e-16, abs=5e-16)
