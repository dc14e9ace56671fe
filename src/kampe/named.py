"""Named constructors for the three concrete functions of the package.

The fourth-order function carries parameters (a : b, c ; d ; e, f : - ; g),
the third-order one (- : b, c ; d ; e : - ; g); both reduce to the Humbert
confluent function when the extra parameters cancel.  All three are thin
shape adapters onto the generic series evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import is_nonpositive_int
from .errors import ShapeError
from .series import KdFShape


@dataclass(frozen=True)
class ParamsF1211:
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    g: float


@dataclass(frozen=True)
class ParamsF0211:
    b: float
    c: float
    d: float
    e: float
    g: float


@dataclass(frozen=True)
class ParamsXi2:
    b: float
    c: float
    e: float


def _require_regular(name: str, **lower) -> None:
    for key, val in lower.items():
        if is_nonpositive_int(val):
            raise ShapeError(f"{name}: lower parameter {key} = {val} is a nonpositive integer")


def shape_f1211(params: ParamsF1211) -> KdFShape:
    """(p,q,k;l,m,n) = (1,2,1;2,0,1)."""
    _require_regular("F1211", e=params.e, f=params.f, g=params.g)
    return KdFShape(upper_joint=(params.a,), upper_x=(params.b, params.c),
                    upper_y=(params.d,), lower_joint=(params.e, params.f),
                    lower_x=(), lower_y=(params.g,))


def shape_f0211(params: ParamsF0211) -> KdFShape:
    """(p,q,k;l,m,n) = (0,2,1;1,0,1)."""
    _require_regular("F0211", e=params.e, g=params.g)
    return KdFShape(upper_joint=(), upper_x=(params.b, params.c),
                    upper_y=(params.d,), lower_joint=(params.e,),
                    lower_x=(), lower_y=(params.g,))


def shape_xi2(params: ParamsXi2) -> KdFShape:
    """(p,q,k;l,m,n) = (0,2,0;1,0,0)."""
    _require_regular("Xi2", e=params.e)
    return KdFShape(upper_joint=(), upper_x=(params.b, params.c),
                    upper_y=(), lower_joint=(params.e,),
                    lower_x=(), lower_y=())
