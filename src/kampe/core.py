"""Gamma-function utilities and the falling factorial.

All routines are double precision and total unless documented otherwise;
nonpositive-integer arguments are detected with an absolute tolerance of 1e-12
because parameters normally arrive from user input where exact integers
are intended.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError

_INT_TOL = 1e-12


def _as_nonpositive_int(x: float) -> int | None:
    """Round x to a nonpositive integer if it is within tolerance, else None
    (also for a non-finite x)."""
    if not math.isfinite(x):
        return None
    r = round(x)
    if r <= 0 and abs(x - r) < _INT_TOL:
        return int(r)
    return None


def is_nonpositive_int(x: float) -> bool:
    return _as_nonpositive_int(x) is not None


def _signed_loggamma(x: float) -> tuple[float, int]:
    """(log|Gamma(x)|, sign of Gamma(x)); sign 0 at poles."""
    if x > 0.0:
        return math.lgamma(x), 1
    if is_nonpositive_int(x):
        return math.inf, 0
    # reflection: Gamma(x) = pi / (sin(pi x) Gamma(1-x)) for x < 0
    s = math.sin(math.pi * x)
    logabs = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
    return logabs, (1 if s > 0 else -1)


def gamma_ratio(num: float, den: float) -> float:
    """Gamma(num) / Gamma(den) via log-gamma differences.

    Raises PoleError when either argument is a nonpositive integer and
    DomainError when either is not finite.
    """
    if not (math.isfinite(num) and math.isfinite(den)):
        raise DomainError(f"Gamma ratio of non-finite arguments ({num}, {den})")
    if is_nonpositive_int(num):
        raise PoleError(f"Gamma pole in numerator at {num}")
    if is_nonpositive_int(den):
        raise PoleError(f"Gamma pole in denominator at {den}")
    ln, sn = _signed_loggamma(num)
    ld, sd = _signed_loggamma(den)
    return sn * sd * math.exp(ln - ld)


def falling(base, k: int):
    """Falling factorial base (base-1) ... (base-k+1); 1 for k = 0.

    Duck-typed: exact for Fraction and int bases, double precision for floats.
    """
    out = 1
    for i in range(k):
        out = out * (base - i)
    return out
