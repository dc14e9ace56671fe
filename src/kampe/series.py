"""Evaluation of the general two-variable double hypergeometric series.

A shape collects the six parameter groups of the series

    sum_{r,s>=0}  [prod (a)_{r+s} prod (b)_r prod (c)_s]
                / [prod (alpha)_{r+s} prod (beta)_r prod (gamma)_s]
                * x^r y^s / (r! s!),

indexed jointly by r+s, by r alone, and by s alone.  Evaluation sums by
diagonals r+s = N; the term at (r, s) on a new diagonal is obtained from
the previous diagonal through one-step Pochhammer ratio updates, so the
per-term cost is O(1) and no factor ever materialises on its own (which
is what makes the recursion overflow-safe inside the convergence region).

Exact partial derivatives are parameter shifts: one x-derivative multiplies
by prod(a) prod(b) / (prod(alpha) prod(beta)) and increments every joint
and x-group entry by one; y-derivatives act on the joint and y-groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .core import is_nonpositive_int
from .errors import DivergenceError, ParameterError, PoleError

_MAX_GROUP = 8


@dataclass(frozen=True)
class KdFShape:
    """The six parameter lists; any sequence input is frozen to tuples."""

    upper_joint: tuple[float, ...] = ()
    upper_x: tuple[float, ...] = ()
    upper_y: tuple[float, ...] = ()
    lower_joint: tuple[float, ...] = ()
    lower_x: tuple[float, ...] = ()
    lower_y: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("upper_joint", "upper_x", "upper_y",
                     "lower_joint", "lower_x", "lower_y"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) > _MAX_GROUP:
                raise ParameterError(f"{name} has {len(vals)} entries, limit is {_MAX_GROUP}")
            object.__setattr__(self, name, vals)

    @property
    def orders(self) -> tuple[int, int, int, int, int, int]:
        """(p, q, k, l, m, n): the six group sizes."""
        return (len(self.upper_joint), len(self.upper_x), len(self.upper_y),
                len(self.lower_joint), len(self.lower_x), len(self.lower_y))


@dataclass(frozen=True)
class TruncationPolicy:
    max_diagonal: int = 5000
    rel_tol: float = 1e-14
    consecutive_small: int = 3

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ParameterError("rel_tol must lie in (0, 1)")
        if not (0 <= self.max_diagonal <= 20000):
            raise ParameterError("max_diagonal must lie in [0, 20000]")
        if self.consecutive_small < 1:
            raise ParameterError("consecutive_small must be >= 1")


DEFAULT_POLICY = TruncationPolicy()


class SeriesStatus(str, Enum):
    CONVERGED = "converged"
    TRUNCATED_AT_CAP = "truncated_at_cap"
    TERMINATING = "terminating"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SeriesResult:
    value: float
    diagonals_used: int
    tail_estimate: float
    status: SeriesStatus


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of shape validation.

    ``terminates_x``/``terminates_y``/``terminates_joint`` give the largest
    surviving r, s, r+s (None when the direction does not terminate); a shape
    is ``undefined`` when some reachable term divides by a vanished lower
    Pochhammer factor.
    """

    ok: bool
    undefined: bool
    terminates_x: int | None
    terminates_y: int | None
    terminates_joint: int | None
    messages: tuple[str, ...] = ()

    @property
    def terminating(self) -> bool:
        return (self.terminates_x is not None or self.terminates_y is not None
                or self.terminates_joint is not None)


@dataclass(frozen=True)
class ConvergenceRegion:
    """Per-variable radii (inf, 1, or 0 for empty) or a coupled constraint.

    When ``coupled`` is set to the positive integer p - l, membership is
    |x|^(1/(p-l)) + |y|^(1/(p-l)) < 1 and the radii fields are not used.
    """

    x_radius: float
    y_radius: float
    coupled: int | None = None


def _min_termination(params) -> int | None:
    """Largest surviving index for the group, None if no terminator."""
    best = None
    for a in params:
        if is_nonpositive_int(a):
            order = int(-round(a))  # (a)_n = 0 first at n = order + 1
            best = order if best is None else min(best, order)
    return best


def _first_pole(params) -> int | None:
    """Smallest index n at which some (a)_n in the group vanishes."""
    best = None
    for a in params:
        if is_nonpositive_int(a):
            n = int(-round(a)) + 1
            best = n if best is None else min(best, n)
    return best


def validate_shape(shape: KdFShape) -> ValidationReport:
    tx = _min_termination(shape.upper_x)
    ty = _min_termination(shape.upper_y)
    tj = _min_termination(shape.upper_joint)
    px = _first_pole(shape.lower_x)
    py = _first_pole(shape.lower_y)
    pj = _first_pole(shape.lower_joint)

    inf = math.inf
    max_r = min(tx if tx is not None else inf, tj if tj is not None else inf)
    max_s = min(ty if ty is not None else inf, tj if tj is not None else inf)
    max_n = min(tj if tj is not None else inf,
                (tx + ty) if (tx is not None and ty is not None) else inf)

    messages = []
    undefined = False
    if px is not None and px <= max_r:
        undefined = True
        messages.append(f"undefined: denominator pole in x-group at r = {px}")
    if py is not None and py <= max_s:
        undefined = True
        messages.append(f"undefined: denominator pole in y-group at s = {py}")
    if pj is not None and pj <= max_n:
        undefined = True
        messages.append(f"undefined: denominator pole in joint group at r+s = {pj}")

    if tx is not None:
        messages.append(f"terminates in r at order {tx}")
    if ty is not None:
        messages.append(f"terminates in s at order {ty}")
    if tj is not None:
        messages.append(f"terminates in r+s at order {tj}")
    if not messages:
        messages.append("valid, non-terminating")

    return ValidationReport(ok=not undefined, undefined=undefined,
                            terminates_x=tx, terminates_y=ty, terminates_joint=tj,
                            messages=tuple(messages))


class _RatioSeqs:
    """Lazily extended one-step term ratios for a fixed shape.

    joint[n]  = prod(a + n) / prod(alpha + n)
    xs[r]     = prod(b + r) / (prod(beta + r) * (r + 1))
    ys[s]     = prod(c + s) / (prod(gamma + s) * (s + 1))

    A vanished denominator with surviving numerator is stored as NaN; the
    evaluation loop only ever multiplies it into terms that are already
    zero in protected (validated) shapes, and an unprotected NaN surfaces
    as a defensive PoleError.
    """

    __slots__ = ("shape", "joint", "xs", "ys")

    def __init__(self, shape: KdFShape):
        self.shape = shape
        self.joint: list[float] = []
        self.xs: list[float] = []
        self.ys: list[float] = []

    @staticmethod
    def _ratio(uppers, lowers, idx: int, extra_den: float) -> float:
        num = 1.0
        for a in uppers:
            num *= a + idx
        den = extra_den
        for a in lowers:
            den *= a + idx
        if den == 0.0:
            return 0.0 if num == 0.0 else math.nan
        return num / den

    def extend(self, upto: int) -> None:
        sh = self.shape
        for n in range(len(self.joint), upto + 1):
            self.joint.append(self._ratio(sh.upper_joint, sh.lower_joint, n, 1.0))
            self.xs.append(self._ratio(sh.upper_x, sh.lower_x, n, float(n + 1)))
            self.ys.append(self._ratio(sh.upper_y, sh.lower_y, n, float(n + 1)))


@lru_cache(maxsize=512)
def _ratio_cache(shape: KdFShape) -> _RatioSeqs:
    return _RatioSeqs(shape)


def classify_convergence(shape: KdFShape) -> ConvergenceRegion:
    p, q, k, l, m, n = shape.orders

    def axis_radius(joint_excess: int) -> float:
        if joint_excess < 0:
            return math.inf
        if joint_excess == 0:
            return 1.0
        return 0.0

    rx = axis_radius(p + q - (l + m + 1))
    ry = axis_radius(p + k - (l + n + 1))
    if p > l and rx > 0.0 and ry > 0.0 and (rx == 1.0 or ry == 1.0):
        return ConvergenceRegion(x_radius=rx, y_radius=ry, coupled=p - l)
    return ConvergenceRegion(x_radius=rx, y_radius=ry, coupled=None)


_MARGIN = 0.999


def in_region(region: ConvergenceRegion, point) -> bool:
    x, y = point
    if region.coupled is not None:
        e = 1.0 / region.coupled
        return abs(x) ** e + abs(y) ** e < _MARGIN
    if math.isinf(region.x_radius):
        ok_x = True
    else:
        ok_x = abs(x) < _MARGIN * region.x_radius
    if math.isinf(region.y_radius):
        ok_y = True
    else:
        ok_y = abs(y) < _MARGIN * region.y_radius
    return ok_x and ok_y


def _effectively_in_region(shape: KdFShape, report: ValidationReport, point) -> bool:
    """Region membership with terminated directions exempted."""
    region = classify_convergence(shape)
    x, y = point
    term_x = report.terminates_x is not None or report.terminates_joint is not None
    term_y = report.terminates_y is not None or report.terminates_joint is not None
    if term_x and term_y:
        return True
    if region.coupled is not None:
        return in_region(region, point) or (term_x and y == 0.0) or (term_y and x == 0.0)
    probe = (0.0 if term_x else x, 0.0 if term_y else y)
    return in_region(region, probe)


_GROW_LIMIT = 20
_TINY = 1e-300
_OVERFLOW_GUARD = 1e280


def kdf_eval(shape: KdFShape, point, policy: TruncationPolicy | None = None) -> SeriesResult:
    """Sum the double series by diagonals with a geometric tail estimate.

    Stops once ``consecutive_small`` successive diagonal sums fall below
    rel_tol relative to the running value and the extrapolated tail meets
    the same bound.  Fully terminating shapes are summed exactly instead.
    Raises PoleError for unprotected denominator poles and DivergenceError
    after 20 growing diagonals outside the convergence region.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    report = validate_shape(shape)
    if report.undefined:
        raise PoleError("; ".join(report.messages))
    x, y = float(point[0]), float(point[1])

    finite_all = None
    if report.terminates_joint is not None:
        finite_all = report.terminates_joint
    elif report.terminates_x is not None and report.terminates_y is not None:
        finite_all = report.terminates_x + report.terminates_y

    in_reg = _effectively_in_region(shape, report, (x, y))
    seqs = _ratio_cache(shape)
    status_on_stop = SeriesStatus.TERMINATING if report.terminating else SeriesStatus.CONVERGED

    terms = [1.0]
    total = 1.0
    prev_d = 1.0
    small = 0
    grow = 0
    n_used = 0
    tail = 0.0

    n_cap = policy.max_diagonal if finite_all is None else min(finite_all, policy.max_diagonal)
    for nd in range(1, n_cap + 1):
        seqs.extend(nd - 1)
        jr = seqs.joint[nd - 1]
        ys = seqs.ys
        new_terms = [0.0] * (nd + 1)
        if y != 0.0:
            jy = jr * y
            for r in range(nd):
                t = terms[r]
                if t != 0.0:
                    new_terms[r] = t * jy * ys[nd - 1 - r]
        if x != 0.0:
            t = terms[nd - 1]
            if t != 0.0:
                new_terms[nd] = t * jr * seqs.xs[nd - 1] * x
        d = 0.0
        peak = 0.0
        for t in new_terms:
            d += t
            a = abs(t)
            if a > peak:
                peak = a
        if math.isnan(d):
            raise PoleError("lower Pochhammer factor vanishes inside a live diagonal")
        if peak > _OVERFLOW_GUARD or not math.isfinite(d):
            raise DivergenceError(
                f"terms exceed double range at diagonal {nd}; value not representable")
        total += d
        n_used = nd
        terms = new_terms

        scale = max(abs(total), _TINY)
        if abs(d) <= policy.rel_tol * scale:
            small += 1
        else:
            small = 0
        if abs(d) > abs(prev_d):
            grow += 1
            if grow >= _GROW_LIMIT and not in_reg:
                raise DivergenceError(
                    f"{_GROW_LIMIT} consecutive growing diagonals outside the convergence region")
        else:
            grow = 0
        if small >= policy.consecutive_small and finite_all is None:
            rho = min(0.99, abs(d / prev_d)) if prev_d != 0.0 else 0.0
            tail = abs(d) * rho / (1.0 - rho)
            if tail <= policy.rel_tol * scale:
                return SeriesResult(total, n_used, tail, status_on_stop)
        prev_d = d

    if finite_all is not None and n_cap == finite_all:
        return SeriesResult(total, n_used, 0.0, SeriesStatus.TERMINATING)
    rho = min(0.99, abs(prev_d)) if prev_d != 0.0 else 0.0
    tail = abs(prev_d) * rho / (1.0 - rho)
    return SeriesResult(total, n_used, tail, SeriesStatus.TRUNCATED_AT_CAP)


def _shift_all(params, by: int = 1):
    return tuple(a + by for a in params)


def _step_coefficient(uppers, lowers) -> float:
    num = 1.0
    for a in uppers:
        num *= a
    den = 1.0
    for a in lowers:
        if is_nonpositive_int(a):
            raise PoleError(f"lower parameter {a} is a nonpositive integer; "
                            "derivative coefficient undefined")
        den *= a
    return num / den


def kdf_derivative_shape(shape: KdFShape, dx: int, dy: int) -> tuple[float, KdFShape]:
    """Exact parameter-shift derivative: d^(dx+dy) F = coefficient * F[shifted].

    Joint groups shift by dx + dy in total; the x-groups by dx, the
    y-groups by dy.
    """
    if dx < 0 or dy < 0:
        raise ValueError("derivative orders must be >= 0")
    coeff = 1.0
    cur = shape
    for _ in range(dx):
        coeff *= _step_coefficient(cur.upper_joint + cur.upper_x,
                                   cur.lower_joint + cur.lower_x)
        cur = KdFShape(_shift_all(cur.upper_joint), _shift_all(cur.upper_x), cur.upper_y,
                       _shift_all(cur.lower_joint), _shift_all(cur.lower_x), cur.lower_y)
    for _ in range(dy):
        coeff *= _step_coefficient(cur.upper_joint + cur.upper_y,
                                   cur.lower_joint + cur.lower_y)
        cur = KdFShape(_shift_all(cur.upper_joint), cur.upper_x, _shift_all(cur.upper_y),
                       _shift_all(cur.lower_joint), cur.lower_x, _shift_all(cur.lower_y))
    return coeff, cur


def kdf_eval_derivative(shape: KdFShape, point, dx: int, dy: int,
                        policy: TruncationPolicy | None = None) -> SeriesResult:
    coeff, shifted = kdf_derivative_shape(shape, dx, dy)
    res = kdf_eval(shifted, point, policy)
    return SeriesResult(coeff * res.value, res.diagonals_used,
                        abs(coeff) * res.tail_estimate, res.status)
