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
`kdf_eval_jet` gets many partials at one point from one sweep instead, by
weighting each term x^r y^s with the falling factorials of r and s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .core import is_nonpositive_int
from .errors import DivergenceError, DomainError, ParameterError, PoleError

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


@dataclass(frozen=True, eq=False)
class PointsResult:
    """`kdf_eval_points` output: entry i belongs to point i."""

    values: np.ndarray
    diagonals_used: np.ndarray
    tail_estimates: np.ndarray
    statuses: tuple[SeriesStatus, ...]

    def __len__(self) -> int:
        return len(self.statuses)

    def __getitem__(self, i: int) -> SeriesResult:
        return SeriesResult(float(self.values[i]), int(self.diagonals_used[i]),
                            float(self.tail_estimates[i]), self.statuses[i])


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


def _ratios(uppers, lowers, start: int, stop: int, factorial: bool) -> np.ndarray:
    """One-step ratios prod(upper + n) / (prod(lower + n) [* (n + 1)]) for
    n in [start, stop), each product multiplied left to right from 1.0.

    A vanished denominator with surviving numerator gives NaN; the sweeps
    only ever multiply it into terms that are already zero in protected
    (validated) shapes, and an unprotected NaN surfaces as a PoleError.
    """
    idx = np.arange(start, stop, dtype=float)
    num = np.ones_like(idx)
    for a in uppers:
        num *= a + idx
    den = idx + 1.0 if factorial else np.ones_like(idx)
    for a in lowers:
        den *= a + idx
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    gone = den == 0.0
    out[gone] = np.where(num[gone] == 0.0, 0.0, np.nan)
    return out


def _shape_ratios(shape: KdFShape, start: int, stop: int):
    """The one-step term ratios of `shape` for indices n in [start, stop):

    joint[n]  = prod(a + n) / prod(alpha + n)
    xs[r]     = prod(b + r) / (prod(beta + r) * (r + 1))
    ys[s]     = prod(c + s) / (prod(gamma + s) * (s + 1))
    """
    return (_ratios(shape.upper_joint, shape.lower_joint, start, stop, False),
            _ratios(shape.upper_x, shape.lower_x, start, stop, True),
            _ratios(shape.upper_y, shape.lower_y, start, stop, True))


@lru_cache(maxsize=512)
def _ratio_table(shape: KdFShape, size: int) -> tuple:
    """`_shape_ratios(shape, 0, size)` as three tuples.  Never changed once
    made, so threads share the memo without a lock; each ratio depends only
    on its index, so a larger table starts with a smaller one's entries."""
    return tuple(tuple(r.tolist()) for r in _shape_ratios(shape, 0, size))


def _ratios_covering(shape: KdFShape, n: int) -> tuple:
    """The ratio tables of `shape` with at least n entries; sizes are powers
    of two from 16 up, so a sweep of N diagonals asks for O(log N) tables."""
    size = 16
    while size < n:
        size *= 2
    return _ratio_table(shape, size)


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
    """Membership with a safety margin; x and y may also be arrays."""
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
    return ok_x & ok_y


def _effectively_in_region(shape: KdFShape, report: ValidationReport, point) -> bool:
    """Region membership with terminated directions exempted (arrays too)."""
    region = classify_convergence(shape)
    x, y = point
    term_x = report.terminates_x is not None or report.terminates_joint is not None
    term_y = report.terminates_y is not None or report.terminates_joint is not None
    if term_x and term_y:
        return True
    if region.coupled is not None:
        return in_region(region, point) | (term_x & (y == 0.0)) | (term_y & (x == 0.0))
    probe = (0.0 if term_x else x, 0.0 if term_y else y)
    return in_region(region, probe)


_GROW_LIMIT = 20
_TINY = 1e-300
_OVERFLOW_GUARD = 1e280


def _sweep_setup(shape: KdFShape, policy: TruncationPolicy):
    """(validation report, last diagonal of a fully terminating shape or None,
    diagonal cap, status of a sweep that meets the stopping rule) shared by
    the sweeps; raises PoleError for undefined shapes."""
    report = validate_shape(shape)
    if report.undefined:
        raise PoleError("; ".join(report.messages))
    finite_all = None
    if report.terminates_joint is not None:
        finite_all = report.terminates_joint
    elif report.terminates_x is not None and report.terminates_y is not None:
        finite_all = report.terminates_x + report.terminates_y
    n_cap = policy.max_diagonal if finite_all is None else min(finite_all, policy.max_diagonal)
    status_on_stop = SeriesStatus.TERMINATING if report.terminating else SeriesStatus.CONVERGED
    return report, finite_all, n_cap, status_on_stop


def _pole_error() -> PoleError:
    return PoleError("lower Pochhammer factor vanishes inside a live diagonal")


def _overflow_error(nd: int) -> DivergenceError:
    return DivergenceError(f"terms exceed double range at diagonal {nd}; value not representable")


def _growth_error() -> DivergenceError:
    return DivergenceError(
        f"{_GROW_LIMIT} consecutive growing diagonals outside the convergence region")


def _cap_tail(last: float, before: float) -> float:
    """Geometric tail after a sweep truncated at its cap: the ratio of the
    last two diagonal sums, capped at 0.99 (0.99 also when fewer than two
    were summed, passed as before = 0, or the earlier one is zero)."""
    rho = min(0.99, abs(last / before)) if before != 0.0 else 0.99
    return abs(last) * rho / (1.0 - rho)


def _next_diagonal(joint, xs, ys, terms: list[float], nd: int, x: float, y: float):
    """The terms of diagonal nd >= 1 from those of diagonal nd - 1, one ratio
    update each (the recursion of `kdf_eval` and `kdf_eval_jet`), with ratio
    tables covering index nd - 1; a zero term or coordinate gives a zero
    successor without a multiply."""
    jr = joint[nd - 1]
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
            new_terms[nd] = t * jr * xs[nd - 1] * x
    return new_terms


def kdf_eval(shape: KdFShape, point, policy: TruncationPolicy | None = None) -> SeriesResult:
    """Sum the double series by diagonals with a geometric tail estimate.

    Stops once ``consecutive_small`` successive diagonal sums fall below
    rel_tol relative to the running value and the extrapolated tail meets
    the same bound.  Fully terminating shapes are summed exactly instead.
    Raises PoleError for unprotected denominator poles, DomainError for a
    non-finite coordinate and DivergenceError after 20 growing diagonals
    outside the convergence region.  For many points of one shape,
    `kdf_eval_points` gives the same results in one sweep.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    report, finite_all, n_cap, status_on_stop = _sweep_setup(shape, policy)
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"point ({x}, {y}) is not finite")

    in_reg = _effectively_in_region(shape, report, (x, y))
    joint = xs = ys = ()

    terms = [1.0]
    total = 1.0
    prev_d = 1.0
    before = 0.0
    small = 0
    grow = 0
    n_used = 0

    for nd in range(1, n_cap + 1):
        if nd > len(ys):
            joint, xs, ys = _ratios_covering(shape, nd)
        new_terms = _next_diagonal(joint, xs, ys, terms, nd, x, y)
        d = 0.0
        peak = 0.0
        for t in new_terms:
            d += t
            a = abs(t)
            if a > peak:
                peak = a
        if math.isnan(d):
            raise _pole_error()
        if peak > _OVERFLOW_GUARD or not math.isfinite(d):
            raise _overflow_error(nd)
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
                raise _growth_error()
        else:
            grow = 0
        if small >= policy.consecutive_small and finite_all is None:
            rho = min(0.99, abs(d / prev_d)) if prev_d != 0.0 else 0.0
            tail = abs(d) * rho / (1.0 - rho)
            if tail <= policy.rel_tol * scale:
                return SeriesResult(total, n_used, tail, status_on_stop)
        before, prev_d = prev_d, d

    if finite_all is not None and n_cap == finite_all:
        return SeriesResult(total, n_used, 0.0, SeriesStatus.TERMINATING)
    return SeriesResult(total, n_used, _cap_tail(prev_d, before), SeriesStatus.TRUNCATED_AT_CAP)


def kdf_eval_points(shape: KdFShape, xs, ys,
                    policy: TruncationPolicy | None = None) -> PointsResult:
    """Sum one shape at every point (xs[i], ys[i]) in one numpy diagonal sweep.

    Point for point this is `kdf_eval`: the same term recursion and
    multiply order, diagonal sums accumulated left to right (`cumsum`, not
    a pairwise sum), the same stopping rule, tail estimate and statuses, so
    values, diagonals and tails agree to the bit.  Each point leaves the
    sweep when it stops.  Shape validation and region classification run
    once per call.  A point that hits a pole or diverges raises what
    `kdf_eval` raises there; with several such points, that of the lowest
    index.  Any non-finite coordinate raises DomainError.  Per diagonal the
    numpy calls cost a fixed ~40 us, so against a loop of `kdf_eval` this
    pays from about two points on long sweeps (near the radius of
    convergence) and from a few dozen on short ones; `kdf_eval` stays the
    one-point path.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    report, finite_all, n_cap, status_on_stop = _sweep_setup(shape, policy)
    x = np.array(xs, dtype=float).ravel()
    y = np.array(ys, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"{x.size} x-coordinates but {y.size} y-coordinates")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("point coordinates are not all finite")

    m = x.size
    in_reg = np.broadcast_to(_effectively_in_region(shape, report, (x, y)), (m,))
    values = np.ones(m)
    used = np.zeros(m, dtype=int)
    tails = np.zeros(m)
    statuses: list[SeriesStatus | None] = [None] * m
    errors: dict[int, Exception] = {}

    # state of the points still summing, one row each; `live` maps rows to
    # point indices.  y-side arrays are columns, to scale rows of `terms`.
    live = np.arange(m)
    terms = np.ones((m, 1))
    total = np.ones(m)
    prev_d = np.ones(m)
    before = np.zeros(m)
    small = np.zeros(m, dtype=int)
    grow = np.zeros(m, dtype=int)
    xl, yl = x, y[:, None]
    joint = xr = yr = np.empty(0)

    with np.errstate(all="ignore"):
        for nd in range(1, n_cap + 1):
            if not live.size:
                break
            if nd > joint.size:
                joint, xr, yr = map(np.array, _ratios_covering(shape, nd))
            jr = joint[nd - 1]
            new = np.empty((live.size, nd + 1))
            np.multiply(terms * (jr * yl), yr[nd - 1::-1], out=new[:, :nd])
            new[:, nd] = terms[:, nd - 1] * jr * xr[nd - 1] * xl
            d = np.cumsum(new, axis=1)[:, -1]
            # The products above skip nothing.  A product kdf_eval skips (a
            # zero term, or a zero coordinate) comes out here as +-0, which
            # can flip the sign of a zero d but changes no total or test, or
            # as NaN or inf when a ratio is not finite; only then are
            # kdf_eval's skips applied before its checks.
            pole = overflow = np.zeros(live.size, dtype=bool)
            if not np.isfinite(d).all() or np.abs(new).max() > _OVERFLOW_GUARD:
                new[:, :nd] = np.where((terms != 0.0) & (yl != 0.0), new[:, :nd], 0.0)
                new[:, nd] = np.where((terms[:, nd - 1] != 0.0) & (xl != 0.0), new[:, nd], 0.0)
                d = np.cumsum(new, axis=1)[:, -1]
                pole = np.isnan(d)
                overflow = ~pole & ((np.abs(new).max(axis=1) > _OVERFLOW_GUARD)
                                    | ~np.isfinite(d))
            total = total + d
            terms = new

            abs_d = np.abs(d)
            scale = np.maximum(np.abs(total), _TINY)
            small = np.where(abs_d <= policy.rel_tol * scale, small + 1, 0)
            grow = np.where(abs_d > np.abs(prev_d), grow + 1, 0)
            diverged = ~pole & ~overflow & (grow >= _GROW_LIMIT) & ~in_reg
            failed = pole | overflow | diverged
            done = small >= policy.consecutive_small
            if finite_all is None and done.any():
                rho = np.where(prev_d != 0.0, np.minimum(0.99, np.abs(d / prev_d)), 0.0)
                tail = abs_d * rho / (1.0 - rho)
                done &= ~failed & (tail <= policy.rel_tol * scale)
            else:
                done = np.zeros(live.size, dtype=bool)
            before, prev_d = prev_d, d

            if failed.any() or done.any():
                for row in np.flatnonzero(failed):
                    errors[int(live[row])] = (_pole_error() if pole[row]
                                              else _overflow_error(nd) if overflow[row]
                                              else _growth_error())
                if done.any():
                    idx = live[done]
                    values[idx] = total[done]
                    used[idx] = nd
                    tails[idx] = tail[done]
                    for i in idx:
                        statuses[i] = status_on_stop
                keep = ~(failed | done)
                live, terms, total = live[keep], terms[keep], total[keep]
                prev_d, before = prev_d[keep], before[keep]
                small, grow, in_reg = small[keep], grow[keep], in_reg[keep]
                xl, yl = xl[keep], yl[keep]

        if errors:
            raise errors[min(errors)]
        # points still live summed every diagonal up to the cap
        values[live] = total
        used[live] = n_cap
        if finite_all is not None and n_cap == finite_all:
            rest = SeriesStatus.TERMINATING
        else:
            tails[live] = [_cap_tail(a, b) for a, b in zip(prev_d.tolist(), before.tolist())]
            rest = SeriesStatus.TRUNCATED_AT_CAP
    for i in live:
        statuses[i] = rest
    return PointsResult(values, used, tails, tuple(statuses))


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


def _shift(shape: KdFShape, dx: int, dy: int):
    """(coefficient, six parameter groups) of the (dx, dy) parameter shift:
    the x-steps first, then the y-steps, each multiplying the coefficient by
    `_step_coefficient` of the groups it moves and then moving them by one."""
    uj, ux, uy = shape.upper_joint, shape.upper_x, shape.upper_y
    lj, lx, ly = shape.lower_joint, shape.lower_x, shape.lower_y
    coeff = 1.0
    for _ in range(dx):
        coeff *= _step_coefficient(uj + ux, lj + lx)
        uj, ux, lj, lx = _shift_all(uj), _shift_all(ux), _shift_all(lj), _shift_all(lx)
    for _ in range(dy):
        coeff *= _step_coefficient(uj + uy, lj + ly)
        uj, uy, lj, ly = _shift_all(uj), _shift_all(uy), _shift_all(lj), _shift_all(ly)
    return coeff, (uj, ux, uy, lj, lx, ly)


def kdf_derivative_shape(shape: KdFShape, dx: int, dy: int) -> tuple[float, KdFShape]:
    """Exact parameter-shift derivative: d^(dx+dy) F = coefficient * F[shifted].

    Joint groups shift by dx + dy in total; the x-groups by dx, the
    y-groups by dy.
    """
    if dx < 0 or dy < 0:
        raise ValueError("derivative orders must be >= 0")
    coeff, groups = _shift(shape, dx, dy)
    return coeff, KdFShape(*groups)


def kdf_eval_derivative(shape: KdFShape, point, dx: int, dy: int,
                        policy: TruncationPolicy | None = None) -> SeriesResult:
    coeff, shifted = kdf_derivative_shape(shape, dx, dy)
    res = kdf_eval(shifted, point, policy)
    return SeriesResult(coeff * res.value, res.diagonals_used,
                        abs(coeff) * res.tail_estimate, res.status)


_JET_BLOCK = 16
_JET_RANGE = 2.0 ** 900


@lru_cache(maxsize=512)
def _jet_coefficients(shape: KdFShape, orders: tuple) -> tuple:
    """`kdf_derivative_shape`'s coefficient of each (dx, dy) in `orders`, or
    None where it raises PoleError.  Cached: a residual asks for the same
    orders of one shape at every point."""
    out = []
    for dx, dy in orders:
        try:
            out.append(_shift(shape, dx, dy)[0])
        except PoleError:
            out.append(None)
    return tuple(out)


class _JetOrder:
    """One order (i, j) of a jet.  Its weighted diagonal sums are coefficient
    times the diagonal sums of its shifted series, from diagonal i + j on;
    `advance` runs `kdf_eval`'s stopping rule and checks on them."""

    __slots__ = ("order", "start", "last", "coeff", "finite",
                 "total", "prev", "before", "small", "grow")

    def __init__(self, order, coeff: float, finite_all, max_diagonal: int):
        self.order = order
        self.start = order[0] + order[1]
        # the shifted series terminates i + j diagonals before the shape's
        self.finite = None if finite_all is None else finite_all - self.start
        cap = max_diagonal if self.finite is None else min(self.finite, max_diagonal)
        self.last = self.start + cap
        self.coeff = abs(coeff)
        self.total = self.prev = self.before = 0.0
        self.small = self.grow = 0

    def advance(self, sums, peaks, n0: int, rule):
        """Test diagonals n0, n0 + 1, ... of the block (sums, and the largest
        shifted terms or None) in turn.  Returns the order's SeriesResult or
        error once it ends there, else None."""
        rel_tol, consecutive, in_reg, status_on_stop = rule
        start, last, finite = self.start, self.last, self.finite
        total, prev, before = self.total, self.prev, self.before
        small, grow = self.small, self.grow
        floor = _TINY * self.coeff
        b = max(start - n0, 0)
        stop = min(len(sums), last - n0 + 1)
        if b < stop and n0 + b == start:
            total = prev = sums[b]
            b += 1
        while b < stop:
            d = sums[b]
            if math.isnan(d):
                return _pole_error()
            if not math.isfinite(d) or (peaks and peaks[b] > _OVERFLOW_GUARD):
                return _overflow_error(n0 + b - start)
            total += d
            scale = max(abs(total), floor)
            abs_d = abs(d)
            small = small + 1 if abs_d <= rel_tol * scale else 0
            if abs_d > abs(prev):
                grow += 1
                if grow >= _GROW_LIMIT and not in_reg:
                    return _growth_error()
            else:
                grow = 0
            if small >= consecutive and finite is None:
                rho = min(0.99, abs(d / prev)) if prev != 0.0 else 0.0
                tail = abs_d * rho / (1.0 - rho)
                if tail <= rel_tol * scale:
                    return SeriesResult(total, n0 + b - start, tail, status_on_stop)
            before, prev = prev, d
            b += 1
        if b == last - n0 + 1:  # summed every diagonal up to the cap
            if finite is not None and last - start == finite:
                return SeriesResult(total, last - start, 0.0, SeriesStatus.TERMINATING)
            return SeriesResult(total, last - start, _cap_tail(prev, before),
                                SeriesStatus.TRUNCATED_AT_CAP)
        self.total, self.prev, self.before = total, prev, before
        self.small, self.grow = small, grow
        return None


def _falling_weights(orders, size: int):
    """(left, rev) for weighing term r of diagonal n <= size by
    r(r-1)...(r-i+1) * (n-r)(n-r-1)...(n-r-j+1) for each order (i, j):
    left[k, r] is the first factor and rev[k, size - n + r] the second,
    zero for r > n."""
    m = np.arange(size + 1, dtype=float)
    fall = np.ones((1 + max(max(o) for o in orders), size + 1))
    for k in range(1, fall.shape[0]):
        fall[k] = fall[k - 1] * (m - (k - 1))
    rev = np.zeros((len(orders), 2 * size + 1))
    rev[:, :size + 1] = fall[[j for _, j in orders], ::-1]
    return fall[[i for i, _ in orders]], rev


def kdf_eval_jet(shape: KdFShape, point, orders,
                 policy: TruncationPolicy | None = None) -> list[SeriesResult]:
    """Every partial d^(dx+dy) F / dx^dx dy^dy in `orders` at one point, from
    one diagonal sweep of `shape`; one SeriesResult per requested (dx, dy).

    Partial (i, j) sums t_rs * r(r-1)...(r-i+1) * s(s-1)...(s-j+1) / (x^i y^j)
    over the terms t_rs, which come from `kdf_eval`'s diagonal recursion.
    For each block of diagonals one numpy product forms these weighted
    diagonal sums for all orders at once.  Each order then runs `kdf_eval`'s
    stopping rule and checks diagonal by diagonal from diagonal i + j on,
    where the shift identity (`kdf_eval_derivative`) starts its shifted
    series, so it reports that identity's diagonal count (the sweep's less
    i + j), tail and status, and its value agrees with it to rounding.  The
    sweep ends when the last order stops.

    The order (0, 0) always runs and sums each diagonal left to right, so
    it returns what `kdf_eval` returns, to the bit, and where it fails the
    jet raises what `kdf_eval` at the point raises: PoleError, or
    DivergenceError for terms beyond double range or for 20 growing
    diagonals outside the convergence region.  A non-finite point raises
    DomainError.  Other orders go through `kdf_eval_derivative` after the
    sweep, which raises or answers as the shift identity does, where
    - the sweep fails for them (their weighted terms leave double range
      before the shifted series' own terms do, or they grow);
    - their weights need x^i y^j outside [2^-900, 2^900] (a zero or tiny
      coordinate);
    - their shift coefficient is zero, not finite or undefined; or
    - they differentiate past the order at which a direction terminates (an
      upper parameter within 1e-12 of a nonpositive integer but not equal
      to it shifts to a series that does not terminate).
    """
    if policy is None:
        policy = DEFAULT_POLICY
    req = [(int(dx), int(dy)) for dx, dy in orders]
    if any(dx < 0 or dy < 0 for dx, dy in req):
        raise ValueError("derivative orders must be >= 0")
    if req and set(req) == {(0, 0)}:
        return [kdf_eval(shape, point, policy)] * len(req)
    report, finite_all, _, status_on_stop = _sweep_setup(shape, policy)
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"point ({x}, {y}) is not finite")
    rule = (policy.rel_tol, policy.consecutive_small,
            _effectively_in_region(shape, report, (x, y)), status_on_stop)

    distinct = list(dict.fromkeys([(0, 0)] + req))
    swept: list[_JetOrder] = []
    fallback = []
    tx, ty, tj = report.terminates_x, report.terminates_y, report.terminates_joint
    for (i, j), coeff in zip(distinct, _jet_coefficients(shape, tuple(distinct))):
        try:
            weight_scale = abs(x) ** i * abs(y) ** j
        except OverflowError:
            weight_scale = math.inf
        if (coeff is None or coeff == 0.0 or not math.isfinite(coeff)
                or not 1.0 / _JET_RANGE <= weight_scale <= _JET_RANGE
                or (tx is not None and i > tx) or (ty is not None and j > ty)
                or (tj is not None and i + j > tj)):
            fallback.append((i, j))
        else:
            swept.append(_JetOrder((i, j), coeff, finite_all, policy.max_diagonal))
    powers = np.array([x ** o.order[0] * y ** o.order[1] for o in swept])
    # a term of an order's shifted series is its weighted term over this
    shifted_unit = np.abs(powers) * [o.coeff for o in swept]
    results: dict = {}
    live = list(range(len(swept)))  # swept[0] is the order (0, 0)
    joint = xs = ys = ()
    terms: list[float] = []
    size = 0
    n0 = 0
    while live:
        nb = min(_JET_BLOCK, max(swept[k].last for k in live) + 1 - n0)
        width = n0 + nb
        block = np.zeros((nb, width))
        if width - 1 > len(ys):
            joint, xs, ys = _ratios_covering(shape, width - 1)
        for b in range(nb):
            terms = _next_diagonal(joint, xs, ys, terms, n0 + b, x, y) if n0 + b else [1.0]
            block[b, :n0 + b + 1] = terms
        if size < width:
            size = 2 * width
            left, rev = _falling_weights([o.order for o in swept], size)
        step = rev.strides[1]
        right = np.lib.stride_tricks.as_strided(
            rev[:, size - n0:], (len(swept), nb, width), (rev.strides[0], -step, step))
        with np.errstate(all="ignore"):
            # each order's weighted diagonal sums; as plain sums over each
            # diagonal they do not depend on which other orders are asked for
            big = float(np.abs(block).max())
            if math.isfinite(big):
                sums = np.einsum("kr,kbr,br->kb", left[:, :width], right, block)
            else:
                # a zero weight drops its term from the shifted series
                weights = left[:, None, :width] * right
                sums = np.where(weights != 0.0, weights * block, 0.0).sum(axis=2)
            sums = (sums / powers[:, None]).tolist()
            # the order (0, 0) sums each diagonal left to right, as kdf_eval does
            sums[0] = np.cumsum(block, axis=1)[:, -1].tolist()
            # each order's largest shifted-series term on each diagonal, needed
            # only where a bound on it (largest term times largest weight)
            # passes the overflow guard
            peaks = [None] * len(swept)
            if not big * (left[:, width - 1] * rev[:, size - width + 1]
                          / shifted_unit).max() <= _OVERFLOW_GUARD:
                weights = left[:, None, :width] * right
                weighted = np.where(weights != 0.0, weights * block, 0.0)
                peaks = (np.abs(weighted).max(axis=2) / shifted_unit[:, None]).tolist()

        still = []
        for k in live:
            event = swept[k].advance(sums[k], peaks[k], n0, rule)
            if event is None:
                still.append(k)
            elif isinstance(event, SeriesResult):
                results[swept[k].order] = event
            elif k == 0:  # the order (0, 0) fails where kdf_eval fails
                raise event
            else:
                # the shifted series' own terms decide whether this order fails
                fallback.append(swept[k].order)
        live = still
        n0 = width

    for dx, dy in fallback:
        results[(dx, dy)] = kdf_eval_derivative(shape, (x, y), dx, dy, policy)
    return [results[o] for o in req]
