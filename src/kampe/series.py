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
`kdf_eval_points` gets many partials at many points from one sweep instead,
by weighting each term x^r y^s with the falling factorials of r and s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
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
        for name in (field.name for field in fields(self)):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) > _MAX_GROUP:
                raise ParameterError(f"{name} has {len(vals)} entries, limit is {_MAX_GROUP}")
            if not all(map(math.isfinite, vals)):
                raise DomainError(f"{name} has a non-finite entry: {vals}")
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
        for name in ("max_diagonal", "consecutive_small"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an integer, not {value!r}")
            object.__setattr__(self, name, int(value))
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


def _first_zero(params) -> int | None:
    """Smallest index n at which some (a)_n in the group vanishes, None if
    none does: a nonpositive integer a gives (a)_n = 0 first at n = 1 - a."""
    return min((1 - round(a) for a in params if is_nonpositive_int(a)), default=None)


def validate_shape(shape: KdFShape) -> ValidationReport:
    # an upper group's terms survive up to the index before its first zero
    tx, ty, tj = (None if n is None else n - 1 for n in
                  map(_first_zero, (shape.upper_x, shape.upper_y, shape.upper_joint)))
    px = _first_zero(shape.lower_x)
    py = _first_zero(shape.lower_y)
    pj = _first_zero(shape.lower_joint)

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


def _effectively_in_region(region: ConvergenceRegion, report: ValidationReport,
                           point) -> bool:
    """Region membership with terminated directions exempted (arrays too)."""
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


@lru_cache(maxsize=512)
def _sweep_setup(shape: KdFShape):
    """(validation report, last diagonal of a fully terminating shape or None,
    status of a sweep that meets the stopping rule, convergence region)
    shared by the sweeps; raises PoleError for undefined shapes.  Memoised
    per shape: like `_ratio_table`'s, its results are never changed."""
    report = validate_shape(shape)
    if report.undefined:
        raise PoleError("; ".join(report.messages))
    finite_all = None
    if report.terminates_joint is not None:
        finite_all = report.terminates_joint
    elif report.terminates_x is not None and report.terminates_y is not None:
        finite_all = report.terminates_x + report.terminates_y
    status_on_stop = SeriesStatus.TERMINATING if report.terminating else SeriesStatus.CONVERGED
    return report, finite_all, status_on_stop, classify_convergence(shape)


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
    update each (the recursion of `kdf_eval` and one-point sweeps), with ratio
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


class _JetOrder:
    """The plan of one order (i, j) of a sweep: its weighted diagonal sums
    are coeff times the diagonal sums of its shifted series, from diagonal
    start = i + j on and up to diagonal last; finite is the shifted series'
    own last diagonal, None unless it terminates.  Order (0, 0) with coeff 1
    is the shape's series itself."""

    __slots__ = ("start", "last", "coeff", "finite")

    def __init__(self, order, coeff: float, finite_all, max_diagonal: int):
        self.start = order[0] + order[1]
        # the shifted series terminates i + j diagonals before the shape's
        self.finite = None if finite_all is None else finite_all - self.start
        cap = max_diagonal if self.finite is None else min(self.finite, max_diagonal)
        self.last = self.start + cap
        self.coeff = abs(coeff)


_GATE = 6  # diagonal sums the acceleration gate looks at
_GATE_RATIO = 0.5  # the least |d_n / d_(n-1)| inside the gate
_GATE_SLACK = 1.0 - 1e-9  # lets a constant ratio that rounds down pass "does not fall"
_LEVIN_ORDER = 40  # the highest transform order tried before plain summation
_SUM_ROUNDING = 2.0 ** -51  # 4 units of rounding of a partial sum


def _gate_holds(window) -> bool:
    """Whether the last _GATE diagonal sums of a window of (partial sum, d)
    pass the acceleration gate, given that they alternate in sign and each
    |d_n / d_(n-1)| is at least _GATE_RATIO: the ratio must not fall across
    them, as it does in entire directions (like |y| / n)."""
    first, second, last, end = (window[i][1] for i in (-_GATE, 1 - _GATE, -2, -1))
    return abs(end / last) >= abs(second / first) * _GATE_SLACK


class _Levin:
    """Levin's u-transform T of one series' partial sums S_n from the gate's
    first diagonal on, with beta = 1 and remainder estimates
    omega_n = (n + 1) d_n (Levin 1973; Weniger, Comput. Phys. Rep. 10, 1989).
    The numerators and denominators of the Fessler-Ford-Smith recurrence
    make each new transform O(order); `tail` is |T_n - T_(n-1)|.

    The transform is tested only at chosen diagonals, where its tail should
    lie far below rel_tol |T|.  A test at every diagonal would hinge on the
    rounding of the tail where it first meets rel_tol |T|, so two sums of
    one series that round apart (a jet's weighted sums and the shifted
    series' own) could stop at different diagonals.  At the first tail below
    sqrt(rel_tol) |T|, still far above rounding, the tail's mean rate of
    decay since the first tail predicts the diagonal at which it falls
    below rel_tol |T|; the first test comes `consecutive` diagonals after
    that one, and after a failed test the next comes `consecutive` later."""

    __slots__ = ("rel_tol", "consecutive", "first", "num", "den", "total", "value", "tail",
                 "decay", "small", "test")

    def __init__(self, window, n: int, rel_tol: float, consecutive: int):
        """Seed with the window of (S_j, d_j) that ends at diagonal n."""
        self.rel_tol, self.consecutive = rel_tol, consecutive
        self.first = n + 1 - len(window)
        self.num, self.den = [], []
        self.value, self.tail, self.decay, self.small, self.test = math.nan, math.inf, None, 0, None
        for j, (total, d) in enumerate(window, self.first):
            self.add(j, total, d)

    def add(self, n: int, total: float, d: float) -> None:
        """Take the partial sum and the sum of diagonal n."""
        w = (n + 1.0) * d
        num, den = [total / w], [1.0 / w]
        old_num, old_den = self.num, self.den
        if old_num:
            # X_(k+1) = X_k(new) - c_k X_k(old), c_k = (n - k) / (n + 1) * (n / (n + 1))^(k - 1)
            num.append(num[0] - old_num[0])
            den.append(den[0] - old_den[0])
            scale = 1.0 / (n + 1.0)
            ratio, f = n * scale, scale
            for k in range(1, len(old_num)):
                c = (n - k) * f
                num.append(num[k] - c * old_num[k])
                den.append(den[k] - c * old_den[k])
                f *= ratio
        self.num, self.den, self.total = num, den, total
        value = num[-1] / den[-1] if den[-1] != 0.0 else math.nan
        self.tail, self.value = abs(value - self.value), value
        bound = self.rel_tol * abs(value)
        self.small = self.small + 1 if self.tail <= bound else 0
        if self.decay is None and 0.0 < self.tail < math.inf:
            self.decay = (n, self.tail)
        if self.test is None and self.tail <= math.sqrt(self.rel_tol) * abs(value):
            steps = 0
            if self.decay is not None and bound < self.tail < self.decay[1]:
                m, first_tail = self.decay
                rate = math.log(self.tail / first_tail) / (n - m)
                steps = math.ceil(math.log(bound / self.tail) / rate)
            self.test = n + steps + self.consecutive

    def verdict(self, n: int) -> bool | None:
        """True at a test diagonal n where the last `consecutive` tails were
        within rel_tol |T|; False once the transform cannot settle, because
        the rounding of the partial sum (_SUM_ROUNDING times its size)
        reaches rel_tol |T| or the order passes _LEVIN_ORDER; else None."""
        if n - self.first >= _LEVIN_ORDER:
            return False
        if self.test is None or n < self.test:
            return None
        if not _SUM_ROUNDING * abs(self.total) <= self.rel_tol * abs(self.value):
            return False
        if self.small >= self.consecutive:
            return True
        self.test = n + self.consecutive
        return None


def _stop_rule(plan: _JetOrder, rel_tol: float, consecutive: int, in_reg: bool,
               status_on_stop: SeriesStatus):
    """The stopping rule and checks of one series at one point, as a primed
    generator.  It is sent the (sum, largest term) of each diagonal of the
    plan from its start on and answers None, or else the series' (value,
    diagonals, tail, status), or else the error it fails with; once it
    answers, it takes no more sums.

    It stops once `consecutive` successive diagonal sums fall below rel_tol
    relative to the running total and the extrapolated geometric tail does
    too, else at the plan's last diagonal: exactly where the series
    terminates there, truncated at the cap otherwise.  A NaN sum is a pole;
    a sum or term beyond double range, or _GROW_LIMIT growing diagonals in a
    row outside the convergence region, are a DivergenceError.

    Inside the convergence region a series that does not terminate may stop
    sooner: while its last _GATE diagonal sums alternate in sign, shrink by
    a ratio of at least _GATE_RATIO and that ratio does not fall
    (`_gate_holds`), their Levin transform (`_Levin`) runs beside the plain
    sum, and the rule stops with the transform as its value once it
    settles."""
    total, _ = yield
    prev, before = total, 0.0
    small = grow = 0
    floor = _TINY * plan.coeff
    accelerate = in_reg and plan.finite is None
    # the (partial sum, d) of the diagonals since the one before the gate's
    # run of alternating, slowly shrinking sums began
    window, levin, last_total = [], None, total
    n = 0
    while n < plan.last - plan.start:
        d, peak = yield None
        n += 1
        if math.isnan(d):
            yield _pole_error()
        if not math.isfinite(d) or peak > _OVERFLOW_GUARD:
            yield _overflow_error(n)
        total += d
        scale = max(abs(total), floor)
        abs_d = abs(d)
        small = small + 1 if abs_d <= rel_tol * scale else 0
        if abs_d > abs(prev):
            grow += 1
            if grow >= _GROW_LIMIT and not in_reg:
                yield _growth_error()
        else:
            grow = 0
        if small >= consecutive and plan.finite is None:
            rho = min(0.99, abs(d / prev)) if prev != 0.0 else 0.0
            tail = abs_d * rho / (1.0 - rho)
            if tail <= rel_tol * scale:
                yield total, n, tail, status_on_stop
        if accelerate and d * prev < 0.0 and abs_d >= _GATE_RATIO * abs(prev):
            if not window:
                window.append((last_total, prev))
            window.append((total, d))
            if len(window) < _GATE or not _gate_holds(window):
                levin = None
            else:
                if levin is None:
                    levin = _Levin(window[-_GATE:], n, rel_tol, consecutive)
                else:
                    levin.add(n, total, d)
                verdict = levin.verdict(n)
                if verdict:
                    yield levin.value, n, levin.tail, status_on_stop
                elif verdict is False:  # it cannot settle: plain sums only
                    accelerate, levin = False, None
        elif window:
            window, levin = [], None
        before, prev, last_total = prev, d, total
    if plan.finite == n:
        yield total, n, 0.0, SeriesStatus.TERMINATING
    yield total, n, _cap_tail(prev, before), SeriesStatus.TRUNCATED_AT_CAP


def kdf_eval(shape: KdFShape, point, policy: TruncationPolicy | None = None) -> SeriesResult:
    """Sum the double series by diagonals with a geometric tail estimate.

    Stops once ``consecutive_small`` successive diagonal sums fall below
    rel_tol relative to the running value and the extrapolated tail meets
    the same bound (`_stop_rule`).  Fully terminating shapes are summed
    exactly instead.  Raises PoleError for unprotected denominator poles,
    DomainError for a non-finite coordinate and DivergenceError after 20
    growing diagonals outside the convergence region.  For many points of
    one shape, `kdf_eval_points` gives the same results in one sweep.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    report, finite_all, status_on_stop, region = _sweep_setup(shape)
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"point ({x}, {y}) is not finite")

    rule = _stop_rule(_JetOrder((0, 0), 1.0, finite_all, policy.max_diagonal),
                      policy.rel_tol, policy.consecutive_small,
                      _effectively_in_region(region, report, (x, y)), status_on_stop)
    next(rule)
    terms = [1.0]
    event = rule.send((1.0, 1.0))
    joint = xs = ys = ()
    nd = 0
    while event is None:
        nd += 1
        if nd > len(ys):
            joint, xs, ys = _ratios_covering(shape, nd)
        terms = _next_diagonal(joint, xs, ys, terms, nd, x, y)
        d = 0.0
        peak = 0.0
        for t in terms:
            d += t
            a = abs(t)
            if a > peak:
                peak = a
        event = rule.send((d, peak))
    if isinstance(event, Exception):
        raise event
    return SeriesResult(*event)


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
# term entries one block of a many-point sweep may hold (1 MB), so that a
# sweep over thousands of points takes fewer diagonals per block
_BLOCK_TERMS = 2 ** 17


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


class _Outcome:
    """A sweep's value, diagonals, tail and status at each (point, order), the
    pairs the shift identity answers instead, and each failed point's error."""

    def __init__(self, m: int, n: int):
        self.values = np.zeros((m, n))
        self.used = np.zeros((m, n), dtype=int)
        self.tails = np.zeros((m, n))
        self.statuses = np.empty((m, n), dtype=object)
        self.fallback = np.zeros((m, n), dtype=bool)
        self.errors: dict[int, Exception] = {}

    def record(self, p, k, value, used, tail, status) -> None:
        """Points p and orders k: scalars, or index arrays of one length."""
        self.values[p, k] = value
        self.used[p, k] = used
        self.tails[p, k] = tail
        self.statuses[p, k] = status

    def fail(self, p: int, k: int, error: Exception) -> None:
        """Order k fails at point p: the point fails if k is (0, 0), where
        `kdf_eval` fails, else the shift identity answers there."""
        if k == 0:
            self.errors[p] = error
        else:
            self.fallback[p, k] = True


class _OnePoint:
    """The sweep's two point-count dependent steps at one point: `kdf_eval`'s
    loop makes the terms, and each order's `_stop_rule` is sent its block of
    sums in turn."""

    def __init__(self, jets, x, y, swept, in_reg, rule, out: _Outcome, powers, unit):
        rel_tol, consecutive, status_on_stop = rule
        self.rules = [_stop_rule(plan, rel_tol, consecutive, bool(in_reg[0]), status_on_stop)
                      for plan in jets]
        for r in self.rules:
            next(r)
        self.jets, self.out = jets, out
        self.x, self.y = float(x[0]), float(y[0])
        self.live = np.flatnonzero(swept[0]).tolist()  # the orders still summing
        self.terms: list[float] = []
        self.powers, self.unit = powers, unit

    @property
    def points(self) -> int:
        return 1 if self.live else 0

    def last(self) -> int:
        return max(self.jets[k].last for k in self.live)

    def diagonals(self, block, joint, xs, ys, n0: int) -> None:
        """Fill block[0, b] with diagonal n0 + b."""
        one = block[0]
        for n in range(n0, n0 + len(one)):
            self.terms = _next_diagonal(joint, xs, ys, self.terms, n, self.x, self.y) if n else [1.0]
            one[n - n0, :n + 1] = self.terms

    def advance(self, sums, peaks, n0: int) -> None:
        """Test the block's diagonals n0, n0 + 1, ... order by order."""
        sums = sums[0].tolist()
        peaks = [[0.0] * len(sums[0])] * len(sums) if peaks is None else peaks[0].tolist()
        still = []
        for k in self.live:
            plan, rule, event = self.jets[k], self.rules[k], None
            at = slice(max(plan.start - n0, 0), plan.last - n0 + 1)
            for diagonal in zip(sums[k][at], peaks[k][at]):
                event = rule.send(diagonal)
                if event is not None:
                    break
            if event is None:
                still.append(k)
            elif isinstance(event, tuple):
                self.out.record(0, k, *event)
            else:
                self.out.fail(0, k, event)
        self.live = [] if self.out.errors else still


class _Points:
    """The sweep's two point-count dependent steps over many points: numpy
    makes each diagonal for all points still summing, and the stopping rule
    runs as array operations over (point, order, diagonal), `_stop_rule`
    for every pair of a block at once, except that the pairs that pass the
    acceleration gate run `_stop_rule`'s `_Levin` one diagonal at a time.
    A pair ends at its first diagonal that fails, stops or reaches its cap;
    a point leaves once all its pairs end.  Row i belongs to point rows[i]."""

    def __init__(self, jets, x, y, swept, in_reg, rule, out: _Outcome, powers, unit):
        self.start = np.array([o.start for o in jets])[:, None]
        self.last_at = np.array([o.last for o in jets])[:, None]
        self.floor = _TINY * np.array([o.coeff for o in jets])[:, None]
        self.open = np.array([o.finite is None for o in jets])[:, None]
        self.exact = np.array([o.finite is not None and o.last - o.start == o.finite
                               for o in jets])
        self.rule, self.out = rule, out
        self.rows, self.x, self.y = np.arange(x.size), x, y
        self.powers, self.unit, self.on, self.in_reg = powers, unit, swept, in_reg
        self.terms = None
        self.total = np.zeros(swept.shape)
        self.prev = np.zeros(swept.shape)
        self.small = np.zeros(swept.shape, dtype=int)
        self.grow = np.zeros(swept.shape, dtype=int)
        # the acceleration: whether a pair may still use it, its gate's run,
        # the last partial sums and diagonal sums, and each running transform
        self.accel = in_reg[:, None] & self.open[:, 0]
        self.run = np.zeros(swept.shape, dtype=int)
        self.seen = None  # (partial sums, diagonal sums) of the last diagonals
        self.levins: dict[tuple[int, int], _Levin] = {}

    @property
    def points(self) -> int:
        return self.rows.size

    def last(self) -> int:
        return self.last_at[self.on.any(axis=0), 0].max()

    def diagonals(self, block, joint, xs, ys, n0: int) -> None:
        """Fill block[i, b] with diagonal n0 + b at point rows[i]."""
        joint, xs, ys = np.array(joint), np.array(xs), np.array(ys)
        x, yc = self.x, self.y[:, None]
        # a product kdf_eval skips (zero term or coordinate) comes out as +-0,
        # which changes no total, or as NaN or inf where a ratio is not
        # finite; only then is the block made again with kdf_eval's skips
        for skips in (False, True):
            new = self.terms
            for b in range(block.shape[1]):
                n, last = n0 + b, new
                new = block[:, b, :n + 1]
                if n == 0:
                    new[:, 0] = 1.0
                    continue
                jr = joint[n - 1]
                np.multiply(last * (jr * yc), ys[n - 1::-1], out=new[:, :n])
                new[:, n] = last[:, n - 1] * jr * xs[n - 1] * x
                if skips:
                    new[:, :n] = np.where((last != 0.0) & (yc != 0.0), new[:, :n], 0.0)
                    new[:, n] = np.where((last[:, n - 1] != 0.0) & (x != 0.0), new[:, n], 0.0)
            if np.abs(block).max() <= _OVERFLOW_GUARD:
                break
        self.terms = new

    def advance(self, d, peaks, n0: int) -> None:
        """Test the block's diagonals n0, n0 + 1, ...: d[i, k, b] holds their
        sums and peaks their largest shifted terms (or is None)."""
        rel_tol, consecutive, status_on_stop = self.rule
        nb = d.shape[2]
        step = np.arange(nb)
        n = n0 + step
        live = self.on[:, :, None] & ((self.start <= n) & (n <= self.last_at))
        rest = live & (self.start != n)
        # each pair's totals, left to right from its first diagonal, where
        # advance sets the total, and its previous diagonal sums
        total = np.cumsum(np.concatenate([self.total[:, :, None], np.where(live, d, 0.0)],
                                         axis=2), axis=2)[:, :, 1:]
        prev = np.concatenate([self.prev[:, :, None], d[:, :, :-1]], axis=2)
        abs_d = np.abs(d)
        scale = np.maximum(np.abs(total), self.floor)

        small = _runs(rest & (abs_d <= rel_tol * scale), self.small)
        grow = self.grow[:, :, None]
        failed = np.zeros(d.shape, dtype=bool)
        if not self.in_reg.all():  # growth fails only outside the region
            grow = _runs(rest & (abs_d > np.abs(prev)), self.grow)
            failed = rest & (grow >= _GROW_LIMIT) & ~self.in_reg[:, None, None]
        if peaks is not None or not abs_d.max() < math.inf:
            failed = failed | (rest & ~np.isfinite(d))
            if peaks is not None:
                failed |= rest & (peaks > _OVERFLOW_GUARD)
        done = rest & (small >= consecutive) & self.open
        if done.any():
            rho = np.where(prev != 0.0, np.minimum(0.99, np.abs(d / prev)), 0.0)
            tail = abs_d * rho / (1.0 - rho)
            done &= tail <= rel_tol * scale
        settled, levin_at = self._accelerate(d, prev, total, rest, failed | done, n0)
        capped = live & (n == self.last_at)
        ended = failed | done | capped
        if settled is not None:
            ended |= settled
        stops = ended.any(axis=2)
        r, c = np.nonzero(stops)
        b = ended[r, c].argmax(axis=1)
        self.on = self.on & ~stops
        self.total, self.prev = total[:, :, -1], d[:, :, -1]
        self.small, self.grow = small[:, :, -1], grow[:, :, -1]

        out, at = self.out, (r, c, b)
        failed, done = failed[at], done[at]
        rows, used, value = self.rows[r], n[b] - self.start[c, 0], total[at]
        done &= ~failed
        capped = ~failed & ~done
        if settled is not None:
            settled = settled[at] & capped
            capped &= ~settled
            for i in np.flatnonzero(settled).tolist():
                out.record(rows[i], c[i], *levin_at[r[i], c[i]], status_on_stop)
        exact = capped & self.exact[c]
        capped &= ~exact
        if done.any():
            out.record(rows[done], c[done], value[done], used[done], tail[at][done],
                       status_on_stop)
        if exact.any():
            out.record(rows[exact], c[exact], value[exact], used[exact], 0.0,
                       SeriesStatus.TERMINATING)
        if capped.any():
            before = np.where(rest[at], prev[at], 0.0)[capped]
            tails = [_cap_tail(a, z) for a, z in zip(d[at][capped].tolist(), before.tolist())]
            out.record(rows[capped], c[capped], value[capped], used[capped], tails,
                       SeriesStatus.TRUNCATED_AT_CAP)
        for i in np.flatnonzero(failed):
            v = d[r[i], c[i], b[i]]
            out.fail(int(rows[i]), c[i], _pole_error() if math.isnan(v)
                     else _overflow_error(int(n[b[i]])) if not math.isfinite(v)
                     or (peaks is not None and peaks[r[i], c[i], b[i]] > _OVERFLOW_GUARD)
                     else _growth_error())
            if c[i] == 0:
                self.on[r[i]] = False

        kept = self.on.any(axis=1)
        for name in ("rows", "x", "y", "terms", "powers", "unit", "on", "in_reg", "total",
                     "prev", "small", "grow", "accel", "run"):
            setattr(self, name, getattr(self, name)[kept])
        if self.seen is not None:
            self.seen = tuple(a[kept] for a in self.seen)

    def _accelerate(self, d, prev, total, rest, halt, n0: int):
        """`_stop_rule`'s acceleration over the block: its gate at every
        (point, order, diagonal) as array operations, then each pair that
        passes it somewhere runs its `_Levin` diagonal by diagonal, up to
        the first diagonal where it fails or stops without it (`halt`), which
        `_stop_rule` does not pass either.  Returns where pairs stop with the
        transform (None where no pair passes the gate) and {(row, order):
        (value, diagonals, tail)}."""
        ok = (rest & self.accel[:, :, None] & (d * prev < 0.0)
              & (np.abs(d) >= _GATE_RATIO * np.abs(prev)))
        if not ok.any():
            self.run, self.seen, self.levins = np.zeros_like(self.run), None, {}
            return None, {}
        run = _runs(ok, self.run)
        gate = run >= _GATE - 1
        opened, self.run = gate.any(), run[:, :, -1]
        if not (opened or self.run.any()):
            self.seen, self.levins = None, {}
            return None, {}
        # the partial and diagonal sums of the _GATE - 1 diagonals before the
        # block and of the block; without a run into the block only the last
        # of those can open a window
        if self.seen is None:
            self.seen = tuple(np.zeros(self.run.shape + (_GATE - 1,)) for _ in range(2))
            self.seen[0][:, :, -1], self.seen[1][:, :, -1] = self.total, self.prev
        seen_s, seen_d = (np.concatenate(pair, axis=2) for pair in zip(self.seen, (total, d)))
        self.seen = (seen_s[:, :, -(_GATE - 1):], seen_d[:, :, -(_GATE - 1):])
        if not opened:
            self.levins = {}
            return None, {}
        nb = d.shape[2]
        gate &= np.abs(d / prev) >= np.abs(seen_d[:, :, 1:nb + 1] / seen_d[:, :, :nb]) * _GATE_SLACK

        rel_tol, consecutive, _ = self.rule
        settled, levin_at, levins = np.zeros(gate.shape, dtype=bool), {}, {}
        for r, c in zip(*np.nonzero(gate.any(axis=2))):
            key, start = (int(self.rows[r]), int(c)), int(self.start[c, 0])
            levin = self.levins.get(key)
            totals, sums = seen_s[r, c].tolist(), seen_d[r, c].tolist()
            for b in np.flatnonzero(rest[r, c]).tolist():
                if halt[r, c, b]:
                    break
                if not gate[r, c, b]:
                    levin = None
                    continue
                k = n0 + b - start
                if levin is None:
                    window = list(zip(totals[b:b + _GATE], sums[b:b + _GATE]))
                    levin = _Levin(window, k, rel_tol, consecutive)
                else:
                    levin.add(k, totals[b + _GATE - 1], sums[b + _GATE - 1])
                verdict = levin.verdict(k)
                if verdict is not None:
                    if verdict:
                        settled[r, c, b] = True
                        levin_at[r, c] = (levin.value, k, levin.tail)
                    else:  # it cannot settle: plain sums only
                        self.accel[r, c] = False
                    levin = None
                    break
            if levin is not None:
                levins[key] = levin
        self.levins = levins
        return settled, levin_at


def _runs(flags, carried):
    """Consecutive true flags up to each diagonal of a block, axis 2, after
    `carried` true flags before it."""
    step = np.arange(flags.shape[2])
    last_false = np.maximum.accumulate(np.where(flags, -1, step), axis=2)
    return np.where(last_false < 0, carried[:, :, None] + step + 1, step - last_false)


@lru_cache(maxsize=64)
def _falling_weights(orders: tuple, size: int):
    """(left, rev) for weighing term r of diagonal n <= size by
    r(r-1)...(r-i+1) * (n-r)(n-r-1)...(n-r-j+1) for each order (i, j):
    left[k, r] is the first factor and rev[k, size - n + r] the second,
    zero for r > n.  Memoised read-only: a residual asks for the same orders
    at every point."""
    m = np.arange(size + 1, dtype=float)
    fall = np.ones((1 + max(max(o) for o in orders), size + 1))
    for k in range(1, fall.shape[0]):
        fall[k] = fall[k - 1] * (m - (k - 1))
    rev = np.zeros((len(orders), 2 * size + 1))
    rev[:, :size + 1] = fall[[j for _, j in orders], ::-1]
    left = fall[[i for i, _ in orders]]
    left.flags.writeable = rev.flags.writeable = False
    return left, rev


def _block_sums(block, left, rev, size: int, n0: int, powers, unit):
    """(sums, peaks) of a block of diagonals n0, n0 + 1, ... at each point p
    and order k: sums[p, k, b] is the weighted sum of diagonal n0 + b over
    powers[p, k] (coefficient times the shifted series' diagonal sum), and
    peaks[p, k, b] its largest shifted term, or peaks is None where no such
    term can pass the overflow guard.  unit[p, k] is a shifted term over its
    weighted term.  Order 0 is (0, 0), summed left to right as in kdf_eval."""
    nb, width = block.shape[1:]
    step = rev.strides[1]
    right = np.lib.stride_tricks.as_strided(
        rev[:, size - n0:], (len(rev), nb, width), (rev.strides[0], -step, step))
    # as plain sums over each diagonal, an order's sums at a point do not
    # depend on which other orders or points the block holds
    big = float(np.abs(block).max())
    sums, peaks = np.empty((len(block), len(rev), nb)), None
    if math.isfinite(big):  # order 0 is summed below
        sums[:, 1:] = np.einsum("kr,kbr,pbr->pkb", left[1:, :width], right[1:], block)
    # the largest terms are needed only where a bound on them (largest term
    # times largest weight) passes the guard
    if not big * (left[:, width - 1] * rev[:, size - width + 1] / unit).max() <= _OVERFLOW_GUARD:
        # a zero weight drops its term from the shifted series
        weights = left[:, None, :width] * right
        weighted = np.where(weights != 0.0, weights * block[:, None], 0.0)
        if not math.isfinite(big):
            sums = weighted.sum(axis=3)
        peaks = np.abs(weighted).max(axis=3) / unit[:, :, None]
    sums[:, 1:] /= powers[:, 1:, None]
    sums[:, 0] = np.cumsum(block, axis=2)[:, :, -1]
    return sums, peaks


def _power(a: float, e: int) -> float:
    try:
        return a ** e
    except OverflowError:
        return math.inf


def _sweep(shape: KdFShape, x, y, orders, policy: TruncationPolicy) -> _Outcome:
    """Each (dx, dy) partial in `orders`, (0, 0) first, at every point
    (x[p], y[p]) from one diagonal sweep of `shape`, as the columns of the
    outcome; a point that fails has no results.  See `kdf_eval_points`;
    numpy's floating-point warnings are expected to be off."""
    m, n_ord = x.size, len(orders)
    out = _Outcome(m, n_ord)
    report, finite_all, status_on_stop, region = _sweep_setup(shape)
    in_reg = np.zeros(m, dtype=bool) | _effectively_in_region(region, report, (x, y))

    # the pairs the sweep sums; the shift identity answers the rest
    points = list(zip(x.tolist(), y.tolist()))
    try:
        powers = [[a ** i * b ** j for i, j in orders] for a, b in points]
    except OverflowError:  # inf for a power beyond double range
        powers = [[_power(a, i) * _power(b, j) for i, j in orders] for a, b in points]
    powers = np.array(powers).reshape(m, n_ord)
    out.fallback = ~((1.0 / _JET_RANGE <= np.abs(powers)) & (np.abs(powers) <= _JET_RANGE))
    tx, ty, tj = report.terminates_x, report.terminates_y, report.terminates_joint
    jets = []
    for k, ((i, j), coeff) in enumerate(zip(orders, _jet_coefficients(shape, tuple(orders)))):
        if (coeff is None or coeff == 0.0 or not math.isfinite(coeff)
                or (tx is not None and i > tx) or (ty is not None and j > ty)
                or (tj is not None and i + j > tj)):
            out.fallback[:, k] = True
            coeff = 1.0
        jets.append(_JetOrder((i, j), coeff, finite_all, policy.max_diagonal))
    powers[out.fallback] = 1.0
    # a term of an order's shifted series is its weighted term over this
    unit = np.abs(powers) * [o.coeff for o in jets]

    rule = (policy.rel_tol, policy.consecutive_small, status_on_stop)
    side = (_OnePoint if m == 1 else _Points)(jets, x, y, ~out.fallback, in_reg, rule, out,
                                              powers, unit)
    joint = xs = ys = ()
    size = n0 = 0
    while side.points:
        nb = min(_JET_BLOCK, side.last() + 1 - n0,
                 max(1, _BLOCK_TERMS // (side.points * (n0 + _JET_BLOCK))))
        width = n0 + nb
        if width - 1 > len(ys):
            joint, xs, ys = _ratios_covering(shape, width - 1)
        block = np.zeros((side.points, nb, width))
        side.diagonals(block, joint, xs, ys, n0)
        if size < width:
            size = 2 * width
            # the memo keeps the small tables of short sweeps only
            weights = _falling_weights if size <= 1024 else _falling_weights.__wrapped__
            left, rev = weights(tuple(orders), size)
        side.advance(*_block_sums(block, left, rev, size, n0, side.powers, side.unit), n0)
        n0 = width

    # one sweep of each order's shifted series over the points it falls back at
    for k in np.flatnonzero(out.fallback.any(axis=0)).tolist():
        idx = [p for p in np.flatnonzero(out.fallback[:, k]).tolist() if p not in out.errors]
        if not idx:
            continue
        try:
            coeff, shifted = kdf_derivative_shape(shape, *orders[k])
            sub = _sweep(shifted, x[idx], y[idx], [(0, 0)], policy)
        except PoleError as exc:
            out.errors.update(dict.fromkeys(idx, exc))
            continue
        out.record(idx, k, coeff * sub.values[:, 0], sub.used[:, 0],
                   abs(coeff) * sub.tails[:, 0], sub.statuses[:, 0])
        out.errors.update({idx[j]: exc for j, exc in sub.errors.items()})
    return out


def _checked_sweep(shape: KdFShape, xs, ys, orders, policy: TruncationPolicy | None):
    """`_sweep` of validated points and orders, and the column of each
    requested order; raises the error of the lowest failing point."""
    if policy is None:
        policy = DEFAULT_POLICY
    x = np.array(xs, dtype=float).ravel()
    y = np.array(ys, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"{x.size} x-coordinates but {y.size} y-coordinates")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("point coordinates are not all finite")
    req = [(int(dx), int(dy)) for dx, dy in orders]
    if any(dx < 0 or dy < 0 for dx, dy in req):
        raise ValueError("derivative orders must be >= 0")
    distinct = list(dict.fromkeys([(0, 0)] + req))
    with np.errstate(all="ignore"):  # the sweep tests for non-finite values itself
        out = _sweep(shape, x, y, distinct, policy)
    if out.errors:
        raise out.errors[min(out.errors)]
    return out, [distinct.index(o) for o in req]


def kdf_eval_points(shape: KdFShape, xs, ys, policy: TruncationPolicy | None = None,
                    orders=None):
    """Sum one shape at every point (xs[i], ys[i]) in one diagonal sweep: F
    as one PointsResult, or with `orders` one PointsResult per requested
    partial d^(dx+dy) F / dx^dx dy^dy.  Entry i belongs to point i.

    Order (0, 0) is `kdf_eval` point for point, to the bit: the same term
    recursion, each diagonal summed left to right, the same stopping rule,
    tail and status.  Partial (i, j) sums t_rs * r(r-1)...(r-i+1) *
    s(s-1)...(s-j+1) / (x^i y^j) over the same terms, one numpy product per
    block of diagonals for all orders and points, and runs the stopping
    rule from diagonal i + j on, where the shift identity
    (`kdf_eval_derivative`) starts its shifted series: it reports that
    identity's diagonals, tail and status, and its value to rounding.  The
    point count alone decides how terms and rule run: at one point
    `kdf_eval`'s loop makes the terms and each order tests its sums in turn;
    over many, numpy makes each diagonal for all points and the rule tests
    all (point, order) pairs of a block at once.

    The shift identity answers, in one sweep of the shifted series over the
    points concerned, where an order's weighted terms leave double range
    before the shifted series' own terms do or grow, where x^i y^j lies
    outside [2^-900, 2^900], where the shift coefficient is zero, not finite
    or undefined, and past the order at which a direction terminates.

    A point fails where order (0, 0) fails, with what `kdf_eval` raises
    there (PoleError, or DivergenceError for terms beyond double range or 20
    growing diagonals outside the convergence region), else where the shift
    identity raises; the call raises the error of the lowest failing index.
    A non-finite coordinate raises DomainError.
    """
    out, cols = _checked_sweep(shape, xs, ys, [(0, 0)] if orders is None else orders, policy)
    results = [PointsResult(out.values[:, k], out.used[:, k], out.tails[:, k],
                            tuple(out.statuses[:, k])) for k in cols]
    return results[0] if orders is None else results


def kdf_eval_jet(shape: KdFShape, point, orders,
                 policy: TruncationPolicy | None = None) -> list[SeriesResult]:
    """Every partial d^(dx+dy) F / dx^dx dy^dy in `orders` at one point, from
    one diagonal sweep of `shape`: `kdf_eval_points` at that point, with
    one SeriesResult per requested (dx, dy)."""
    orders = [(int(dx), int(dy)) for dx, dy in orders]
    if orders and set(orders) == {(0, 0)}:  # F alone: the scalar loop
        return [kdf_eval(shape, point, policy)] * len(orders)
    out, cols = _checked_sweep(shape, [point[0]], [point[1]], orders, policy)
    values, used, tails = (a[0].tolist() for a in (out.values, out.used, out.tails))
    return [SeriesResult(values[k], used[k], tails[k], out.statuses[0, k]) for k in cols]
