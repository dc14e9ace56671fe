"""Closed-form Cauchy solver for the degenerate hyperbolic equation

    u_{xi eta} + [alpha/(eta+xi) + beta/(eta-xi)] u_xi
               + [alpha/(eta+xi) - beta/(eta-xi)] u_eta + lambda u = 0,

posed on the characteristic triangle 0 < xi < eta <= 1 with data on the
degenerate line eta = xi:  u(xi, xi) = tau(xi) and a weighted limit of
u_xi - u_eta equal to nu(xi), for -1/2 < beta <= alpha <= 0.

The solution is a triple of weighted integrals over t in [xi, eta] whose
kernels are built from the third-order double series F at the similarity
arguments sigma and rho and from the Humbert confluent series.  The
combination implemented for the tau-kernel,

    H = 2(1+2 beta) F - (alpha/t)(eta+xi-2t) F
        - (eta+xi-2t) dF/dsigma * dsigma/dt + 4 rho dF/drho,

reproduces exact polynomial-data solutions to machine precision for all
lambda (the factor (eta+xi-2t) on the dsigma/dt term is required; without
it the representation fails to satisfy the equation).

Endpoint singularities of the weights are handled by Gauss-Jacobi rules;
sigma and rho vanish at t = xi, eta so the kernels stay finite there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .core import gamma_ratio, is_nonpositive_int
from .errors import ConvergenceWarning, DomainError, ParameterError, PoleError
from .named import ParamsF0211, ParamsXi2, shape_f0211, shape_xi2
from .series import DEFAULT_POLICY, PointsResult, SeriesStatus, TruncationPolicy, kdf_eval_points


@dataclass(frozen=True)
class CauchyProblem:
    """PDE coefficients plus polynomial data (coefficient lists, low order first)."""

    alpha: float
    beta: float
    lam: float
    tau_data: tuple[float, ...] = ()
    nu_data: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tau_data", tuple(float(c) for c in self.tau_data))
        object.__setattr__(self, "nu_data", tuple(float(c) for c in self.nu_data))
        if not all(math.isfinite(v) for v in (self.alpha, self.beta, self.lam,
                                              *self.tau_data, *self.nu_data)):
            raise DomainError("alpha, beta, lambda and the data must be finite")
        if not (-0.5 < self.beta <= self.alpha <= 0.0):
            raise DomainError(
                f"need -1/2 < beta <= alpha <= 0, got beta={self.beta}, alpha={self.alpha}")


def poly_val(coeffs, t: float) -> float:
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def poly_derivative(coeffs) -> tuple[float, ...]:
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


def _inside(xi, eta, t):
    return (xi <= t) & (t <= eta) & (t > 0.0) & (eta + xi > 0.0)


def _check_t(xi, eta, t) -> None:
    """DomainError unless each abscissa t lies in its own [xi, eta] with
    t > 0 and eta + xi > 0; xi, eta and t broadcast together."""
    bad = ~np.asarray(_inside(xi, eta, t))
    if bad.any():
        i = int(np.argmax(bad))  # the first abscissa outside, in C order
        t, xi, eta = (float(np.broadcast_to(v, bad.shape).flat[i]) for v in (t, xi, eta))
        raise DomainError(f"t = {t} outside [{xi}, {eta}] or nonpositive")


# sigma, rho and dsigma_dt take scalars or arrays of xi, eta and t that
# broadcast together, one interval [xi, eta] per abscissa t.

def sigma(xi, eta, t):
    """(eta - t)(t - xi) / (2 t (eta + xi)); zero at both endpoints."""
    _check_t(xi, eta, t)
    return (eta - t) * (t - xi) / (2.0 * t * (eta + xi))


def rho(xi, eta, t, lam: float):
    """lam (eta - t)(t - xi)."""
    _check_t(xi, eta, t)
    return lam * (eta - t) * (t - xi)


def dsigma_dt(xi, eta, t):
    """d sigma/dt = (eta xi - t^2) / (2 t^2 (eta + xi)); root at t = sqrt(eta xi)."""
    _check_t(xi, eta, t)
    return (eta * xi - t * t) / (2.0 * t * t * (eta + xi))


def gamma_constants(alpha: float, beta: float) -> tuple[float, float]:
    """The two normalisation constants of the representation.

    gamma1 = 2^(alpha-1) Gamma(1+2 beta) / Gamma(1+beta)^2
    gamma2 = [2(1-2 beta)]^(2 beta) 2^(alpha-1) Gamma(1-2 beta) / Gamma(1-beta)^2
    """
    if not (-0.5 < beta <= 0.0) or alpha > 0.0:
        raise DomainError(f"need beta in (-1/2, 0] and alpha <= 0, got {beta}, {alpha}")
    g1 = 2.0 ** (alpha - 1.0) * gamma_ratio(1.0 + 2.0 * beta, 1.0 + beta) \
        * gamma_ratio(1.0, 1.0 + beta)
    g2 = ((2.0 * (1.0 - 2.0 * beta)) ** (2.0 * beta) * 2.0 ** (alpha - 1.0)
          * gamma_ratio(1.0 - 2.0 * beta, 1.0 - beta) * gamma_ratio(1.0, 1.0 - beta))
    return g1, g2


def _kernel_shape(problem: CauchyProblem):
    if is_nonpositive_int(problem.beta):
        raise PoleError("beta = 0 makes the kernel's lower parameter a pole")
    a, b = problem.alpha, problem.beta
    return shape_f0211(ParamsF0211(b=a, c=1.0 - a, d=b, e=b, g=1.0 + b))


def h_kernel(problem: CauchyProblem, xi: float, eta: float, t: float,
             policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Kernel of the tau-weighted integral at quadrature abscissa t."""
    h, _f, _ok = _tau_kernel(problem, xi, eta, np.array([t], dtype=float), policy)
    return float(h[0])


_SETTLED = frozenset((SeriesStatus.CONVERGED, SeriesStatus.TERMINATING))


def _converged(res: PointsResult) -> bool:
    return set(res.statuses) <= _SETTLED


def _strictly_inside(xi, eta, t):
    return (xi < t) & (t < eta)


def _check_inside(xi, eta, t) -> None:
    if not np.all(_strictly_inside(xi, eta, t)):
        raise DomainError(f"t = {t} not strictly inside ({xi}, {eta})")


def _tau_kernel(problem: CauchyProblem, xi, eta, t: np.ndarray,
                policy: TruncationPolicy) -> tuple[np.ndarray, np.ndarray, bool]:
    """(H, F, F and both partials converged) at the abscissae t, each strictly
    inside its own (xi, eta); xi and eta broadcast against t, and H and F
    have t's shape.

    F, dF/dsigma and dF/drho come from one `kdf_eval_points` sweep over all
    abscissae.
    """
    _check_inside(xi, eta, t)
    shape = _kernel_shape(problem)
    a, b, lam = problem.alpha, problem.beta, problem.lam
    s = sigma(xi, eta, t)
    r = rho(xi, eta, t, lam)
    mid = eta + xi - 2.0 * t
    results = kdf_eval_points(shape, s, r, policy, [(0, 0), (1, 0), (0, 1)])
    good = all(_converged(res) for res in results)
    fv, fs, fr = (res.values.reshape(t.shape) for res in results)
    h = (2.0 * (1.0 + 2.0 * b) * fv
         - (a / t) * mid * fv
         - mid * fs * dsigma_dt(xi, eta, t)
         + 4.0 * r * fr)
    return h, fv, good


def _unit_rule(n_nodes: int, exp_eta_side: float, exp_xi_side: float):
    """(nodes, weights, exponent of the half-length) of the Gauss-Jacobi rule
    on [-1, 1]."""
    if n_nodes < 1:
        raise ParameterError("n_nodes must be >= 1")
    if exp_eta_side <= -1.0 or exp_xi_side <= -1.0:
        raise ParameterError("weight exponents must exceed -1")
    z, w = roots_jacobi(n_nodes, exp_eta_side, exp_xi_side)
    return z, w, exp_eta_side + exp_xi_side + 1.0


def _pow(base: np.ndarray, e: float) -> np.ndarray:
    """base ** e per element by Python's float pow.  numpy's array ** can
    round differently (SIMD pow), and a value must not depend on which
    points share its sweep."""
    return np.array([v ** e for v in base.ravel().tolist()]).reshape(base.shape)


def _mapped(z: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The [-1, 1] abscissae z mapped affinely to each [xi, eta], one row per
    interval."""
    return xi[:, None] + (0.5 * (eta - xi))[:, None] * (z + 1.0)


def _mapped_rule(rule, xi: np.ndarray, eta: np.ndarray):
    z, w, p = rule
    return _mapped(z, xi, eta), _pow(0.5 * (eta - xi), p)[:, None] * w


def jacobi_rule(n_nodes: int, exp_eta_side: float, exp_xi_side: float,
                xi: float, eta: float):
    """Nodes and weights integrating (eta-t)^p1 (t-xi)^p2 * poly(t) exactly.

    Gauss-Jacobi on [-1, 1] mapped affinely to [xi, eta]; exact for
    polynomials of degree <= 2 n_nodes - 1 against the weight.
    """
    rule = _unit_rule(n_nodes, exp_eta_side, exp_xi_side)
    if not (xi < eta):
        raise DomainError(f"need xi < eta, got [{xi}, {eta}]")
    nodes, weights = _mapped_rule(rule, np.array([xi], dtype=float), np.array([eta], dtype=float))
    return nodes[0], weights[0]


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of terms added left to right from 0.0, as a `+=` loop adds
    them; the 0.0 turns a sum of negative zeros into 0.0."""
    return np.cumsum(terms, axis=1)[:, -1] + 0.0


# A series sweep sums at most this many abscissae, the nodes of
# max(1, _SWEEP_ABSCISSAE // n_nodes) points, which bounds its memory on
# large grids; larger sweeps ran no faster.
_SWEEP_ABSCISSAE = 1024


def _check_nodes(points, xi: np.ndarray, eta: np.ndarray, tau_rule, nu_rule) -> None:
    """Raise, at the first point in order, the error its kernel would meet
    where a rule's nodes leave their interval: the tau nodes must lie
    strictly inside it (`_tau_kernel`), the nu nodes inside it (`sigma`).
    Rounding is monotone, so each interval's first and last nodes decide."""
    rules = ((tau_rule, _strictly_inside, _check_inside), (nu_rule, _inside, _check_t))
    bad = np.zeros((2, xi.size), dtype=bool)
    for k, (rule, inside, _) in enumerate(rules):
        if rule is not None:
            ends = _mapped(np.array([rule[0].min(), rule[0].max()]), xi, eta)
            bad[k] = ~inside(xi[:, None], eta[:, None], ends).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        rule, _, check = rules[0 if bad[0, i] else 1]
        check(points[i][0], points[i][1], _mapped(rule[0], xi[i:i + 1], eta[i:i + 1])[0])


def _outside(point) -> DomainError:
    return DomainError(f"need 0 < xi < eta <= 1, got ({point[0]}, {point[1]})")


def _solve(problem: CauchyProblem, points, n_nodes: int,
           policy: TruncationPolicy) -> tuple[np.ndarray, bool]:
    """(the solution at each point, every interior series converged).

    Before any series is summed, the first point that `solve_point` would
    reject raises its error."""
    points = [tuple(p) for p in points]
    n_in = next((i for i, (p, q) in enumerate(points) if not 0.0 < p < q <= 1.0),
                len(points))
    if n_in == 0 and points:
        raise _outside(points[0])
    if is_nonpositive_int(problem.beta):
        raise PoleError("beta = 0 makes the kernel's lower parameter a pole")
    a, b, lam = problem.alpha, problem.beta, problem.lam
    tau_rule = nu_rule = None
    if any(c != 0.0 for c in problem.tau_data):
        tau_rule = _unit_rule(n_nodes, b, b)
    if any(c != 0.0 for c in problem.nu_data):
        nu_rule = _unit_rule(n_nodes, -b, -b)
    xi = np.array([p for p, _ in points[:n_in]], dtype=float)
    eta = np.array([q for _, q in points[:n_in]], dtype=float)
    _check_nodes(points, xi, eta, tau_rule, nu_rule)
    if n_in < len(points):
        raise _outside(points[n_in])
    g1, g2 = gamma_constants(a, b)
    dtau = poly_derivative(problem.tau_data)
    hshape = shape_xi2(ParamsXi2(b=a, c=1.0 - a, e=1.0 - b))
    all_good = True

    per = max(1, _SWEEP_ABSCISSAE // max(1, n_nodes))
    values = np.empty(len(points))
    for lo in range(0, len(points), per):
        x, e = xi[lo:lo + per], eta[lo:lo + per]
        xc, ec = x[:, None], e[:, None]
        i1 = i2 = i3 = np.zeros(x.size)
        if tau_rule is not None:
            t, w = _mapped_rule(tau_rule, x, e)
            h, fv, good = _tau_kernel(problem, xc, ec, t, policy)
            all_good = all_good and good
            ta = _pow(t, a)
            i1 = _row_sums(w * ta * h * poly_val(problem.tau_data, t))
            if dtau:
                i2 = _row_sums(w * (ec + xc - 2.0 * t) * ta * fv * poly_val(dtau, t))
        if nu_rule is not None:
            t, w = _mapped_rule(nu_rule, x, e)
            res = kdf_eval_points(hshape, sigma(xc, ec, t), rho(xc, ec, t, lam), policy)
            all_good = all_good and _converged(res)
            v = res.values.reshape(t.shape)
            i3 = _row_sums(w * _pow(t, a) * v * poly_val(problem.nu_data, t))
        pre = _pow(e + x, -a)
        values[lo:lo + per] = g1 * pre / _pow(e - x, 1.0 + 2.0 * b) * (i1 - i2) - g2 * pre * i3
    return values, all_good


_NOT_CONVERGED = "interior series evaluation did not converge to tolerance"


def solve_points(problem: CauchyProblem, points, n_nodes: int = 64,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> np.ndarray:
    """The solution at each point (xi, eta) inside the triangle, point for
    point `solve_point` to the bit.

    Every point is checked before any series is summed.  Each [-1, 1] rule
    is built once and mapped to every point, and each kernel is summed over
    the nodes of many points in one `kdf_eval_points` sweep (F and both
    partials over the tau nodes, Xi2 over the nu nodes) of at most 1024
    abscissae.  Emits one ConvergenceWarning if an interior series
    evaluation fails to meet its tolerance.
    """
    values, good = _solve(problem, points, n_nodes, policy)
    if not good:
        warnings.warn(_NOT_CONVERGED, ConvergenceWarning, stacklevel=2)
    return values


def solve_point(problem: CauchyProblem, point, n_nodes: int = 64,
                policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Evaluate the representation at (xi, eta) inside the triangle.

    Integrals one and two carry the weight (eta-t)^beta (t-xi)^beta and the
    tau data (values and exact polynomial derivative); the third carries
    (eta-t)^(-beta) (t-xi)^(-beta) and the nu data under the Humbert kernel.
    Emits ConvergenceWarning if an interior series evaluation fails to meet
    its tolerance.  The one-point case of `solve_points`.
    """
    values, good = _solve(problem, [point], n_nodes, policy)
    if not good:
        warnings.warn(_NOT_CONVERGED, ConvergenceWarning, stacklevel=2)
    return float(values[0])


def verify_trace(problem: CauchyProblem, xi: float, eps_list,
                 n_nodes: int = 64,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> list[tuple[float, float]]:
    """|u(xi, xi + eps) - tau(xi)| for each eps; should shrink with eps.  One
    `solve_points` call solves every eps."""
    target = poly_val(problem.tau_data, xi)
    eps_list = list(eps_list)
    for eps in eps_list:
        if xi + eps > 1.0:
            raise DomainError(f"xi + eps = {xi + eps} exceeds 1")
    us = solve_points(problem, [(xi, xi + eps) for eps in eps_list], n_nodes, policy)
    return [(eps, abs(u - target)) for eps, u in zip(eps_list, us.tolist())]
