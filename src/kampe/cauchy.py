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


def _check_t(xi: float, eta: float, t) -> None:
    if not (np.all((xi <= t) & (t <= eta) & (t > 0.0)) and eta + xi > 0.0):
        raise DomainError(f"t = {t} outside [{xi}, {eta}] or nonpositive")


# sigma, rho and dsigma_dt take one abscissa t or an array of them.

def sigma(xi: float, eta: float, t: float) -> float:
    """(eta - t)(t - xi) / (2 t (eta + xi)); zero at both endpoints."""
    _check_t(xi, eta, t)
    return (eta - t) * (t - xi) / (2.0 * t * (eta + xi))


def rho(xi: float, eta: float, t: float, lam: float) -> float:
    """lam (eta - t)(t - xi)."""
    _check_t(xi, eta, t)
    return lam * (eta - t) * (t - xi)


def dsigma_dt(xi: float, eta: float, t: float) -> float:
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


def _converged(res: PointsResult) -> bool:
    return all(st in (SeriesStatus.CONVERGED, SeriesStatus.TERMINATING)
               for st in res.statuses)


def _tau_kernel(problem: CauchyProblem, xi: float, eta: float, t: np.ndarray,
                policy: TruncationPolicy) -> tuple[np.ndarray, np.ndarray, bool]:
    """(H, F, F and both partials converged) at the abscissae t.

    F, dF/dsigma and dF/drho come from one `kdf_eval_points` sweep over all
    abscissae.
    """
    if not np.all((xi < t) & (t < eta)):
        raise DomainError(f"t = {t} not strictly inside ({xi}, {eta})")
    shape = _kernel_shape(problem)
    a, b, lam = problem.alpha, problem.beta, problem.lam
    s = sigma(xi, eta, t)
    r = rho(xi, eta, t, lam)
    mid = eta + xi - 2.0 * t
    fv, fs, fr = kdf_eval_points(shape, s, r, policy, [(0, 0), (1, 0), (0, 1)])
    good = _converged(fv) and _converged(fs) and _converged(fr)
    h = (2.0 * (1.0 + 2.0 * b) * fv.values
         - (a / t) * mid * fv.values
         - mid * fs.values * dsigma_dt(xi, eta, t)
         + 4.0 * r * fr.values)
    return h, fv.values, good


def jacobi_rule(n_nodes: int, exp_eta_side: float, exp_xi_side: float,
                xi: float, eta: float):
    """Nodes and weights integrating (eta-t)^p1 (t-xi)^p2 * poly(t) exactly.

    Gauss-Jacobi on [-1, 1] mapped affinely to [xi, eta]; exact for
    polynomials of degree <= 2 n_nodes - 1 against the weight.
    """
    if n_nodes < 1:
        raise ParameterError("n_nodes must be >= 1")
    if exp_eta_side <= -1.0 or exp_xi_side <= -1.0:
        raise ParameterError("weight exponents must exceed -1")
    if not (xi < eta):
        raise DomainError(f"need xi < eta, got [{xi}, {eta}]")
    z, w = roots_jacobi(n_nodes, exp_eta_side, exp_xi_side)
    half = 0.5 * (eta - xi)
    nodes = xi + half * (z + 1.0)
    weights = half ** (exp_eta_side + exp_xi_side + 1.0) * w
    return nodes, weights


def solve_point(problem: CauchyProblem, point, n_nodes: int = 64,
                policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Evaluate the representation at (xi, eta) inside the triangle.

    Integrals one and two carry the weight (eta-t)^beta (t-xi)^beta and the
    tau data (values and exact polynomial derivative); the third carries
    (eta-t)^(-beta) (t-xi)^(-beta) and the nu data under the Humbert kernel.
    Emits ConvergenceWarning if an interior series evaluation fails to meet
    its tolerance.
    """
    xi, eta = point
    if not (0.0 < xi < eta <= 1.0):
        raise DomainError(f"need 0 < xi < eta <= 1, got ({xi}, {eta})")
    if is_nonpositive_int(problem.beta):
        raise PoleError("beta = 0 makes the kernel's lower parameter a pole")
    a, b, lam = problem.alpha, problem.beta, problem.lam
    g1, g2 = gamma_constants(a, b)
    dtau = poly_derivative(problem.tau_data)
    all_good = True

    i1 = i2 = 0.0
    if any(c != 0.0 for c in problem.tau_data):
        nodes, weights = jacobi_rule(n_nodes, b, b, xi, eta)
        h, fv, good = _tau_kernel(problem, xi, eta, nodes, policy)
        all_good = all_good and good
        for t, w, hk, fk in zip(nodes, weights, h, fv):
            ta = t ** a
            i1 += w * ta * hk * poly_val(problem.tau_data, t)
            if dtau:
                i2 += w * (eta + xi - 2.0 * t) * ta * fk * poly_val(dtau, t)

    i3 = 0.0
    if any(c != 0.0 for c in problem.nu_data):
        hshape = shape_xi2(ParamsXi2(b=a, c=1.0 - a, e=1.0 - b))
        nodes, weights = jacobi_rule(n_nodes, -b, -b, xi, eta)
        res = kdf_eval_points(hshape, sigma(xi, eta, nodes), rho(xi, eta, nodes, lam), policy)
        all_good = all_good and _converged(res)
        for t, w, v in zip(nodes, weights, res.values):
            i3 += w * t**a * v * poly_val(problem.nu_data, t)

    if not all_good:
        warnings.warn("interior series evaluation did not converge to tolerance",
                      ConvergenceWarning, stacklevel=2)
    pre = (eta + xi) ** (-a)
    return float(g1 * pre / (eta - xi) ** (1.0 + 2.0 * b) * (i1 - i2) - g2 * pre * i3)


def verify_trace(problem: CauchyProblem, xi: float, eps_list,
                 n_nodes: int = 64,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> list[tuple[float, float]]:
    """|u(xi, xi + eps) - tau(xi)| for each eps; should shrink with eps."""
    target = poly_val(problem.tau_data, xi)
    out = []
    for eps in eps_list:
        if xi + eps > 1.0:
            raise DomainError(f"xi + eps = {xi + eps} exceeds 1")
        u = solve_point(problem, (xi, xi + eps), n_nodes, policy)
        out.append((eps, abs(u - target)))
    return out
