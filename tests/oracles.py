"""Independent oracles for the test suite.

Everything here is deliberately written as plain loops over the series
definitions, sharing no code with the library's diagonal-recursion,
parameter-shift, or quadrature paths.  The one-variable and double-sum
oracles are shared with the acceptance criteria and live in `kampe.checks`.
"""

from __future__ import annotations

from kampe.checks import hyp1d, shape_double_sum  # noqa: F401


def poch_direct(a: float, n: int) -> float:
    p = 1.0
    for j in range(n):
        p *= a + j
    return p


# --- exact solutions of the degenerate hyperbolic equation -----------------
#
# In p = eta + xi, q = eta - xi the equation reads
#     u_qq + (2 beta / q) u_q = u_pp + (2 alpha / p) u_p + lambda u,
# and polynomial data admit exact expansions in powers of q^2 (even branch,
# trace data) and q^(1 - 2 beta) * q^2j (odd branch, weighted-derivative
# data).  These series are the independent reference for the integral
# representation.

def _bessel_apply(coeffs: dict, alpha: float, lam: float) -> dict:
    out: dict = {}
    for m, c in coeffs.items():
        fac = m * (m + 2.0 * alpha - 1.0)
        if fac != 0.0:
            out[m - 2] = out.get(m - 2, 0.0) + c * fac
        if lam != 0.0:
            out[m] = out.get(m, 0.0) + c * lam
    return out


def exact_u_tau(tau_coeffs, alpha: float, beta: float, lam: float,
                xi: float, eta: float, jmax: int = 200) -> float:
    p, q = eta + xi, eta - xi
    cur = {k: ck / 2.0**k for k, ck in enumerate(tau_coeffs)}
    total, fac, small = 0.0, 1.0, 0
    for j in range(jmax):
        term = fac * sum(c * p**m for m, c in cur.items())
        total += term
        small = small + 1 if abs(term) < 1e-18 * max(abs(total), 1e-300) else 0
        if small >= 3:
            break
        cur = _bessel_apply(cur, alpha, lam)
        fac *= (q * q / 4.0) / ((j + 1) * (beta + 0.5 + j))
    return total


def exact_u_nu(nu_coeffs, alpha: float, beta: float, lam: float,
               xi: float, eta: float, jmax: int = 200) -> float:
    p, q = eta + xi, eta - xi
    scale = -((2.0 * (1.0 - 2.0 * beta)) ** (2.0 * beta)) / (2.0 * (1.0 - 2.0 * beta))
    cur = {k: scale * ck / 2.0**k for k, ck in enumerate(nu_coeffs)}
    total, fac, small = 0.0, q ** (1.0 - 2.0 * beta), 0
    for j in range(jmax):
        term = fac * sum(c * p**m for m, c in cur.items())
        total += term
        small = small + 1 if abs(term) < 1e-18 * max(abs(total), 1e-300) else 0
        if small >= 3:
            break
        cur = _bessel_apply(cur, alpha, lam)
        fac *= (q * q / 4.0) / ((j + 1) * (1.5 - beta + j))
    return total
