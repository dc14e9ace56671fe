import math

import numpy as np
import pytest

from kampe import (CauchyProblem, ConvergenceWarning, DomainError,
                   ParameterError, PoleError, TruncationPolicy, dsigma_dt,
                   gamma_constants, h_kernel, jacobi_rule, rho, sigma,
                   solve_point, solve_points, verify_trace)
from oracles import exact_u_nu, exact_u_tau

# 50-digit references, alpha = beta = -0.2
GAMMA1_M02 = 0.4782306576939580318
GAMMA2_M02 = 0.30346496318196331865
BETA_07_07 = 1.8990379336740188963  # B(0.7, 0.7)


def test_sigma_values():
    assert sigma(0.2, 0.6, 0.4) == pytest.approx(0.0625, rel=1e-15)
    assert sigma(0.2, 0.6, 0.2) == 0.0
    assert sigma(0.2, 0.6, 0.6) == 0.0


def test_sigma_domain():
    with pytest.raises(DomainError):
        sigma(0.2, 0.6, 0.7)
    with pytest.raises(DomainError):
        sigma(-0.5, 0.5, -0.1)


def test_rho_values():
    assert rho(0.2, 0.6, 0.4, 0.0) == 0.0
    assert rho(0.2, 0.6, 0.4, 2.0) == pytest.approx(0.08, rel=1e-15)
    assert rho(0.2, 0.6, 0.6, 5.0) == 0.0


def test_dsigma_dt_closed_form_and_fd():
    assert dsigma_dt(0.2, 0.6, 0.4) == pytest.approx(-0.15625, rel=1e-15)
    root = math.sqrt(0.6 * 0.2)
    assert dsigma_dt(0.2, 0.6, root) == pytest.approx(0.0, abs=1e-15)
    h = 1e-6
    for t in (0.25, 0.35, 0.45, 0.55):
        fd = (sigma(0.2, 0.6, t + h) - sigma(0.2, 0.6, t - h)) / (2 * h)
        assert dsigma_dt(0.2, 0.6, t) == pytest.approx(fd, rel=1e-8)
    assert dsigma_dt(0.2, 0.6, root - 0.05) > 0 > dsigma_dt(0.2, 0.6, root + 0.05)


def test_similarity_arguments_broadcast_one_interval_per_abscissa():
    xi = np.array([[0.2], [0.3]])
    eta = np.array([[0.6], [0.5]])
    t = np.array([[0.3, 0.4, 0.6], [0.3, 0.45, 0.5]])
    s, r, ds = sigma(xi, eta, t), rho(xi, eta, t, 2.0), dsigma_dt(xi, eta, t)
    assert s.shape == r.shape == ds.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            args = (float(xi[i, 0]), float(eta[i, 0]), float(t[i, j]))
            assert s[i, j] == sigma(*args)
            assert r[i, j] == rho(*args, 2.0)
            assert ds[i, j] == dsigma_dt(*args)
    # 0.55 lies in the first row's [0.2, 0.6] but not in its own [0.3, 0.5]
    t_bad = np.array([[0.3, 0.4, 0.6], [0.3, 0.55, 0.5]])
    for fn in (sigma, dsigma_dt, lambda *a: rho(*a, 2.0)):
        with pytest.raises(DomainError, match="t = 0.55 outside \\[0.3, 0.5\\]"):
            fn(xi, eta, t_bad)


def test_gamma_constants_values():
    assert gamma_constants(0.0, 0.0) == (pytest.approx(0.5), pytest.approx(0.5))
    g1, g2 = gamma_constants(-0.2, -0.2)
    assert g1 == pytest.approx(GAMMA1_M02, rel=1e-13)
    assert g2 == pytest.approx(GAMMA2_M02, rel=1e-13)


def test_gamma_constants_continuity_at_zero():
    g1, _ = gamma_constants(0.0, -1e-9)
    assert g1 == pytest.approx(0.5, abs=1e-6)


def test_gamma_constants_domain():
    with pytest.raises(DomainError):
        gamma_constants(0.1, -0.2)
    with pytest.raises(DomainError):
        gamma_constants(-0.1, -0.6)


def test_jacobi_rule_midpoint_degenerate():
    nodes, weights = jacobi_rule(1, 0.0, 0.0, 0.2, 0.6)
    assert nodes[0] == pytest.approx(0.4, rel=1e-14)
    assert weights[0] == pytest.approx(0.4, rel=1e-14)


def test_jacobi_rule_polynomial_exactness():
    nodes, weights = jacobi_rule(3, 0.0, 0.0, 0.0, 1.0)
    got = sum(w * t**4 for t, w in zip(nodes, weights))
    assert got == pytest.approx(0.2, abs=1e-14)


def test_jacobi_rule_beta_identity():
    nodes, weights = jacobi_rule(8, -0.3, -0.3, 0.0, 1.0)
    assert float(sum(weights)) == pytest.approx(BETA_07_07, rel=1e-13)


def test_jacobi_rule_parameter_errors():
    with pytest.raises(ParameterError):
        jacobi_rule(0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        jacobi_rule(3, -1.0, 0.0, 0.0, 1.0)


def test_h_kernel_midpoint_and_special_cases():
    prob = CauchyProblem(alpha=-0.15, beta=-0.2, lam=0.7)
    xi, eta = 0.3, 0.5
    tmid = 0.4
    # both (eta+xi-2t)-carrying terms vanish at the midpoint
    h = h_kernel(prob, xi, eta, tmid)
    from kampe import ParamsF0211, shape_f0211, kdf_eval, kdf_eval_derivative
    shape = shape_f0211(ParamsF0211(-0.15, 1.15, -0.2, -0.2, 0.8))
    s, r = sigma(xi, eta, tmid), rho(xi, eta, tmid, 0.7)
    f = kdf_eval(shape, (s, r)).value
    fr = kdf_eval_derivative(shape, (s, r), 0, 1).value
    assert h == pytest.approx(2.0 * (1.0 - 0.4) * f + 4.0 * r * fr, rel=1e-12)


def test_h_kernel_beta_zero_pole():
    prob = CauchyProblem(alpha=0.0, beta=0.0, lam=0.0)
    with pytest.raises(PoleError):
        h_kernel(prob, 0.3, 0.5, 0.4)
    with pytest.raises(PoleError):
        solve_point(prob, (0.3, 0.5))


def test_solve_point_zero_data():
    prob = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.5,
                         tau_data=(0.0, 0.0), nu_data=(0.0,))
    assert solve_point(prob, (0.3, 0.6)) == 0.0


def test_solve_point_domain():
    prob = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0, tau_data=(1.0,))
    with pytest.raises(DomainError):
        solve_point(prob, (0.6, 0.3))
    with pytest.raises(DomainError):
        solve_point(prob, (0.0, 0.3))


def test_problem_invariants():
    with pytest.raises(DomainError):
        CauchyProblem(alpha=-0.6, beta=-0.7, lam=0.0)
    with pytest.raises(DomainError):
        CauchyProblem(alpha=-0.3, beta=-0.1, lam=0.0)  # beta > alpha


def test_constant_solution():
    prob = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0, tau_data=(2.5,))
    u64 = solve_point(prob, (0.3, 0.6), 64)
    assert abs(u64 - 2.5) <= 1e-6
    u128 = solve_point(prob, (0.3, 0.6), 128)
    assert abs(u128 - u64) <= 1e-8


def test_tau_branch_vs_exact_series():
    # lambda = 0: polynomial trace data against the exact q^2-series solution
    tau = (1.0, 1.0, 0.0, 1.0)
    for alpha, beta, (xi, eta) in [(-0.1, -0.1, (0.3, 0.6)),
                                   (-0.1, -0.3, (0.2, 0.5)),
                                   (-0.35, -0.45, (0.45, 0.9))]:
        prob = CauchyProblem(alpha=alpha, beta=beta, lam=0.0, tau_data=tau)
        got = solve_point(prob, (xi, eta), 64)
        ref = exact_u_tau(tau, alpha, beta, 0.0, xi, eta)
        assert got == pytest.approx(ref, rel=1e-11)


def test_tau_branch_with_lambda_vs_exact_series():
    tau = (1.0, 2.0)
    for lam in (0.7, -1.2):
        prob = CauchyProblem(alpha=-0.2, beta=-0.3, lam=lam, tau_data=tau)
        got = solve_point(prob, (0.35, 0.7), 64)
        ref = exact_u_tau(tau, -0.2, -0.3, lam, 0.35, 0.7)
        assert got == pytest.approx(ref, rel=1e-11)


def test_nu_branch_vs_exact_series():
    nu = (2.0, 0.0, -1.0)
    for lam in (0.0, 0.9):
        prob = CauchyProblem(alpha=-0.1, beta=-0.3, lam=lam, nu_data=nu)
        got = solve_point(prob, (0.2, 0.5), 64)
        ref = exact_u_nu(nu, -0.1, -0.3, lam, 0.2, 0.5)
        assert got == pytest.approx(ref, rel=1e-11)


def test_mixed_data_vs_exact_series():
    tau = (1.0, 1.0, 0.0, 1.0)
    nu = (2.0, 0.0, -1.0)
    prob = CauchyProblem(alpha=-0.2, beta=-0.3, lam=-1.2, tau_data=tau, nu_data=nu)
    got = solve_point(prob, (0.45, 0.9), 72)
    ref = (exact_u_tau(tau, -0.2, -0.3, -1.2, 0.45, 0.9)
           + exact_u_nu(nu, -0.2, -0.3, -1.2, 0.45, 0.9))
    assert got == pytest.approx(ref, rel=1e-10)


def test_node_doubling_stability():
    prob = CauchyProblem(alpha=-0.2, beta=-0.3, lam=0.8,
                         tau_data=(1.0, -0.5, 0.25), nu_data=(1.0,))
    u64 = solve_point(prob, (0.3, 0.55), 64)
    u128 = solve_point(prob, (0.3, 0.55), 128)
    assert abs(u128 - u64) <= 1e-8 * max(1.0, abs(u64))


def test_verify_trace_constant_and_linear():
    prob_c = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0, tau_data=(1.5,))
    for _, dev in verify_trace(prob_c, 0.3, (1e-1, 1e-2)):
        assert dev <= 1e-6
    prob_l = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0, tau_data=(0.0, 1.0))
    devs = [d for _, d in verify_trace(prob_l, 0.3, (1e-1, 3e-2, 1e-2, 3e-3))]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 1e-2


def test_verify_trace_zero_data_exact():
    prob = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0)
    for _, dev in verify_trace(prob, 0.4, (1e-1, 1e-2)):
        assert dev == 0.0


def test_convergence_warning_on_truncation():
    # sigma is bounded by (sqrt(eta) - sqrt(xi))^2 / (2 (eta + xi)) <= 1/2,
    # so interior series always converge geometrically; only a starved
    # policy can leave them truncated, which must surface as a warning
    prob = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0, tau_data=(1.0,))
    from kampe import TruncationPolicy
    starved = TruncationPolicy(max_diagonal=6)
    with pytest.warns(ConvergenceWarning):
        solve_point(prob, (0.01, 0.9), 8, starved)


@pytest.mark.parametrize("field,bad", [("alpha", math.nan), ("beta", -math.inf),
                                       ("lam", math.nan), ("lam", math.inf),
                                       ("tau_data", (1.0, math.nan)),
                                       ("nu_data", (math.inf,))])
def test_problem_nonfinite_inputs_are_domain_errors(field, bad):
    fields = dict(alpha=-0.1, beta=-0.2, lam=0.5, tau_data=(1.0,), nu_data=(1.0,))
    fields[field] = bad
    with pytest.raises(DomainError):
        CauchyProblem(**fields)


# values of the node-by-node kernel evaluation this solver replaced, which
# summed every series at one abscissa at a time; the batched sweeps must
# reproduce them to the bit
MIXED_64 = CauchyProblem(alpha=-0.2, beta=-0.3, lam=0.8,
                         tau_data=(1.0, -0.5, 0.25), nu_data=(1.0,))
MIXED_128 = CauchyProblem(alpha=-0.1, beta=-0.2, lam=-1.2,
                          tau_data=(1.0, 0.5, -0.3), nu_data=(0.4, 0.2))


def test_solve_point_pinned_mixed_values():
    assert solve_point(MIXED_64, (0.3, 0.55), 64) == 0.8833453691811397
    assert solve_point(MIXED_128, (0.2, 0.7), 128) == 0.8041930146512635


def test_solve_point_series_calls(monkeypatch):
    from kampe import cauchy, series
    calls = {"points": 0, "scalar": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cauchy, "kdf_eval_points", counted("points", cauchy.kdf_eval_points))
    monkeypatch.setattr(series, "kdf_eval", counted("scalar", series.kdf_eval))
    solve_point(MIXED_64, (0.3, 0.55), 64)
    # F and both partials over the tau nodes in one sweep, Xi2 over the nu nodes
    assert calls == {"points": 2, "scalar": 0}
    # at lambda = 0, rho vanishes at every node, so dF/drho is one sweep of
    # its shifted series over all nodes inside the same call
    calls.update(points=0, scalar=0)
    solve_point(CauchyProblem(alpha=-0.05, beta=-0.15, lam=0.0, tau_data=(1.0, 1.0, 0.0, 1.0),
                              nu_data=(2.0, 0.0, -1.0)), (0.3, 0.55), 64)
    assert calls == {"points": 2, "scalar": 0}


# the 10 x 10 grid of the benchmark's seed-1 CLI cauchy job, in the CLI's
# order (x outer, y inner); PROBLEM_0 is that job's problem
def _grid(x_min, y_min, nx=10, ny=10, dx=0.15, dy=0.35):
    xs = [x_min + dx * i / max(nx - 1, 1) for i in range(nx)]
    ys = [y_min + dy * j / max(ny - 1, 1) for j in range(ny)]
    return [(x, y) for x in xs for y in ys]


JOB_GRID = _grid(0.13708461613135192, 0.5748882425300762)
PROBLEM_0 = CauchyProblem(alpha=-0.1, beta=-0.2, lam=0.8,
                          tau_data=(1.0, 0.5, -0.3), nu_data=(0.4, 0.2))
LAMBDA_0 = CauchyProblem(alpha=-0.05, beta=-0.15, lam=0.0, tau_data=(1.0, 1.0, 0.0, 1.0),
                         nu_data=(2.0, 0.0, -1.0))


@pytest.mark.parametrize("problem,points,n_nodes", [
    (PROBLEM_0, JOB_GRID, 64),
    (LAMBDA_0, JOB_GRID, 64),
    (MIXED_64, _grid(0.1, 0.4, 37, 1, dx=0.25), 64),  # not a multiple of 16 points
    (MIXED_128, [(0.2, 0.7), (0.31, 0.45)], 2048),  # one point per sweep
], ids=["job-grid", "lambda-0", "37-points", "2048-nodes"])
def test_solve_points_is_solve_point_to_the_bit(problem, points, n_nodes):
    got = solve_points(problem, points, n_nodes)
    assert got.shape == (len(points),)
    assert got.tolist() == [solve_point(problem, p, n_nodes) for p in points]


def _count_sweeps(monkeypatch):
    from kampe import cauchy
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(np.ravel(args[1])))
        return kdf_eval_points(*args, **kwargs)

    kdf_eval_points = cauchy.kdf_eval_points
    monkeypatch.setattr(cauchy, "kdf_eval_points", counted)
    return calls


def test_solve_points_checks_every_point_before_any_sweep(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    points = JOB_GRID[:4] + [(0.6, 0.6)] + JOB_GRID[4:] + [(0.7, 0.3)]
    with pytest.raises(DomainError, match=r"got \(0.6, 0.6\)"):
        solve_points(PROBLEM_0, points)
    assert calls == []


def test_solve_points_sweeps_1024_abscissae_at_most(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    solve_points(PROBLEM_0, JOB_GRID, 64)
    # 16 points a chunk, 7 chunks; the tau and nu kernels sweep each once
    assert len(calls) == 14
    assert calls == [1024] * 12 + [256] * 2


def test_solve_points_warns_on_truncation():
    starved = TruncationPolicy(max_diagonal=6)
    prob = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0, tau_data=(1.0,))
    with pytest.warns(ConvergenceWarning):
        solve_points(prob, [(0.3, 0.6), (0.01, 0.9), (0.2, 0.4)], 8, starved)


def test_verify_trace_is_solve_point_to_the_bit():
    prob = CauchyProblem(alpha=-0.1, beta=-0.1, lam=0.0, tau_data=(0.0, 1.0))
    eps = (1e-1, 3e-2, 1e-2, 3e-3)
    assert verify_trace(prob, 0.3, eps) == [
        (e, abs(solve_point(prob, (0.3, 0.3 + e)) - 0.3)) for e in eps]


def test_solve_points_pinned_values():
    # values of the per-point solver that grids replaced; each moves in its
    # last bits when the non-integer powers are taken with numpy's array **
    # (a vectorised pow that can round differently from scalar pow)
    assert solve_points(PROBLEM_0, [(0.26596666727432305, 0.9041088632214754),
                                    (0.39385149909045764, 0.5822663924608844)],
                        128).tolist() == [1.3950019115835828, 1.1838683340485896]
    assert solve_point(LAMBDA_0, (0.14954912533529466, 0.35884971958330575),
                       64) == 1.2057024665178075
