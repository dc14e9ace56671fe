"""Double hypergeometric series of two variables: evaluation, annihilating
PDE systems, power-prefactor solution pairs, and a degenerate hyperbolic
Cauchy solver."""

from .core import gamma_ratio
from .errors import (ConvergenceWarning, DegenerateError, DivergenceError,
                     DomainError, KampeError, NegativePowerError,
                     ParameterError, PoleError, SchemaError, ShapeError)
from .frobenius import (Exponents, Solution, eval_solution, independence_check,
                        indicial_roots, solution_derivative, solution_evaluator,
                        solution_pair_f0211, solution_pair_f1211, solution_partials)
from .named import (ParamsF0211, ParamsF1211, ParamsXi2, shape_f0211, shape_f1211,
                    shape_xi2)
from .pde import (EquationResidual, EulerSystem, PdeEquation, PdeSystem,
                  PdeTerm, equation_table, euler_system, expanded_system_f0211,
                  expanded_system_f1211, monomial_action, residual,
                  substituted_system_f1211, substitution_defect_f1211,
                  systems_equal)
from .series import (DEFAULT_POLICY, ConvergenceRegion, KdFShape, PointsResult,
                     SeriesResult, SeriesStatus, TruncationPolicy, ValidationReport,
                     classify_convergence, in_region, kdf_derivative_shape,
                     kdf_eval, kdf_eval_derivative, kdf_eval_jet, kdf_eval_points,
                     validate_shape)
# cauchy, the one module that imports scipy.special, comes last: with the
# bytecode cached, the peak RSS of `import kampe` is then ~1.7 MB lower
# (54.7 -> 53.0 MB on Python 3.11.7, x86-64).  The allocator effect behind
# it is not pinned down; compiling on import peaks at ~59.5 MB either way.
from .cauchy import (CauchyProblem, dsigma_dt, gamma_constants, h_kernel,
                     jacobi_rule, rho, sigma, solve_point, solve_points,
                     verify_trace)

__version__ = "0.1.0"
