"""Stochastic splitting solver for nonsmooth composite convex problems,
with sparse optimal control of a random-coefficient elliptic PDE."""

from .hilbert import project_box, soft_threshold, wdot, wnorm
from .fem import (StructuredMesh, assemble, build_mesh, checkerboard_target,
                  coefficient, factor, interpolate, l2_error, lumped_weights,
                  solve_adjoint, solve_state)
from .problems import (EllipticControlProblem, FrozenEvalSet,
                       QuadraticProblem, reference_optimum)
from .optim import (AdaSgSolver, AdmmParams, AdmmSolver, AdmmState,
                    BatchSchedule, NumericalFailure, SpgSolver, SsgSolver,
                    derive_convex_params, derive_strongly_convex_params,
                    estimate_L, run_solver, theta_next)
from .harness import (ConfigError, ExperimentConfig, RunRecord, RunRow,
                      emit_csv, envelope, fem_verify, fit_rate_slope,
                      grad_check, run_experiment, sparsity_fraction,
                      sparsity_table)
from .svgplot import emit_svg

__version__ = "0.1.0"
