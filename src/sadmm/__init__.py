"""Stochastic splitting solver for nonsmooth composite convex problems,
with sparse optimal control of a random-coefficient elliptic PDE.

Imported before numpy, the package pins BLAS and OpenMP to one thread unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is already set: every factorization
is too small to share between threads (see README), and the eval set's passes
use the cores one lane per CPU instead. A caller that imported numpy first
keeps its BLAS threads.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")

from .hilbert import project_box, soft_threshold, wdot, wnorm
from .fem import (StructuredMesh, assemble, checkerboard_target, coefficient,
                  factor, interpolate, l2_error, solve_adjoint, solve_state)
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
