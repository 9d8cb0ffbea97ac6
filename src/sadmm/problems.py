"""Problem instances behind a uniform stochastic first-order oracle contract.

Two instances are provided: the elliptic optimal-control problem (gradient via
an adjoint solve, randomness from the diffusion coefficient) and a synthetic
finite-dimensional regularized least-squares problem with additive Gaussian
gradient noise and a computable reference optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .hilbert import (project_box, soft_threshold, wdot, wdot_rows,
                      weighted_l1, weighted_l1_rows, wnorm)
from .linsolve import CgConfig

# Oracle samples, and eval samples at build time, are assembled and factored
# in stacks of this many: larger stacks cost less per sample but more memory
# (measured in BENCH_batched_oracle.json).
_CHUNK = 6


class EllipticControlProblem:
    """Sparse distributed control of an elliptic PDE with a random coefficient.

    Smooth part: E[ 0.5 ||y(u, xi) - y_d||^2 ] + (alpha/2) ||u||^2 in the
    lumped L2 inner product; nonsmooth part: beta * ||u||_L1, with box
    constraints [u_min, u_max].

    The control is discretized on the interior nodes: under the lumped-load
    quadrature a boundary control value never enters the state equation (its
    lumped load row is eliminated with the Dirichlet condition), so boundary
    dofs would be frozen spectators and are dropped from the control space.

    solve_method "lu" (the default) solves every state and adjoint equation
    with a banded Cholesky factorization of the sample's stiffness, a stack
    of samples at a time; "cg" uses conjugate gradients with the cg settings,
    one sample at a time, and serves as an independent check of that path.
    """

    def __init__(self, mesh: fem.StructuredMesh, alpha: float, beta: float,
                 y_d: np.ndarray | None = None,
                 u_min: float = -6.0, u_max: float = 6.0,
                 solve_method: str = "lu", cg: CgConfig | None = None):
        if alpha < 0.0 or beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")
        if u_min >= u_max:
            raise ValueError(f"u_min={u_min} must be below u_max={u_max}")
        self.mesh = mesh
        self.alpha = alpha
        self.beta = beta
        self.u_min = u_min
        self.u_max = u_max
        self.solve_method = solve_method
        self.cg = cg or CgConfig()
        # mass and lumped weights do not depend on the coefficient sample
        self.state_weights = fem.assemble(mesh, np.zeros(4)).lumped
        self.weights = self.state_weights[mesh.interior]
        self.y_d = fem.checkerboard_target(mesh) if y_d is None else np.asarray(y_d, float)
        if self.y_d.shape != (mesh.n_nodes,):
            raise ValueError("y_d does not match the mesh")
        # factor storage for a stack of up to _CHUNK oracle samples, reused
        # by every grad call so that no chunk allocates it afresh
        self._work = None

    @property
    def dim(self) -> int:
        return len(self.mesh.interior)

    def _full(self, u: np.ndarray) -> np.ndarray:
        """Scatter an interior control vector onto all mesh nodes."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.mesh.interior] = u
        return full

    def draw_sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=4)

    def draw_samples(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m samples, (m, 4): the same values and generator state as m
        draw_sample calls."""
        return rng.uniform(-1.0, 1.0, size=(m, 4))

    def operators(self, xi: np.ndarray) -> fem.AssembledOperators:
        return fem.assemble(self.mesh, xi)

    def state(self, u: np.ndarray, xi: np.ndarray,
              ops: fem.AssembledOperators | None = None) -> np.ndarray:
        ops = ops or self.operators(xi)
        return fem.solve_state(ops, self._full(u), cfg=self.cg, method=self.solve_method)

    def grad(self, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Per-sample gradient alpha*u + p via the adjoint solve, for one
        sample xi (4,), or (m, dim), one row per sample, for a stack (m, 4).

        The direct solve treats one sample as a stack of one: the stack is
        assembled and factored at once, and its states and adjoints are
        solved at once. A stiffness that is not positive definite anywhere
        in the stack raises LinAlgError.
        """
        xis = np.asarray(xi, dtype=float)
        if self.solve_method == "cg":  # one sample at a time
            if xis.ndim == 2:
                return np.array([self.grad(u, x) for x in xis])
            ops = self.operators(xis)
        else:  # one sample is a stack of one
            ops = self.operators(np.atleast_2d(xis))
            ops.factorized(out=self._factor_storage(ops.stack_shape[0]))
        y = fem.solve_state(ops, self._full(u), cfg=self.cg, method=self.solve_method)
        p = fem.solve_adjoint(ops, y, self.y_d, cfg=self.cg, method=self.solve_method)
        g = self.alpha * u + p[..., self.mesh.interior]
        return g.reshape(xis.shape[:-1] + g.shape[-1:])

    def _factor_storage(self, m: int) -> fem.RedBlackFactor | None:
        """The reused factor storage for a stack of m <= _CHUNK samples; a
        larger stack gets new storage."""
        if m > _CHUNK:
            return None
        if self._work is None:
            self._work = fem.RedBlackFactor.empty(self.mesh, _CHUNK)
        return self._work[:m]

    def sample_grads(self, u: np.ndarray, rng: np.random.Generator, n: int):
        """The per-sample gradients at u of n fresh samples, in draw order,
        computed _CHUNK samples at a time."""
        for start in range(0, n, _CHUNK):
            yield from self.grad(u, self.draw_samples(rng, min(_CHUNK, n - start)))

    def smooth_value(self, u: np.ndarray, xi: np.ndarray) -> float:
        ops = self.operators(xi)
        y = fem.solve_state(ops, self._full(u), cfg=self.cg, method=self.solve_method)
        return (0.5 * wnorm(y - self.y_d, self.state_weights) ** 2
                + 0.5 * self.alpha * wnorm(u, self.weights) ** 2)

    def averaged_grad(self, u: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
        acc = np.zeros(self.dim)
        for g in self.sample_grads(u, rng, m):
            acc += g
        return acc / m


class QuadraticProblem:
    """Desk-scale surrogate: 0.5||A u - b||^2 + (alpha/2)||u||^2 smooth part,
    beta*||u||_1 nonsmooth part, box constraints, additive Gaussian gradient
    noise of scale sigma (an exactly unbiased, variance-bounded oracle)."""

    def __init__(self, A: np.ndarray, b: np.ndarray, alpha: float, beta: float,
                 u_min: float = -6.0, u_max: float = 6.0, sigma: float = 0.0):
        if sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if u_min >= u_max:
            raise ValueError(f"u_min={u_min} must be below u_max={u_max}")
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b have incompatible shapes")
        self.alpha = alpha
        self.beta = beta
        self.sigma = sigma
        self.u_min = u_min
        self.u_max = u_max
        self.weights = np.ones(self.A.shape[1])

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def draw_sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sigma * rng.standard_normal(self.dim)

    def exact_grad(self, u: np.ndarray) -> np.ndarray:
        return self.A.T @ (self.A @ u - self.b) + self.alpha * u

    def grad(self, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
        return self.exact_grad(u) + noise

    def smooth_value(self, u: np.ndarray, sample: np.ndarray | None = None) -> float:
        r = self.A @ u - self.b
        return 0.5 * float(r @ r) + 0.5 * self.alpha * float(u @ u)

    def sample_grads(self, u: np.ndarray, rng: np.random.Generator, n: int):
        """The per-sample gradients at u of n fresh noise draws, in draw order."""
        for _ in range(n):
            yield self.grad(u, self.draw_sample(rng))

    def averaged_grad(self, u: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
        noise = self.sigma * rng.standard_normal((m, self.dim)).mean(axis=0)
        return self.exact_grad(u) + noise

    def smooth_lipschitz(self) -> float:
        return float(np.linalg.eigvalsh(self.A.T @ self.A)[-1]) + self.alpha


def nonsmooth_value(problem, u: np.ndarray) -> float:
    """beta * lumped L1 norm of u."""
    return problem.beta * weighted_l1(u, problem.weights)


def empirical_objective(problem, u: np.ndarray, samples) -> float:
    """Average smooth value over a fixed sample list plus the L1 term."""
    samples = list(samples)
    if not samples:
        raise ValueError("sample list must be nonempty")
    mean = sum(problem.smooth_value(u, s) for s in samples) / len(samples)
    return mean + nonsmooth_value(problem, u)


class FrozenEvalSet:
    """A sample set drawn once and reused for every telemetry evaluation.

    For the elliptic problem the samples' stiffnesses are assembled and
    factored once, _CHUNK samples at a time (red-black elimination, then a
    banded Cholesky factor of each black Schur complement), and only the
    factors are kept, as one stack. Scoring a stack of iterates splits the
    loads, the target and the weights by colour once, then costs one
    multi-right-hand-side solve per sample.
    """

    def __init__(self, problem, n_samples: int, seed):
        if n_samples < 1:
            raise ValueError("eval_samples must be >= 1")
        self.problem = problem
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        self.samples = [problem.draw_sample(rng) for _ in range(n_samples)]
        # No per-sample operators are kept; perfbench/child.py reads _ops.
        self._ops = None
        self._factors = None
        if isinstance(problem, EllipticControlProblem):
            mesh = problem.mesh
            xis = np.array(self.samples)
            self._factors = fem.RedBlackFactor.empty(mesh, n_samples)
            for start in range(0, n_samples, _CHUNK):
                chunk = slice(start, start + _CHUNK)
                problem.operators(xis[chunk]).factorized(out=self._factors[chunk])
            rb = self._factors.ordering
            y_d = problem.y_d[mesh.interior]
            # (nodes, target, weights) of the red and of the black nodes
            self._colours = [(idx, y_d[idx], problem.weights[idx])
                             for idx in (rb.red, rb.black)]
            # the state vanishes on the boundary, so the boundary share of
            # ||y - y_d||_W^2 is the same for every u and every sample
            y_d_b = problem.y_d[mesh.boundary_mask]
            self._boundary_sq = wdot(y_d_b, y_d_b,
                                     problem.state_weights[mesh.boundary_mask])

    def objective(self, u: np.ndarray,
                  u_nonsmooth: np.ndarray | None = None) -> float | np.ndarray:
        """Mean smooth value at u plus the L1 term, evaluated at u_nonsmooth
        (defaults to u; for splitting methods pass the thresholded iterate).

        Accepts u of shape (dim,), returning a float, or a stack of iterates
        of shape (k, dim), returning k values; vectorized over the leading
        axis. Every value equals the one a single-iterate call gives, bit for
        bit: each factor solves all k loads in one call, column by column
        alike, and every reduction is row-wise (wdot_rows, weighted_l1_rows).
        """
        us = np.atleast_2d(u)
        zs = us if u_nonsmooth is None else np.atleast_2d(u_nonsmooth)
        prob = self.problem
        w = prob.weights
        if self._factors is not None:
            # the lumped loads W u, one column per iterate, split by colour
            loads = (w * us).T
            parts = [np.ascontiguousarray(loads[idx]) for idx, _, _ in self._colours]
            alpha_terms = 0.5 * prob.alpha * wdot_rows(us, us, w)
            smooth = np.zeros(len(us))
            for factor in self._factors:
                sq = 0.0
                for x, (_, y_d, w_c) in zip(factor.solve(*parts), self._colours):
                    r = np.subtract(x.T, y_d, order="C")
                    sq = sq + wdot_rows(r, r, w_c)
                smooth += 0.5 * (sq + self._boundary_sq) + alpha_terms
            smooth /= len(self._factors)
        else:
            smooth = np.array([sum(prob.smooth_value(x, s) for s in self.samples)
                               / len(self.samples) for x in us])
        values = smooth + prob.beta * weighted_l1_rows(zs, w)
        return float(values[0]) if np.ndim(u) == 1 else values


@dataclass
class ReferenceOptimum:
    u: np.ndarray
    objective: float
    residual: float
    converged: bool


def reference_optimum(problem: QuadraticProblem, max_iter: int = 10 ** 6,
                      tol: float = 1e-12) -> ReferenceOptimum:
    """Deterministic proximal gradient (prox = clamp o soft-threshold) on the
    noise-free quadratic problem, run to a prox-gradient residual <= tol."""
    L = problem.smooth_lipschitz()
    step = 1.0 / L
    u = np.zeros(problem.dim)
    residual = np.inf
    for _ in range(max_iter):
        g = problem.exact_grad(u)
        u_next = project_box(soft_threshold(u - step * g, step * problem.beta),
                             problem.u_min, problem.u_max)
        residual = float(np.linalg.norm(u - u_next)) / step
        u = u_next
        if residual <= tol:
            break
    obj = problem.smooth_value(u) + nonsmooth_value(problem, u)
    return ReferenceOptimum(u=u, objective=obj, residual=residual,
                            converged=residual <= tol)
