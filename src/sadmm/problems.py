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

    Every state and adjoint equation is solved directly, by a red-black
    banded Cholesky factorization of the sample's stiffness (see fem).
    """

    def __init__(self, mesh: fem.StructuredMesh, alpha: float, beta: float,
                 y_d: np.ndarray | None = None,
                 u_min: float = -6.0, u_max: float = 6.0):
        if alpha < 0.0 or beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")
        if u_min >= u_max:
            raise ValueError(f"u_min={u_min} must be below u_max={u_max}")
        self.mesh = mesh
        self.alpha = alpha
        self.beta = beta
        self.u_min = u_min
        self.u_max = u_max
        self.state_weights = fem.lumped_weights(mesh)
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

    def grad(self, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Per-sample gradient alpha*u + p via the adjoint solve, for one
        sample xi (4,), or (m, dim), one row per sample, for a stack (m, 4).

        One sample is a stack of one: the stack is assembled and factored at
        once, and its states and adjoints are solved at once. A stiffness that
        is not positive definite anywhere in the stack raises LinAlgError.
        The rows are C-contiguous, so a row's value under any reduction
        (wnorm in estimate_L) does not depend on the stack it came from.
        """
        xis = np.asarray(xi, dtype=float)
        stack = np.atleast_2d(xis)
        factor = fem.factor(self.mesh, stack,
                            out=self._factor_storage(len(stack)))
        y = fem.solve_state(factor, self._full(u))
        p = fem.solve_adjoint(factor, y, self.y_d)
        # np.take, unlike p[:, interior], gives a C-ordered block
        g = self.alpha * u + np.take(p, self.mesh.interior, axis=1)
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
        y = fem.solve_state(fem.factor(self.mesh, xi), self._full(u))[0]
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


class FrozenEvalSet:
    """A sample set drawn once and reused for every telemetry evaluation.

    For the elliptic problem the samples' stiffnesses are assembled and
    factored once, _CHUNK samples at a time (red-black elimination, then a
    banded Cholesky factor of each black Schur complement), and only the
    factors are kept, as one stack. Scoring a stack of iterates splits the
    loads, the target and the weights by colour once, then costs one
    multi-right-hand-side solve per sample, on its stack of one. The same
    factors give the exact gradient of the mean smooth value, and with it the
    exact optimum of the eval-set objective. The quadratic problem's smooth
    value does not depend on the sample, so it draws no samples and scores
    each iterate once.
    """

    def __init__(self, problem, n_samples: int, seed):
        if n_samples < 1:
            raise ValueError("eval_samples must be >= 1")
        self.problem = problem
        self.samples = []
        # No per-sample operators are kept; perfbench/child.py reads _ops.
        self._ops = None
        self._factors = None
        if isinstance(problem, EllipticControlProblem):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(seed)))
            self.samples = [problem.draw_sample(rng) for _ in range(n_samples)]
            mesh = problem.mesh
            xis = np.array(self.samples)
            self._factors = fem.RedBlackFactor.empty(mesh, n_samples)
            for start in range(0, n_samples, _CHUNK):
                chunk = slice(start, start + _CHUNK)
                fem.factor(mesh, xis[chunk], out=self._factors[chunk])
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

    def objective(self, u: np.ndarray) -> float | np.ndarray:
        """Mean smooth value at u plus the L1 term at u.

        Accepts u of shape (dim,), returning a float, or a stack of iterates
        of shape (k, dim), returning k values; vectorized over the leading
        axis. Every value equals the one a single-iterate call gives, bit for
        bit: each sample's factor solves all k loads in one call, column by
        column alike, and every reduction is row-wise (wdot_rows,
        weighted_l1_rows).
        """
        us = np.atleast_2d(u)
        prob = self.problem
        w = prob.weights
        if self._factors is not None:
            # the lumped loads W u, one column per iterate, split by colour,
            # each part the loads of a stack of one
            loads = (w * us).T
            parts = [np.ascontiguousarray(loads[idx])[None]
                     for idx, _, _ in self._colours]
            alpha_terms = 0.5 * prob.alpha * wdot_rows(us, us, w)
            smooth = np.zeros(len(us))
            for factor in self._factors:
                sq = 0.0
                for x, (_, y_d, w_c) in zip(factor.solve(*parts), self._colours):
                    r = np.subtract(x[0].T, y_d, order="C")
                    sq = sq + wdot_rows(r, r, w_c)
                smooth += 0.5 * (sq + self._boundary_sq) + alpha_terms
            smooth /= len(self._factors)
        else:
            smooth = np.array([prob.smooth_value(x) for x in us])
        values = smooth + prob.beta * weighted_l1_rows(us, w)
        return float(values[0]) if np.ndim(u) == 1 else values

    def smooth_grad(self, u: np.ndarray,
                    y_d: np.ndarray | None = None) -> np.ndarray:
        """Exact gradient at u of the elliptic eval set's mean smooth value,
        for the target y_d (defaults to the problem's): one state and one
        adjoint solve per cached factor, _CHUNK factors at a time, summed in
        sample order. No sample is assembled or factored again."""
        prob = self.problem
        u_full = prob._full(u)
        acc = np.zeros(prob.dim)
        for start in range(0, len(self._factors), _CHUNK):
            factors = self._factors[start:start + _CHUNK]
            y = fem.solve_state(factors, u_full)
            for p in fem.solve_adjoint(factors, y, prob.y_d if y_d is None else y_d):
                acc += p[prob.mesh.interior]
        return prob.alpha * u + acc / len(self._factors)

    def smooth_lipschitz(self) -> float:
        """Lipschitz constant of smooth_grad in the W-norm: power iteration on
        the gradient for a zero target, which is linear in u, with a 1% margin
        because power iteration approaches the top eigenvalue from below."""
        w = self.problem.weights
        no_target = np.zeros(self.problem.mesh.n_nodes)
        v = np.ones(len(w)) / wnorm(np.ones(len(w)), w)
        L = 0.0
        for _ in range(100):
            hv = self.smooth_grad(v, no_target)
            L_prev, L = L, wdot(v, hv, w)
            v = hv / wnorm(hv, w)
            if abs(L - L_prev) <= 1e-10 * L:
                break
        return 1.01 * L

    def optimum(self) -> ReferenceOptimum:
        """The exact minimizer of the elliptic eval-set objective."""
        return _prox_gradient(self.problem, self.smooth_grad,
                              self.smooth_lipschitz(), self.objective)


@dataclass
class ReferenceOptimum:
    u: np.ndarray
    objective: float
    residual: float
    converged: bool


def _prox_gradient(problem, grad, L: float, objective) -> ReferenceOptimum:
    """Minimize a smooth part with gradient grad and Lipschitz constant L plus
    problem.beta times the weighted L1 norm over problem's box, from 0.

    Accelerated proximal gradient with step 1/L (prox = clamp o
    soft-threshold; Beck and Teboulle, 2009) and gradient restart
    (O'Donoghue and Candes, 2015), run to a prox-gradient residual <= 1e-12.
    """
    tol, step, w = 1e-12, 1.0 / L, problem.weights
    u = y = np.zeros(problem.dim)
    t = 1.0
    residual = np.inf
    for _ in range(10 ** 5):
        u_prev, u = u, project_box(
            soft_threshold(y - step * grad(y), step * problem.beta),
            problem.u_min, problem.u_max)
        residual = float(np.linalg.norm(y - u)) / step
        if residual <= tol:
            break
        if wdot(y - u, u - u_prev, w) > 0.0:
            t, y = 1.0, u
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = u + ((t - 1.0) / t_next) * (u - u_prev)
            t = t_next
    return ReferenceOptimum(u=u, objective=objective(u), residual=residual,
                            converged=residual <= tol)


def reference_optimum(problem: QuadraticProblem) -> ReferenceOptimum:
    """The minimizer of the noise-free quadratic problem (see _prox_gradient)."""
    return _prox_gradient(
        problem, problem.exact_grad, problem.smooth_lipschitz(),
        lambda u: problem.smooth_value(u) + nonsmooth_value(problem, u))
