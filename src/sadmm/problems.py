"""Problem instances behind a uniform stochastic first-order oracle contract.

Two instances are provided: the elliptic optimal-control problem (gradient via
an adjoint solve, randomness from the diffusion coefficient) and a synthetic
finite-dimensional regularized least-squares problem with additive Gaussian
gradient noise and a computable reference optimum.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import fem
from .hilbert import (project_box, soft_threshold, wdot, wdot_rows,
                      weighted_l1_rows, wnorm)

# Oracle and eval samples are assembled and factored in stacks of this many:
# larger stacks cost less per sample but more memory (measured in
# BENCH_batched_oracle.json).
_CHUNK = 6
# An eval sample solves the loads of at most this many iterates at once,
# which bounds the working memory of scoring every iterate of an experiment
# in one call (BENCH_stream_eval.json).
_COLUMNS = 64
# The admissible control set of both problems: u_min <= u <= u_max, entrywise.
BOX = (-6.0, 6.0)
# The quadratic oracle draws its noise in blocks of at most this many doubles
# (64 KiB): one draw per block instead of one per sample, and no block large
# enough to be mapped and faulted in afresh (BENCH_quadratic_draws.json).
_NOISE_BLOCK = 8192


def _lane_count() -> int:
    """The CPUs this process may run on: an eval-set pass and estimate_L's
    draws run one lane on each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(xis: np.ndarray) -> list:
    """The stack of samples xis, _CHUNK at a time, in sample order."""
    return [xis[start:start + _CHUNK] for start in range(0, len(xis), _CHUNK)]


@contextmanager
def _lanes(n_items: int):
    """The map of one pass over n_items items: the builtin map for one lane,
    else the map of a thread pool of one lane per CPU (_lane_count) but no
    more lanes than items, joined when the block ends. The pool's map
    submits every item at once and yields the results in item order while
    the caller waits; on a lane's exception it cancels the items that no
    lane started, and the pool's shutdown waits for the running ones, so no
    work of a failed pass outlives the block."""
    lanes = min(_lane_count(), n_items)
    if lanes <= 1:
        yield map
        return
    with ThreadPoolExecutor(lanes) as pool:
        yield pool.map


def _row_mean(stacks, n: int) -> np.ndarray:
    """The mean of the n rows of stacks, an iterable of stacks of rows: the
    rows added in order to 0.0 (so a sum of -0.0 is +0.0), then divided by
    n. Every sample mean of the elliptic oracle and of the eval set is
    taken here."""
    total = 0.0
    for rows in stacks:
        for row in rows:
            total += row  # a new array from 0.0, then in place
    return total / n


class EllipticControlProblem:
    """Sparse distributed control of an elliptic PDE with a random coefficient.

    Smooth part: E[ 0.5 ||y(u, xi) - y_d||^2 ] + (alpha/2) ||u||^2 in the
    lumped L2 inner product; nonsmooth part: beta * ||u||_L1, with box
    constraints BOX = [u_min, u_max].

    The control is discretized on the interior nodes: under the lumped-load
    quadrature a boundary control value never enters the state equation (its
    lumped load row is eliminated with the Dirichlet condition), so boundary
    dofs would be frozen spectators and are dropped from the control space.

    Every state and adjoint equation is solved directly, by a red-black
    banded Cholesky factorization of the sample's stiffness (see fem). The
    oracle (grad) and every pass of a FrozenEvalSet factor their stacks in
    factored: into storage for _CHUNK samples borrowed from the problem's
    one free list, which a caller holds alone until its block ends. The
    list grows to as many chunks as were ever held at once: at most one per
    lane.
    """

    u_min, u_max = BOX

    def __init__(self, mesh: fem.StructuredMesh, alpha: float, beta: float):
        if alpha < 0.0 or beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")
        self.mesh = mesh
        self.alpha = alpha
        self.beta = beta
        self.weights = mesh.lumped[mesh.interior]
        self.y_d = fem.checkerboard_target(mesh)
        self.y_d_interior = self.y_d[mesh.interior]
        # the free list of factor storage for _CHUNK samples (see factored)
        self._free = queue.SimpleQueue()

    @property
    def dim(self) -> int:
        return len(self.mesh.interior)

    def draw_samples(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m samples, (m, 4), uniform on [-1, 1]^4; m draws of one sample
        give the same values and generator state."""
        return rng.uniform(-1.0, 1.0, size=(m, 4))

    @contextmanager
    def factored(self, xis: np.ndarray):
        """The factors of a stack of samples xis (m, 4), in factor storage
        that the caller holds until the block ends. The storage of _CHUNK
        samples is borrowed from the problem's free list, or allocated when
        every one is held; a stack of more than _CHUNK samples gets storage
        of its own."""
        if len(xis) > _CHUNK:
            yield fem.factor(self.mesh, xis)
            return
        try:
            storage = self._free.get_nowait()
        except queue.Empty:
            storage = fem.RedBlackFactor.empty(self.mesh, _CHUNK)
        try:
            yield fem.factor(self.mesh, xis, out=storage[:len(xis)])
        finally:
            self._free.put(storage)

    def grad(self, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Per-sample gradient alpha*u + p via the adjoint solve, for one
        sample xi (4,), or (m, dim), one row per sample, for a stack (m, 4);
        k controls u (k, dim) give (k, dim) or (m, k, dim), bit for bit.

        One sample is a stack of one: the stack is assembled and factored at
        once, and its states and adjoints are solved at once. A stiffness that
        is not positive definite anywhere in the stack raises LinAlgError.
        The rows are C-contiguous, so a row's value under any reduction
        (wnorm in estimate_L) does not depend on the stack it came from.
        """
        xis = np.asarray(xi, dtype=float)
        with self.factored(np.atleast_2d(xis)) as factor:
            g = self.alpha * u + self._adjoints(factor, u)
        return g.reshape(xis.shape[:-1] + g.shape[1:])

    def _adjoints(self, factors: fem.RedBlackFactor, u: np.ndarray,
                  y_d: np.ndarray | None = None) -> np.ndarray:
        """The adjoints of a stack of factors at u (dim,), (m, dim), or at k
        controls u (k, dim), (m, k, dim), for the interior target y_d (the
        problem's by default): the one chain of grad and the eval set's
        gradient. When every control is 0 (every run's first step, the
        reference optimum's start) the state is exactly 0 and is not solved."""
        y = (fem.solve_state(factors, u) if np.any(u)
             else np.zeros((len(factors),) + np.shape(u)))
        return fem.solve_adjoint(
            factors, y, self.y_d_interior if y_d is None else y_d)

    def sample_grads(self, u: np.ndarray, rng: np.random.Generator, n: int):
        """The per-sample gradients at u of n fresh samples, in draw order,
        computed _CHUNK samples at a time, one chunk per item of one pass
        on the lanes (_lanes): the samples are drawn before any gradient."""
        chunks = _chunks(self.draw_samples(rng, n))
        with _lanes(len(chunks)) as lanes:
            for g in lanes(lambda xis: self.grad(u, xis), chunks):
                yield from g

    def smooth_value(self, u: np.ndarray, xi: np.ndarray) -> float:
        # the tracking term spans all nodes; the state is 0 on the boundary
        y = np.zeros(self.mesh.n_nodes)
        y[self.mesh.interior] = fem.solve_state(fem.factor(self.mesh, xi), u)[0]
        return (0.5 * wnorm(y - self.y_d, self.mesh.lumped) ** 2
                + 0.5 * self.alpha * wnorm(u, self.weights) ** 2)

    def mean_grad(self, u: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """The mean of grad at u over given samples xis (m, 4), _CHUNK at a
        time on the calling thread: a batch is too short for lanes to pay
        (BENCH_lower_band.json)."""
        return _row_mean((self.grad(u, c) for c in _chunks(xis)), len(xis))

    def averaged_grad(self, u: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
        return self.mean_grad(u, self.draw_samples(rng, m))


class QuadraticProblem:
    """Desk-scale surrogate: 0.5||A u - b||^2 + (alpha/2)||u||^2 smooth part,
    beta*||u||_1 nonsmooth part, box constraints, additive Gaussian gradient
    noise of scale sigma (an exactly unbiased, variance-bounded oracle)."""

    u_min, u_max = BOX

    def __init__(self, A: np.ndarray, b: np.ndarray, alpha: float, beta: float,
                 sigma: float = 0.0):
        if sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b have incompatible shapes")
        self.alpha = alpha
        self.beta = beta
        self.sigma = sigma
        self.weights = np.ones(self.A.shape[1])

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def exact_grad(self, u: np.ndarray) -> np.ndarray:
        """The smooth part's gradient at one point u (dim,). A stack of
        points is refused: A @ u would mix its rows."""
        if np.ndim(u) != 1:
            raise ValueError(f"exact_grad takes one point (dim,), not an "
                             f"array of shape {np.shape(u)}")
        return self.A.T @ (self.A @ u - self.b) + self.alpha * u

    def smooth_value(self, u: np.ndarray) -> float:
        r = self.A @ u - self.b
        return 0.5 * float(r @ r) + 0.5 * self.alpha * float(u @ u)

    def objective(self, u: np.ndarray) -> float | np.ndarray:
        """The exact objective at u (dim,), a float, or at each row of a
        stack of iterates (k, dim), k values; each row is scored alone, so
        its value does not depend on the stack."""
        return _plus_l1(self, u, np.array(
            [self.smooth_value(x) for x in np.atleast_2d(u)]))

    def sample_grads(self, u: np.ndarray, rng: np.random.Generator, n: int):
        """The per-sample gradients at u of n fresh noise draws, in draw order:
        exact_grad(u) + sigma * rng.standard_normal(dim) each. The noise is
        drawn in blocks of rows, at most _NOISE_BLOCK doubles each, which
        gives the same values and generator state as n draws of dim."""
        g = self.exact_grad(u)
        rows = max(1, _NOISE_BLOCK // self.dim)
        for start in range(0, n, rows):
            block = rng.standard_normal((min(rows, n - start), self.dim))
            block *= self.sigma
            block += g
            yield from block

    def averaged_grad(self, u: np.ndarray, rng: np.random.Generator, m: int) -> np.ndarray:
        noise = self.sigma * rng.standard_normal((m, self.dim)).mean(axis=0)
        return self.exact_grad(u) + noise

    def smooth_lipschitz(self) -> float:
        return float(np.linalg.eigvalsh(self.A.T @ self.A)[-1]) + self.alpha


def _plus_l1(problem, u: np.ndarray, smooth: np.ndarray) -> float | np.ndarray:
    """The objective of either problem: smooth, the smooth values of the
    rows of np.atleast_2d(u), plus problem.beta times each row's lumped L1
    norm (weighted_l1_rows); a float for one iterate u (dim,), k values for
    a stack (k, dim)."""
    values = smooth + problem.beta * weighted_l1_rows(np.atleast_2d(u),
                                                       problem.weights)
    return float(values[0]) if np.ndim(u) == 1 else values


class FrozenEvalSet:
    """The elliptic problem's sample set: the points it is given, (n, 4),
    reused for every telemetry evaluation (the quadratic problem scores
    itself exactly). It draws nothing and holds no factor or factor storage.
    Every value it gives is a sample mean, taken by one pass function,
    mean(work): the mean (_row_mean) of the rows of work(factors) over the
    factors of each chunk of _CHUNK samples (red-black elimination, then a
    banded Cholesky factor of each black Schur complement). Each public
    call picks its pass function once.
    objective and smooth_grad stream (_streamed): each lane factors a chunk
    into storage borrowed from the problem (EllipticControlProblem.factored)
    and is done with it before it factors the next. optimum and
    smooth_lipschitz, which make a pass per gradient, hold their factors
    (_held): every chunk is factored once into storage of its own, for all
    their gradients and optimum's final scoring. Scoring a stack of iterates
    splits the loads, the target and the weights by colour once, then costs
    one multi-right-hand-side solve per sample, on its stack of one, for up
    to _COLUMNS iterates at a time. So a caller that scores every iterate of
    an experiment in one objective call factors each sample once.

    Every pass over the samples runs one lane per CPU the process may use,
    on pool threads while the caller waits (a streamed pass opens a pool of
    its own, a held block one for all its passes), with BLAS at one thread
    per call. The results are added in sample order, so every value is the
    same, bit for bit, whatever the number of lanes.
    """

    def __init__(self, problem: EllipticControlProblem, samples: np.ndarray):
        if not isinstance(problem, EllipticControlProblem):
            raise TypeError(f"FrozenEvalSet scores an EllipticControlProblem, "
                            f"got {type(problem).__name__}")
        self.samples = fem.check_sample(samples)
        if self.samples.ndim != 2 or not len(self.samples):
            raise ValueError(f"eval samples must be (n, 4) with n >= 1, got "
                             f"{self.samples.shape}")
        self.problem = problem
        # No per-sample operators are kept; perfbench/child.py reads _ops.
        self._ops = None
        mesh = problem.mesh
        rb = mesh.red_black
        # (nodes, target, weights) of the red and of the black nodes
        self._colours = [(idx, problem.y_d_interior[idx], problem.weights[idx])
                         for idx in (rb.red, rb.black)]
        # the state vanishes on the boundary, so the boundary share of
        # ||y - y_d||_W^2 is the same for every u and every sample
        y_d_b = problem.y_d[mesh.boundary_mask]
        self._boundary_sq = wdot(y_d_b, y_d_b,
                                 mesh.lumped[mesh.boundary_mask])

    def objective(self, u: np.ndarray) -> float | np.ndarray:
        """Mean smooth value at u plus the L1 term at u.

        Accepts u of shape (dim,), returning a float, or a stack of iterates
        of shape (k, dim), returning k values; vectorized over the leading
        axis. A call factors every sample once, whatever k is, so a caller
        with many iterates scores them in one call. Every value equals the
        one a single-iterate call gives, bit for bit: a sample's factor
        solves the loads of many iterates column by column alike, every
        reduction is row-wise (wdot_rows, weighted_l1_rows), and each
        iterate sums its samples in sample order.
        """
        return _plus_l1(self.problem, u, self._smooth_values(u, self._streamed))

    def _smooth_values(self, u: np.ndarray, mean) -> np.ndarray:
        """The mean smooth value of each row of np.atleast_2d(u), (k, dim),
        a chunk of samples per item of one pass of mean."""
        prob, us = self.problem, np.atleast_2d(u)
        w = prob.weights
        alpha_terms = 0.5 * prob.alpha * wdot_rows(us, us, w)
        # the lumped loads W u, one column per iterate, split by colour into
        # the loads of a stack of one, at most _COLUMNS iterates per block
        loads = (w * us).T
        blocks = [(slice(start, start + _COLUMNS),
                   [np.ascontiguousarray(loads[idx, start:start + _COLUMNS])[None]
                    for idx, _, _ in self._colours])
                  for start in range(0, len(us), _COLUMNS)]

        def terms(factors: fem.RedBlackFactor) -> np.ndarray:
            """Each sample's term of every iterate's value, (len(factors), k)."""
            out = np.empty((len(factors), len(us)))
            for row, factor in zip(out, factors):
                for cols, block in blocks:
                    sq = 0.0
                    for x, (_, y_d, w_c) in zip(factor.solve(*block),
                                                self._colours):
                        r = np.subtract(x[0].T, y_d, order="C")
                        sq = sq + wdot_rows(r, r, w_c)
                    row[cols] = 0.5 * (sq + self._boundary_sq) + alpha_terms[cols]
            return out

        return mean(terms)

    def smooth_grad(self, u: np.ndarray) -> np.ndarray:
        """Exact gradient at u of the eval set's mean smooth value; factors
        every sample once."""
        return self._smooth_grad(u, self._streamed)

    def _smooth_grad(self, u: np.ndarray, mean,
                     y_d: np.ndarray | None = None) -> np.ndarray:
        """The gradient at u for the interior target y_d (defaults to the
        problem's): the mean, taken by mean, of the oracle's adjoint chain
        (_adjoints) over the samples."""
        prob = self.problem
        return prob.alpha * u + mean(
            lambda factors: prob._adjoints(factors, u, y_d))

    def _streamed(self, work) -> np.ndarray:
        """The sample mean of the rows of work(factors) in one pass on a
        pool of its own (_lanes), each lane factoring its chunks into storage
        borrowed from the problem (EllipticControlProblem.factored)."""
        prob, chunks = self.problem, _chunks(self.samples)

        def borrowed(chunk: np.ndarray):
            with prob.factored(chunk) as factors:
                return work(factors)

        with _lanes(len(chunks)) as lanes:
            return _row_mean(lanes(borrowed, chunks), len(self.samples))

    @contextmanager
    def _held(self):
        """A block's pass function, like _streamed but on factors held for
        the block: every chunk is factored once into storage of its own, and
        every pass runs on one pool."""
        mesh, chunks = self.problem.mesh, _chunks(self.samples)
        with _lanes(len(chunks)) as lanes:
            factored = list(lanes(lambda chunk: fem.factor(mesh, chunk), chunks))
            yield lambda work: _row_mean(lanes(work, factored), len(self.samples))

    def smooth_lipschitz(self) -> float:
        """Lipschitz constant of smooth_grad in the W-norm (see _lipschitz);
        factors every sample once, and every pass runs on one pool."""
        with self._held() as mean:
            return self._lipschitz(mean)

    def _lipschitz(self, mean) -> float:
        """Power iteration on the gradient for a zero target, which is linear
        in u, with a 1% margin because power iteration approaches the top
        eigenvalue from below."""
        w = self.problem.weights
        no_target = np.zeros(len(w))
        v = np.ones(len(w)) / wnorm(np.ones(len(w)), w)
        L = 0.0
        for _ in range(100):
            hv = self._smooth_grad(v, mean, no_target)
            L_prev, L = L, wdot(v, hv, w)
            v = hv / wnorm(hv, w)
            if abs(L - L_prev) <= 1e-10 * L:
                break
        return 1.01 * L

    def optimum(self) -> ReferenceOptimum:
        """The exact minimizer of the eval-set objective. Every sample is
        factored once, and those factors serve every gradient and the final
        scoring; every pass runs on one pool."""
        prob = self.problem
        with self._held() as mean:
            return _prox_gradient(
                prob, lambda u: self._smooth_grad(u, mean),
                self._lipschitz(mean),
                lambda u: _plus_l1(prob, u, self._smooth_values(u, mean)))


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
    return _prox_gradient(problem, problem.exact_grad,
                          problem.smooth_lipschitz(), problem.objective)
