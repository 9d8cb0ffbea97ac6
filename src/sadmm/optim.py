"""Stochastic linearized ADMM with accelerated parameter schedules, plus
stochastic proximal-gradient, subgradient, and adaptive-gradient baselines.

All methods consume the same mini-batch averaged stochastic gradient, so
comparisons at a fixed iteration count use identical oracle-call budgets:
run_solver takes it at solver.point(state) and hands it to solver.step.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .hilbert import project_box, soft_threshold

logger = logging.getLogger(__name__)

REGIMES = ("strongly_convex", "convex")


class NumericalFailure(RuntimeError):
    """An update produced non-finite values."""

    def __init__(self, step_name: str, k: int):
        super().__init__(f"non-finite values after update {step_name!r} at iteration {k}")
        self.step_name = step_name
        self.k = k


def theta_next(theta: float) -> float:
    """Positive root t of t^2 - t - theta^2 = 0 (acceleration recursion)."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))


@dataclass(frozen=True)
class AdmmParams:
    mu: float
    rho: float
    eta: float
    regime: str

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise ValueError(f"mu must be in (0, 1), got {self.mu}")
        if self.rho <= 0.0 or self.eta <= 0.0:
            raise ValueError("rho and eta must be positive")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")


def derive_strongly_convex_params(alpha: float, mu: float) -> AdmmParams:
    """Solve rho + eta = alpha and eta*(1 - mu) = 2*rho*mu for (rho, eta)."""
    if alpha <= 0.0:
        raise ValueError("strongly convex regime needs alpha > 0")
    rho = alpha * (1.0 - mu) / (1.0 + mu)
    eta = 2.0 * alpha * mu / (1.0 + mu)
    params = AdmmParams(mu=mu, rho=rho, eta=eta, regime="strongly_convex")
    if rho + eta > alpha * (1.0 + 1e-12) or eta * (1.0 - mu) <= rho * mu:
        raise ValueError("derived parameters violate the strongly convex conditions")
    return params


def derive_convex_params(beta: float, mu: float, l_hat: float) -> AdmmParams:
    """General convex rule: rho = beta, eta = min(mu*rho/(1-mu) + 1.01*L, rho)."""
    if beta <= 0.0 or l_hat <= 0.0:
        raise ValueError("beta and l_hat must be positive")
    rho = beta
    eta = min(mu * rho / (1.0 - mu) + 1.01 * l_hat, rho)
    if eta <= mu * rho / (1.0 - mu) + l_hat:
        logger.warning(
            "convex-regime eta=%g does not satisfy eta > mu*rho/(1-mu) + L = %g; "
            "proceeding with the experimental rule",
            eta, mu * rho / (1.0 - mu) + l_hat,
        )
    return AdmmParams(mu=mu, rho=rho, eta=eta, regime="convex")


@dataclass(frozen=True)
class BatchSchedule:
    """m_k = max(floor, ceil(0.5 k^1.1)) (the paper's power rule) or
    m_k = floor (constant)."""
    rule: str = "paper_power"  # "paper_power" | "constant"
    floor: int = 1

    def __post_init__(self):
        if self.floor < 1:
            raise ValueError("batch floor must be >= 1")
        if self.rule not in ("paper_power", "constant"):
            raise ValueError(f"unknown batch rule {self.rule!r}")

    def size(self, k: int) -> int:
        if self.rule == "paper_power":
            return max(self.floor, math.ceil(0.5 * k ** 1.1))
        return self.floor


@dataclass
class AdmmState:
    v: np.ndarray
    s: np.ndarray
    psi: np.ndarray
    u: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    theta: float
    k: int = 0


def _check_finite(a: np.ndarray, name: str, k: int) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericalFailure(name, k)
    return a


class AdmmSolver:
    """One optimization run of the splitting method over an oracle problem."""

    def __init__(self, problem, params: AdmmParams, batch: BatchSchedule):
        self.problem = problem
        self.params = params
        self.batch = batch

    def reset(self) -> AdmmState:
        zero = np.zeros(self.problem.dim)
        return AdmmState(v=zero.copy(), s=zero.copy(), psi=zero.copy(),
                         u=zero.copy(), z=zero.copy(), lam=zero.copy(),
                         theta=1.0, k=0)

    def point(self, state: AdmmState) -> np.ndarray:
        return state.v

    def step(self, state: AdmmState, G: np.ndarray) -> AdmmState:
        prm = self.params
        prob = self.problem
        k = state.k
        if prm.regime == "strongly_convex":
            theta_k = state.theta
            rho_k = prm.rho * theta_k
            eta_k = prm.eta * theta_k
            theta_after = theta_next(theta_k)
        else:
            theta_k = float(k + 1)
            rho_k = prm.rho
            eta_k = prm.eta
            theta_after = float(k + 2)

        s1 = _check_finite(
            soft_threshold(state.v - state.lam / rho_k, prob.beta / rho_k),
            "z-step", k)
        v1 = _check_finite(
            project_box((rho_k * s1 + eta_k * state.v + state.lam - G) / (rho_k + eta_k),
                        prob.u_min, prob.u_max),
            "u-step", k)
        psi1 = _check_finite(state.psi - prm.mu * rho_k * (v1 - s1), "psi-step", k)
        inv_theta = 1.0 / theta_k
        u1 = _check_finite((1.0 - inv_theta) * state.u + inv_theta * v1, "u-average", k)
        z1 = _check_finite((1.0 - inv_theta) * state.z + inv_theta * s1, "z-average", k)
        lam1 = _check_finite(psi1 - prm.mu * rho_k * theta_k * (u1 - z1), "dual-step", k)

        return AdmmState(v=v1, s=s1, psi=psi1, u=u1, z=z1, lam=lam1,
                         theta=theta_after, k=k + 1)

    def views(self, state: AdmmState):
        """(smooth iterate u, thresholded iterate z); their difference is the
        feasibility residual."""
        return state.u, state.z


@dataclass
class SgState:
    u: np.ndarray
    k: int = 0
    grad_sq_sum: np.ndarray | None = None  # adaptive method accumulator


class _SgSolverBase:
    """What the SG-type baselines share: the gradient is taken at u."""

    def __init__(self, problem, batch: BatchSchedule):
        self.problem = problem
        self.batch = batch

    def reset(self) -> SgState:
        return SgState(u=np.zeros(self.problem.dim), k=0)

    def point(self, state: SgState) -> np.ndarray:
        return state.u

    def views(self, state: SgState):
        return state.u, state.u


class SpgSolver(_SgSolverBase):
    """Stochastic proximal gradient with a constant stepsize 1/L_hat."""

    def __init__(self, problem, batch: BatchSchedule, l_hat: float):
        super().__init__(problem, batch)
        if l_hat <= 0.0:
            raise ValueError("l_hat must be positive")
        self.step_size = 1.0 / l_hat

    def step(self, state: SgState, G: np.ndarray) -> SgState:
        eta = self.step_size
        u1 = project_box(
            soft_threshold(state.u - eta * G, eta * self.problem.beta),
            self.problem.u_min, self.problem.u_max)
        return SgState(u=_check_finite(u1, "prox-step", state.k), k=state.k + 1)


class SsgSolver(_SgSolverBase):
    """Stochastic subgradient method; sign(0) = 0 subgradient choice.
    Steps 1/(alpha (k+1)) (strongly convex) or 1/sqrt(k+1) (convex)."""

    def __init__(self, problem, batch: BatchSchedule,
                 alpha: float | None = None):
        super().__init__(problem, batch)
        self.alpha = alpha  # None -> general convex 1/sqrt(k+1) policy

    def step_size(self, k: int) -> float:
        if self.alpha is not None and self.alpha > 0.0:
            return 1.0 / (self.alpha * (k + 1))
        return 1.0 / math.sqrt(k + 1)

    def step(self, state: SgState, G: np.ndarray) -> SgState:
        sub = G + self.problem.beta * np.sign(state.u)
        u1 = project_box(state.u - self.step_size(state.k) * sub,
                         self.problem.u_min, self.problem.u_max)
        return SgState(u=_check_finite(u1, "subgradient-step", state.k),
                       k=state.k + 1)


class AdaSgSolver(_SgSolverBase):
    """Adaptive SG: per-node steps 1 / sqrt(1e-8 + cumulative G^2),
    followed by the same composite prox as SPG."""

    def step(self, state: SgState, G: np.ndarray) -> SgState:
        acc = (state.grad_sq_sum if state.grad_sq_sum is not None
               else np.zeros(self.problem.dim)) + G * G
        steps = 1.0 / np.sqrt(1e-8 + acc)
        u1 = project_box(
            soft_threshold(state.u - steps * G, steps * self.problem.beta),
            self.problem.u_min, self.problem.u_max)
        return SgState(u=_check_finite(u1, "adaptive-step", state.k),
                       k=state.k + 1, grad_sq_sum=acc)


def estimate_L(problem, u_probe: np.ndarray, rng: np.random.Generator,
               n_calls: int = 1000) -> float:
    """Average weighted gradient norm over n_calls oracle draws at u_probe,
    summed one draw at a time in draw order (problem.sample_grads decides
    how the gradients are computed)."""
    if n_calls < 1:
        raise ValueError("n_calls must be >= 1")
    from .hilbert import wnorm
    total = 0.0
    for g in problem.sample_grads(u_probe, rng, n_calls):
        total += wnorm(g, problem.weights)
    return total / n_calls


def run_solver(solver, K: int, rng: np.random.Generator, hook=None):
    """Drive K steps from the solver's initial state, step k on the averaged
    gradient of solver.batch.size(k) samples from rng at solver.point(state).

    hook, if given, is called after every step as hook(k, sfo_calls, elapsed,
    state); the run is deterministic given the rng.
    """
    if K < 1:
        raise ValueError("iteration count K must be >= 1")
    state = solver.reset()
    sfo_calls = 0
    elapsed = 0.0  # oracle and update time only; telemetry hooks are not billed
    for _ in range(K):
        t0 = time.perf_counter()
        m_k = solver.batch.size(state.k)
        G = solver.problem.averaged_grad(solver.point(state), rng, m_k)
        state = solver.step(state, _check_finite(G, "gradient", state.k))
        elapsed += time.perf_counter() - t0
        sfo_calls += m_k
        if hook is not None:
            hook(state.k, sfo_calls, elapsed, state)
    return state
