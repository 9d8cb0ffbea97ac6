"""Solver updates checked against closed forms, grid oracles, and invariants."""

import inspect
import logging
import math

import numpy as np
import pytest

from sadmm.hilbert import project_box, soft_threshold
from sadmm.optim import (AdaSgSolver, AdmmParams, AdmmSolver, BatchSchedule,
                         NumericalFailure, SpgSolver, SsgSolver,
                         derive_convex_params, derive_strongly_convex_params,
                         estimate_L, run_solver, theta_next)
from sadmm.problems import QuadraticProblem, reference_optimum


def make_problem(dim=10, alpha=1.0, beta=0.2, sigma=0.1, seed=0, **kw):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) / dim
    b = rng.standard_normal(dim)
    return QuadraticProblem(A, b, alpha, beta, sigma=sigma, **kw)


def oracle_step(solver, state, rng):
    """One step as run_solver takes it: the averaged gradient of
    batch.size(k) samples at the solver's point, then the update."""
    G = solver.problem.averaged_grad(solver.point(state), rng,
                                     solver.batch.size(state.k))
    return solver.step(state, G)


class TestTheta:
    def test_first_values(self):
        t1 = theta_next(1.0)
        assert t1 == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
        assert theta_next(t1) == pytest.approx(
            0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t1 * t1)), rel=1e-15)

    def test_recursion_and_growth(self):
        theta = 1.0
        for k in range(200):
            nxt = theta_next(theta)
            assert nxt * nxt - nxt == pytest.approx(theta * theta, rel=1e-14)
            assert theta >= (k + 1) / 2.0
            theta = nxt


class TestParameterDerivation:
    def test_strongly_convex_identities(self):
        for alpha in (1e-5, 1.0, 7.3):
            for mu in (0.1, 0.5, 0.9):
                p = derive_strongly_convex_params(alpha, mu)
                assert p.rho + p.eta == pytest.approx(alpha, rel=1e-12)
                assert p.eta * (1 - mu) == pytest.approx(2 * p.rho * mu,
                                                         rel=1e-12)

    def test_strongly_convex_mu_half(self):
        p = derive_strongly_convex_params(3.0, 0.5)
        assert p.rho == pytest.approx(1.0) and p.eta == pytest.approx(2.0)

    def test_strongly_convex_needs_positive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            derive_strongly_convex_params(0.0, 0.5)

    def test_convex_rule(self):
        p = derive_convex_params(beta=5.0, mu=0.2, l_hat=1.0)
        assert p.rho == 5.0
        assert p.eta == pytest.approx(0.2 * 5.0 / 0.8 + 1.01 * 1.0)

    def test_convex_rule_caps_at_rho_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="sadmm.optim"):
            p = derive_convex_params(beta=1.0, mu=0.5, l_hat=10.0)
        assert p.eta == 1.0
        assert any("does not satisfy" in r.getMessage()
                   for r in caplog.records)

    def test_param_validation(self):
        with pytest.raises(ValueError, match="mu"):
            AdmmParams(mu=1.0, rho=1.0, eta=1.0, regime="convex")
        with pytest.raises(ValueError, match="positive"):
            AdmmParams(mu=0.5, rho=-1.0, eta=1.0, regime="convex")
        with pytest.raises(ValueError, match="regime"):
            AdmmParams(mu=0.5, rho=1.0, eta=1.0, regime="conic")
        with pytest.raises(ValueError, match="l_hat"):
            derive_convex_params(1.0, 0.5, 0.0)


class TestBatchSchedule:
    def test_power_rule(self):
        b = BatchSchedule()
        assert b.size(0) == 1  # floor kicks in at k = 0
        for k in (1, 7, 50, 999):
            assert b.size(k) == max(1, math.ceil(0.5 * k ** 1.1))

    def test_constant_rule(self):
        assert BatchSchedule(rule="constant", floor=3).size(100) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="floor"):
            BatchSchedule(floor=0)
        with pytest.raises(ValueError, match="unknown batch rule"):
            BatchSchedule(rule="geometric")


class TestAdmmStep:
    def setup_method(self):
        self.prob = make_problem(u_min=-2.0, u_max=2.0)
        self.params = derive_strongly_convex_params(self.prob.alpha, 0.5)
        self.solver = AdmmSolver(self.prob, self.params, BatchSchedule())

    def _advance(self, n, seed=0):
        rng = np.random.default_rng(seed)
        state = self.solver.reset()
        for _ in range(n):
            state = oracle_step(self.solver, state, rng)
        return state

    def test_iterates_stay_in_box(self):
        state = self._advance(30)
        for vec in (state.v, state.u):
            assert np.all(vec >= self.prob.u_min - 1e-12)
            assert np.all(vec <= self.prob.u_max + 1e-12)

    def test_dual_identity(self):
        # after every step: lam == psi - mu * rho_k * theta_k * (u - z)
        rng = np.random.default_rng(1)
        state = self.solver.reset()
        for _ in range(20):
            theta_k = state.theta
            rho_k = self.params.rho * theta_k
            state = oracle_step(self.solver, state, rng)
            expected = state.psi - self.params.mu * rho_k * theta_k * (
                state.u - state.z)
            np.testing.assert_allclose(state.lam, expected, rtol=1e-12,
                                       atol=1e-14)

    def test_step_matches_closed_forms(self):
        # replay one step with the same rng and recompute each update by hand
        start = self._advance(5, seed=2)
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        after = oracle_step(self.solver, start, rng_a)

        theta_k = start.theta
        rho_k = self.params.rho * theta_k
        eta_k = self.params.eta * theta_k
        m_k = BatchSchedule().size(start.k)
        G = self.prob.averaged_grad(start.v, rng_b, m_k)
        s1 = soft_threshold(start.v - start.lam / rho_k,
                            self.prob.beta / rho_k)
        v1 = project_box((rho_k * s1 + eta_k * start.v + start.lam - G)
                         / (rho_k + eta_k), self.prob.u_min, self.prob.u_max)
        np.testing.assert_array_equal(after.s, s1)
        np.testing.assert_array_equal(after.v, v1)
        inv = 1.0 / theta_k
        np.testing.assert_allclose(after.u, (1 - inv) * start.u + inv * v1,
                                   rtol=1e-14)

    def test_zero_beta_z_step_is_exact_shift(self):
        # with beta = 0 the z-update degenerates to s = v - lam / rho_k
        prob = make_problem(beta=0.0)
        params = derive_strongly_convex_params(prob.alpha, 0.5)
        solver = AdmmSolver(prob, params, BatchSchedule())
        rng = np.random.default_rng(4)
        state = solver.reset()
        for _ in range(5):
            prev = state
            theta_k = state.theta
            state = oracle_step(solver, state, rng)
            expected = prev.v - prev.lam / (params.rho * theta_k)
            np.testing.assert_allclose(state.s, expected, atol=1e-15)

    def test_sfo_accounting(self):
        seen = []
        state = run_solver(self.solver, 25, np.random.default_rng(0),
                           hook=lambda k, sfo, t, s: seen.append(sfo))
        assert state.k == 25
        assert seen[-1] == sum(BatchSchedule().size(k) for k in range(25))

    def test_subproblem_grid_oracle(self):
        # both per-node updates minimize their scalar subproblems
        rng = np.random.default_rng(5)
        grid = np.arange(-8.0, 8.0 + 5e-4, 1e-3)
        for _ in range(10):
            # draws keep both scalar minimizers inside the [-8, 8] grid
            rho, eta = rng.uniform(0.5, 5.0, size=2)
            beta = rng.uniform(0.0, 1.0)
            v, s, lam, G = rng.uniform(-2.0, 2.0, size=4)
            z_closed = float(soft_threshold(np.array([v - lam / rho]),
                                            beta / rho)[0])
            z_brute = grid[np.argmin(beta * np.abs(grid)
                                     + 0.5 * rho * (grid - (v - lam / rho)) ** 2)]
            assert abs(z_closed - z_brute) <= 2e-3
            v_closed = float(np.clip((rho * s + eta * v + lam - G)
                                     / (rho + eta), -6.0, 6.0))
            box_grid = grid[(grid >= -6.0) & (grid <= 6.0)]
            q = (G * box_grid + 0.5 * rho * (box_grid - s) ** 2
                 - lam * (box_grid - s) + 0.5 * eta * (box_grid - v) ** 2)
            assert abs(v_closed - box_grid[np.argmin(q)]) <= 2e-3

    def test_feasibility_residual_decays(self):
        residuals = {}
        rng = np.random.default_rng(6)
        state = self.solver.reset()
        for _ in range(400):
            state = oracle_step(self.solver, state, rng)
            if state.k in (100, 400):
                residuals[state.k] = np.linalg.norm(state.u - state.z)
        # theory: O(1/K^2) for the averaged pair, so a factor 16 over 4x K
        assert residuals[400] <= residuals[100] / 8.0

    def test_views(self):
        state = self._advance(3)
        u, z = self.solver.views(state)
        assert u is state.u and z is state.z


class TestBaselines:
    def test_spg_fixed_point_without_noise(self):
        prob = make_problem(sigma=0.0, beta=0.3)
        ref = reference_optimum(prob)
        solver = SpgSolver(prob, BatchSchedule(rule="constant"),
                           l_hat=prob.smooth_lipschitz())
        rng = np.random.default_rng(7)
        state = run_solver(solver, 3000, rng)
        np.testing.assert_allclose(state.u, ref.u, atol=1e-8)
        with pytest.raises(ValueError, match="l_hat"):
            SpgSolver(prob, BatchSchedule(), l_hat=0.0)

    def test_ssg_step_size_policies(self):
        prob = make_problem()
        sc = SsgSolver(prob, BatchSchedule(), alpha=0.5)
        assert sc.step_size(0) == pytest.approx(1.0 / 0.5)
        assert sc.step_size(9) == pytest.approx(1.0 / (0.5 * 10))
        cv = SsgSolver(prob, BatchSchedule(), alpha=None)
        assert cv.step_size(3) == pytest.approx(1.0 / 2.0)

    def test_ssg_subgradient_at_zero(self):
        # sign(0) = 0: from u = 0 the L1 term contributes nothing
        prob = make_problem(sigma=0.0, beta=5.0)
        solver = SsgSolver(prob, BatchSchedule(rule="constant"), alpha=1.0)
        rng = np.random.default_rng(8)
        state = oracle_step(solver, solver.reset(), rng)
        expected = project_box(-1.0 * prob.exact_grad(np.zeros(prob.dim)),
                               prob.u_min, prob.u_max)
        np.testing.assert_allclose(state.u, expected, rtol=1e-14)

    def test_adasg_accumulates_and_shrinks_steps(self):
        prob = make_problem(sigma=0.2)
        solver = AdaSgSolver(prob, BatchSchedule(rule="constant"))
        rng = np.random.default_rng(9)
        state = solver.reset()
        prev_acc = np.zeros(prob.dim)
        for _ in range(10):
            state = oracle_step(solver, state, rng)
            assert np.all(state.grad_sq_sum >= prev_acc)
            prev_acc = state.grad_sq_sum
        # accumulated squares grow, so effective steps shrink monotonically
        assert np.all(1.0 / np.sqrt(1e-8 + prev_acc) > 0.0)

    def test_baselines_share_sfo_accounting(self):
        prob = make_problem()
        batch = BatchSchedule()
        rng = np.random.default_rng(10)
        for solver in (SpgSolver(prob, batch, l_hat=1.0),
                       SsgSolver(prob, batch),
                       AdaSgSolver(prob, batch)):
            seen = []
            state = run_solver(solver, 12, np.random.default_rng(10),
                               hook=lambda k, sfo, t, s: seen.append(sfo))
            assert seen[-1] == sum(batch.size(k) for k in range(12))
            u, z = solver.views(state)
            assert u is z  # no splitting: both views are the same iterate


class TestEstimateL:
    def test_exact_on_noiseless_quadratic(self):
        prob = make_problem(sigma=0.0)
        val = estimate_L(prob, np.zeros(prob.dim), np.random.default_rng(11),
                         n_calls=3)
        assert val == pytest.approx(
            np.linalg.norm(prob.exact_grad(np.zeros(prob.dim))), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_calls"):
            estimate_L(make_problem(), np.zeros(10),
                       np.random.default_rng(0), n_calls=0)


class _RecordingProblem:
    """A problem that records each averaged_grad call's point and batch
    size; from its poison_at-th call on it returns inf."""

    def __init__(self, problem, poison_at=None):
        self.problem, self.poison_at, self.calls = problem, poison_at, []

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def averaged_grad(self, u, rng, m):
        self.calls.append((u, m))
        if self.poison_at is not None and len(self.calls) > self.poison_at:
            return np.full(self.dim, np.inf)
        return self.problem.averaged_grad(u, rng, m)


SOLVERS = {
    "admm": lambda prob, batch: AdmmSolver(
        prob, derive_strongly_convex_params(prob.alpha, 0.5), batch),
    "spg": lambda prob, batch: SpgSolver(prob, batch, l_hat=1.0),
    "ssg": lambda prob, batch: SsgSolver(prob, batch, alpha=prob.alpha),
    "adasg": lambda prob, batch: AdaSgSolver(prob, batch),
}


class _ExplodingProblem:
    dim = 3
    beta = 0.0
    u_min, u_max = -1.0, 1.0
    weights = np.ones(3)

    def averaged_grad(self, u, rng, m):
        return np.full(3, np.inf)


class TestRunSolver:
    def test_hook_called_every_step(self):
        prob = make_problem()
        solver = AdmmSolver(prob, derive_strongly_convex_params(1.0, 0.5),
                            BatchSchedule())
        seen = []
        run_solver(solver, 7, np.random.default_rng(12),
                   hook=lambda k, sfo, t, s: seen.append((k, sfo)))
        assert [k for k, _ in seen] == list(range(1, 8))
        assert all(b[1] > a[1] for a, b in zip(seen, seen[1:]))

    def test_k_validation(self):
        prob = make_problem()
        solver = SpgSolver(prob, BatchSchedule(), l_hat=1.0)
        with pytest.raises(ValueError, match="K"):
            run_solver(solver, 0, np.random.default_rng(0))

    def test_numerical_failure_reported(self):
        solver = AdmmSolver(_ExplodingProblem(),
                            derive_strongly_convex_params(1.0, 0.5),
                            BatchSchedule())
        with pytest.raises(NumericalFailure) as exc:
            run_solver(solver, 3, np.random.default_rng(0))
        assert exc.value.step_name == "gradient" and exc.value.k == 0

    @pytest.mark.parametrize("method", SOLVERS)
    def test_one_oracle_call_per_step_at_the_point(self, method):
        # run_solver makes every oracle call: once per step, at the point
        # of the state it steps from, with batch.size(k) samples; the states
        # are those of stepping by hand
        prob = _RecordingProblem(make_problem())
        batch = BatchSchedule()
        solver = SOLVERS[method](prob, batch)
        states = [solver.reset()]
        run_solver(solver, 6, np.random.default_rng(13),
                   hook=lambda k, sfo, t, s: states.append(s))
        assert [m for _, m in prob.calls] == [batch.size(k) for k in range(6)]
        for (u, _), before in zip(prob.calls, states):
            np.testing.assert_array_equal(u, solver.point(before))
        rng = np.random.default_rng(13)
        by_hand = solver.reset()
        for state in states[1:]:
            by_hand = oracle_step(solver, by_hand, rng)
            np.testing.assert_array_equal(solver.views(by_hand)[0],
                                          solver.views(state)[0])

    @pytest.mark.parametrize("method", SOLVERS)
    def test_non_finite_gradient_stops_before_the_update(self, method,
                                                         monkeypatch):
        prob = _RecordingProblem(make_problem(), poison_at=2)
        solver = SOLVERS[method](prob, BatchSchedule())
        steps = []
        step = solver.step
        monkeypatch.setattr(solver, "step",
                            lambda state, G: steps.append(state.k)
                            or step(state, G))
        with pytest.raises(NumericalFailure) as exc:
            run_solver(solver, 5, np.random.default_rng(0))
        assert (exc.value.step_name, exc.value.k) == ("gradient", 2)
        assert steps == [0, 1]

    @pytest.mark.parametrize("method", SOLVERS)
    def test_step_is_an_update_rule(self, method):
        # no rng and no oracle: step(state, G) applies the update given G
        prob = _RecordingProblem(make_problem(), poison_at=0)
        solver = SOLVERS[method](prob, BatchSchedule())
        assert list(inspect.signature(solver.step).parameters) == ["state", "G"]
        state = solver.step(solver.reset(), np.ones(prob.dim))
        assert state.k == 1 and prob.calls == []
