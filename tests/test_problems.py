"""Oracle contracts: unbiasedness, adjoint gradients, reference optima."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import spsolve

from sadmm import fem, harness, problems
from sadmm.hilbert import project_box, soft_threshold, wdot, wnorm
from sadmm.optim import estimate_L
from sadmm.problems import (EllipticControlProblem, FrozenEvalSet,
                            QuadraticProblem, nonsmooth_value,
                            reference_optimum)
from test_fem import reference_stiffness


def empirical_objective(problem, u, samples):
    """Reference oracle of the eval set: the average smooth value over a
    fixed sample list, one sample at a time, plus the L1 term."""
    samples = list(samples)
    if not samples:
        raise ValueError("sample list must be nonempty")
    mean = sum(problem.smooth_value(u, s) for s in samples) / len(samples)
    return mean + nonsmooth_value(problem, u)


def make_quadratic(dim=10, alpha=0.5, beta=0.2, sigma=0.3, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) / dim
    b = rng.standard_normal(dim)
    return QuadraticProblem(A, b, alpha, beta, sigma=sigma)


@pytest.fixture(scope="module")
def elliptic():
    return EllipticControlProblem(fem.build_mesh(2.0 ** -3), alpha=1e-3,
                                  beta=1e-3)


class TestQuadraticProblem:
    def test_validation(self):
        A, b = np.eye(3), np.zeros(3)
        with pytest.raises(ValueError, match="sigma"):
            QuadraticProblem(A, b, 1.0, 0.0, sigma=-1.0)
        with pytest.raises(ValueError, match="u_min"):
            QuadraticProblem(A, b, 1.0, 0.0, u_min=2.0, u_max=-2.0)
        with pytest.raises(ValueError, match="incompatible"):
            QuadraticProblem(A, np.zeros(4), 1.0, 0.0)

    def test_exact_grad_matches_finite_differences(self):
        prob = make_quadratic(sigma=0.0)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(prob.dim)
        g = prob.exact_grad(u)
        eps = 1e-6
        for i in range(prob.dim):
            e = np.zeros(prob.dim)
            e[i] = eps
            fd = (prob.smooth_value(u + e) - prob.smooth_value(u - e)) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_sigma_zero_oracle_is_exact(self):
        prob = make_quadratic(sigma=0.0)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(prob.dim)
        np.testing.assert_array_equal(prob.averaged_grad(u, rng, 5),
                                      prob.exact_grad(u))

    def test_averaged_grad_unbiased(self):
        prob = make_quadratic(sigma=0.5)
        rng = np.random.default_rng(3)
        u = np.ones(prob.dim)
        draws = np.array([prob.averaged_grad(u, rng, 1) for _ in range(4000)])
        err = np.linalg.norm(draws.mean(axis=0) - prob.exact_grad(u))
        # mean of N=4000 draws: per-component std sigma/sqrt(N) ~ 0.008
        assert err <= 5.0 * 0.5 / np.sqrt(4000) * np.sqrt(prob.dim)

    def test_batch_averaging_reduces_noise(self):
        prob = make_quadratic(sigma=1.0)
        u = np.zeros(prob.dim)
        g = prob.exact_grad(u)
        rng = np.random.default_rng(4)
        dev1 = np.mean([np.linalg.norm(prob.averaged_grad(u, rng, 1) - g)
                        for _ in range(200)])
        dev100 = np.mean([np.linalg.norm(prob.averaged_grad(u, rng, 100) - g)
                          for _ in range(200)])
        assert dev100 < 0.3 * dev1

    def test_smooth_lipschitz_bounds_gradient_variation(self, elliptic):
        # the quadratic's exact L and the eval set's power-iteration L, each
        # in its problem's W-norm
        prob = make_quadratic(sigma=0.0)
        ev = FrozenEvalSet(elliptic, 3, 0)
        rng = np.random.default_rng(5)
        for grad, L, w in ((prob.exact_grad, prob.smooth_lipschitz(), prob.weights),
                           (ev.smooth_grad, ev.smooth_lipschitz(), elliptic.weights)):
            for _ in range(10):
                u, v = rng.standard_normal((2, len(w)))
                assert (wnorm(grad(u) - grad(v), w)
                        <= L * wnorm(u - v, w) * (1 + 1e-12))


class TestEllipticProblem:
    def test_control_space_is_interior(self, elliptic):
        assert elliptic.dim == elliptic.mesh.interior.size
        assert elliptic.weights.shape == (elliptic.dim,)
        np.testing.assert_array_equal(
            elliptic.weights, elliptic.state_weights[elliptic.mesh.interior])

    def test_validation(self):
        mesh = fem.build_mesh(0.25)
        with pytest.raises(ValueError, match="nonnegative"):
            EllipticControlProblem(mesh, -1.0, 0.0)
        with pytest.raises(ValueError, match="u_min"):
            EllipticControlProblem(mesh, 1.0, 0.0, u_min=1.0, u_max=0.0)
        with pytest.raises(ValueError, match="does not match"):
            EllipticControlProblem(mesh, 1.0, 0.0, y_d=np.zeros(7))

    def test_state_is_linear_in_control(self, elliptic):
        rng = np.random.default_rng(6)
        factor = fem.factor(elliptic.mesh, elliptic.draw_sample(rng))

        def state(u):
            full = np.zeros(elliptic.mesh.n_nodes)
            full[elliptic.mesh.interior] = u
            return fem.solve_state(factor, full)

        u1, u2 = rng.standard_normal((2, elliptic.dim))
        np.testing.assert_allclose(
            state(2.0 * u1 - 3.0 * u2), 2.0 * state(u1) - 3.0 * state(u2),
            rtol=1e-10, atol=1e-12)

    def test_adjoint_gradient_matches_finite_differences(self, elliptic):
        rng = np.random.default_rng(7)
        w = elliptic.weights
        for _ in range(3):
            xi = elliptic.draw_sample(rng)
            u = rng.uniform(-2.0, 2.0, size=elliptic.dim)
            d = rng.standard_normal(elliptic.dim)
            d /= wnorm(d, w)
            eps = 1e-4
            fd = (elliptic.smooth_value(u + eps * d, xi)
                  - elliptic.smooth_value(u - eps * d, xi)) / (2 * eps)
            assert wdot(elliptic.grad(u, xi), d, w) == pytest.approx(fd, rel=1e-6)
        # the eval set's exact gradient; at beta = 0 its objective is smooth
        ev = FrozenEvalSet(EllipticControlProblem(elliptic.mesh, elliptic.alpha,
                                                  beta=0.0), 4, 0)
        fd = (ev.objective(u + eps * d) - ev.objective(u - eps * d)) / (2 * eps)
        assert wdot(ev.smooth_grad(u), d, w) == pytest.approx(fd, rel=1e-6)

    def test_averaged_grad_is_mean_of_sequential_samples(self, elliptic):
        u = np.ones(elliptic.dim)
        rng1 = np.random.default_rng(8)
        rng2 = np.random.default_rng(8)
        avg = elliptic.averaged_grad(u, rng1, 3)
        manual = np.mean([elliptic.grad(u, elliptic.draw_sample(rng2))
                          for _ in range(3)], axis=0)
        np.testing.assert_allclose(avg, manual, rtol=1e-14)

    @pytest.mark.parametrize("level", [3, 5])
    def test_stacked_grad_matches_reference_solves(self, level):
        # state and adjoint by spsolve on an independent COO assembly; the
        # stacks of one, of a whole chunk and of 13 reuse the oracle's
        # factor storage one after another
        prob = EllipticControlProblem(fem.build_mesh(2.0 ** -level),
                                      alpha=1e-3, beta=1e-3)
        mesh, w = prob.mesh, prob.weights
        rng = np.random.default_rng(20 + level)
        u = rng.uniform(-3.0, 3.0, size=prob.dim)
        y_d = prob.y_d[mesh.interior]
        for m in (1, problems._CHUNK, 13):
            xis = prob.draw_samples(rng, m)
            grads = prob.grad(u, xis)
            assert grads.shape == (m, prob.dim)
            for xi, g in zip(xis, grads):
                K = reference_stiffness(mesh, xi).tocsc()
                y = spsolve(K, w * u)
                expected = prob.alpha * u + spsolve(K, w * (y - y_d))
                assert (np.linalg.norm(g - expected)
                        <= 1e-12 * np.linalg.norm(expected))
        # one sample is a stack of one
        np.testing.assert_array_equal(prob.grad(u, xis[4]), grads[4])

    def test_averaged_grad_draws_like_sequential_samples(self, elliptic):
        rng1 = np.random.Generator(np.random.Philox(3))
        rng2 = np.random.Generator(np.random.Philox(3))
        elliptic.averaged_grad(np.ones(elliptic.dim), rng1, 13)
        for _ in range(13):
            elliptic.draw_sample(rng2)
        # Philox keeps its counter, key and buffer as small arrays
        assert repr(rng1.bit_generator.state) == repr(rng2.bit_generator.state)
        np.testing.assert_array_equal(rng1.random(5), rng2.random(5))

    @pytest.mark.parametrize("colour", ["red", "black"])
    def test_indefinite_sample_inside_stack_raises(self, elliptic, colour):
        # sample 1 of 3 gets a negative red pivot (checked before the Schur
        # complement is formed) or black pivot (rejected by dpbtrf)
        mesh = elliptic.mesh
        stencil = fem.assemble(
            mesh, elliptic.draw_samples(np.random.default_rng(4), 3))
        n_red, _ = fem._geometry(mesh).red_black.shape
        stencil[1, 0 if colour == "red" else n_red] = -1.0
        with pytest.raises(LinAlgError, match="not positive definite"):
            fem.red_black_cholesky(stencil, mesh)

    def test_estimate_l_is_mean_of_sample_norms(self, elliptic):
        u = np.linspace(-1.0, 1.0, elliptic.dim)
        rng1 = np.random.Generator(np.random.Philox(5))
        rng2 = np.random.Generator(np.random.Philox(5))
        norms = [wnorm(elliptic.grad(u, elliptic.draw_sample(rng2)),
                       elliptic.weights) for _ in range(13)]
        assert estimate_L(elliptic, u, rng1, n_calls=13) == pytest.approx(
            np.mean(norms), rel=1e-14)

    def test_sample_values_do_not_depend_on_stack_size(self, monkeypatch):
        # the experiment's L-estimate stream at h = 2^-5, seed 11: every
        # per-sample gradient, and so every norm of one, is the same bit for
        # bit whether the oracle solves it alone or in a stack
        cfg = harness.ExperimentConfig(seed=11, l_est_calls=52)
        l_hats, averages = [], []
        for chunk in (1, 4, 6, 13):
            monkeypatch.setattr(problems, "_CHUNK", chunk)
            prob = harness.build_problem(cfg)
            l_hats.append(harness._estimate_l_hat(cfg, prob))
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence((cfg.seed, harness._LHAT_TAG))))
            averages.append(prob.averaged_grad(np.ones(prob.dim), rng, 17))
        assert l_hats == [l_hats[0]] * 4
        for average in averages[1:]:
            np.testing.assert_array_equal(average, averages[0])

    def test_samples_stay_in_cube(self, elliptic):
        rng = np.random.default_rng(9)
        for _ in range(100):
            xi = elliptic.draw_sample(rng)
            assert xi.shape == (4,) and np.all(np.abs(xi) <= 1.0)


class TestObjectives:
    def test_nonsmooth_value(self):
        prob = make_quadratic(beta=0.5)
        u = np.array([1.0, -2.0] + [0.0] * (prob.dim - 2))
        assert nonsmooth_value(prob, u) == pytest.approx(0.5 * 3.0)

    def test_empirical_objective_quadratic(self):
        prob = make_quadratic(sigma=0.0)
        u = np.ones(prob.dim)
        val = empirical_objective(prob, u, [None, None])
        assert val == pytest.approx(prob.smooth_value(u)
                                    + nonsmooth_value(prob, u))
        with pytest.raises(ValueError, match="nonempty"):
            empirical_objective(prob, u, [])

    def test_frozen_eval_set_deterministic(self, elliptic):
        u = np.linspace(-1.0, 1.0, elliptic.dim)
        a = FrozenEvalSet(elliptic, 5, (0, 42)).objective(u)
        b = FrozenEvalSet(elliptic, 5, (0, 42)).objective(u)
        c = FrozenEvalSet(elliptic, 5, (0, 43)).objective(u)
        assert a == b and a != c

    def test_frozen_eval_set_matches_empirical_objective(self, elliptic):
        u = np.linspace(-1.0, 1.0, elliptic.dim)
        ev = FrozenEvalSet(elliptic, 4, 0)
        assert ev.objective(u) == pytest.approx(
            empirical_objective(elliptic, u, ev.samples), rel=1e-10)
        np.testing.assert_allclose(
            ev.smooth_grad(u),
            np.mean([elliptic.grad(u, xi) for xi in ev.samples], axis=0),
            rtol=1e-12)

    @pytest.mark.parametrize("n_samples", [5, 11])
    def test_eval_set_factors_outlive_oracle_calls(self, elliptic, n_samples):
        # the oracle factors into storage it reuses; the eval set's factors,
        # within one stack or over several, must not share it
        u = np.linspace(-1.0, 1.0, elliptic.dim)
        ev = FrozenEvalSet(elliptic, n_samples, 0)
        before = ev.objective(u)
        elliptic.averaged_grad(u, np.random.default_rng(12), 13)
        assert ev.objective(u) == before
        assert before == FrozenEvalSet(elliptic, n_samples, 0).objective(u)
        assert ev.objective(u) == pytest.approx(
            empirical_objective(elliptic, u, ev.samples), rel=1e-10)

    def test_stacked_objective_matches_single_iterates(self, elliptic):
        rng = np.random.default_rng(11)
        for prob, ev in ((elliptic, FrozenEvalSet(elliptic, 5, 0)),
                         (make_quadratic(), FrozenEvalSet(make_quadratic(), 3, 0))):
            us = rng.uniform(-2.0, 2.0, size=(4, prob.dim))
            assert ev.objective(us).tolist() == [ev.objective(u) for u in us]
            assert type(ev.objective(us[0])) is float

    def test_frozen_eval_set_validation(self):
        prob = make_quadratic(beta=1.0, sigma=0.0)
        with pytest.raises(ValueError, match="eval_samples"):
            FrozenEvalSet(prob, 0, 0)


class TestReferenceOptimum:
    def test_fixed_point_and_optimality(self, elliptic):
        # the quadratic problem's optimum, then the elliptic eval set's
        quad = make_quadratic(alpha=1.0, beta=0.3, sigma=0.0)
        ev = FrozenEvalSet(elliptic, 3, 0)
        rng = np.random.default_rng(10)
        for prob, ref, grad, L, objective in (
                (quad, reference_optimum(quad), quad.exact_grad,
                 quad.smooth_lipschitz(),
                 lambda v: quad.smooth_value(v) + nonsmooth_value(quad, v)),
                (elliptic, ev.optimum(), ev.smooth_grad, ev.smooth_lipschitz(),
                 ev.objective)):
            assert ref.converged and ref.residual <= 1e-12
            # optimality: u* is a fixed point of the prox-gradient map
            step = 1.0 / L
            back = project_box(
                soft_threshold(ref.u - step * grad(ref.u), step * prob.beta),
                prob.u_min, prob.u_max)
            np.testing.assert_allclose(back, ref.u, atol=1e-11)
            # no feasible random point does better
            for _ in range(20):
                v = rng.uniform(prob.u_min, prob.u_max, size=prob.dim)
                assert objective(v) >= ref.objective - 1e-12

    def test_objective_value_reported_at_optimum(self):
        prob = make_quadratic(alpha=2.0, beta=0.0, sigma=0.0)
        ref = reference_optimum(prob)
        # beta = 0, interior optimum: solves (A^T A + alpha I) u = A^T b
        H = prob.A.T @ prob.A + prob.alpha * np.eye(prob.dim)
        u_exact = np.linalg.solve(H, prob.A.T @ prob.b)
        np.testing.assert_allclose(ref.u, u_exact, atol=1e-9)
        assert ref.objective == pytest.approx(prob.smooth_value(u_exact),
                                              rel=1e-12)
