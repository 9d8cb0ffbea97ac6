"""Oracle contracts: unbiasedness, adjoint gradients, reference optima."""

import sys
import threading
import time

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import spsolve

from sadmm import fem, harness, problems
from sadmm.hilbert import project_box, soft_threshold, wdot, wnorm
from sadmm.optim import estimate_L
from sadmm.problems import (EllipticControlProblem, FrozenEvalSet,
                            QuadraticProblem, reference_optimum)
from test_fem import reference_stiffness


def l1_term(problem, u):
    """beta times the lumped L1 norm of u, as one weighted inner product."""
    return problem.beta * wdot(np.abs(u), np.ones_like(u), problem.weights)


def empirical_objective(problem, u, samples):
    """Reference oracle of the eval set: the average smooth value over a
    fixed sample list, one sample at a time, plus the L1 term."""
    samples = list(samples)
    if not samples:
        raise ValueError("sample list must be nonempty")
    mean = sum(problem.smooth_value(u, s) for s in samples) / len(samples)
    return mean + l1_term(problem, u)


def fail_in_helper_lanes(monkeypatch):
    """Make fem.factor raise LinAlgError in every thread but the calling one.
    While a helper thread is alive, the calling thread's own factor calls
    first wait (10 s at most) for a helper to fail, so that a helper is sure
    to meet a chunk."""
    factor, failed = fem.factor, threading.Event()
    caller, threads = threading.current_thread(), threading.active_count()

    def factor_or_fail(*args, **kwargs):
        if threading.current_thread() is not caller:
            failed.set()
            raise LinAlgError("a helper lane failed")
        if threading.active_count() > threads:
            failed.wait(timeout=10)
        return factor(*args, **kwargs)

    monkeypatch.setattr(fem, "factor", factor_or_fail)


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

    @pytest.mark.parametrize("n", ["one", "below", "block", "above",
                                   "blocks_and_some"])
    def test_block_draws_match_sequential_draws(self, n):
        # the noise comes in blocks of rows; the rows and the generator
        # state are those of n draws of dim, one at a time
        prob = make_quadratic(dim=50, sigma=0.3)
        rows = problems._NOISE_BLOCK // prob.dim
        n = {"one": 1, "below": rows - 1, "block": rows, "above": rows + 1,
             "blocks_and_some": 2 * rows + 7}[n]
        u = np.random.default_rng(6).standard_normal(prob.dim)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = list(prob.sample_grads(u, rng, n))
        want = [prob.exact_grad(u) + prob.sigma * ref_rng.standard_normal(prob.dim)
                for _ in range(n)]
        np.testing.assert_array_equal(np.array(got), np.array(want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_estimate_l_matches_sequential_draws(self):
        prob = make_quadratic(dim=50, sigma=0.3)
        u = np.zeros(prob.dim)
        rng, ref_rng = (np.random.Generator(np.random.Philox(8)) for _ in range(2))
        total = 0.0
        for _ in range(1000):
            noise = prob.sigma * ref_rng.standard_normal(prob.dim)
            total += wnorm(prob.exact_grad(u) + noise, prob.weights)
        assert estimate_L(prob, u, rng, n_calls=1000) == total / 1000

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

    def test_state_is_linear_in_control(self, elliptic):
        rng = np.random.default_rng(6)
        factor = fem.factor(elliptic.mesh, elliptic.draw_samples(rng, 1)[0])

        def state(u):
            return fem.solve_state(factor, u)

        u1, u2 = rng.standard_normal((2, elliptic.dim))
        np.testing.assert_allclose(
            state(2.0 * u1 - 3.0 * u2), 2.0 * state(u1) - 3.0 * state(u2),
            rtol=1e-10, atol=1e-12)

    def test_adjoint_gradient_matches_finite_differences(self, elliptic):
        rng = np.random.default_rng(7)
        w = elliptic.weights
        for _ in range(3):
            xi = elliptic.draw_samples(rng, 1)[0]
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
        manual = np.mean([elliptic.grad(u, elliptic.draw_samples(rng2, 1)[0])
                          for _ in range(3)], axis=0)
        np.testing.assert_allclose(avg, manual, rtol=1e-14)

    def test_row_mean_adds_rows_in_order_from_zero(self):
        # every sample mean: rows of stacks of any size, added in order to
        # 0.0, so a column of -0.0 averages to +0.0
        rows = np.random.default_rng(21).standard_normal((6, 4)) * 10.0 ** \
            np.arange(-8, 16, 6)
        rows[:, 0] = -0.0
        total = np.zeros(4)
        for row in rows:
            total = total + row
        got = problems._row_mean([rows[:1], rows[1:4], rows[4:]], 6)
        assert got.tobytes() == (total / 6).tobytes()
        assert not np.signbit(got[0])

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

    def test_grad_at_zero_skips_the_state_solve_bit_for_bit(self, elliptic,
                                                             monkeypatch):
        # at u = 0 the state is exactly 0, so the oracle solves no state;
        # the gradient must equal the one with the state solve
        xis = elliptic.draw_samples(np.random.default_rng(13), 3)
        u = np.zeros(elliptic.dim)
        factor = fem.factor(elliptic.mesh, xis)
        y = fem.solve_state(factor, u)
        p = fem.solve_adjoint(factor, y, elliptic.y_d[elliptic.mesh.interior])
        expected = elliptic.alpha * u + p
        states = []
        solve_state = fem.solve_state
        monkeypatch.setattr(fem, "solve_state",
                            lambda *a: states.append(a) or solve_state(*a))
        np.testing.assert_array_equal(elliptic.grad(u, xis), expected)
        np.testing.assert_array_equal(elliptic.grad(u, xis[0]), expected[0])
        assert states == []
        elliptic.grad(np.ones(elliptic.dim), xis)
        assert len(states) == 1

    def test_eval_grad_at_zero_skips_the_state_solve_bit_for_bit(
            self, elliptic, monkeypatch):
        # the eval set's gradient runs the oracle's chain, so at u = 0 it
        # solves no state either; 13 samples make chunks of 6, 6 and 1
        ev = FrozenEvalSet(elliptic, 13, 0)
        u = np.zeros(elliptic.dim)
        factor = fem.factor(elliptic.mesh, ev.samples)
        p = fem.solve_adjoint(factor, fem.solve_state(factor, u),
                              elliptic.y_d[elliptic.mesh.interior])
        acc = np.zeros(elliptic.dim)
        for row in p:
            acc += row
        expected = elliptic.alpha * u + acc / len(ev.samples)
        states = []
        solve_state = fem.solve_state
        monkeypatch.setattr(fem, "solve_state",
                            lambda *a: states.append(a) or solve_state(*a))
        np.testing.assert_array_equal(ev.smooth_grad(u), expected)
        assert states == []

    def test_averaged_grad_draws_like_sequential_samples(self, elliptic):
        rng1 = np.random.Generator(np.random.Philox(3))
        rng2 = np.random.Generator(np.random.Philox(3))
        elliptic.averaged_grad(np.ones(elliptic.dim), rng1, 13)
        for _ in range(13):
            elliptic.draw_samples(rng2, 1)
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
        norms = [wnorm(elliptic.grad(u, elliptic.draw_samples(rng2, 1)[0]),
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
        xis = elliptic.draw_samples(np.random.default_rng(9), 100)
        assert xis.shape == (100, 4) and np.all(np.abs(xis) <= 1.0)


class TestObjectives:
    def test_nonsmooth_value(self):
        # the quadratic objective's L1 term: beta * sum_i w_i |u_i|
        prob = make_quadratic(beta=0.5)
        u = np.array([1.0, -2.0] + [0.0] * (prob.dim - 2))
        assert prob.objective(u) - prob.smooth_value(u) == pytest.approx(
            0.5 * 3.0)

    def test_empirical_objective(self, elliptic):
        xis = elliptic.draw_samples(np.random.default_rng(17), 2)
        u = np.ones(elliptic.dim)
        val = empirical_objective(elliptic, u, xis)
        assert val == pytest.approx(
            0.5 * (elliptic.smooth_value(u, xis[0])
                   + elliptic.smooth_value(u, xis[1])) + l1_term(elliptic, u))
        with pytest.raises(ValueError, match="nonempty"):
            empirical_objective(elliptic, u, [])

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

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_factor_storage_is_pooled_on_the_problem(self, elliptic,
                                                     monkeypatch, lanes):
        # the eval set's passes and the oracle borrow chunk storage from the
        # problem's free list: the set keeps no factor storage, and the list
        # holds at most one chunk of it per lane that ran
        monkeypatch.setattr(problems, "_lane_count", lambda: lanes)
        prob = EllipticControlProblem(elliptic.mesh, elliptic.alpha,
                                      elliptic.beta)
        ev = FrozenEvalSet(prob, 2 * problems._CHUNK + 5, 0)  # 3 chunks
        u = np.linspace(-1.0, 1.0, prob.dim)
        ev.objective(np.stack([u, -u]))
        ev.smooth_grad(u)
        ev.smooth_lipschitz()
        ev.optimum()
        prob.averaged_grad(u, np.random.default_rng(12), 13)
        assert not [v for v in vars(ev).values()
                    if isinstance(v, fem.RedBlackFactor)]
        pooled = [prob._free.get_nowait() for _ in range(prob._free.qsize())]
        assert 1 <= len(pooled) <= lanes
        assert [len(f) for f in pooled] == [problems._CHUNK] * len(pooled)

    def test_stack_that_fails_to_factor_returns_its_storage(self, elliptic,
                                                            monkeypatch):
        prob = EllipticControlProblem(elliptic.mesh, elliptic.alpha,
                                      elliptic.beta)
        xis = prob.draw_samples(np.random.default_rng(15), 3)
        u = np.ones(prob.dim)
        outs, factor, assemble = [], fem.factor, fem.assemble

        def indefinite(mesh, xi):
            stencil = assemble(mesh, xi)
            stencil[1, 0] = -1.0  # a negative red pivot in sample 1
            return stencil

        monkeypatch.setattr(fem, "factor", lambda mesh, xi, out=None:
                            outs.append(out) or factor(mesh, xi, out))
        prob.grad(u, xis)
        monkeypatch.setattr(fem, "assemble", indefinite)
        with pytest.raises(LinAlgError, match="not positive definite"):
            prob.grad(u, xis)
        assert prob._free.qsize() == 1
        monkeypatch.setattr(fem, "assemble", assemble)
        prob.grad(u, xis)
        assert prob._free.qsize() == 1
        assert all(np.shares_memory(out.schur, outs[0].schur) for out in outs)

    def test_threads_borrowing_at_once_hold_their_own_storage(self,
                                                               elliptic):
        # more borrowers than cores, switching threads often: a chunk held
        # by two threads at once would mix their factors and change a
        # gradient
        prob = EllipticControlProblem(elliptic.mesh, elliptic.alpha,
                                      elliptic.beta)
        u = np.linspace(-1.0, 1.0, prob.dim)
        stacks = prob.draw_samples(np.random.default_rng(16), 24).reshape(8, 3, 4)
        expected = [prob.grad(u, xis) for xis in stacks]
        matched = []

        def borrow(xis, want):
            for _ in range(20):
                matched.append(np.array_equal(prob.grad(u, xis), want))

        threads = [threading.Thread(target=borrow, args=pair)
                   for pair in zip(stacks, expected)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert matched == [True] * (20 * len(threads))
        assert 1 <= prob._free.qsize() <= len(threads)

    def test_iterates_beyond_one_column_block_score_alike(self, elliptic,
                                                          monkeypatch):
        # a sample solves at most _COLUMNS iterates at once; more are split
        # into blocks without changing any value
        ev = FrozenEvalSet(elliptic, 7, 0)
        us = np.random.default_rng(14).uniform(-2.0, 2.0, size=(7, elliptic.dim))
        monkeypatch.setattr(problems, "_COLUMNS", 3)
        assert ev.objective(us).tolist() == [ev.objective(u) for u in us]

    def test_stacked_objective_matches_single_iterates(self, elliptic):
        # the elliptic eval set's objective, and the quadratic problem's own
        quad = make_quadratic()
        rng = np.random.default_rng(11)
        for prob, scorer in ((elliptic, FrozenEvalSet(elliptic, 5, 0)),
                             (quad, quad)):
            us = rng.uniform(-2.0, 2.0, size=(4, prob.dim))
            assert scorer.objective(us).tolist() == [scorer.objective(u)
                                                     for u in us]
            assert type(scorer.objective(us[0])) is float

    def test_frozen_eval_set_validation(self, elliptic):
        with pytest.raises(ValueError, match="eval_samples"):
            FrozenEvalSet(elliptic, 0, 0)
        # the quadratic problem has nothing to sample
        with pytest.raises(TypeError, match="EllipticControlProblem"):
            FrozenEvalSet(make_quadratic(), 3, 0)


class TestEvalLanes:
    """Every pass over the eval samples runs one lane per CPU; no value
    depends on the lane count, and no helper thread outlives its call."""

    def test_values_do_not_depend_on_lane_count(self, elliptic, monkeypatch):
        ev = FrozenEvalSet(elliptic, 2 * problems._CHUNK + 5, 0)  # 3 chunks
        us = np.random.default_rng(20).uniform(-2.0, 2.0, size=(5, elliptic.dim))
        calls = (lambda: ev.objective(us), lambda: ev.smooth_grad(us[0]),
                 lambda: ev.smooth_lipschitz(), lambda: ev.optimum().u)
        by_lanes = []
        for lanes in (1, 2, 3):
            monkeypatch.setattr(problems, "_lane_count", lambda: lanes)
            threads = threading.active_count()
            values = []
            for call in calls:
                values.append(call())
                assert threading.active_count() == threads
            by_lanes.append(values)
        for values in by_lanes[1:]:
            for got, want in zip(values, by_lanes[0]):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("call", ["objective", "smooth_grad",
                                      "smooth_lipschitz", "optimum"])
    def test_helper_lane_error_reaches_caller(self, elliptic, monkeypatch,
                                              call):
        ev = FrozenEvalSet(elliptic, 2 * problems._CHUNK + 5, 0)
        monkeypatch.setattr(problems, "_lane_count", lambda: 2)
        threads = threading.active_count()
        fail_in_helper_lanes(monkeypatch)
        args = (np.ones(elliptic.dim),) if call in ("objective", "smooth_grad") \
            else ()
        with pytest.raises(LinAlgError, match="a helper lane failed"):
            getattr(ev, call)(*args)
        assert threading.active_count() == threads

    def test_one_pool_per_optimum(self, elliptic, monkeypatch):
        # optimum and smooth_lipschitz make a pass per gradient, all on the
        # threads of one pool; a single pass opens its own
        pools = []

        class CountingPool(problems.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        ev = FrozenEvalSet(elliptic, 2 * problems._CHUNK + 5, 0)
        u = np.ones(elliptic.dim)
        monkeypatch.setattr(problems, "_lane_count", lambda: 2)
        monkeypatch.setattr(problems, "ThreadPoolExecutor", CountingPool)
        for call in (ev.optimum, ev.smooth_lipschitz, lambda: ev.objective(u),
                     lambda: ev.smooth_grad(u)):
            before = len(pools)
            call()
            assert len(pools) == before + 1
        assert all(pool._max_workers == 2 for pool in pools)

    def test_failed_pass_stops_its_work_and_leaves_the_pool_open(self):
        # item 0 fails while item 1 runs: the pass waits for item 1, starts
        # no item after it raises, and leaves the given pool working
        started, finished, second = [], [], threading.Event()

        def work(item):
            started.append(item)
            try:
                if item == 0:
                    second.wait(timeout=10)
                    raise ValueError("item 0 failed")
                second.set()
                time.sleep(0.2)
                return item
            finally:
                finished.append(item)

        with problems.ThreadPoolExecutor(2) as pool:
            with pytest.raises(ValueError, match="item 0 failed"):
                list(problems._in_order(work, list(range(8)), pool))
            assert 1 in finished and sorted(finished) == sorted(started)
            time.sleep(0.3)
            assert len(started) == len(finished) < 8
            assert pool.submit(abs, -3).result() == 3


class TestReferenceOptimum:
    def test_fixed_point_and_optimality(self, elliptic):
        # the quadratic problem's optimum, then the elliptic eval set's
        quad = make_quadratic(alpha=1.0, beta=0.3, sigma=0.0)
        ev = FrozenEvalSet(elliptic, 3, 0)
        rng = np.random.default_rng(10)
        for prob, ref, grad, L, objective in (
                (quad, reference_optimum(quad), quad.exact_grad,
                 quad.smooth_lipschitz(), quad.objective),
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

    def test_optimum_factors_each_sample_once(self, elliptic, monkeypatch):
        # the gradients and the final scoring share one factorization of
        # every sample, and the held factors score like streamed ones
        ev = FrozenEvalSet(elliptic, 2 * problems._CHUNK + 5, 0)
        factor, rows = fem.factor, []

        def counting_factor(mesh, xi, *args, **kwargs):
            rows.append(len(np.atleast_2d(xi)))
            return factor(mesh, xi, *args, **kwargs)

        monkeypatch.setattr(fem, "factor", counting_factor)
        ref = ev.optimum()
        assert sum(rows) == len(ev.samples)
        assert ref.objective == ev.objective(ref.u)

    def test_objective_value_reported_at_optimum(self):
        prob = make_quadratic(alpha=2.0, beta=0.0, sigma=0.0)
        ref = reference_optimum(prob)
        # beta = 0, interior optimum: solves (A^T A + alpha I) u = A^T b
        H = prob.A.T @ prob.A + prob.alpha * np.eye(prob.dim)
        u_exact = np.linalg.solve(H, prob.A.T @ prob.b)
        np.testing.assert_allclose(ref.u, u_exact, atol=1e-9)
        assert ref.objective == pytest.approx(prob.smooth_value(u_exact),
                                              rel=1e-12)
