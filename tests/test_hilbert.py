"""Weighted Hilbert-space primitives: validation, closed-form prox maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sadmm.hilbert import (check_weights, project_box,
                           soft_threshold, wdot, wdot_rows, weighted_l1_rows,
                           wnorm)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def vec(n=8, lo=-1e6, hi=1e6):
    return arrays(np.float64, n,
                  elements=st.floats(min_value=lo, max_value=hi,
                                     allow_nan=False, allow_infinity=False))


class TestValidation:
    def test_check_weights_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            check_weights(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            check_weights(np.array([1.0, -0.5]))

    def test_check_weights_domain_area(self):
        # the weights of the unit square sum to its area, 1
        w = np.full(4, 0.25)
        np.testing.assert_array_equal(check_weights(w), w)
        for bad in (np.full(4, 0.5), np.full(4, 0.25 - 1e-9)):
            with pytest.raises(ValueError, match="differs from the domain area"):
                check_weights(bad)

    def test_wdot_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            wdot(np.zeros(3), np.zeros(4), np.ones(3))
        with pytest.raises(ValueError, match="mismatch"):
            wdot(np.zeros(3), np.zeros(3), np.ones(4))


class TestInnerProduct:
    def test_wdot_manual_sum(self):
        a = np.array([1.0, 2.0, -3.0])
        b = np.array([4.0, -5.0, 6.0])
        w = np.array([0.5, 1.0, 2.0])
        expected = 0.5 * 4.0 + 1.0 * (-10.0) + 2.0 * (-18.0)
        assert wdot(a, b, w) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("n", [961, 16129])
    def test_row_reductions_match_and_ignore_row_count(self, n):
        # 16129 nodes (h = 2^-7) is longer than einsum's 8192-element buffer
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, 12, n))
        w = rng.uniform(0.5, 2.0, size=n)
        rows = wdot_rows(a, b, w)
        for i in range(12):
            assert rows[i] == pytest.approx(wdot(a[i], b[i], w), rel=1e-12)
            assert wdot_rows(a[i:i + 1], b[i:i + 1], w)[0] == rows[i]
            assert wdot_rows(a[:i + 1], b[:i + 1], w)[i] == rows[i]
        with pytest.raises(ValueError, match="mismatch"):
            wdot_rows(a, b, w[1:])
        l1 = weighted_l1_rows(a, w)
        for i in range(12):
            assert l1[i] == pytest.approx(wdot(np.abs(a[i]), np.ones(n), w),
                                          rel=1e-12)
            assert weighted_l1_rows(a[i:i + 1], w)[0] == l1[i]
            assert weighted_l1_rows(a[:i + 1], w)[i] == l1[i]
        with pytest.raises(ValueError, match="mismatch"):
            weighted_l1_rows(a, w[1:])

    def test_wnorm_of_zero(self):
        assert wnorm(np.zeros(5), np.ones(5)) == 0.0

    @given(a=vec(), b=vec(), w=vec(lo=1e-3, hi=1e3))
    @settings(max_examples=50, deadline=None)
    def test_wdot_symmetric(self, a, b, w):
        assert wdot(a, b, w) == pytest.approx(wdot(b, a, w), rel=1e-12, abs=1e-12)

    @given(a=vec(), b=vec(), w=vec(lo=1e-3, hi=1e3))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_schwarz(self, a, b, w):
        lhs = abs(wdot(a, b, w))
        rhs = wnorm(a, w) * wnorm(b, w)
        assert lhs <= rhs * (1.0 + 1e-10) + 1e-12

    @given(a=vec(), b=vec(), w=vec(lo=1e-3, hi=1e3))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, w):
        assert wnorm(a + b, w) <= wnorm(a, w) + wnorm(b, w) + 1e-9


class TestProjectBox:
    def test_clamps(self):
        out = project_box(np.array([-10.0, 0.5, 10.0]), -1.0, 1.0)
        np.testing.assert_array_equal(out, [-1.0, 0.5, 1.0])

    def test_empty_box_raises(self):
        with pytest.raises(ValueError, match="empty box"):
            project_box(np.zeros(2), 1.0, -1.0)

    @given(a=vec(), lo=finite_floats, width=st.floats(min_value=0.0, max_value=1e6,
                                                      allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_in_box_and_idempotent(self, a, lo, width):
        hi = lo + width
        out = project_box(a, lo, hi)
        assert np.all(out >= lo) and np.all(out <= hi)
        np.testing.assert_array_equal(project_box(out, lo, hi), out)

    @given(a=vec(), b=vec())
    @settings(max_examples=50, deadline=None)
    def test_nonexpansive(self, a, b):
        pa, pb = project_box(a, -3.0, 7.0), project_box(b, -3.0, 7.0)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9


class TestSoftThreshold:
    def test_known_values(self):
        out = soft_threshold(np.array([3.0, -3.0, 0.5, -0.5, 0.0]), 1.0)
        np.testing.assert_allclose(out, [2.0, -2.0, 0.0, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        a = np.array([1.5, -2.5, 0.0])
        np.testing.assert_array_equal(soft_threshold(a, 0.0), a)

    def test_negative_threshold_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.zeros(3), -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.zeros(3), np.array([0.1, -0.1, 0.2]))

    def test_array_threshold_broadcasts(self):
        a = np.array([2.0, 2.0, 2.0])
        t = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(soft_threshold(a, t), [1.5, 1.0, 0.0])

    def test_scalar_grid_oracle(self):
        # per-component minimizer of t|z| + (z - a)^2 / 2 by brute force
        rng = np.random.default_rng(7)
        grid = np.arange(-8.0, 8.0 + 5e-4, 1e-3)
        for _ in range(20):
            a = rng.uniform(-4.0, 4.0)
            t = rng.uniform(0.0, 2.0)
            brute = grid[np.argmin(t * np.abs(grid) + 0.5 * (grid - a) ** 2)]
            assert abs(float(soft_threshold(np.array([a]), t)[0]) - brute) <= 2e-3

    @given(a=vec(), t=st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_shrinkage_and_sign(self, a, t):
        out = soft_threshold(a, t)
        assert np.all(np.abs(out) <= np.maximum(np.abs(a) - t, 0.0) + 1e-12)
        assert np.all(out * a >= 0.0)
        assert np.all(out[np.abs(a) <= t] == 0.0)

    @given(a=vec(), b=vec(), t=st.floats(min_value=0.0, max_value=1e3,
                                         allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_nonexpansive(self, a, b, t):
        sa, sb = soft_threshold(a, t), soft_threshold(b, t)
        assert np.linalg.norm(sa - sb) <= np.linalg.norm(a - b) + 1e-9


class TestWeightedL1:
    def test_manual(self):
        a = np.array([[1.0, -2.0, 0.0], [0.0, 0.0, -0.25]])
        w = np.array([0.5, 1.5, 2.0])
        assert weighted_l1_rows(a, w).tolist() == [0.5 + 3.0, 0.5]

    @given(a=vec(), w=vec(lo=1e-3, hi=1e3))
    @settings(max_examples=50, deadline=None)
    def test_matches_wdot_of_abs(self, a, w):
        assert weighted_l1_rows(a[None], w)[0] == pytest.approx(
            wdot(np.abs(a), np.ones_like(w), w), rel=1e-12, abs=1e-12)
