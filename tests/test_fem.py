"""P1 assembly and PDE solves checked against hand-computable oracles."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import spsolve

from sadmm import fem
from sadmm.hilbert import wdot
from sadmm.linsolve import check_spd_structure


def reference_stiffness(mesh, xi):
    """Interior stiffness by COO -> CSR assembly of the P1 element matrices
    a(centroid) * (e_i . e_j) / (4 area), e_i the edge opposite vertex i."""
    p = mesh.nodes[mesh.triangles]
    e = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    a = fem.coefficient(p.mean(axis=1), xi)
    local = np.einsum("tid,tjd->tij", e, e) * (a / (4.0 * area))[:, None, None]
    number = np.full(mesh.n_nodes, -1)
    number[mesh.interior] = np.arange(mesh.interior.size)
    rows = number[np.repeat(mesh.triangles, 3, axis=1).ravel()]
    cols = number[np.tile(mesh.triangles, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.interior.size
    return sp.coo_matrix((local.ravel()[keep], (rows[keep], cols[keep])),
                         shape=(n, n)).tocsr()


def band_to_dense(band):
    """Symmetric dense matrix from LAPACK upper band storage; the unused
    corner of the storage must be zero."""
    bw, n = band.shape[0] - 1, band.shape[1]
    A = np.zeros((n, n))
    for k in range(bw + 1):
        d = bw - k
        assert np.all(band[k, :d] == 0.0)
        j = np.arange(d, n)
        A[j - d, j] = band[k, d:]
        A[j, j - d] = band[k, d:]
    return A


@pytest.fixture(scope="module")
def mesh4():
    return fem.build_mesh(0.25)


@pytest.fixture(scope="module")
def ops4(mesh4):
    return fem.assemble(mesh4, np.zeros(4))


class TestMesh:
    def test_counts(self, mesh4):
        # 5x5 grid of nodes, 2 triangles per cell, 3x3 interior block
        assert mesh4.n_nodes == 25
        assert mesh4.triangles.shape == (32, 3)
        assert mesh4.interior.size == 9
        assert mesh4.boundary_mask.sum() == 16

    def test_boundary_mask_matches_coordinates(self, mesh4):
        on_edge = ((mesh4.nodes[:, 0] % 1.0 == 0.0)
                   | (mesh4.nodes[:, 1] % 1.0 == 0.0))
        np.testing.assert_array_equal(mesh4.boundary_mask, on_edge)

    def test_triangles_positively_oriented_and_cover_domain(self, mesh4):
        p = mesh4.nodes[mesh4.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        assert np.all(areas > 0.0)
        assert areas.sum() == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("h", [0.3, -0.25, 2.0])
    def test_rejects_bad_h(self, h):
        with pytest.raises(ValueError, match="1/h"):
            fem.build_mesh(h)


class TestCoefficient:
    def test_zero_sample_gives_unit_field(self):
        x = np.random.default_rng(0).uniform(0, 1, size=(50, 2))
        np.testing.assert_array_equal(fem.coefficient(x, np.zeros(4)),
                                      np.ones(50))

    def test_bounds(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(1000, 2))
        for _ in range(20):
            a = fem.coefficient(x, rng.uniform(-1, 1, size=4))
            assert np.all(a >= np.exp(-4.0)) and np.all(a <= np.exp(4.0))

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError, match="4 components"):
            fem.coefficient(np.array([0.5, 0.5]), np.zeros(3))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            fem.coefficient(np.array([0.5, 0.5]), np.array([0.0, 1.5, 0.0, 0.0]))

    def test_point_formula(self):
        xi = np.array([0.3, -0.2, 0.5, 0.1])
        x = np.array([0.25, 0.75])
        expected = np.exp(0.3 * np.cos(1.1 * np.pi * 0.25)
                          - 0.2 * np.cos(1.2 * np.pi * 0.25)
                          + 0.5 * np.sin(1.3 * np.pi * 0.75)
                          + 0.1 * np.sin(1.4 * np.pi * 0.75))
        assert fem.coefficient(x, xi) == pytest.approx(expected, rel=1e-14)


class TestAssembly:
    def test_unit_coefficient_stiffness_is_five_point_stencil(self, mesh4, ops4):
        # with a == 1 on this diagonal-split mesh, the P1 stiffness reduces
        # exactly to the 5-point Laplacian stencil on interior nodes
        n = 3  # interior grid per side
        T = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1])
        expected = (sp.kron(sp.eye(n), T) + sp.kron(T, sp.eye(n))).toarray()
        np.testing.assert_allclose(ops4.stiffness.toarray(), expected,
                                   atol=1e-13)

    def test_stiffness_spd(self, mesh4):
        rng = np.random.default_rng(2)
        for _ in range(3):
            ops = fem.assemble(mesh4, rng.uniform(-1, 1, size=4))
            check_spd_structure(ops.stiffness)
            evals = np.linalg.eigvalsh(ops.stiffness.toarray())
            assert evals.min() > 0.0

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_band_matches_coo_assembly(self, level):
        mesh = fem.build_mesh(2.0 ** -level)
        rng = np.random.default_rng(level)
        side = 2 ** level - 1  # interior nodes per grid line
        for _ in range(2):
            xi = rng.uniform(-1, 1, size=4)
            ops = fem.assemble(mesh, xi)
            # lexicographic numbering: the widest coupling is the diagonal
            # neighbour one grid line up
            assert ops.band.shape == (side + 2, side * side)
            expected = reference_stiffness(mesh, xi).toarray()
            np.testing.assert_allclose(band_to_dense(ops.band), expected,
                                       rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(ops.stiffness.toarray(), expected,
                                       rtol=1e-14, atol=0.0)

    def test_mass_symmetric_and_lumped_sums_to_area(self, ops4):
        M = ops4.mass
        assert abs(M - M.T).max() == 0.0
        np.testing.assert_allclose(ops4.lumped,
                                   np.asarray(M.sum(axis=1)).ravel())
        assert ops4.lumped.sum() == pytest.approx(1.0, rel=1e-14)

    def test_interior_lumped_weight_is_h_squared(self, mesh4, ops4):
        h = mesh4.h
        np.testing.assert_allclose(ops4.lumped[mesh4.interior],
                                   np.full(9, h * h), rtol=1e-14)

    def test_mass_independent_of_sample(self, mesh4, ops4):
        other = fem.assemble(mesh4, np.array([0.9, -0.9, 0.5, -0.5]))
        assert abs(other.mass - ops4.mass).max() == 0.0
        np.testing.assert_array_equal(other.lumped, ops4.lumped)


class TestSolves:
    def test_state_zero_load(self, ops4):
        y = fem.solve_state(ops4, np.zeros(25))
        np.testing.assert_array_equal(y, np.zeros(25))

    def test_state_boundary_values_zero(self, mesh4):
        rng = np.random.default_rng(3)
        ops = fem.assemble(mesh4, rng.uniform(-1, 1, size=4))
        y = fem.solve_state(ops, rng.standard_normal(25))
        assert np.all(y[mesh4.boundary_mask] == 0.0)

    def test_maximum_principle(self, mesh4):
        # nonnegative load with an M-matrix stiffness gives nonnegative state
        rng = np.random.default_rng(4)
        for _ in range(3):
            ops = fem.assemble(mesh4, rng.uniform(-1, 1, size=4))
            y = fem.solve_state(ops, rng.uniform(0.0, 2.0, size=25))
            assert y.min() >= -1e-12

    def test_lu_and_cg_agree(self, mesh4):
        rng = np.random.default_rng(5)
        ops = fem.assemble(mesh4, rng.uniform(-1, 1, size=4))
        u = rng.standard_normal(25)
        np.testing.assert_allclose(fem.solve_state(ops, u, method="cg"),
                                   fem.solve_state(ops, u, method="lu"),
                                   rtol=1e-8, atol=1e-12)
        with pytest.raises(ValueError, match="unknown solve method"):
            fem.solve_state(ops, u, method="qr")

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_direct_solve_matches_spsolve(self, level):
        mesh = fem.build_mesh(2.0 ** -level)
        rng = np.random.default_rng(10 + level)
        xi = rng.uniform(-1, 1, size=4)
        ops = fem.assemble(mesh, xi)
        u = rng.standard_normal(mesh.n_nodes)
        expected = spsolve(reference_stiffness(mesh, xi).tocsc(),
                           (ops.lumped * u)[mesh.interior])
        y = fem.solve_state(ops, u)[mesh.interior]
        assert (np.linalg.norm(y - expected)
                <= 1e-12 * np.linalg.norm(expected))

    def test_indefinite_band_raises(self, mesh4, ops4):
        band = ops4.band.copy()
        band[-1, 4] = -1.0  # a negative diagonal entry
        bad = fem.AssembledOperators(mesh=mesh4, band=band, mass=ops4.mass,
                                     lumped=ops4.lumped)
        with pytest.raises(LinAlgError, match="not positive definite"):
            fem.solve_state(bad, np.ones(25))

    def test_adjoint_identity(self, mesh4):
        # <u, p>_W == <y(u2), y - y_d>_W since p = K^{-1} W (y - y_d)
        rng = np.random.default_rng(6)
        ops = fem.assemble(mesh4, rng.uniform(-1, 1, size=4))
        u = rng.standard_normal(25)
        y = fem.solve_state(ops, rng.standard_normal(25))
        y_d = rng.standard_normal(25)
        p = fem.solve_adjoint(ops, y, y_d)
        lhs = wdot(u, p, ops.lumped)
        rhs = wdot(fem.solve_state(ops, u), y - y_d, ops.lumped)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_adjoint_shape_mismatch(self, ops4):
        with pytest.raises(ValueError, match="different meshes"):
            fem.solve_adjoint(ops4, np.zeros(25), np.zeros(24))


class TestHelpers:
    def test_interpolate(self, mesh4):
        vals = fem.interpolate(mesh4, lambda x1, x2: x1 + 2.0 * x2)
        np.testing.assert_allclose(
            vals, mesh4.nodes[:, 0] + 2.0 * mesh4.nodes[:, 1])

    def test_l2_error_of_exact_interpolant_is_zero(self, mesh4, ops4):
        fn = lambda x1, x2: np.sin(x1) * x2
        a = fem.interpolate(mesh4, fn)
        assert fem.l2_error(a, fn, mesh4, ops4.lumped) == 0.0

    def test_checkerboard_target(self, mesh4):
        t = fem.checkerboard_target(mesh4)
        assert set(np.unique(t)) == {-1.0, 1.0}
        x1, x2 = mesh4.nodes[:, 0], mesh4.nodes[:, 1]
        inner = (x1 > 0.25) & (x1 < 0.75) & (x2 > 0.25) & (x2 < 0.75)
        assert np.all(t[inner] == -1.0) and np.all(t[~inner] == 1.0)
