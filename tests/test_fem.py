"""P1 assembly and PDE solves checked against hand-computable oracles."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack as reference_lapack
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import spsolve

from sadmm import fem
from sadmm.hilbert import wdot


def triangle_areas(mesh):
    p = mesh.nodes[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def reference_stiffness(mesh, xi):
    """Interior stiffness, CSR, assembled from the P1 element matrices
    a(centroid) * (e_i . e_j) / (4 area), e_i the edge opposite vertex i.
    Each entry sums its triangles' terms from 0.0 in ascending triangle
    order (np.add.at applies its items in order), the order in which the
    stencil product sums; a COO -> CSR conversion sums duplicates in an
    order of its own."""
    p = mesh.nodes[mesh.triangles]
    e = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    area = triangle_areas(mesh)
    a = fem.coefficient(p.mean(axis=1), xi)
    local = np.einsum("tid,tjd->tij", e, e) * (a / (4.0 * area))[:, None, None]
    number = np.full(mesh.n_nodes, -1)
    number[mesh.interior] = np.arange(mesh.interior.size)
    rows = number[np.repeat(mesh.triangles, 3, axis=1).ravel()]
    cols = number[np.tile(mesh.triangles, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    n = mesh.interior.size
    entries, entry = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    values = np.zeros(entries.size)
    np.add.at(values, entry, local.ravel()[keep])
    return sp.csr_array((values, np.divmod(entries, n)), shape=(n, n))


def reference_mass(mesh):
    """Consistent mass of all nodes by COO -> CSR assembly of the P1 element
    matrices area/12 * (1 + delta_ij)."""
    local = triangle_areas(mesh)[:, None, None] \
        * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def check_spd_structure(A, rtol=1e-12):
    """Verify stored-entry symmetry and a strictly positive diagonal."""
    A = sp.csr_matrix(A)
    diff = abs(A - A.T)
    scale = max(abs(A).max(), 1e-300)
    if diff.nnz and diff.max() > rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    if np.any(A.diagonal() <= 0.0):
        raise ValueError("matrix diagonal has non-positive entries")


def stencil_sparse(mesh, stencil):
    """One sample's interior stiffness, CSR, from its stencil values: the
    red and black pivots, then the red-black couplings in the ordering's
    CSR layout, each placed at its two mirror positions."""
    rb = mesh.red_black
    n_pivots = sum(rb.shape)
    red, black = rb.red[rb._coupling_row], rb.black[rb._indices]
    pivots = np.concatenate([rb.red, rb.black])
    couplings = stencil[n_pivots:]
    return sp.csr_array(
        (np.concatenate([stencil[:n_pivots], couplings, couplings]),
         (np.concatenate([pivots, red, black]),
          np.concatenate([pivots, black, red]))),
        shape=(mesh.interior.size,) * 2)


def stencil_dense(mesh, stencil):
    return stencil_sparse(mesh, stencil).toarray()


def assert_same_stiffness(actual, expected, rtol=0.0):
    """The same stored nonzeros in the same places, and values equal to
    rtol (exactly for rtol = 0)."""
    for a in (actual, expected):
        a.eliminate_zeros()
        a.sort_indices()
    np.testing.assert_array_equal(actual.indptr, expected.indptr)
    np.testing.assert_array_equal(actual.indices, expected.indices)
    np.testing.assert_allclose(actual.data, expected.data, rtol=rtol, atol=0.0)


def pivot(mesh, node):
    """Index in the stencil of an interior node's pivot: red pivots first,
    then black, each in interior order."""
    rb = mesh.red_black
    return int(np.nonzero(np.concatenate([rb.red, rb.black]) == node)[0][0])


def schur_bands(mesh, stencil, lower):
    """Each sample's S = D_b - E D_r^-1 E^T in lower or upper band storage,
    (m, kd + 1, n_black), every entry summed one term at a time from 0.0:
    the black pivot, then minus E[b, r] * (E[b', r] / D_r[r]) for each red
    r in order; zero outside the band."""
    rb = mesh.red_black
    rows, n_black = rb.schur_shape
    bw = rows - 1
    bands = np.zeros((len(stencil), rows, n_black))
    for band, values in zip(bands, stencil):
        A = stencil_dense(mesh, values)
        K_rb = A[np.ix_(rb.black, rb.red)]
        d_r = A[rb.red, rb.red]
        for q in range(n_black):
            for p in range(max(0, q - bw), q + 1):
                total = 0.0
                if p == q:
                    total += A[rb.black[p], rb.black[p]]
                for r in np.nonzero(K_rb[p] * K_rb[q])[0]:
                    total -= K_rb[p, r] * (K_rb[q, r] / d_r[r])
                if lower:
                    band[q - p, p] = total
                else:
                    band[bw + p - q, q] = total
    return bands


def receive_schur_bands(monkeypatch, mesh, stencil):
    """The bands that fem.dpbtrf receives while red_black_cholesky factors
    stencil, one sample at a time, stacked (m, kd + 1, n_black); dpbtrf
    itself does not run."""
    received = []
    with monkeypatch.context() as patch:
        patch.setattr(fem, "dpbtrf", lambda bands: received.append(bands.copy()))
        fem.red_black_cholesky(stencil, mesh)
    assert [len(bands) for bands in received] == [1] * len(stencil)
    return np.concatenate(received)


@pytest.fixture(scope="module")
def mesh4():
    return fem.StructuredMesh(0.25)


@pytest.fixture(scope="module")
def factor4(mesh4):
    return fem.factor(mesh4, np.zeros(4))


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

    def test_triangles_at_h_one_half(self):
        # nodes numbered row by row from (0, 0); every cell is split along
        # its lower-left to upper-right diagonal
        np.testing.assert_array_equal(fem.StructuredMesh(0.5).triangles, [
            [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
            [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7]])

    @pytest.mark.parametrize("h", [0.3, -0.25, 2.0])
    def test_rejects_bad_h(self, h):
        with pytest.raises(ValueError, match="1/h"):
            fem.StructuredMesh(h)


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
    def test_unit_coefficient_stiffness_is_five_point_stencil(self, mesh4):
        # with a == 1 on this diagonal-split mesh, the P1 stiffness reduces
        # exactly to the 5-point Laplacian stencil on interior nodes
        n = 3  # interior grid per side
        T = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1])
        expected = (sp.kron(sp.eye(n), T) + sp.kron(T, sp.eye(n))).toarray()
        stiffness = stencil_dense(mesh4, fem.assemble(mesh4, np.zeros(4))[0])
        np.testing.assert_allclose(stiffness, expected, atol=1e-13)

    def test_stiffness_spd(self, mesh4):
        rng = np.random.default_rng(2)
        for _ in range(3):
            stiffness = stencil_dense(
                mesh4, fem.assemble(mesh4, rng.uniform(-1, 1, size=4))[0])
            check_spd_structure(stiffness)
            assert np.linalg.eigvalsh(stiffness).min() > 0.0

    @pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
    def test_band_matches_coo_assembly(self, level):
        # on a dyadic grid every node coordinate is exact, so the element
        # matrices' weights are exactly 1/2, 1 and -1/2 and the stencil's
        # closed form gives the assembly's bits
        mesh = fem.StructuredMesh(2.0 ** -level)
        rng = np.random.default_rng(level)
        for _ in range(2):
            xi = rng.uniform(-1, 1, size=4)
            assert_same_stiffness(
                stencil_sparse(mesh, fem.assemble(mesh, xi)[0]),
                reference_stiffness(mesh, xi))

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_non_dyadic_mesh_matches_coo_assembly(self, n):
        # h = 1/n rounds the node coordinates, so the reference's per-
        # triangle weights carry roundoff (0.49999999999999994 for 1/2) that
        # the closed form does not: values within 1e-14, the same pattern.
        # The interior grid is even for n = 3 and 5 and odd for n = 10, and
        # the direct solve is right on both
        mesh = fem.StructuredMesh(1.0 / n)
        rng = np.random.default_rng(20 + n)
        xi = rng.uniform(-1, 1, size=4)
        expected = reference_stiffness(mesh, xi)
        assert_same_stiffness(stencil_sparse(mesh, fem.assemble(mesh, xi)[0]),
                              expected.copy(), rtol=1e-14)
        M = reference_mass(mesh)
        np.testing.assert_allclose(mesh.lumped,
                                   np.asarray(M.sum(axis=1)).ravel(),
                                   rtol=1e-14, atol=0.0)
        u = rng.standard_normal(mesh.interior.size)
        loads = mesh.lumped[mesh.interior] * u
        want = spsolve(expected.tocsc(), loads)
        y = fem.solve_state(fem.factor(mesh, xi), u)[0]
        assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)

    def test_mass_symmetric_and_lumped_sums_to_area(self):
        for level in (2, 3, 4, 5, 6):
            mesh = fem.StructuredMesh(2.0 ** -level)
            M = reference_mass(mesh)
            assert abs(M - M.T).max() == 0.0
            lumped = mesh.lumped
            np.testing.assert_array_equal(lumped,
                                          np.asarray(M.sum(axis=1)).ravel())
            assert lumped.sum() == pytest.approx(1.0, rel=1e-14)

    def test_interior_lumped_weight_is_h_squared(self):
        for level in (2, 3, 4, 5, 6):
            mesh = fem.StructuredMesh(2.0 ** -level)
            np.testing.assert_array_equal(
                mesh.lumped[mesh.interior], mesh.h * mesh.h)

    def test_mass_independent_of_sample(self, mesh4):
        # the weights are the mesh's, left as they were by every factor and
        # solve of any sample
        before = mesh4.lumped.copy()
        for xi in (np.zeros(4), np.array([0.9, -0.9, 0.5, -0.5])):
            factor = fem.factor(mesh4, xi)
            fem.solve_adjoint(factor, fem.solve_state(factor, np.ones(9)),
                              np.zeros(9))
        np.testing.assert_array_equal(mesh4.lumped, before)


class TestSolves:
    def test_state_zero_load(self, factor4):
        y = fem.solve_state(factor4, np.zeros(9))
        np.testing.assert_array_equal(y, np.zeros((1, 9)))

    def test_state_boundary_values_zero(self, mesh4):
        rng = np.random.default_rng(3)
        factor = fem.factor(mesh4, rng.uniform(-1, 1, size=4))
        # the state has one value per interior node; scattered onto all nodes
        # by mesh.interior, every boundary node keeps its eliminated 0
        y = fem.solve_state(factor, rng.standard_normal(9))
        assert y.shape == (1, mesh4.interior.size)
        full = np.zeros((1, mesh4.n_nodes))
        full[:, mesh4.interior] = y
        assert np.all(full[:, mesh4.boundary_mask] == 0.0)

    def test_maximum_principle(self, mesh4):
        # nonnegative load with an M-matrix stiffness gives nonnegative state
        rng = np.random.default_rng(4)
        for _ in range(3):
            factor = fem.factor(mesh4, rng.uniform(-1, 1, size=4))
            y = fem.solve_state(factor, rng.uniform(0.0, 2.0, size=9))
            assert y.min() >= -1e-12

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_direct_solve_matches_spsolve(self, level):
        # level 1 has a single (red) interior node and an empty Schur system
        mesh = fem.StructuredMesh(2.0 ** -level)
        rng = np.random.default_rng(10 + level)
        xi = rng.uniform(-1, 1, size=4)
        factor = fem.factor(mesh, xi)
        side = 2 ** level - 1
        # one sample is a stack of one. The black Schur complement has half
        # the nodes and half-bandwidth side (the stiffness: side + 1); level
        # 1 keeps one empty band row
        assert factor.schur.shape == (1, min(side + 1, side * side),
                                      side * side // 2)
        u = rng.standard_normal(mesh.interior.size)
        loads = mesh.lumped[mesh.interior] * u
        expected = spsolve(reference_stiffness(mesh, xi).tocsc(), loads)
        y = fem.solve_state(factor, u)[0]
        assert (np.linalg.norm(y - expected)
                <= 1e-12 * np.linalg.norm(expected))
        # several right-hand sides solve column by column alike; at level 1
        # they must not reach dpbtrs, which rejects an empty system
        stacked = fem.band_solve(factor, np.column_stack([loads, loads])[None])
        np.testing.assert_array_equal(stacked[0], np.column_stack([y, y]))

    def test_multi_rhs_band_solve_matches_column_solves(self):
        # 7 right-hand sides per sample on a stack of one and of 5, against
        # each column alone and each sample's stack of one
        mesh = fem.StructuredMesh(2.0 ** -5)
        rng = np.random.default_rng(15)
        for m in (1, 5):
            factor = fem.factor(mesh, rng.uniform(-1, 1, size=(m, 4)))
            rhs = rng.standard_normal((m, mesh.interior.size, 7))
            x = fem.band_solve(factor, rhs)
            assert x.shape == rhs.shape
            for j in range(rhs.shape[2]):
                np.testing.assert_array_equal(
                    x[:, :, j:j + 1], fem.band_solve(factor, rhs[:, :, j:j + 1]))
            for i, one in enumerate(factor):
                np.testing.assert_array_equal(
                    x[i:i + 1], fem.band_solve(one, rhs[i:i + 1]))

    def test_integer_index_and_iteration_give_stacks_of_one(self, mesh4):
        assert len(fem.factor(mesh4, np.zeros(4))) == 1
        stack = fem.factor(mesh4, np.random.default_rng(17).uniform(
            -1, 1, size=(3, 4)))
        for i in (0, 2, -1):
            assert len(stack[i]) == 1
            np.testing.assert_array_equal(stack[i].schur, stack.schur[i][None])
            np.testing.assert_array_equal(stack[i].red_diag,
                                          stack.red_diag[i][None])
        assert [len(item) for item in stack] == [1, 1, 1]
        assert len(stack[1:]) == 2
        with pytest.raises(IndexError):
            stack[3]

    def test_indefinite_band_raises(self, mesh4):
        stencil = fem.assemble(mesh4, np.zeros(4))
        stencil[0, pivot(mesh4, 4)] = -1.0  # a negative diagonal entry
        with pytest.raises(LinAlgError, match="not positive definite"):
            fem.red_black_cholesky(stencil, mesh4)

    def test_indefinite_black_pivot_raises(self, mesh4):
        # node 1 is black: its pivot reaches dpbtrf through the Schur
        # complement, while node 4 above is a red pivot checked before S
        stencil = fem.assemble(mesh4, np.zeros(4))
        stencil[0, pivot(mesh4, 1)] = -1.0
        with pytest.raises(LinAlgError, match="not positive definite"):
            fem.red_black_cholesky(stencil, mesh4)

    def test_lapack_binding_matches_scipy(self, monkeypatch):
        # the Schur complements of h = 2^-5 as dpbtrf receives them, in lower
        # band storage, factored, and their upper factors solving 1 and 40
        # right-hand sides: the same bits as scipy's f2py wrappers of the
        # same routines
        mesh = fem.StructuredMesh(2.0 ** -5)
        rng = np.random.default_rng(18)
        xis = rng.uniform(-1, 1, size=(3, 4))
        received = receive_schur_bands(monkeypatch, mesh, fem.assemble(mesh, xis))
        bands = np.empty((3,) + received.shape[:0:-1]).transpose(0, 2, 1)
        bands[...] = received
        expected = [reference_lapack.dpbtrf(band, lower=1) for band in bands]
        fem.dpbtrf(bands)
        for band, (factor, info) in zip(bands, expected):
            assert info == 0
            np.testing.assert_array_equal(band, factor)
        upper = fem.factor(mesh, xis).schur
        for k in (1, 40):
            rhs = rng.standard_normal((3, upper.shape[2], k))
            x = np.empty((3, k, upper.shape[2])).transpose(0, 2, 1)
            x[...] = rhs
            fem.dpbtrs(upper, x)
            for i, band in enumerate(upper):
                want, info = reference_lapack.dpbtrs(band, rhs[i], lower=0)
                assert info == 0
                np.testing.assert_array_equal(x[i], want)

    @pytest.mark.parametrize("level", [3, 4])
    @pytest.mark.parametrize("m", [1, 6])
    def test_schur_band_sums_each_entry_in_term_order(self, monkeypatch,
                                                      level, m):
        # the lower band dpbtrf receives, against each entry of S = D_b -
        # E D_r^-1 E^T summed one term at a time from 0.0: the black pivot,
        # then minus E[b, r] * (E[b', r] / D_r[r]) for each red r in order.
        # Bit for bit, so a change of summation order shows
        mesh = fem.StructuredMesh(2.0 ** -level)
        stencil = fem.assemble(mesh, np.random.default_rng(level).uniform(
            -1, 1, size=(m, 4)))
        received = receive_schur_bands(monkeypatch, mesh, stencil)
        expected = schur_bands(mesh, stencil, lower=True)
        assert received.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_factor_is_the_upper_factor_of_s(self, level):
        # factored in lower storage and copied out, each Schur factor is
        # bit for bit the one dpbtrf gives S in upper storage (kd < 32, so
        # LAPACK's unblocked dpbtf2), zero corner included
        mesh = fem.StructuredMesh(2.0 ** -level)
        stencil = fem.assemble(mesh, np.random.default_rng(30 + level).uniform(
            -1, 1, size=(2, 4)))
        schur = fem.red_black_cholesky(stencil, mesh).schur
        for got, band in zip(schur, schur_bands(mesh, stencil, lower=False)):
            want, info = reference_lapack.dpbtrf(band, lower=0)
            assert info == 0
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_threads_factoring_at_once_match_serial_bits(self):
        # each thread factors in a scratch band of its own; a thread that
        # scattered into, factored or copied out of another's would change
        # its bits
        mesh = fem.StructuredMesh(2.0 ** -4)
        rng = np.random.default_rng(21)
        cases = []
        for m in (1, 2, 3, 6):
            stencil = fem.assemble(mesh, rng.uniform(-1, 1, size=(m, 4)))
            cases.append((stencil, fem.red_black_cholesky(stencil, mesh).schur))
        wrong = []

        def factor_many(stencil, expected):
            out = fem.RedBlackFactor.empty(mesh, len(stencil))
            for _ in range(200):
                fem.red_black_cholesky(stencil, mesh, out)
                if not np.array_equal(out.schur, expected):
                    wrong.append(1)

        threads = [threading.Thread(target=factor_many, args=case)
                   for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("colour", ["red", "black"])
    def test_indefinite_sample_is_named(self, mesh4, colour):
        # sample 2 of 4 gets a negative red pivot, checked before S is
        # formed, or black pivot, which dpbtrf rejects
        stencil = fem.assemble(mesh4, np.random.default_rng(22).uniform(
            -1, 1, size=(4, 4)))
        stencil[2, pivot(mesh4, 4 if colour == "red" else 1)] = -1.0
        with pytest.raises(LinAlgError, match="sample 2 of the stack"):
            fem.red_black_cholesky(stencil, mesh4)

    def test_lapack_binding_checks_layout(self, factor4):
        # LAPACK reads raw memory: a C-ordered block, a read-only array or
        # another dtype must be refused before any call
        bands = factor4.schur.copy()
        with pytest.raises(ValueError, match="Fortran-ordered"):
            fem.dpbtrs(bands, np.zeros((1, bands.shape[2], 3)))
        with pytest.raises(ValueError, match="writeable float64"):
            fem.dpbtrf(bands.astype(np.float32))
        bands.flags.writeable = False
        with pytest.raises(ValueError, match="writeable float64"):
            fem.dpbtrf(bands)
        with pytest.raises(ValueError, match="does not match"):
            fem.dpbtrs(factor4.schur, np.zeros((2, factor4.schur.shape[2], 1)))

    def test_threads_solving_at_once_match_serial_bits(self):
        # the stacks share one size, hence one coupling pattern per thread;
        # a thread reading another's couplings would change its bits
        mesh = fem.StructuredMesh(2.0 ** -3)
        rng = np.random.default_rng(19)
        cases = []
        for _ in range(4):
            factor = fem.factor(mesh, rng.uniform(-1, 1, size=(3, 4)))
            rhs = rng.standard_normal((3, mesh.interior.size, 2))
            cases.append((factor, rhs, fem.band_solve(factor, rhs)))
        wrong = []

        def solve_many(factor, rhs, expected):
            for _ in range(500):
                if not np.array_equal(fem.band_solve(factor, rhs), expected):
                    wrong.append(1)

        threads = [threading.Thread(target=solve_many, args=case)
                   for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_adjoint_identity(self, mesh4):
        # <u, p>_W == <y(u2), y - y_d>_W since p = K^{-1} W (y - y_d)
        rng = np.random.default_rng(6)
        factor = fem.factor(mesh4, rng.uniform(-1, 1, size=4))
        w = mesh4.lumped[mesh4.interior]
        u = rng.standard_normal(9)
        y = fem.solve_state(factor, rng.standard_normal(9))
        y_d = rng.standard_normal(9)
        p = fem.solve_adjoint(factor, y, y_d)[0]
        lhs = wdot(u, p, w)
        rhs = wdot(fem.solve_state(factor, u)[0], y[0] - y_d, w)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_adjoint_shape_mismatch(self, factor4):
        for y in (np.zeros((1, 9)), np.zeros((1, 3, 9))):
            with pytest.raises(ValueError, match="different meshes"):
                fem.solve_adjoint(factor4, y, np.zeros(8))

    def test_k_controls_solve_as_columns(self, mesh4):
        # k controls give (m, k, n_interior) states and adjoints in
        # C-contiguous rows, each column bit for bit its control's own solve
        rng = np.random.default_rng(7)
        factor = fem.factor(mesh4, rng.uniform(-1, 1, size=(2, 4)))
        us = rng.standard_normal((3, 9))
        us[1] = 0.0
        y_d = rng.standard_normal(9)
        ys = fem.solve_state(factor, us)
        ps = fem.solve_adjoint(factor, ys, y_d)
        assert ys.shape == ps.shape == (2, 3, 9)
        assert ys.flags.c_contiguous and ps.flags.c_contiguous
        for j, u in enumerate(us):
            y = fem.solve_state(factor, u)
            assert y.shape == (2, 9)
            assert ys[:, j].tobytes() == y.tobytes()
            assert ps[:, j].tobytes() == fem.solve_adjoint(factor, y,
                                                           y_d).tobytes()
        assert not ys[:, 1].any()


# Factor and solve one elliptic sample in a fresh process; print a digest of
# the factor's and the solution's bits, then whether scipy.linalg was imported.
FACTOR_AND_SOLVE = """
import hashlib, sys
import numpy as np
import sadmm
from sadmm import fem
mesh = fem.StructuredMesh(2.0 ** -4)
factor = fem.factor(mesh, np.array([0.3, -0.5, 0.7, -0.1]))
x = fem.band_solve(factor, np.ones((1, mesh.interior.size, 2)))
assert sys.modules["scipy.linalg.cython_lapack"] is fem.cython_lapack
print(hashlib.sha256(factor.schur.tobytes() + x.tobytes()).hexdigest())
print("scipy.linalg" in sys.modules)
"""


def run_fresh(code: str, **variables) -> list:
    """The output lines of code run by a new interpreter that imports this
    sadmm, with the environment variables given set, or unset for None."""
    env = dict(os.environ)
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(fem.__file__).parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestLapackLoader:
    """fem takes dpbtrf and dpbtrs from scipy.linalg.cython_lapack loaded by
    itself; the scipy.linalg package stays unimported."""

    def test_import_and_solve_leave_scipy_linalg_out(self):
        _, linalg_loaded = run_fresh(FACTOR_AND_SOLVE)
        assert linalg_loaded == "False"

    def test_fallback_import_gives_the_same_bits(self):
        # with no extension file found under scipy's directory, fem imports
        # the module from the scipy.linalg package
        digest, linalg_loaded = run_fresh(FACTOR_AND_SOLVE)
        no_file = "import importlib.machinery\n" \
            "importlib.machinery.EXTENSION_SUFFIXES = []\n"
        fallback, fallback_loaded = run_fresh(no_file + FACTOR_AND_SOLVE)
        assert (linalg_loaded, fallback_loaded) == ("False", "True")
        assert fallback == digest

    def test_scipy_linalg_imports_after_sadmm(self):
        out = run_fresh("""
import numpy as np
from sadmm import fem
import scipy.linalg
from scipy.linalg import cython_lapack
band = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0]])
factor, info = scipy.linalg.lapack.dpbtrf(band, lower=0)
print(cython_lapack is fem.cython_lapack, info,
      np.allclose(scipy.linalg.cholesky_banded(band), factor))
""")
        assert out == ["True", "0", "True"]


# The BLAS and OpenMP thread settings after importing sadmm, and whether
# numpy was imported before it.
BLAS_THREADS = """
import os, sys
numpy_first = "numpy" in sys.modules
import sadmm
print(numpy_first, os.environ.get("OPENBLAS_NUM_THREADS"),
      os.environ.get("OMP_NUM_THREADS"))
"""


class TestBlasPinning:
    """import sadmm pins BLAS to one thread unless a setting exists or numpy
    was imported first."""

    def test_unset_variables_are_pinned_to_one(self):
        assert run_fresh(BLAS_THREADS, OPENBLAS_NUM_THREADS=None,
                         OMP_NUM_THREADS=None) == ["False", "1", "1"]

    def test_a_set_value_is_kept(self):
        assert run_fresh(BLAS_THREADS, OPENBLAS_NUM_THREADS="2",
                         OMP_NUM_THREADS=None) == ["False", "2", "1"]

    def test_numpy_imported_first_keeps_its_blas(self):
        assert run_fresh("import numpy\n" + BLAS_THREADS,
                         OPENBLAS_NUM_THREADS=None,
                         OMP_NUM_THREADS=None) == ["True", "None", "None"]


class TestHelpers:
    def test_interpolate(self, mesh4):
        vals = fem.interpolate(mesh4, lambda x1, x2: x1 + 2.0 * x2)
        np.testing.assert_allclose(
            vals, mesh4.nodes[:, 0] + 2.0 * mesh4.nodes[:, 1])

    def test_l2_error_of_exact_interpolant_is_zero(self, mesh4):
        fn = lambda x1, x2: np.sin(x1) * x2
        a = fem.interpolate(mesh4, fn)
        assert fem.l2_error(a, fn, mesh4, mesh4.lumped) == 0.0

    def test_checkerboard_target(self, mesh4):
        t = fem.checkerboard_target(mesh4)
        assert set(np.unique(t)) == {-1.0, 1.0}
        x1, x2 = mesh4.nodes[:, 0], mesh4.nodes[:, 1]
        inner = (x1 > 0.25) & (x1 < 0.75) & (x2 > 0.25) & (x2 < 0.75)
        assert np.all(t[inner] == -1.0) and np.all(t[~inner] == 1.0)
