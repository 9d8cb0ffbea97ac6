"""P1 triangular finite elements on the unit square with a random diffusion field.

The mesh is a structured grid of right triangles, every cell split along the
same diagonal. The stiffness matrix uses one-point (centroid) quadrature for
the variable coefficient; Dirichlet conditions are eliminated to an
interior-only SPD system. In the lexicographic numbering of the interior
nodes that system is banded, so it is assembled straight into LAPACK upper
band storage. On this mesh the stiffness is exactly a 5-point stencil (the
coupling across each cell's diagonal is 0.0), so the interior nodes split
into red and black with no coupling inside a colour. The direct solve
eliminates the red nodes, whose block is diagonal, and factors the Schur
complement on the black nodes, a band of half the size and half the
bandwidth, by banded Cholesky.
State and adjoint loads use the lumped-mass weights, so the adjoint-based
gradient is the exact gradient of the discrete tracking functional.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpbtrf, dpbtrs
# Not called: perfbench/child.py wraps fem.splu by name when it traces a run.
from scipy.sparse.linalg import splu  # noqa: F401

from .hilbert import check_weights, wnorm
from .linsolve import CgConfig, cg_solve


@dataclass(frozen=True, eq=False)
class StructuredMesh:
    h: float
    nodes: np.ndarray  # (n, 2)
    triangles: np.ndarray  # (m, 3) node indices, positively oriented
    boundary_mask: np.ndarray  # (n,) bool
    interior: np.ndarray  # indices of interior nodes

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def build_mesh(h: float) -> StructuredMesh:
    """Uniform right-triangle mesh of [0,1]^2 with grid spacing h."""
    n_div = 1.0 / h
    if abs(n_div - round(n_div)) > 1e-12 or round(n_div) < 1:
        raise ValueError(f"1/h must be a positive integer, got h={h}")
    n = int(round(n_div))

    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    def idx(ix, iy):
        return iy * (n + 1) + ix

    tris = []
    for iy in range(n):
        for ix in range(n):
            v00 = idx(ix, iy)
            v10 = idx(ix + 1, iy)
            v01 = idx(ix, iy + 1)
            v11 = idx(ix + 1, iy + 1)
            # both triangles share the same (lower-left to upper-right) diagonal
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    triangles = np.asarray(tris, dtype=np.int64)

    boundary = (
        (nodes[:, 0] == 0.0)
        | (nodes[:, 0] == 1.0)
        | (nodes[:, 1] == 0.0)
        | (nodes[:, 1] == 1.0)
    )
    interior = np.nonzero(~boundary)[0]
    return StructuredMesh(h=h, nodes=nodes, triangles=triangles,
                          boundary_mask=boundary, interior=interior)


def check_sample(xi: np.ndarray) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (4,):
        raise ValueError(f"coefficient sample must have 4 components, got {xi.shape}")
    if np.any(np.abs(xi) > 1.0):
        raise ValueError("coefficient sample components must lie in [-1, 1]")
    return xi


def _log_coefficient_modes(x: np.ndarray) -> np.ndarray:
    """The sample-independent modes of log a(x, xi) = modes(x) @ xi, shape (..., 4)."""
    x = np.asarray(x, dtype=float)
    x1 = x[..., 0]
    x2 = x[..., 1]
    return np.stack([np.cos(1.1 * np.pi * x1), np.cos(1.2 * np.pi * x1),
                     np.sin(1.3 * np.pi * x2), np.sin(1.4 * np.pi * x2)],
                    axis=-1)


def coefficient(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Log-trigonometric diffusion field a(x, xi), strictly positive.

    Accepts x of shape (2,) or (..., 2); vectorized over leading axes.
    """
    return np.exp(_log_coefficient_modes(x) @ check_sample(xi))


class RedBlackOrdering:
    """Red-black split of the interior nodes, computed once per mesh.

    Red nodes have i + j even on the interior grid, black nodes odd; the
    stiffness couples no two nodes of one colour. Within a colour the nodes
    keep their lexicographic order, in which the black Schur complement is
    banded. The index maps locate in band storage the red and black pivots
    and the red-black couplings, the latter in the CSR layout of the
    (n_red, n_black) block.
    """

    def __init__(self, red: np.ndarray, couplings: np.ndarray,
                 band_shape: tuple[int, int]):
        """red: colour of each interior node; couplings: flat indices into
        band storage of the off-diagonal entries that can be nonzero."""
        bw, n = band_shape[0] - 1, band_shape[1]
        self.red = np.nonzero(red)[0]
        self.black = np.nonzero(~red)[0]
        n_red, n_black = self.red.size, self.black.size
        number = np.empty(n, dtype=np.int64)
        number[self.red] = np.arange(n_red)
        number[self.black] = np.arange(n_black)
        self._red_pivots = bw * n + self.red
        self._black_pivots = bw * n + self.black

        # the red-black block in CSR layout: rows red, columns black
        col = couplings % n
        row = col - (bw - couplings // n)
        red_row = red[row]
        r = number[np.where(red_row, row, col)]
        b = number[np.where(red_row, col, row)]
        order = np.lexsort((b, r))
        self._coupling_src = couplings[order]
        self._coupling_row = r[order]
        cols = b[order]
        self._indices = cols.astype(np.int32)
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(r, minlength=n_red))]).astype(np.int32)
        self.shape = (n_red, n_black)

        # S = D_b - E D_r^-1 E^T in upper band storage, formed by one
        # bincount: each red node adds the product of its couplings to two
        # black neighbours b <= b'
        # slot[i, a]: position of red node i's a-th coupling, or -1
        nnz = order.size
        slot = np.full((n_red, int(np.diff(self._indptr).max(initial=0))), -1)
        slot[self._coupling_row,
             np.arange(nnz) - self._indptr[self._coupling_row]] = np.arange(nnz)
        a, c = np.triu_indices(slot.shape[1])
        left, right = slot[:, a].ravel(), slot[:, c].ravel()
        keep = (left >= 0) & (right >= 0)
        left, right = left[keep], right[keep]
        lo, hi = cols[left], cols[right]
        bw_s = int((hi - lo).max(initial=0))
        self.schur_shape = (bw_s + 1, n_black)
        self._schur_pairs = (left, right)
        # column-major positions, so that dpbtrf takes S without a copy
        self._schur_index = (bw_s + 1) * np.concatenate([np.arange(n_black), hi]) \
            + np.concatenate([np.full(n_black, bw_s), bw_s + lo - hi])


@dataclass(eq=False)
class RedBlackFactor:
    """Direct solver of the interior stiffness K after red-black elimination.

    With the red nodes first, K = [[D_r, E^T], [E, D_b]] and D_r, D_b are
    diagonal. The black unknowns solve S x_b = f_b - E D_r^-1 f_r with the
    Schur complement S = D_b - E D_r^-1 E^T, half the size of K and of half
    its bandwidth, held as its banded Cholesky factor; the red unknowns are
    then x_r = D_r^-1 f_r - D_r^-1 E^T x_b.
    """

    ordering: RedBlackOrdering
    red_diag: np.ndarray  # D_r, (n_red,)
    eliminate: sp.csr_array  # D_r^-1 E^T, (n_red, n_black)
    schur: np.ndarray  # dpbtrf factor of S in upper band storage

    def __post_init__(self):
        # E D_r^-1: the same arrays read as CSC, made once because building
        # it costs more than a one-column product
        m = self.eliminate
        self._eliminate_t = sp.csc_array((m.data, m.indices, m.indptr),
                                         shape=m.shape[::-1])

    def solve(self, f_red: np.ndarray,
              f_black: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve K x = f given f split by colour: (n_red,) and (n_black,), or
        one column per right-hand side. Returns x split the same way; each
        column is bit-for-bit the one a single right-hand side gives."""
        t = f_black - self._eliminate_t @ f_red
        x_black = t
        if t.shape[0]:  # LAPACK rejects an empty system
            x_black, info = dpbtrs(self.schur, t, lower=0)
            if info != 0:
                raise LinAlgError(f"banded Cholesky solve failed (dpbtrs info={info})")
        # the transposes divide every column of f_red by the pivots
        x_red = (f_red.T / self.red_diag).T - self.eliminate @ x_black
        return x_red, x_black


def band_cholesky(band: np.ndarray, mesh: StructuredMesh) -> RedBlackFactor:
    """Factor the interior stiffness of mesh, in upper band storage as
    assemble builds it: eliminate the red nodes and factor the black Schur
    complement with LAPACK dpbtrf.

    Raises LinAlgError when the matrix is not positive definite, that is
    when a red pivot is not positive or dpbtrf rejects the Schur complement,
    rather than returning a partial factor.
    """
    rb = _geometry(mesh).red_black
    flat = band.ravel()
    red_diag = flat[rb._red_pivots]
    if not np.all(red_diag > 0.0):
        raise LinAlgError("red-black elimination failed (a red pivot is not "
                          "positive): the matrix is not positive definite")
    coupling = flat[rb._coupling_src]
    scaled = coupling / red_diag[rb._coupling_row]
    left, right = rb._schur_pairs
    weights = np.concatenate([flat[rb._black_pivots],
                              -coupling[left] * scaled[right]])
    schur = np.bincount(rb._schur_index, weights=weights,
                        minlength=rb.schur_shape[0] * rb.schur_shape[1])
    factor, info = dpbtrf(schur.reshape(rb.schur_shape, order="F"), lower=0)
    if info != 0:
        raise LinAlgError(f"banded Cholesky failed (dpbtrf info={info}): the "
                          "matrix is not positive definite")
    eliminate = sp.csr_array((scaled, rb._indices, rb._indptr), shape=rb.shape)
    return RedBlackFactor(ordering=rb, red_diag=red_diag, eliminate=eliminate,
                          schur=factor)


def band_solve(factor: RedBlackFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs given band_cholesky's factor of K; rhs is (n,) or
    (n, k) in the interior numbering, and x has its shape."""
    rb = factor.ordering
    f = np.asarray(rhs, dtype=float)
    x = np.empty_like(f)
    x[rb.red], x[rb.black] = factor.solve(f[rb.red], f[rb.black])
    return x


@dataclass
class AssembledOperators:
    mesh: StructuredMesh
    band: np.ndarray  # interior stiffness in upper band storage, (bw + 1, n)
    mass: sp.csr_matrix  # full consistent mass
    lumped: np.ndarray  # row sums of mass, all nodes
    _factor: RedBlackFactor | None = field(default=None, repr=False)

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """Interior stiffness as CSR, built from the band on first use (CG and
        checks only; the direct solve works on the band)."""
        bw, n = self.band.shape[0] - 1, self.band.shape[1]
        # row k of the band holds superdiagonal bw - k, indexed by column
        upper = sp.dia_matrix((self.band, bw - np.arange(bw + 1)), shape=(n, n))
        full = (upper + sp.triu(upper, k=1).T).tocsr()
        full.eliminate_zeros()
        return full

    def factorized(self) -> RedBlackFactor:
        """Cached red-black factor of the interior stiffness."""
        if self._factor is None:
            self._factor = band_cholesky(self.band, self.mesh)
        return self._factor


class _MeshGeometry:
    """Sample-independent assembly data, computed once per mesh."""

    def __init__(self, mesh: StructuredMesh):
        tri = mesh.triangles
        p0 = mesh.nodes[tri[:, 0]]
        p1 = mesh.nodes[tri[:, 1]]
        p2 = mesh.nodes[tri[:, 2]]

        d1 = p1 - p0
        d2 = p2 - p0
        area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(area <= 0.0):
            raise ValueError("mesh contains non-positively oriented triangles")

        # gradients of the barycentric basis functions, shape (m, 3, 2)
        grads = np.empty((tri.shape[0], 3, 2))
        grads[:, 0, 0] = p1[:, 1] - p2[:, 1]
        grads[:, 0, 1] = p2[:, 0] - p1[:, 0]
        grads[:, 1, 0] = p2[:, 1] - p0[:, 1]
        grads[:, 1, 1] = p0[:, 0] - p2[:, 0]
        grads[:, 2, 0] = p0[:, 1] - p1[:, 1]
        grads[:, 2, 1] = p1[:, 0] - p0[:, 0]
        grads /= (2.0 * area)[:, None, None]

        self.centroid_modes = _log_coefficient_modes((p0 + p1 + p2) / 3.0)
        # geometric stiffness factor area * grad_i . grad_j, shape (m, 3, 3)
        k_geo = np.einsum("tid,tjd->tij", grads, grads) * area[:, None, None]

        rows = np.repeat(tri, 3, axis=1).ravel()
        cols = np.tile(tri, (1, 3)).ravel()
        n = mesh.n_nodes

        # consistent mass area/12 * (1 + delta_ij); sample-independent
        m_base = (np.ones((3, 3)) + np.eye(3)) / 12.0
        m_loc = area[:, None, None] * m_base[None, :, :]
        self.mass = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        self.lumped = check_weights(np.asarray(self.mass.sum(axis=1)).ravel(),
                                    domain_area=1.0)

        # scatter of the eliminated (interior-only) stiffness into LAPACK upper
        # band storage: entry (r, c), r <= c, goes to band[bw + r - c, c]. The
        # half-bandwidth bw is the widest coupling in the interior numbering.
        int_number = np.full(n, -1, dtype=np.int64)
        int_number[mesh.interior] = np.arange(mesh.interior.size)
        r = int_number[rows]
        c = int_number[cols]
        sel = np.nonzero((r >= 0) & (c >= 0) & (r <= c))[0]
        r, c = r[sel], c[sel]
        n_int = mesh.interior.size
        bw = int((c - r).max(initial=0))
        self.band_shape = (bw + 1, n_int)
        self.band_index = (bw + r - c) * n_int + c
        self.band_k_geo = k_geo.ravel()[sel]
        self.band_triangle = sel // 9

        # red-black colouring of the interior grid: the direct solve needs
        # every nonzero coupling to join a red and a black node
        ij = np.rint(mesh.nodes[mesh.interior] / mesh.h).astype(np.int64)
        red = ij.sum(axis=1) % 2 == 0
        coupled = (r != c) & (self.band_k_geo != 0.0)
        if np.any(red[r[coupled]] == red[c[coupled]]):
            raise ValueError("the stiffness couples two nodes of one colour, "
                             "so red-black elimination does not apply")
        self.red_black = RedBlackOrdering(
            red, np.unique(self.band_index[coupled]), self.band_shape)


_geometry_cache: "weakref.WeakKeyDictionary[StructuredMesh, _MeshGeometry]" = \
    weakref.WeakKeyDictionary()


def _geometry(mesh: StructuredMesh) -> _MeshGeometry:
    geo = _geometry_cache.get(mesh)
    if geo is None:
        geo = _MeshGeometry(mesh)
        _geometry_cache[mesh] = geo
    return geo


def assemble(mesh: StructuredMesh, xi: np.ndarray) -> AssembledOperators:
    """Stiffness (coefficient at centroids, Dirichlet rows/cols eliminated) in
    upper band storage, consistent mass, and lumped weights."""
    geo = _geometry(mesh)
    # the coefficient at the centroids, from modes computed once per mesh
    a_c = np.exp(geo.centroid_modes @ check_sample(xi))
    band = np.bincount(geo.band_index,
                       weights=geo.band_k_geo * a_c[geo.band_triangle],
                       minlength=geo.band_shape[0] * geo.band_shape[1])
    return AssembledOperators(mesh=mesh, band=band.reshape(geo.band_shape),
                              mass=geo.mass, lumped=geo.lumped)


def _solve_interior(ops: AssembledOperators, rhs_int: np.ndarray,
                    cfg: CgConfig | None, method: str) -> np.ndarray:
    if method == "lu":
        return band_solve(ops.factorized(), rhs_int)
    if method == "cg":
        return cg_solve(ops.stiffness, rhs_int, cfg or CgConfig()).x
    raise ValueError(f"unknown solve method {method!r}")


def solve_state(ops: AssembledOperators, u: np.ndarray,
                cfg: CgConfig | None = None, method: str = "lu") -> np.ndarray:
    """Solve the discrete state equation K y = W u with zero boundary values.

    The load uses the lumped weights W so that the adjoint gradient below is
    exact for the discrete objective. method "lu" is the direct solve (a
    banded Cholesky factorization, cached on ops); "cg" runs Jacobi-
    preconditioned conjugate gradients with cfg.
    """
    u = np.asarray(u, dtype=float)
    mesh = ops.mesh
    rhs = (ops.lumped * u)[mesh.interior]
    y = np.zeros(mesh.n_nodes)
    y[mesh.interior] = _solve_interior(ops, rhs, cfg, method)
    return y


def solve_adjoint(ops: AssembledOperators, y: np.ndarray, y_d: np.ndarray,
                  cfg: CgConfig | None = None, method: str = "lu") -> np.ndarray:
    """Solve the adjoint equation K p = W (y - y_d) with zero boundary values
    (method as in solve_state)."""
    y = np.asarray(y, dtype=float)
    y_d = np.asarray(y_d, dtype=float)
    if y.shape != y_d.shape:
        raise ValueError("state and target live on different meshes")
    mesh = ops.mesh
    rhs = (ops.lumped * (y - y_d))[mesh.interior]
    p = np.zeros(mesh.n_nodes)
    p[mesh.interior] = _solve_interior(ops, rhs, cfg, method)
    return p


def interpolate(mesh: StructuredMesh, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Nodal interpolant of fn(x1, x2)."""
    return np.asarray(fn(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)


def l2_error(a: np.ndarray, exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
             mesh: StructuredMesh, w: np.ndarray) -> float:
    """Lumped L2 distance between a nodal vector and the interpolant of exact."""
    return wnorm(np.asarray(a, dtype=float) - interpolate(mesh, exact), w)


def checkerboard_target(mesh: StructuredMesh) -> np.ndarray:
    """Desired state: -1 strictly inside the open square (0.25, 0.75)^2, +1 elsewhere.

    Nodes lying on the inner square's boundary lines take the value +1.
    """
    x1 = mesh.nodes[:, 0]
    x2 = mesh.nodes[:, 1]
    inside = (x1 > 0.25) & (x1 < 0.75) & (x2 > 0.25) & (x2 < 0.75)
    return np.where(inside, -1.0, 1.0)
