"""P1 triangular finite elements on the unit square with a random diffusion field.

The mesh is a structured grid of right triangles, every cell split along the
same diagonal. The stiffness matrix uses one-point (centroid) quadrature for
the variable coefficient; Dirichlet conditions are eliminated to an
interior-only SPD system. In the lexicographic numbering of the interior
nodes that system is banded, so it is assembled straight into LAPACK upper
band storage and solved by a banded Cholesky factorization. State and
adjoint loads use the lumped-mass weights, so the adjoint-based gradient is
the exact gradient of the discrete tracking functional.
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


def band_cholesky(band: np.ndarray) -> np.ndarray:
    """Cholesky factor (LAPACK dpbtrf) of an SPD matrix in upper band storage.

    Raises LinAlgError when the matrix is not positive definite, rather than
    returning a partial factor.
    """
    factor, info = dpbtrf(band, lower=0)
    if info != 0:
        raise LinAlgError(f"banded Cholesky failed (dpbtrf info={info}): the "
                          "matrix is not positive definite")
    return factor


def band_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs given the band_cholesky factor of A (LAPACK dpbtrs)."""
    x, info = dpbtrs(factor, rhs, lower=0)
    if info != 0:
        raise LinAlgError(f"banded Cholesky solve failed (dpbtrs info={info})")
    return x


@dataclass
class AssembledOperators:
    mesh: StructuredMesh
    band: np.ndarray  # interior stiffness in upper band storage, (bw + 1, n)
    mass: sp.csr_matrix  # full consistent mass
    lumped: np.ndarray  # row sums of mass, all nodes
    _factor: np.ndarray | None = field(default=None, repr=False)

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

    def factorized(self) -> np.ndarray:
        """Cached banded Cholesky factor of the interior stiffness."""
        if self._factor is None:
            self._factor = band_cholesky(self.band)
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
