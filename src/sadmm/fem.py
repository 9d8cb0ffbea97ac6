"""P1 triangular finite elements on the unit square with a random diffusion field.

The mesh is a structured grid of right triangles, every cell split along the
same diagonal. The stiffness matrix uses one-point (centroid) quadrature for
the variable coefficient; Dirichlet conditions are eliminated to an
interior-only SPD system. On this mesh the stiffness is exactly a 5-point
stencil (the coupling across each cell's diagonal is 0.0), so the interior
nodes split into red and black with no coupling inside a colour. The direct
solve eliminates the red nodes, whose block is diagonal, and factors the
Schur complement on the black nodes, a band of half the size and half the
bandwidth of the stiffness, by banded Cholesky.
Assembly, factorization and solves work on one coefficient sample or on a
stack of samples: a stack's coefficient fields, stencil values, red pivots
and Schur bands are formed by array operations over the whole stack, and
only LAPACK's dpbtrf and dpbtrs run once per sample.
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


def grid_divisions(h: float) -> int:
    """The number of grid cells per side, 1/h, which must be a positive
    integer."""
    if not h > 0.0:
        raise ValueError(f"1/h must be a positive integer, got h={h}")
    n_div = 1.0 / h
    if abs(n_div - round(n_div)) > 1e-12 or round(n_div) < 1:
        raise ValueError(f"1/h must be a positive integer, got h={h}")
    return int(round(n_div))


def build_mesh(h: float) -> StructuredMesh:
    """Uniform right-triangle mesh of [0,1]^2 with grid spacing h."""
    n = grid_divisions(h)

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
    """One coefficient sample, shape (4,), or a stack of them, (m, 4), with
    every component in [-1, 1]."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim not in (1, 2) or xi.shape[-1] != 4:
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

    Accepts x of shape (2,) or (..., 2); vectorized over leading axes. A
    stack of samples xi, (m, 4), adds a trailing axis of length m.
    """
    return np.exp(_log_coefficient_modes(x) @ check_sample(xi).T)


class RedBlackOrdering:
    """Red-black split of the interior nodes, computed once per mesh.

    Red nodes have i + j even on the interior grid, black nodes odd; the
    stiffness couples no two nodes of one colour. Within a colour the nodes
    keep their lexicographic order, in which the black Schur complement is
    banded. The direct solve reads the stiffness only at its stencil: the
    red pivots, the black pivots and the red-black couplings, the latter in
    the CSR layout of the (n_red, n_black) block; stencil_positions locates
    them in band storage.
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

        # the red-black block in CSR layout: rows red, columns black
        col = couplings % n
        row = col - (bw - couplings // n)
        red_row = red[row]
        r = number[np.where(red_row, row, col)]
        b = number[np.where(red_row, col, row)]
        order = np.lexsort((b, r))
        self._coupling_row = r[order]
        cols = b[order]
        self._indices = cols.astype(np.int32)
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(r, minlength=n_red))]).astype(np.int32)
        self.shape = (n_red, n_black)
        self.stencil_positions = np.concatenate(
            [bw * n + self.red, bw * n + self.black, couplings[order]])
        # block-diagonal coupling patterns by stack size (see _coupling)
        self._patterns = {}

        # S = D_b - E D_r^-1 E^T in upper band storage. Its terms are the
        # black pivots and, for each red node, the product of its couplings
        # to two black neighbours b <= b'.
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
        # column-major position of each term, so that dpbtrf takes S without
        # a copy
        index = (bw_s + 1) * np.concatenate([np.arange(n_black), hi]) \
            + np.concatenate([np.full(n_black, bw_s), bw_s + lo - hi])
        # each entry of S sums its terms in term order. The entries are
        # ordered by their number of terms, most first, so the k-th terms of
        # all entries that have one, _schur_terms[k], belong to a prefix.
        entries, entry = np.unique(index, return_inverse=True)
        counts = np.bincount(entry, minlength=entries.size)
        most_first = np.argsort(-counts, kind="stable")
        self._schur_entries = entries[most_first]
        by_entry = np.argsort(np.argsort(most_first)[entry], kind="stable")
        counts = counts[most_first]
        rank = np.arange(index.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self._schur_terms = [by_entry[rank == k] for k in range(counts.max(initial=0))]

    def _coupling(self, scaled: np.ndarray) -> tuple[sp.csr_array, sp.csc_array]:
        """D_r^-1 E^T as CSR and E D_r^-1 (the same arrays read as CSC) for
        one sample's scaled couplings (nnz,), or block-diagonal over the
        samples of a stack (m, nnz).

        The pattern of each stack size is built once; its data is the given
        values, set before every product, so no factor builds a scipy array.
        """
        m = scaled.shape[0] if scaled.ndim == 2 else 1
        pattern = self._patterns.get(m)
        if pattern is None:
            (n_red, n_black), nnz = self.shape, self._indices.size
            blocks = np.arange(m)[:, None]
            indices = (self._indices + n_black * blocks).astype(np.int32).ravel()
            indptr = np.concatenate(
                [[0], (self._indptr[1:] + nnz * blocks).ravel()]).astype(np.int32)
            data = np.zeros(m * nnz)
            pattern = (sp.csr_array((data, indices, indptr),
                                    shape=(m * n_red, m * n_black)),
                       sp.csc_array((data, indices, indptr),
                                    shape=(m * n_black, m * n_red)))
            self._patterns[m] = pattern
        pattern[0].data = pattern[1].data = scaled.reshape(-1)
        return pattern


@dataclass(eq=False)
class RedBlackFactor:
    """Direct solver of the interior stiffness K after red-black elimination,
    for one coefficient sample or a stack of m.

    With the red nodes first, K = [[D_r, E^T], [E, D_b]] and D_r, D_b are
    diagonal. The black unknowns solve S x_b = f_b - E D_r^-1 f_r with the
    Schur complement S = D_b - E D_r^-1 E^T, half the size of K and of half
    its bandwidth, held as its banded Cholesky factor; the red unknowns are
    then x_r = D_r^-1 f_r - D_r^-1 E^T x_b. A stack holds every array with a
    leading sample axis; indexing it gives one sample's factor or a sub-stack
    as views.
    """

    ordering: RedBlackOrdering
    red_diag: np.ndarray  # D_r, (n_red,)
    scaled: np.ndarray  # D_r^-1 E^T in the ordering's CSR layout, (nnz,)
    schur: np.ndarray  # dpbtrf factor of S in upper band storage, F-ordered

    @classmethod
    def empty(cls, mesh: StructuredMesh, m: int) -> "RedBlackFactor":
        """Uninitialized storage for the factors of a stack of m samples."""
        rb = _geometry(mesh).red_black
        (n_red, n_black), (rows, _) = rb.shape, rb.schur_shape
        # each sample's band is a C-ordered (n_black, rows) block, read
        # transposed as the F-ordered (rows, n_black) array LAPACK takes
        return cls(ordering=rb, red_diag=np.empty((m, n_red)),
                   scaled=np.empty((m, rb._indices.size)),
                   schur=np.empty((m, n_black, rows)).transpose(0, 2, 1))

    def __len__(self) -> int:
        return self.red_diag.shape[0]

    def __getitem__(self, i) -> "RedBlackFactor":
        return RedBlackFactor(self.ordering, self.red_diag[i], self.scaled[i],
                              self.schur[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def solve(self, f_red: np.ndarray,
              f_black: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve K x = f given f split by colour, and return x split the same
        way. One sample's factor takes (n_red,) and (n_black,), or one column
        per right-hand side; each column is bit-for-bit the one a single
        right-hand side gives. A stack of m takes one right-hand side per
        sample, (m, n_red) and (m, n_black), and solves its eliminations as
        one block-diagonal product."""
        eliminate, eliminate_t = self.ordering._coupling(self.scaled)
        empty = not self.ordering.shape[1]  # LAPACK rejects an empty system
        if self.schur.ndim == 3:
            t = f_black - (eliminate_t @ f_red.reshape(-1)).reshape(f_black.shape)
            for i in range(0 if empty else len(self)):
                t[i], info = dpbtrs(self.schur[i], t[i], lower=0, overwrite_b=1)
                _check_info(info, "dpbtrs", i)
            x_red = f_red / self.red_diag \
                - (eliminate @ t.reshape(-1)).reshape(f_red.shape)
            return x_red, t
        t = f_black - eliminate_t @ f_red
        x_black = t
        if not empty:
            x_black, info = dpbtrs(self.schur, t, lower=0)
            _check_info(info, "dpbtrs")
        # the transposes divide every column of f_red by the pivots
        x_red = (f_red.T / self.red_diag).T - eliminate @ x_black
        return x_red, x_black


def _check_info(info: int, routine: str, sample: int | None = None) -> None:
    if info == 0:
        return
    where = "" if sample is None else f" for sample {sample} of the stack"
    if routine == "dpbtrf":
        raise LinAlgError(f"banded Cholesky failed (dpbtrf info={info}){where}: "
                          "the matrix is not positive definite")
    raise LinAlgError(f"banded Cholesky solve failed ({routine} info={info}){where}")


def red_black_cholesky(stencil: np.ndarray, mesh: StructuredMesh,
                       out: RedBlackFactor | None = None) -> RedBlackFactor:
    """Factor the interior stiffness of mesh given its stencil values (see
    RedBlackOrdering), (n_stencil,) for one sample or (m, n_stencil) for a
    stack: eliminate the red nodes and factor each black Schur complement
    with LAPACK dpbtrf.

    Every step but dpbtrf runs once over the whole stack. A stack's factors
    go into out when it is given (RedBlackFactor.empty storage of m samples,
    overwritten), else into new storage. Raises LinAlgError when a matrix is
    not positive definite, that is when a red pivot is not positive or
    dpbtrf rejects a Schur complement, rather than returning a partial
    factor.
    """
    rb = _geometry(mesh).red_black
    stencil = np.asarray(stencil, dtype=float)
    # one column per sample, the layout the assembly product gives: every
    # gather below then moves whole rows
    columns = np.atleast_2d(stencil).T
    m = columns.shape[1]
    (n_red, n_black), n_pivots = rb.shape, sum(rb.shape)
    red_diag = columns[:n_red]
    if not np.all(red_diag > 0.0):
        raise LinAlgError("red-black elimination failed (a red pivot is not "
                          "positive): the matrix is not positive definite")
    factor = RedBlackFactor.empty(mesh, m) if out is None else out
    if len(factor) != m:
        raise ValueError(f"out holds {len(factor)} factors, not {m}")
    coupling = columns[n_pivots:]
    scaled = coupling / np.take(red_diag, rb._coupling_row, axis=0)
    np.copyto(factor.red_diag, red_diag.T)
    np.copyto(factor.scaled, scaled.T)

    # the terms of S: the black pivots, then the negated products (np.take
    # into contiguous rows with mode "clip" needs no buffer; the indices are
    # in range by construction)
    left, right = rb._schur_pairs
    terms = np.empty((n_black + left.size, m))
    terms[:n_black] = columns[n_red:n_pivots]
    products = terms[n_black:]
    np.take(coupling, left, axis=0, out=products, mode="clip")
    products *= np.take(scaled, right, axis=0)
    np.negative(products, out=products)
    entries = np.zeros((rb._schur_entries.size, m))
    for k_th in rb._schur_terms:
        entries[:k_th.size] += np.take(terms, k_th, axis=0)
    # dpbtrf fills in outside S's pattern, so storage is cleared first
    bands = factor.schur.transpose(0, 2, 1).reshape(m, -1)
    bands[...] = 0.0
    bands[:, rb._schur_entries] = entries.T
    for i in range(m if n_black else 0):
        _, info = dpbtrf(factor.schur[i], lower=0, overwrite_ab=1)
        _check_info(info, "dpbtrf", i if stencil.ndim == 2 else None)
    return factor if stencil.ndim == 2 else factor[0]


def band_solve(factor: RedBlackFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs given red_black_cholesky's factor of K, in the
    interior numbering. One sample's factor takes rhs (n,) or (n, k); a stack
    of m takes one right-hand side per sample, (m, n). x has rhs's shape."""
    rb = factor.ordering
    f = np.asarray(rhs, dtype=float)
    x = np.empty(f.shape)
    if factor.schur.ndim == 3:
        x[:, rb.red], x[:, rb.black] = factor.solve(
            np.take(f, rb.red, axis=1), np.take(f, rb.black, axis=1))
    else:
        x[rb.red], x[rb.black] = factor.solve(f[rb.red], f[rb.black])
    return x


@dataclass(eq=False)
class AssembledOperators:
    """Stiffness, mass and lumped weights of one coefficient sample, or of a
    stack of samples.

    The direct solve reads the interior stiffness only at its stencil (see
    RedBlackOrdering), held in `stencil` as (n_stencil,) for one sample or
    (m, n_stencil) for a stack. One sample also carries the stiffness in
    LAPACK upper band storage, `band` (bw + 1, n), for CG and for checks;
    operators made from a band alone read their stencil from it. A stack has
    no band.
    """

    mesh: StructuredMesh
    band: np.ndarray | None
    mass: sp.csr_matrix  # full consistent mass
    lumped: np.ndarray  # row sums of mass, all nodes
    stencil: np.ndarray | None = None
    _factor: RedBlackFactor | None = field(default=None, repr=False)

    @property
    def stack_shape(self) -> tuple:
        """() for one sample, (m,) for a stack of m."""
        return () if self.stencil is None else self.stencil.shape[:-1]

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """Interior stiffness as CSR, built from the band on first use (CG and
        checks only; the direct solve works on the stencil)."""
        if self.band is None:
            raise ValueError("a stack of samples has no band storage; "
                             "assemble one sample at a time")
        bw, n = self.band.shape[0] - 1, self.band.shape[1]
        # row k of the band holds superdiagonal bw - k, indexed by column
        upper = sp.dia_matrix((self.band, bw - np.arange(bw + 1)), shape=(n, n))
        full = (upper + sp.triu(upper, k=1).T).tocsr()
        full.eliminate_zeros()
        return full

    def factorized(self, out: RedBlackFactor | None = None) -> RedBlackFactor:
        """Cached red-black factor of the interior stiffness; the first call
        on a stack may pass storage for it (see red_black_cholesky)."""
        if self._factor is None:
            stencil = self.stencil
            if stencil is None:
                positions = _geometry(self.mesh).red_black.stencil_positions
                stencil = self.band.reshape(-1)[positions]
            self._factor = red_black_cholesky(stencil, self.mesh, out=out)
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

        # the eliminated (interior-only) stiffness in LAPACK upper band
        # storage: entry (r, c), r <= c, goes to band[bw + r - c, c]. The
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
        band_index = (bw + r - c) * n_int + c
        band_k_geo = k_geo.ravel()[sel]

        # red-black colouring of the interior grid: the direct solve needs
        # every nonzero coupling to join a red and a black node
        ij = np.rint(mesh.nodes[mesh.interior] / mesh.h).astype(np.int64)
        red = ij.sum(axis=1) % 2 == 0
        coupled = (r != c) & (band_k_geo != 0.0)
        if np.any(red[r[coupled]] == red[c[coupled]]):
            raise ValueError("the stiffness couples two nodes of one colour, "
                             "so red-black elimination does not apply")
        self.red_black = RedBlackOrdering(
            red, np.unique(band_index[coupled]), self.band_shape)

        # stencil value j sums k_geo * a(centroid) over the triangles that
        # share the entry, in ascending triangle order; entries off the
        # stencil (the cells' diagonals) have k_geo == 0.0 and are dropped
        stencil_number = np.full(bw * n_int + n_int, -1)
        positions = self.red_black.stencil_positions
        stencil_number[positions] = np.arange(positions.size)
        j = stencil_number[band_index]
        on = j >= 0
        self.stencil_matrix = sp.csr_array(
            (band_k_geo[on], (j[on], sel[on] // 9)),
            shape=(positions.size, tri.shape[0]))
        self.stencil_matrix.sort_indices()


_geometry_cache: "weakref.WeakKeyDictionary[StructuredMesh, _MeshGeometry]" = \
    weakref.WeakKeyDictionary()


def _geometry(mesh: StructuredMesh) -> _MeshGeometry:
    geo = _geometry_cache.get(mesh)
    if geo is None:
        geo = _MeshGeometry(mesh)
        _geometry_cache[mesh] = geo
    return geo


def assemble(mesh: StructuredMesh, xi: np.ndarray) -> AssembledOperators:
    """Stiffness (coefficient at centroids, Dirichlet rows/cols eliminated),
    consistent mass and lumped weights, for one sample xi (4,) or a stack
    (m, 4). The stiffness is given at its stencil, and for one sample also
    in upper band storage."""
    geo = _geometry(mesh)
    xi = check_sample(xi)
    # the coefficient fields at the centroids, one per sample, from modes
    # computed once per mesh. One batched matrix-vector product keeps each
    # field independent of the stack it is in, which a matrix-matrix
    # product, rounding differently, would not.
    fields = np.matmul(geo.centroid_modes, np.atleast_2d(xi)[:, :, None])
    np.exp(fields, out=fields)
    stencil = (geo.stencil_matrix @ fields[:, :, 0].T).T
    band = None
    if xi.ndim == 1:
        stencil = stencil[0]
        band = np.zeros(geo.band_shape)
        band.reshape(-1)[geo.red_black.stencil_positions] = stencil
    return AssembledOperators(mesh=mesh, band=band, mass=geo.mass,
                              lumped=geo.lumped, stencil=stencil)


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
    red-black banded Cholesky factorization, cached on ops); "cg" runs
    Jacobi-preconditioned conjugate gradients with cfg, one sample only.
    Operators of a stack of m samples give one state per sample with the
    same control, shape (m, n_nodes).
    """
    u = np.asarray(u, dtype=float)
    mesh = ops.mesh
    rhs = (ops.lumped * u)[mesh.interior]
    lead = ops.stack_shape
    y = np.zeros(lead + (mesh.n_nodes,))
    y[..., mesh.interior] = _solve_interior(
        ops, np.broadcast_to(rhs, lead + rhs.shape), cfg, method)
    return y


def solve_adjoint(ops: AssembledOperators, y: np.ndarray, y_d: np.ndarray,
                  cfg: CgConfig | None = None, method: str = "lu") -> np.ndarray:
    """Solve the adjoint equation K p = W (y - y_d) with zero boundary values
    (method as in solve_state; for a stack, y holds one state per sample)."""
    y = np.asarray(y, dtype=float)
    y_d = np.asarray(y_d, dtype=float)
    if y.shape[-1:] != y_d.shape:
        raise ValueError("state and target live on different meshes")
    mesh = ops.mesh
    rhs = (ops.lumped * (y - y_d))[..., mesh.interior]
    p = np.zeros(y.shape)
    p[..., mesh.interior] = _solve_interior(ops, rhs, cfg, method)
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
