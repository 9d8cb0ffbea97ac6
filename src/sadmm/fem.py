"""P1 triangular finite elements on the unit square with a random diffusion field.

The mesh is the structured grid of right triangles of spacing h, every cell
split along the same diagonal, and StructuredMesh(h) can be no other mesh:
its constructor builds, once and from the grid's indices in closed form, the
stiffness's weights per triangle, the lumped-mass weights and the node
colouring that fem reads. The stiffness matrix uses one-point
(centroid) quadrature for the variable coefficient; Dirichlet conditions are
eliminated to an interior-only SPD system. On this mesh the stiffness is
exactly a 5-point stencil (the coupling across each cell's diagonal is 0.0),
so the interior nodes split into red and black with no coupling inside a
colour. The direct solve eliminates the red nodes, whose block is diagonal,
and factors the Schur complement on the black nodes, a band of half the
size and half the bandwidth of the stiffness, by banded Cholesky.
Assembly, factorization and solves work on stacks of coefficient samples,
one sample being a stack of one: a stack's coefficient fields, stencil
values, red pivots and Schur bands are formed by array operations over the
whole stack, and only LAPACK's dpbtrf and dpbtrs run once per sample. They
are called through ctypes, which releases the GIL, so threads factor and
solve different stacks at once. dpbtrf factors each Schur complement in
lower band storage, in a scratch band of one sample per thread, and the
factor is copied to upper band storage for dpbtrs: with the half-bandwidth
below 32, LAPACK's unblocked upper branch made two threads factoring at
once slower than one, while the lower branch runs them at once and gives
the same factor bit for bit, and dpbtrs solves faster from upper storage
(BENCH_lower_band.json).
From scipy, fem loads scipy.sparse and the one extension module that holds
LAPACK's routines, scipy.linalg.cython_lapack, by itself: the scipy.linalg
package, whose import would run all of scipy/linalg/__init__.py for two
routines, is not imported (import sadmm peaks at 53 rather than 59 MiB). The
module is registered in sys.modules under its own name, so a later import
of scipy.linalg, or of cython_lapack from it, finds this same module; only
the package attribute scipy.linalg.cython_lapack is not set.
State and adjoint loads use the lumped-mass weights, so the adjoint-based
gradient is the exact gradient of the discrete tracking functional.
"""

from __future__ import annotations

import ctypes
import importlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError

from .hilbert import check_weights, wnorm


def _load_cython_lapack():
    """scipy.linalg.cython_lapack, the one that sys.modules holds, or else
    its extension file loaded under that name without the scipy.linalg
    package. An install with no such file under scipy's directory imports
    it from the package."""
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    for directory in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "cython_lapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path,
                                                           loader=loader))
                sys.modules[name] = module
                loader.exec_module(module)
                return module
    return importlib.import_module(name)


cython_lapack = _load_cython_lapack()

# Placeholders, never called: perfbench/child.py wraps these two names when it
# traces a run, until its tracer is re-keyed to red_black_cholesky (ROADMAP
# item 1).
splu = cg_solve = None


class StructuredMesh:
    """The uniform right-triangle grid of [0,1]^2 with spacing h, and every
    sample-independent array that assembly and the solves read, built once
    from the grid's indices.

    Nodes are numbered row by row from (0, 0), and every cell is split along
    its lower-left to upper-right diagonal. On this grid every interior node
    (i, j) lies in six triangles. Its pivot sums a(centroid) over them, in
    ascending order, with weights 1/2, 1/2, 1, 1, 1/2, 1/2 (1 where the node
    is the right angle); each grid edge between two interior nodes couples
    them with -1/2 on each of its two triangles, and a cell's diagonal
    couples nothing. Red interior nodes have i + j even (see
    RedBlackOrdering).
    """

    def __init__(self, h: float):
        n = grid_divisions(h)
        self.h = h
        xs = np.linspace(0.0, 1.0, n + 1)
        gx, gy = np.meshgrid(xs, xs, indexing="xy")
        self.nodes = np.column_stack([gx.ravel(), gy.ravel()])  # (n_nodes, 2)
        # the lower-left node of each cell, cells row by row; both triangles
        # of a cell share its lower-left to upper-right diagonal
        v00 = (np.arange(n, dtype=np.int64)[:, None] * (n + 1)
               + np.arange(n)).ravel()
        v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
        # (2 n^2, 3) node indices, positively oriented
        self.triangles = np.column_stack(
            [v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        self.boundary_mask = (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0)
        self.interior = np.nonzero(~self.boundary_mask)[0]

        p = self.nodes[self.triangles]
        self.centroid_modes = _log_coefficient_modes(
            (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0)
        # the lumped-mass weights W of all nodes, the row sums of the
        # consistent mass: each node's share of its triangles' area/12 *
        # (1 + delta_ij) is area/3 = h^2/6 per triangle
        self.lumped = check_weights(
            np.bincount(self.triangles.ravel(), minlength=self.n_nodes)
            * (h * h / 6.0), domain_area=1.0)

        # the interior node k is grid node (i + 1, j + 1), (j, i) = divmod(k,
        # side); red nodes have i + j even
        side = n - 1
        j, i = np.divmod(np.arange(side * side), side)
        red = (i + j) % 2 == 0
        number = np.where(red, np.cumsum(red), np.cumsum(~red)) - 1
        # a node's lowest triangle is the lower one of cell (i, j), the cell
        # it is the upper-right corner of: triangles 2c and 2c + 1 are cell
        # c's lower and upper
        first = 2 * (j * n + i)
        pivots = np.concatenate([first[red], first[~red]])[:, None] \
            + [0, 1, 3, 2 * n, 2 * n + 2, 2 * n + 3]
        # each red node's edges to its south, west, east and north
        # neighbours, in ascending black number, with their two triangles
        r = np.nonzero(red)[0]
        rows, edge = np.nonzero(np.column_stack(
            [j[r] > 0, i[r] > 0, i[r] < side - 1, j[r] < side - 1]))
        cols = number[r[rows] + np.array([-side, -1, 1, side])[edge]]
        edges = first[r[rows], None] + np.array(
            [[0, 3], [1, 2 * n], [3, 2 * n + 2], [2 * n, 2 * n + 3]])[edge]
        self.red_black = RedBlackOrdering(red, rows, cols)
        # the stiffness at its stencil is stencil_matrix @ a(centroids)
        self.stencil_matrix = sp.csr_array(
            (np.concatenate([np.tile([0.5, 0.5, 1.0, 1.0, 0.5, 0.5], red.size),
                             np.full(edges.size, -0.5)]),
             np.concatenate([pivots.ravel(), edges.ravel()]),
             np.concatenate([np.arange(0, 6 * red.size, 6),
                             6 * red.size + np.arange(0, edges.size + 1, 2)])),
            shape=(red.size + rows.size, self.triangles.shape[0]))

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


def check_sample(xi: np.ndarray) -> np.ndarray:
    """One coefficient sample, shape (4,), or a stack of them, (m, 4), with
    every component in [-1, 1] (NaN is not)."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim not in (1, 2) or xi.shape[-1] != 4:
        raise ValueError(f"coefficient sample must have 4 components, got {xi.shape}")
    if not np.all(np.abs(xi) <= 1.0):
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
    the CSR layout of the (n_red, n_black) block.
    """

    def __init__(self, red: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        """red: colour of each interior node; rows, cols: the red and the
        black number (the place within its colour) of each coupled pair,
        sorted by row, then column."""
        self.red = np.nonzero(red)[0]
        self.black = np.nonzero(~red)[0]
        n_red, n_black = self.red.size, self.black.size

        # the red-black block in CSR layout: rows red, columns black
        self._coupling_row = rows
        self._indices = cols.astype(np.int32)
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=n_red))]).astype(np.int32)
        self.shape = (n_red, n_black)
        # each thread's block-diagonal coupling patterns by stack size (see
        # _coupling) and its scratch band (see _schur_scratch)
        self._local = threading.local()

        # S = D_b - E D_r^-1 E^T in lower band storage. Its terms are the
        # black pivots and, for each red node, the product of its couplings
        # to two black neighbours b <= b'.
        # slot[i, a]: position of red node i's a-th coupling, or -1
        nnz = rows.size
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
        # column-major position of each term, entry (b', b) of S at row b' - b
        # of column b, so that dpbtrf takes S without a copy
        index = (bw_s + 1) * np.concatenate([np.arange(n_black), lo]) \
            + np.concatenate([np.zeros(n_black, dtype=np.int64), hi - lo])
        # each entry of S sums its terms in term order, from 0.0: one row per
        # entry of S's pattern and one column per term, +1 for a black pivot
        # and -1 for a product
        self._schur_entries, entry = np.unique(index, return_inverse=True)
        self._schur_sum = sp.csr_array(
            (np.repeat([1.0, -1.0], [n_black, lo.size]),
             (entry, np.arange(index.size))),
            shape=(self._schur_entries.size, index.size))
        self._schur_sum.sort_indices()

    def _coupling(self, scaled: np.ndarray) -> tuple[sp.csr_array, sp.csc_array]:
        """D_r^-1 E^T as CSR and E D_r^-1 (the same arrays read as CSC),
        block-diagonal over the samples of a stack's scaled couplings
        (m, nnz).

        The pattern of each stack size is built once per thread; its data is
        the given values, set before every product, so no factor builds a
        scipy array, and no thread's products see another's values.
        """
        m = scaled.shape[0]
        patterns = self._local.__dict__.setdefault("patterns", {})
        pattern = patterns.get(m)
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
            patterns[m] = pattern
        pattern[0].data = pattern[1].data = scaled.reshape(-1)
        return pattern

    def _schur_scratch(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This thread's scratch band of one Schur complement, built once per
        thread: its lower band storage flat, the same as the stack of one
        (1, kd + 1, n_black) that dpbtrf factors, and a read-only view of it
        in upper band storage, (kd + 1, n_black).

        kd^2 zeros precede the band. Upper entry (r, c) is lower entry (c,
        c + r - kd), at flat position r kd + c (kd + 1) from the scratch's
        start, so the view is one strided array; the corner above the band,
        r + c < kd, falls in the leading zeros.
        """
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            (rows, n_black), kd = self.schur_shape, self.schur_shape[0] - 1
            memory = np.zeros(kd * kd + rows * n_black)
            flat = memory[kd * kd:]
            upper = np.lib.stride_tricks.as_strided(
                memory, shape=(rows, n_black),
                strides=(kd * memory.itemsize, rows * memory.itemsize),
                writeable=False)
            scratch = self._local.scratch = (
                flat, flat.reshape(1, n_black, rows).transpose(0, 2, 1), upper)
        return scratch


@dataclass(eq=False)
class RedBlackFactor:
    """Direct solver of the interior stiffness K after red-black elimination,
    for a stack of m coefficient samples.

    With the red nodes first, K = [[D_r, E^T], [E, D_b]] and D_r, D_b are
    diagonal. The black unknowns solve S x_b = f_b - E D_r^-1 f_r with the
    Schur complement S = D_b - E D_r^-1 E^T, half the size of K and of half
    its bandwidth, held as its banded Cholesky factor; the red unknowns are
    then x_r = D_r^-1 f_r - D_r^-1 E^T x_b. Every array has a leading sample
    axis; a slice gives a sub-stack and an integer i the stack of one i:i+1,
    as views.
    """

    mesh: StructuredMesh
    red_diag: np.ndarray  # D_r, (m, n_red)
    scaled: np.ndarray  # D_r^-1 E^T in the ordering's CSR layout, (m, nnz)
    schur: np.ndarray  # Cholesky factors U of S, upper band storage, (m, rows, n_black)

    @classmethod
    def empty(cls, mesh: StructuredMesh, m: int) -> "RedBlackFactor":
        """Uninitialized storage for the factors of a stack of m samples."""
        rb = mesh.red_black
        (n_red, n_black), (rows, _) = rb.shape, rb.schur_shape
        # each sample's band is a C-ordered (n_black, rows) block, read
        # transposed as the F-ordered (rows, n_black) array LAPACK takes
        return cls(mesh=mesh, red_diag=np.empty((m, n_red)),
                   scaled=np.empty((m, rb._indices.size)),
                   schur=np.empty((m, n_black, rows)).transpose(0, 2, 1))

    def __len__(self) -> int:
        return self.red_diag.shape[0]

    def __getitem__(self, i) -> "RedBlackFactor":
        if not isinstance(i, slice):
            i = range(len(self))[i]  # raises IndexError out of range
            i = slice(i, i + 1)
        return RedBlackFactor(self.mesh, self.red_diag[i], self.scaled[i],
                              self.schur[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def solve(self, f_red: np.ndarray,
              f_black: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve K x = f given f split by colour, (m, n_red, k) and
        (m, n_black, k): k right-hand sides per sample. Returns x split the
        same way. The eliminations of the whole stack are one block-diagonal
        product, and each column is bit-for-bit the one a single right-hand
        side, or a stack of one, gives."""
        eliminate, eliminate_t = self.mesh.red_black._coupling(self.scaled)
        (m, n_black, k), n_red = f_black.shape, f_red.shape[1]
        # each sample's (n_black, k) block in the Fortran order dpbtrs solves
        # in place
        t = np.empty((m, k, n_black)).transpose(0, 2, 1)
        np.subtract(f_black, (eliminate_t @ f_red.reshape(-1, k)).reshape(
            f_black.shape), out=t)
        dpbtrs(self.schur, t)
        x_red = f_red / self.red_diag[:, :, None] \
            - (eliminate @ t.reshape(-1, k)).reshape(m, n_red, k)
        return x_red, t


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name: str, *argtypes) -> Callable:
    """scipy's LAPACK routine name as a ctypes function of argtypes, bound
    to the address in the capsule that cython_lapack (see
    _load_cython_lapack) exports for it, so no other part of scipy.linalg
    is needed. A ctypes call releases the GIL, which scipy.linalg.lapack's
    wrappers of the same routines hold."""
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_int_p, _array_p = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
# (uplo, n, kd, ab, ldab, info) and (uplo, n, kd, nrhs, ab, ldab, b, ldb,
# info), every argument by reference
_lapack_dpbtrf = _lapack("dpbtrf", ctypes.c_char_p, _int_p, _int_p, _array_p,
                         _int_p, _int_p)
_lapack_dpbtrs = _lapack("dpbtrs", ctypes.c_char_p, _int_p, _int_p, _int_p,
                         _array_p, _int_p, _array_p, _int_p, _int_p)


def _fortran_blocks(a: np.ndarray, name: str) -> tuple[int, int]:
    """The address of a's first sample and the step to the next, after
    checking that a, (m, rows, columns), is a writeable float64 stack whose
    samples are each one Fortran-ordered block and do not overlap."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.ndim == 3 and a.flags.writeable):
        raise ValueError(f"{name} must be a writeable float64 stack (m, rows, "
                         "columns)")
    if a.size and not (a[0].flags.f_contiguous and (
            len(a) == 1 or abs(a.strides[0]) >= a[0].nbytes)):
        raise ValueError(f"{name} must hold each sample as one Fortran-ordered "
                         "block")
    return a.ctypes.data, a.strides[0]


def dpbtrf(bands: np.ndarray) -> None:
    """Factor in place, by LAPACK dpbtrf, every band of a stack of SPD
    matrices in lower band storage, bands (m, kd + 1, n), each sample a
    Fortran-ordered block, into L with A = L L^T. Raises LinAlgError for the
    first sample that is not positive definite. Lower storage only: with
    kd < 32 LAPACK takes its unblocked dpbtf2, whose upper branch updates
    the band at a stride of kd and ran slower on two threads than on one;
    the lower branch's stride is 1."""
    base, step = _fortran_blocks(bands, "bands")
    m, rows, n = bands.shape
    info = ctypes.c_int()
    n_, kd, ldab, info_ = (ctypes.byref(ctypes.c_int(n)),
                           ctypes.byref(ctypes.c_int(rows - 1)),
                           ctypes.byref(ctypes.c_int(rows)), ctypes.byref(info))
    # LAPACK rejects an empty system
    for i in range(m if n else 0):
        _lapack_dpbtrf(b"L", n_, kd, base + i * step, ldab, info_)
        _check_info(info.value, "dpbtrf", i)


def dpbtrs(bands: np.ndarray, b: np.ndarray) -> None:
    """Solve in place, by LAPACK dpbtrs, each sample's system with k
    right-hand sides, b (m, n, k), given the Cholesky factors U = L^T of a
    stack in upper band storage, bands (m, kd + 1, n), where
    red_black_cholesky copies them; both hold each sample as a
    Fortran-ordered block."""
    base, step = _fortran_blocks(bands, "bands")
    b_base, b_step = _fortran_blocks(b, "b")
    m, rows, n = bands.shape
    if b.shape[:2] != (m, n):
        raise ValueError(f"b {b.shape} does not match the bands {bands.shape}")
    info = ctypes.c_int()
    n_, kd, nrhs, ldab, info_ = (
        ctypes.byref(ctypes.c_int(n)), ctypes.byref(ctypes.c_int(rows - 1)),
        ctypes.byref(ctypes.c_int(b.shape[2])),
        ctypes.byref(ctypes.c_int(rows)), ctypes.byref(info))
    for i in range(m if n else 0):
        _lapack_dpbtrs(b"U", n_, kd, nrhs, base + i * step, ldab,
                       b_base + i * b_step, n_, info_)
        _check_info(info.value, "dpbtrs", i)


def _check_info(info: int, routine: str, sample: int) -> None:
    if info == 0:
        return
    where = f" for sample {sample} of the stack"
    if routine == "dpbtrf":
        raise LinAlgError(f"banded Cholesky failed (dpbtrf info={info}){where}: "
                          "the matrix is not positive definite")
    raise LinAlgError(f"banded Cholesky solve failed ({routine} info={info}){where}")


def red_black_cholesky(stencil: np.ndarray, mesh: StructuredMesh,
                       out: RedBlackFactor | None = None) -> RedBlackFactor:
    """Factor the interior stiffness of mesh for a stack of samples given
    their stencil values (see RedBlackOrdering), (m, n_stencil): eliminate
    the red nodes and factor each black Schur complement with LAPACK dpbtrf,
    in lower band storage in this thread's scratch band, then copy the
    factor to out's upper band storage.

    Every step but dpbtrf and the copy runs once over the whole stack. The
    factors go into out when it is given (RedBlackFactor.empty storage of m
    samples, overwritten), else into new storage. Raises LinAlgError when a
    matrix is not positive definite, that is when a red pivot is not
    positive or dpbtrf rejects a Schur complement (the error names its
    sample), rather than returning a partial factor.
    """
    rb = mesh.red_black
    stencil = np.asarray(stencil, dtype=float)
    m, _ = stencil.shape
    # one column per sample, the layout the assembly product gives: every
    # gather below then moves whole rows
    columns = stencil.T
    (n_red, n_black), n_pivots = rb.shape, sum(rb.shape)
    red_diag = columns[:n_red]
    if not np.all(red_diag > 0.0):
        sample = np.nonzero(~np.all(red_diag > 0.0, axis=0))[0][0]
        raise LinAlgError(f"red-black elimination failed for sample {sample} "
                          "of the stack (a red pivot is not positive): the "
                          "matrix is not positive definite")
    factor = RedBlackFactor.empty(mesh, m) if out is None else out
    if len(factor) != m:
        raise ValueError(f"out holds {len(factor)} factors, not {m}")
    coupling = columns[n_pivots:]
    scaled = coupling / np.take(red_diag, rb._coupling_row, axis=0)
    np.copyto(factor.red_diag, red_diag.T)
    np.copyto(factor.scaled, scaled.T)

    # the terms of S: the black pivots, then the products (np.take into
    # contiguous rows with mode "clip" needs no buffer; the indices are in
    # range by construction)
    left, right = rb._schur_pairs
    terms = np.empty((n_black + left.size, m))
    terms[:n_black] = columns[n_red:n_pivots]
    products = terms[n_black:]
    np.take(coupling, left, axis=0, out=products, mode="clip")
    products *= np.take(scaled, right, axis=0)
    # each sample's S goes into this thread's scratch band, cleared first
    # because dpbtrf fills in outside S's pattern, is factored in lower
    # storage and copied out to upper storage (see the module docstring)
    flat, band, upper = rb._schur_scratch()
    for i, entries in enumerate((rb._schur_sum @ terms).T):
        flat[...] = 0.0
        flat[rb._schur_entries] = entries
        try:
            dpbtrf(band)
        except LinAlgError as error:
            raise LinAlgError(f"banded Cholesky failed for sample {i} of the "
                              "stack: the matrix is not positive definite"
                              ) from error
        np.copyto(factor.schur[i], upper)
    return factor


def band_solve(factor: RedBlackFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve K x = rhs given red_black_cholesky's factor of a stack of m
    stiffnesses K, in the interior numbering: rhs (m, n, k) holds k
    right-hand sides per sample, and x has its shape."""
    rb = factor.mesh.red_black
    f = np.asarray(rhs, dtype=float)
    x = np.empty(f.shape)
    x[:, rb.red], x[:, rb.black] = factor.solve(
        np.take(f, rb.red, axis=1), np.take(f, rb.black, axis=1))
    return x


def assemble(mesh: StructuredMesh, xi: np.ndarray) -> np.ndarray:
    """The interior stiffness (coefficient at centroids, Dirichlet rows and
    columns eliminated) at its stencil (see RedBlackOrdering), (m, n_stencil)
    for a stack of samples xi (m, 4); one sample (4,) is a stack of one."""
    xi = np.atleast_2d(check_sample(xi))
    # the coefficient fields at the centroids, one per sample, from modes
    # computed once per mesh. One batched matrix-vector product keeps each
    # field independent of the stack it is in, which a matrix-matrix
    # product, rounding differently, would not.
    fields = np.matmul(mesh.centroid_modes, xi[:, :, None])
    np.exp(fields, out=fields)
    return (mesh.stencil_matrix @ fields[:, :, 0].T).T


def factor(mesh: StructuredMesh, xi: np.ndarray,
           out: RedBlackFactor | None = None) -> RedBlackFactor:
    """Assemble and factor the interior stiffnesses of a stack of samples xi
    (m, 4), or of one sample (4,) as a stack of one, into out when given
    (see red_black_cholesky)."""
    return red_black_cholesky(assemble(mesh, xi), mesh, out)


def solve_state(factor: RedBlackFactor, u: np.ndarray) -> np.ndarray:
    """Solve the discrete state equation K y = W u with zero boundary values
    eliminated, given the factor of K and an interior control u (n_interior,).

    The load uses the lumped weights W so that the adjoint gradient below is
    exact for the discrete objective. The factor of a stack of m samples
    gives one interior state per sample with the same control, (m, n_interior),
    and k controls u (k, n_interior) give C-contiguous rows (m, k, n_interior)
    from one k-column band_solve, each bit for bit what its control gives.
    """
    mesh = factor.mesh
    loads = mesh.lumped[mesh.interior] * np.atleast_2d(u)
    y = band_solve(factor, loads.T[None].repeat(len(factor), axis=0))
    y = np.ascontiguousarray(y.transpose(0, 2, 1))
    return y if np.ndim(u) == 2 else y[:, 0]


def solve_adjoint(factor: RedBlackFactor, y: np.ndarray,
                  y_d: np.ndarray) -> np.ndarray:
    """Solve the adjoint equation K p = W (y - y_d) on the interior nodes as
    in solve_state, given y, one interior state per sample (m, n_interior) or
    k (m, k, n_interior), and an interior target y_d (n_interior,)."""
    y_d = np.asarray(y_d, dtype=float)
    if np.shape(y)[-1:] != y_d.shape:
        raise ValueError("state and target live on different meshes")
    mesh = factor.mesh
    rhs = mesh.lumped[mesh.interior] * (y - y_d)
    p = band_solve(factor, rhs.reshape(len(rhs), -1, len(y_d)).transpose(0, 2, 1))
    return np.ascontiguousarray(p.transpose(0, 2, 1)).reshape(rhs.shape)


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
