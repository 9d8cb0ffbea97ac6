"""Weighted discrete Hilbert-space operations on nodal vectors.

All inner products and norms are taken with respect to a diagonal
(lumped-mass) weight vector, so proximal maps and projections decouple
node by node and admit exact closed forms.
"""

from __future__ import annotations

import numpy as np


def check_weights(w: np.ndarray, domain_area: float | None = None) -> np.ndarray:
    """Validate lumped weights: strictly positive, optionally summing to the domain area."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"weights must be 1-d, got shape {w.shape}")
    if not np.all(w > 0.0):
        raise ValueError("weights must be strictly positive")
    if domain_area is not None:
        total = float(w.sum())
        if abs(total - domain_area) > 1e-10 * max(1.0, abs(domain_area)):
            raise ValueError(
                f"weights sum {total} differs from domain area {domain_area}"
            )
    return w


def wdot(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """Weighted inner product sum_i w_i a_i b_i."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    if a.shape != b.shape or a.shape != w.shape:
        raise ValueError(
            f"length mismatch: a {a.shape}, b {b.shape}, w {w.shape}"
        )
    return float(np.dot(w * a, b))


def wdot_rows(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise weighted inner products sum_j w_j a_ij b_ij of two (k, n)
    stacks. Each row's value is the same bit for bit whatever k is."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.ndim != 2 or a.shape != b.shape or a.shape[1:] != np.shape(w):
        raise ValueError(
            f"shape mismatch: a {a.shape}, b {b.shape}, w {np.shape(w)}"
        )
    # three operands keep einsum on one unbuffered pass per row; the
    # two-operand form regroups rows longer than its 8192-element buffer
    return np.einsum("ij,ij,j->i", a, b, np.asarray(w, dtype=float))


def wnorm(a: np.ndarray, w: np.ndarray) -> float:
    """Weighted norm sqrt(wdot(a, a, w))."""
    return float(np.sqrt(max(wdot(a, a, w), 0.0)))


def project_box(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Entrywise clamp onto [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty box: lo={lo} > hi={hi}")
    return np.clip(np.asarray(a, dtype=float), lo, hi)


def soft_threshold(a: np.ndarray, t) -> np.ndarray:
    """Entrywise sign(a) * max(|a| - t, 0).

    Exact minimizer of t*|z| + (z - a_i)^2 / 2 in each component.
    The threshold may be a scalar or an array broadcastable against a.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError(f"threshold must be nonnegative, got {t}")
    a = np.asarray(a, dtype=float)
    return np.sign(a) * np.maximum(np.abs(a) - t, 0.0)


def weighted_l1(a: np.ndarray, w: np.ndarray) -> float:
    """Lumped quadrature of the L1 norm: sum_i w_i |a_i|."""
    return wdot(np.abs(np.asarray(a, dtype=float)), np.ones_like(w), w)


def weighted_l1_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise weighted_l1 of a (k, n) stack: sum_j w_j |a_ij|. Each row's
    value is the same bit for bit whatever k is."""
    a = np.abs(np.asarray(a, dtype=float))
    w = np.asarray(w, dtype=float)
    if a.ndim != 2 or a.shape[1:] != w.shape:
        raise ValueError(f"shape mismatch: a {a.shape}, w {w.shape}")
    # three operands for the reason given in wdot_rows
    return np.einsum("ij,j,j->i", a, np.ones_like(w), w)
