"""Coupling of two nonconforming partitions of the same interval.

Serves two purposes:

* transfer of piecewise-polynomial (Legendre, degree d) traces between
  the time grids of two subdomains, through the sparse overlap-integral
  blocks M[alpha][beta] with entries int_I Phi^src_{m,alpha} Phi^tgt_{n,beta};
* transfer between nonmatching piecewise-linear meshes of a flat 1D
  interface (mortar coupling), through hat-function overlap integrals.

Both are integrated over the merged grid, the union of the two meshes'
breakpoints: each of its O(N_src + N_tgt) segments is the overlap of one
interval of each mesh, and all segments are integrated at once, exactly,
by Gauss rules (the integrands are low-degree polynomials).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from oswr.timebasis import TimePartition

__all__ = [
    "ProjectionMatrices",
    "build_projection_matrices",
    "apply_projection",
    "hat_cross_matrix",
]

# relative overlap threshold: guards against floating-point slivers when
# breakpoints of the two partitions nearly coincide
SLIVER_REL = 1e-13

_G2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_G3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_G3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def _overlaps(a_pts, b_pts, min_len):
    """(ia, ib, lo, hi) arrays, one entry per segment [lo, hi] of the
    merged grid of two sorted meshes that is longer than min_len and lies
    inside both spans, in increasing order: [lo, hi] is the overlap of
    [a_pts[ia], a_pts[ia+1]] and [b_pts[ib], b_pts[ib+1]]."""
    pts = np.union1d(a_pts, b_pts)
    lo, hi = pts[:-1], pts[1:]
    keep = ((hi - lo > min_len) & (lo >= max(a_pts[0], b_pts[0]))
            & (hi <= min(a_pts[-1], b_pts[-1])))
    lo, hi = lo[keep], hi[keep]
    # no breakpoint lies inside a segment, so each mesh's interval is the
    # last one starting at or before lo (a midpoint may round onto hi)
    ia = np.searchsorted(a_pts, lo, side="right") - 1
    ib = np.searchsorted(b_pts, lo, side="right") - 1
    return ia, ib, lo, hi


@dataclass(frozen=True)
class ProjectionMatrices:
    """Blocks M[alpha][beta], each (n_target_intervals, n_source_intervals)."""

    degree: int
    source: TimePartition
    target: TimePartition
    blocks: tuple  # blocks[alpha][beta] csr_matrix


def build_projection_matrices(source, target, d):
    """Overlap-integral blocks between two partitions of the same window."""
    if d not in (0, 1):
        raise ValueError(f"unsupported degree {d}")
    span = source.end - source.start
    if span <= 0 or target.n_intervals == 0 or source.n_intervals == 0:
        raise ValueError("empty partition")
    tol = 1e-12 * span
    if abs(source.start - target.start) > tol or abs(source.end - target.end) > tol:
        raise ValueError("partitions do not cover the same window")

    src_bp, tgt_bp = source.breakpoints, target.breakpoints
    m, n, lo, hi = _overlaps(src_bp, tgt_bp, SLIVER_REL * span)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s = mid[:, None] + half[:, None] * _G2  # 2-point Gauss, exact for the quadratic integrand

    def legendre(bp, k, i):
        """The Legendre modes 0 and 1 of intervals i at the points s."""
        return [np.ones_like(s), 2.0 * (s - 0.5 * (bp[i] + bp[i + 1])[:, None]) / k[i][:, None]]

    phi_src = legendre(src_bp, source.lengths, m)
    phi_tgt = legendre(tgt_bp, target.lengths, n)
    shape = (target.n_intervals, source.n_intervals)
    # equal Gauss weights (hi-lo)/2
    blocks = tuple(
        tuple(
            sp.coo_matrix((half * np.sum(phi_src[al] * phi_tgt[be], axis=1), (n, m)),
                          shape=shape).tocsr()
            for be in range(d + 1)
        )
        for al in range(d + 1)
    )
    return ProjectionMatrices(degree=d, source=source, target=target, blocks=blocks)


def apply_projection(matrices, source_coeffs):
    """L2-project per-interval Legendre coefficients onto the target grid.

    source_coeffs has shape (N_source, d+1) or (N_source, d+1, K);
    returns the same layout on the target partition.  With the Legendre
    basis the per-interval Gram matrix is diagonal, so
    G_tgt[n, beta] = (2 beta + 1)/k_n * sum_alpha (M[alpha][beta] @ G_src[:, alpha])[n].
    """
    d = matrices.degree
    src = np.asarray(source_coeffs, dtype=float)
    if src.shape[0] != matrices.source.n_intervals or src.shape[1] != d + 1:
        raise ValueError("source coefficients do not match the source partition")
    flat = src.reshape(src.shape[0], d + 1, -1)
    n_tgt = matrices.target.n_intervals
    out = np.zeros((n_tgt, d + 1, flat.shape[2]))
    k_tgt = matrices.target.lengths
    for be in range(d + 1):
        acc = np.zeros((n_tgt, flat.shape[2]))
        for al in range(d + 1):
            acc += matrices.blocks[al][be] @ flat[:, al, :]
        out[:, be, :] = acc * ((2.0 * be + 1.0) / k_tgt)[:, None]
    return out.reshape((n_tgt,) + src.shape[1:])


def hat_cross_matrix(target_nodes, source_nodes, weight=None, kind="mass"):
    """Overlap integrals of P1 hat bases on two 1D meshes of a segment.

    Returns a csr matrix B with B[k, l] = int w(x) T(psi_k) S(chi_l) dx,
    where psi_k are hats on target_nodes, chi_l hats on source_nodes and

        kind = "mass":       T = S = identity
        kind = "grad_both":  T = S = d/dx
        kind = "dtarget":    T = d/dx, S = identity

    weight is a vectorized callable of the interface coordinate (or None
    for 1), called once on the flat array of all quadrature points.
    3-point Gauss per overlap segment.
    """
    xt = np.asarray(target_nodes, dtype=float)
    xs = np.asarray(source_nodes, dtype=float)
    if xt.size < 2 or xs.size < 2:
        raise ValueError("need at least two nodes per mesh")
    span = min(xt[-1], xs[-1]) - max(xt[0], xs[0])
    f, e, lo, hi = _overlaps(xt, xs, SLIVER_REL * max(span, 1e-300))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    xq = mid[:, None] + half[:, None] * _G3_NODES
    wq = half[:, None] * _G3_WEIGHTS
    if weight is not None:
        wq = wq * np.asarray(weight(xq.ravel()), dtype=float).reshape(xq.shape)

    def local(x, i, derivative):
        """Values or derivatives of the two hats active on intervals i,
        shape (overlaps, 2, points)."""
        h = (x[i + 1] - x[i])[:, None, None]
        if derivative:
            return np.array([-1.0, 1.0])[:, None] / h
        return np.stack([x[i + 1][:, None] - xq, xq - x[i][:, None]], axis=1) / h

    tloc = local(xt, f, kind in ("grad_both", "dtarget"))
    sloc = local(xs, e, kind == "grad_both")
    # entries (overlap, a, b) for target hat f + a and source hat e + b
    vals = np.sum(wq[:, None, None] * tloc[:, :, None] * sloc[:, None, :], axis=-1)
    rows = np.broadcast_to((f[:, None] + np.arange(2))[:, :, None], vals.shape)
    cols = np.broadcast_to((e[:, None] + np.arange(2))[:, None, :], vals.shape)
    return sp.coo_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(xt.size, xs.size)
    ).tocsr()
