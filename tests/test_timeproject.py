import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oswr.timebasis import TimePartition, legendre_eval
from oswr.timeproject import (
    SLIVER_REL,
    apply_projection,
    build_projection_matrices,
    hat_cross_matrix,
)
from test_timebasis import locate, project_interval


def random_partition(rng, t0, t1, n):
    inner = np.sort(rng.uniform(t0, t1, size=n - 1))
    return TimePartition(np.concatenate([[t0], inner, [t1]]))


def brute_force_blocks(source, target, d):
    """Oracle: integrate over the merged breakpoint grid."""
    pts = np.unique(np.concatenate([source.breakpoints, target.breakpoints]))
    blocks = [
        [np.zeros((target.n_intervals, source.n_intervals)) for _ in range(d + 1)]
        for _ in range(d + 1)
    ]
    g2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        m = locate(source, mid)
        n = locate(target, mid)
        xq = 0.5 * (a + b) + 0.5 * (b - a) * g2
        w = 0.5 * (b - a)
        sm = 0.5 * (source.breakpoints[m] + source.breakpoints[m + 1])
        tn = 0.5 * (target.breakpoints[n] + target.breakpoints[n + 1])
        phi_s = [np.ones(2), 2.0 * (xq - sm) / source.lengths[m]]
        phi_t = [np.ones(2), 2.0 * (xq - tn) / target.lengths[n]]
        for al in range(d + 1):
            for be in range(d + 1):
                blocks[al][be][n, m] += w * np.sum(phi_s[al] * phi_t[be])
    return blocks


# Reference builders: the cursor sweep over the two meshes and the
# per-overlap integration, as written before the merged-grid arrays.
# The builders must match them byte for byte.

_G2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_G3_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_G3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def sweep_overlaps(a_pts, b_pts, min_len):
    """Yield (ia, ib, lo, hi) for every positive-measure intersection of
    intervals [a_pts[ia], a_pts[ia+1]] and [b_pts[ib], b_pts[ib+1]]."""
    ia = ib = 0
    na, nb = len(a_pts) - 1, len(b_pts) - 1
    while ia < na and ib < nb:
        lo = max(a_pts[ia], b_pts[ib])
        hi = min(a_pts[ia + 1], b_pts[ib + 1])
        if hi - lo > min_len:
            yield ia, ib, lo, hi
        # advance the cursor whose interval ends first
        if a_pts[ia + 1] <= b_pts[ib + 1]:
            ia += 1
        else:
            ib += 1


def reference_projection_blocks(source, target, d):
    span = source.end - source.start
    src_bp, tgt_bp = source.breakpoints, target.breakpoints
    src_mid = 0.5 * (src_bp[:-1] + src_bp[1:])
    tgt_mid = 0.5 * (tgt_bp[:-1] + tgt_bp[1:])
    src_k, tgt_k = source.lengths, target.lengths
    rows, cols = [], []
    vals = [[[] for _ in range(d + 1)] for _ in range(d + 1)]
    for m, n, lo, hi in sweep_overlaps(src_bp, tgt_bp, SLIVER_REL * span):
        rows.append(n)
        cols.append(m)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        s = mid + half * _G2
        w = half
        phi_src = [np.ones(2), 2.0 * (s - src_mid[m]) / src_k[m]]
        phi_tgt = [np.ones(2), 2.0 * (s - tgt_mid[n]) / tgt_k[n]]
        for al in range(d + 1):
            for be in range(d + 1):
                vals[al][be].append(w * np.sum(phi_src[al] * phi_tgt[be]))
    shape = (target.n_intervals, source.n_intervals)
    return [
        [sp.coo_matrix((np.array(vals[al][be]), (rows, cols)), shape=shape).tocsr()
         for be in range(d + 1)]
        for al in range(d + 1)
    ]


def reference_hat_cross(target_nodes, source_nodes, weight=None, kind="mass"):
    xt = np.asarray(target_nodes, dtype=float)
    xs = np.asarray(source_nodes, dtype=float)
    span = min(xt[-1], xs[-1]) - max(xt[0], xs[0])
    rows, cols, vals = [], [], []
    for f, e, lo, hi in sweep_overlaps(xt, xs, SLIVER_REL * max(span, 1e-300)):
        ht, hs = xt[f + 1] - xt[f], xs[e + 1] - xs[e]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xq = mid + half * _G3_NODES
        wq = half * _G3_WEIGHTS
        if weight is not None:
            wq = wq * np.asarray(weight(xq), dtype=float)
        t_val = np.stack([(xt[f + 1] - xq) / ht, (xq - xt[f]) / ht])
        t_der = np.stack([np.full(3, -1.0 / ht), np.full(3, 1.0 / ht)])
        s_val = np.stack([(xs[e + 1] - xq) / hs, (xq - xs[e]) / hs])
        s_der = np.stack([np.full(3, -1.0 / hs), np.full(3, 1.0 / hs)])
        tloc = t_der if kind in ("grad_both", "dtarget") else t_val
        sloc = s_der if kind == "grad_both" else s_val
        for a in range(2):
            for b in range(2):
                rows.append(f + a)
                cols.append(e + b)
                vals.append(np.sum(wq * tloc[a] * sloc[b]))
    return sp.coo_matrix((vals, (rows, cols)), shape=(xt.size, xs.size)).tocsr()


def same_bytes(a, b):
    """Equal csr arrays, dtypes and bytes."""
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))
    )


def coeff_norm(partition, coeffs):
    gram = partition.lengths[:, None] / (2.0 * np.arange(coeffs.shape[1])[None, :] + 1.0)
    return np.sqrt(np.sum(gram * coeffs**2))


class TestBuild:
    def test_overlap_measures_d0(self):
        src = TimePartition(np.array([0.0, 0.5, 1.0]))
        tgt = TimePartition(np.array([0.0, 1.0]))
        pm = build_projection_matrices(src, tgt, 0)
        assert np.allclose(pm.blocks[0][0].toarray(), [[0.5, 0.5]], atol=1e-15)

    def test_m10_entry(self):
        src = TimePartition(np.array([0.0, 1.0]))
        tgt = TimePartition(np.array([0.0, 0.5, 1.0]))
        pm = build_projection_matrices(src, tgt, 1)
        assert pm.blocks[1][0].toarray()[0, 0] == pytest.approx(-0.25, abs=1e-15)

    def test_identical_partitions_diagonal(self):
        p = TimePartition.uniform(0.0, 2.0, 5)
        pm = build_projection_matrices(p, p, 1)
        k = p.lengths
        assert pm.blocks[0][0].toarray() == pytest.approx(np.diag(k))
        assert pm.blocks[1][1].toarray() == pytest.approx(np.diag(k / 3.0))
        assert abs(pm.blocks[0][1]).max() < 1e-14
        assert abs(pm.blocks[1][0]).max() < 1e-14

    def test_row_sum_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            src = random_partition(rng, 0.0, 1.0, 7)
            tgt = random_partition(rng, 0.0, 1.0, 5)
            pm = build_projection_matrices(src, tgt, 0)
            rows = np.asarray(pm.blocks[0][0].sum(axis=1)).ravel()
            assert rows == pytest.approx(tgt.lengths, abs=1e-14)

    def test_window_mismatch_rejected(self):
        a = TimePartition.uniform(0.0, 1.0, 3)
        b = TimePartition.uniform(0.0, 1.1, 3)
        with pytest.raises(ValueError, match="window"):
            build_projection_matrices(a, b, 0)

    def test_sweep_equals_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            ns, nt = rng.integers(1, 9, size=2)
            src = random_partition(rng, 0.0, 1.0, int(ns) + 1)
            tgt = random_partition(rng, 0.0, 1.0, int(nt) + 1)
            pm = build_projection_matrices(src, tgt, 1)
            oracle = brute_force_blocks(src, tgt, 1)
            for al in range(2):
                for be in range(2):
                    assert np.allclose(
                        pm.blocks[al][be].toarray(), oracle[al][be], atol=1e-14
                    )


class TestApply:
    def test_constant_preserved(self):
        rng = np.random.default_rng(1)
        src = random_partition(rng, 0.0, 1.0, 6)
        tgt = random_partition(rng, 0.0, 1.0, 4)
        pm = build_projection_matrices(src, tgt, 1)
        coeffs = np.zeros((src.n_intervals, 2))
        coeffs[:, 0] = 3.25
        out = apply_projection(pm, coeffs)
        assert out[:, 0] == pytest.approx(3.25 * np.ones(tgt.n_intervals), abs=1e-12)
        assert abs(out[:, 1]).max() < 1e-12

    def test_identity_on_same_partition(self):
        rng = np.random.default_rng(2)
        p = random_partition(rng, 0.0, 2.0, 5)
        pm = build_projection_matrices(p, p, 1)
        coeffs = rng.standard_normal((p.n_intervals, 2, 3))
        out = apply_projection(pm, coeffs)
        assert np.allclose(out, coeffs, atol=1e-12)

    def test_mean_value(self):
        src = TimePartition(np.array([0.0, 0.5, 1.0]))
        tgt = TimePartition(np.array([0.0, 1.0]))
        pm = build_projection_matrices(src, tgt, 0)
        out = apply_projection(pm, np.array([[0.0], [1.0]]))
        assert out[0, 0] == pytest.approx(0.5)

    def test_contraction(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            src = random_partition(rng, 0.0, 1.0, int(rng.integers(2, 8)))
            tgt = random_partition(rng, 0.0, 1.0, int(rng.integers(2, 8)))
            pm = build_projection_matrices(src, tgt, 1)
            coeffs = rng.standard_normal((src.n_intervals, 2))
            out = apply_projection(pm, coeffs)
            assert coeff_norm(tgt, out) <= coeff_norm(src, coeffs) + 1e-12

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(4)
        src = random_partition(rng, 0.0, 1.0, 6)
        tgt = random_partition(rng, 0.0, 1.0, 4)
        fwd = build_projection_matrices(src, tgt, 1)
        bwd = build_projection_matrices(tgt, src, 1)
        G = rng.standard_normal((src.n_intervals, 2))
        F = rng.standard_normal((tgt.n_intervals, 2))

        def inner(partition, A, B):
            gram = partition.lengths[:, None] / (2.0 * np.arange(A.shape[1])[None, :] + 1.0)
            return np.sum(gram * A * B)

        lhs = inner(tgt, apply_projection(fwd, G), F)
        rhs = inner(src, G, apply_projection(bwd, F))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_idempotent_on_refinement(self):
        # represent a target-grid function on a refining source, project back
        rng = np.random.default_rng(5)
        tgt = TimePartition.uniform(0.0, 1.0, 3)
        src = TimePartition.uniform(0.0, 1.0, 12)  # refinement
        coeffs_t = rng.standard_normal((3, 2))
        coeffs_s = np.zeros((12, 2))
        for m in range(12):
            t_m, k_m = src.breakpoints[m], src.lengths[m]
            n = locate(tgt, t_m + 0.5 * k_m)

            def f(ts, n=n):
                return sum(
                    coeffs_t[n, j]
                    * legendre_eval(j, (tgt.breakpoints[n], tgt.lengths[n]), ts)
                    for j in range(2)
                )

            coeffs_s[m] = project_interval(f, (t_m, k_m), 1)
        pm = build_projection_matrices(src, tgt, 1)
        out = apply_projection(pm, coeffs_s)
        assert np.allclose(out, coeffs_t, atol=1e-12)


def _partition(lengths):
    """A partition of [0, 1] with cells proportional to `lengths`."""
    bp = np.concatenate([[0.0], np.cumsum(lengths)]) / np.sum(lengths)
    bp[-1] = 1.0
    return TimePartition(bp)


cell_lengths = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8)


class TestProjectionProperties:
    """Contraction and idempotence on random nonconforming partitions."""

    @settings(max_examples=60, deadline=None)
    @given(src=cell_lengths, tgt=cell_lengths, d=st.sampled_from([0, 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_contraction(self, src, tgt, d, seed):
        src, tgt = _partition(src), _partition(tgt)
        g = np.random.default_rng(seed).standard_normal((src.n_intervals, d + 1))
        out = apply_projection(build_projection_matrices(src, tgt, d), g)
        assert coeff_norm(tgt, out) <= coeff_norm(src, g) * (1.0 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(src=cell_lengths, tgt=cell_lengths, d=st.sampled_from([0, 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_idempotence(self, src, tgt, d, seed):
        # h = P g lies in the target space: taken to the common refinement
        # (exactly) and projected again, it is h itself, and P through the
        # common refinement is P
        src, tgt = _partition(src), _partition(tgt)
        merged = TimePartition(np.unique(np.concatenate([src.breakpoints, tgt.breakpoints])))
        g = np.random.default_rng(seed).standard_normal((src.n_intervals, d + 1))
        h = apply_projection(build_projection_matrices(src, tgt, d), g)
        h_m = apply_projection(build_projection_matrices(tgt, merged, d), h)
        back = build_projection_matrices(merged, tgt, d)
        scale = np.max(np.abs(g))
        assert np.max(np.abs(apply_projection(back, h_m) - h)) <= 1e-12 * scale
        g_m = apply_projection(build_projection_matrices(src, merged, d), g)
        assert np.max(np.abs(apply_projection(back, g_m) - h)) <= 1e-12 * scale


class TestHatCross:
    def test_single_mesh_mass_tridiagonal(self):
        x = np.linspace(0.0, 1.0, 5)
        h = 0.25
        M = hat_cross_matrix(x, x, None, "mass").toarray()
        assert M[0, 0] == pytest.approx(h / 3.0)
        assert M[1, 1] == pytest.approx(2.0 * h / 3.0)
        assert M[0, 1] == pytest.approx(h / 6.0)
        assert M.sum() == pytest.approx(1.0)  # partition of unity

    def test_single_mesh_stiffness(self):
        x = np.linspace(0.0, 1.0, 5)
        K = hat_cross_matrix(x, x, None, "grad_both").toarray()
        assert K[1, 1] == pytest.approx(8.0)
        assert K[1, 2] == pytest.approx(-4.0)
        assert np.abs(K @ np.ones(5)).max() < 1e-12

    def test_cross_mesh_mass_row_sums(self):
        xt = np.linspace(0.0, 1.0, 4)
        xs = np.linspace(0.0, 1.0, 7)
        M = hat_cross_matrix(xt, xs, None, "mass").toarray()
        # row sums = int psi_k (source hats sum to 1)
        hats = np.asarray(M.sum(axis=1)).ravel()
        expect = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
        assert hats == pytest.approx(expect, abs=1e-14)

    def test_weighted(self):
        x = np.linspace(0.0, 1.0, 3)
        M = hat_cross_matrix(x, x, lambda s: 2.0 * np.ones_like(s), "mass").toarray()
        M1 = hat_cross_matrix(x, x, None, "mass").toarray()
        assert M == pytest.approx(2.0 * M1)


# Offsets from a breakpoint of the other mesh: exact, well under, near and
# above the sliver threshold SLIVER_REL * span.
NEAR = [0.0, 1e-16, -1e-15, 3e-15, 5e-14, -1e-13, 2e-13, 1e-12]


@st.composite
def mesh_pair(draw, lo=0.0, hi=1.0):
    """Breakpoints a of [0, 1] and b whose points are fresh ones in
    [lo, hi] or points of a moved by an offset from NEAR."""
    a = _partition(draw(cell_lengths)).breakpoints
    picks = draw(st.lists(st.one_of(
        st.floats(lo, hi),
        st.tuples(st.integers(0, a.size - 1), st.sampled_from(NEAR)),
    ), min_size=1, max_size=10))
    b = np.unique([p if isinstance(p, float) else a[p[0]] + p[1] for p in picks])
    return a, b


class TestMergedGridOracle:
    """The merged-grid builders against the cursor-sweep references."""

    @settings(max_examples=200, deadline=None)
    @given(pair=mesh_pair(), d=st.sampled_from([0, 1]), end=st.sampled_from([0.0, 1e-13]),
           swap=st.booleans())
    def test_projection_blocks(self, pair, d, end, swap):
        a, b = pair
        b = np.concatenate([[0.0], b[(b > 0.0) & (b < 1.0)], [1.0 + end]])
        src, tgt = TimePartition(a), TimePartition(b)
        if swap:
            src, tgt = tgt, src
        blocks = build_projection_matrices(src, tgt, d).blocks
        ref = reference_projection_blocks(src, tgt, d)
        for al in range(d + 1):
            for be in range(d + 1):
                assert same_bytes(blocks[al][be], ref[al][be])

    @settings(max_examples=200, deadline=None)
    @given(pair=mesh_pair(-0.5, 1.5), kind=st.sampled_from(["mass", "grad_both", "dtarget"]),
           weighted=st.booleans(), swap=st.booleans())
    def test_hat_cross(self, pair, kind, weighted, swap):
        # the two spans may overlap in part, or not at all
        xt, xs = pair if not swap else pair[::-1]
        assume(xt.size >= 2 and xs.size >= 2)
        calls = []

        def weight(s):
            return 1.0 + 0.5 * np.sin(3.0 * s) + s * s

        def counted(s):
            calls.append(s.size)
            return weight(s)

        B = hat_cross_matrix(xt, xs, counted if weighted else None, kind)
        assert len(calls) == int(weighted)  # all quadrature points at once
        ref = reference_hat_cross(xt, xs, weight if weighted else None, kind)
        assert same_bytes(B, ref)
