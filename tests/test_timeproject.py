import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oswr.timebasis import TimePartition, legendre_eval, project_interval
from oswr.timeproject import apply_projection, build_projection_matrices, hat_cross_matrix


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
        m = source.locate(mid)
        n = target.locate(mid)
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
            n = tgt.locate(t_m + 0.5 * k_m)

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
