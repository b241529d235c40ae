import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oswr.timebasis as tb
from oswr.timebasis import (
    GAUSS4_NODES,
    GAUSS4_WEIGHTS,
    TimePartition,
    build_interval_basis,
    gauss_radau,
    lift_rate_modes,
)


def legendre_eval(j, interval, t):
    """The library's L_{n,j} for j <= 1, and L_{n,2}, which only the
    lifted P_{d+1} polynomials of these tests need."""
    if j < 2:
        return tb.legendre_eval(j, interval, t)
    t_n, k_n = interval
    theta = 2.0 * (np.asarray(t, dtype=float) - (t_n + 0.5 * k_n)) / k_n
    v = 0.5 * (3.0 * theta * theta - 1.0)
    return v if v.shape else float(v)


def poly_eval(legendre_coeffs, interval, t):
    return sum(
        c * legendre_eval(j, interval, t) for j, c in enumerate(legendre_coeffs)
    )


# Test helpers that the library does not need: the interval holding a
# time, the degree-raising lift (the oracle of lift_rate_modes) and the
# per-interval L2 projection onto P_d.


def locate(partition, t):
    """Index n with t in (t_n, t_{n+1}]; t at the start maps to 0."""
    bp = partition.breakpoints
    n = int(np.searchsorted(bp, t, side="left")) - 1
    return min(max(n, 0), partition.n_intervals - 1)


def lift(coeffs, left_value, d=None):
    """Degree-raising interpolation I_n on one interval.

    coeffs are the Legendre coefficients of a P_d polynomial (leading
    axis d+1, trailing axes arbitrary); left_value is the limit from the
    previous interval at t_n.  Returns the d+2 Legendre coefficients of
    the P_{d+1} interpolant through the left breakpoint and the
    Gauss-Radau nodes.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    left_value = np.asarray(left_value, dtype=float)
    if d is None:
        d = coeffs.shape[0] - 1
    if d not in (0, 1):
        raise ValueError(f"unsupported DG degree {d}")
    if d == 0:
        u1 = coeffs[0]
        return np.stack([0.5 * (left_value + u1), 0.5 * (u1 - left_value)])
    u0, u1 = coeffs[0], coeffs[1]
    # I_n U = a + b*th' + c*th'^2 with th' = (t - t_mid)/k_n
    a = 0.25 * (5.0 * u0 - u1 - left_value)
    b = u0 + u1 - left_value
    c = 3.0 * (-u0 + u1 + left_value)
    # th' = theta/2, th'^2 = (2 P_2(theta) + 1)/12
    return np.stack([a + c / 12.0, 0.5 * b, c / 6.0])


def project_interval(func, interval, d):
    """L2-orthogonal projection of func onto P_d on one interval.

    func maps an array of times to values (scalar or vector per time,
    time on the leading axis).  Uses the 4-point Gauss rule; exact for
    polynomial data of degree <= 7.
    """
    if d not in (0, 1):
        raise ValueError(f"unsupported DG degree {d}")
    t_n, k_n = interval
    ts = t_n + k_n * GAUSS4_NODES
    vals = np.asarray(func(ts), dtype=float)
    if vals.shape[0] != ts.size:
        raise ValueError("func must return one value per quadrature time")
    w = GAUSS4_WEIGHTS * k_n
    out = []
    for j in range(d + 1):
        Lj = legendre_eval(j, (t_n, k_n), ts)
        gram = k_n / (2.0 * j + 1.0)
        wl = (w * Lj) / gram
        out.append(np.tensordot(wl, vals, axes=(0, 0)))
    return np.stack(out)


class TestLegendre:
    def test_mode0_is_one(self):
        assert legendre_eval(0, (0.3, 0.5), 0.41) == 1.0

    def test_mode1_midpoint_zero(self):
        assert legendre_eval(1, (0.0, 2.0), 1.0) == 0.0

    def test_mode1_left_endpoint(self):
        assert legendre_eval(1, (0.25, 0.5), 0.25) == -1.0

    def test_right_endpoint_values_all_one(self):
        for j in range(3):
            assert legendre_eval(j, (0.0, 1.0), 1.0) == pytest.approx(1.0)

    def test_left_endpoint_parity(self):
        for j in range(3):
            assert legendre_eval(j, (0.0, 1.0), 0.0) == pytest.approx((-1.0) ** j)

    def test_library_evaluates_modes_up_to_one(self):
        with pytest.raises(ValueError, match="j <= 1"):
            tb.legendre_eval(2, (0.0, 1.0), 0.5)


class TestIntervalBasis:
    def test_tables_d1(self):
        ib = build_interval_basis(1, 0.5)
        assert ib.A.tolist() == [[1.0, -1.0], [1.0, 1.0]]
        assert ib.D.tolist() == [[0.0, 0.0], [2.0, 0.0]]
        assert ib.gram[1] == pytest.approx(1.0 / 6.0)

    def test_tables_d0(self):
        ib = build_interval_basis(0, 2.0)
        assert ib.A.tolist() == [[1.0]]
        assert ib.gram[0] == 2.0

    def test_degree_two_rejected(self):
        with pytest.raises(ValueError):
            build_interval_basis(2, 1.0)

    def test_tables_match_quadrature(self):
        # D[k][j] = int L_k' L_j over the interval, by fine quadrature
        k = 0.7
        ib = build_interval_basis(1, k)
        ts = 0.1 + k * GAUSS4_NODES
        w = k * GAUSS4_WEIGHTS
        # L_1' = 2/k
        d10 = np.sum(w * (2.0 / k) * np.ones_like(ts))
        assert d10 == pytest.approx(ib.D[1, 0], abs=1e-14)


class TestGaussRadau:
    def test_d0(self):
        r = gauss_radau(0)
        assert np.array_equal(r.nodes, [1.0])
        assert np.array_equal(r.weights, [1.0])

    def test_d1(self):
        r = gauss_radau(1)
        assert r.nodes == pytest.approx([1.0 / 3.0, 1.0])
        assert r.weights == pytest.approx([0.75, 0.25])

    @pytest.mark.parametrize("d", [0, 1])
    def test_exact_on_p2d(self, d):
        r = gauss_radau(d)
        for m in range(2 * d + 1):
            exact = 1.0 / (m + 1)
            quad = np.sum(r.weights * r.nodes**m)
            assert quad == pytest.approx(exact, abs=1e-15)

    def test_d1_on_t_squared(self):
        r = gauss_radau(1)
        assert np.sum(r.weights * r.nodes**2) == pytest.approx(1.0 / 3.0)


class TestLift:
    def test_d0_constant(self):
        out = lift(np.array([3.0]), np.array(3.0))
        assert out == pytest.approx([3.0, 0.0])

    def test_d0_ramp(self):
        # U^n = 0, U^{n+1} = 1 on (t_n, t_n + 1): lift is t - t_n
        out = lift(np.array([1.0]), np.array(0.0))
        interval = (2.0, 1.0)
        for t in (2.0, 2.3, 2.75, 3.0):
            assert poly_eval(out, interval, t) == pytest.approx(t - 2.0, abs=1e-14)

    def test_d1_constant_case(self):
        out = lift(np.array([1.0, 0.0]), np.array(1.0))
        assert out == pytest.approx([1.0, 0.0, 0.0])

    def test_interpolation_conditions_d1(self):
        rng = np.random.default_rng(7)
        interval = (0.2, 0.6)
        radau = gauss_radau(1).nodes
        for _ in range(20):
            coeffs = rng.standard_normal(2)
            left = rng.standard_normal()
            lifted = poly_eval(lift(coeffs, left), interval, np.array([0.0]))
            assert poly_eval(lift(coeffs, left), interval, 0.2) == pytest.approx(left, abs=1e-12)
            for tau in radau:
                t = 0.2 + tau * 0.6
                assert poly_eval(lift(coeffs, left), interval, t) == pytest.approx(
                    poly_eval(coeffs, interval, t), abs=1e-12
                )

    def test_radau_lift_identity(self):
        # int d(I chi)/dt psi - int chi' psi = (chi(t_n+) - chi(t_n-)) psi(t_n+)
        rng = np.random.default_rng(3)
        interval = (0.0, 0.8)
        k = 0.8
        ts = interval[0] + k * GAUSS4_NODES
        w = k * GAUSS4_WEIGHTS
        for d in (0, 1):
            for _ in range(100):
                chi = rng.standard_normal(d + 1)
                left = rng.standard_normal()
                psi = rng.standard_normal(d + 1)
                rate = lift_rate_modes(chi, left, k)
                lhs1 = np.sum(w * poly_eval(rate, interval, ts) * poly_eval(psi, interval, ts))
                # chi' in closed form via finite Legendre derivative: d=0 -> 0, d=1 -> 2 chi_1 / k
                dchi = 0.0 if d == 0 else 2.0 * chi[1] / k
                lhs2 = np.sum(w * dchi * poly_eval(psi, interval, ts))
                jump = (poly_eval(chi, interval, 0.0) - left) * poly_eval(psi, interval, 0.0)
                assert lhs1 - lhs2 == pytest.approx(jump, abs=1e-12 * max(1, abs(jump)))

    def test_lift_inequality_3_2(self):
        # int d(I psi)/dt psi >= (psi(t_{n+1})^2 - psi(t_n^-)^2) / 2
        rng = np.random.default_rng(11)
        interval = (0.0, 0.8)
        k = 0.8
        ts = interval[0] + k * GAUSS4_NODES
        w = k * GAUSS4_WEIGHTS
        for d in (0, 1):
            for _ in range(100):
                psi = rng.standard_normal(d + 1)
                left = rng.standard_normal()
                rate = lift_rate_modes(psi, left, k)
                lhs = np.sum(w * poly_eval(rate, interval, ts) * poly_eval(psi, interval, ts))
                right_val = np.sum(psi)
                rhs = 0.5 * (right_val**2 - left**2)
                assert lhs >= rhs - 1e-12


class TestLiftProperties:
    """The lift identities on random intervals, degrees and data."""

    value = st.floats(-10.0, 10.0)

    @staticmethod
    def _quad(interval):
        t_n, k = interval
        return t_n + k * GAUSS4_NODES, k * GAUSS4_WEIGHTS

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([0, 1]), t_n=st.floats(-5.0, 5.0), k=st.floats(1e-2, 10.0),
           chi=st.lists(value, min_size=2, max_size=2), left=value)
    def test_interpolates_left_value_and_radau_nodes(self, d, t_n, k, chi, left):
        interval = (t_n, k)
        chi = np.array(chi[: d + 1])
        lifted = lift(chi, left)
        scale = 1.0 + np.max(np.abs(chi)) + abs(left)
        assert abs(poly_eval(lifted, interval, t_n) - left) <= 1e-13 * scale
        for tau in gauss_radau(d).nodes:
            t = t_n + tau * k
            assert abs(poly_eval(lifted, interval, t) - poly_eval(chi, interval, t)) \
                <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([0, 1]), t_n=st.floats(-5.0, 5.0), k=st.floats(1e-2, 10.0),
           chi=st.lists(value, min_size=2, max_size=2), left=value)
    def test_rate_modes_are_the_derivative_of_the_lift(self, d, t_n, k, chi, left):
        chi = np.array(chi[: d + 1])
        c = lift(chi, left)
        # d/dt P_1 = 2/k, d/dt P_2 = (2/k) 3 theta
        want = [2.0 * c[1] / k] + ([6.0 * c[2] / k] if d == 1 else [])
        got = lift_rate_modes(chi, left, k)
        scale = (1.0 + np.max(np.abs(chi)) + abs(left)) / k
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([0, 1]), t_n=st.floats(-5.0, 5.0), k=st.floats(1e-2, 10.0),
           chi=st.lists(value, min_size=2, max_size=2),
           psi=st.lists(value, min_size=2, max_size=2), left=value)
    # the quadrature terms, 12.5 in absolute sum, cancel to 1.2e-12; the jump is 0
    @example(d=1, t_n=2.0, k=0.01171875, chi=[0.0, 0.0], psi=[6.0, 6.0], left=2.0)
    def test_radau_lift_identity(self, d, t_n, k, chi, psi, left):
        # int d(I chi)/dt psi - int chi' psi = (chi(t_n+) - chi(t_n-)) psi(t_n+)
        interval = (t_n, k)
        chi, psi = np.array(chi[: d + 1]), np.array(psi[: d + 1])
        ts, w = self._quad(interval)
        rate = poly_eval(lift_rate_modes(chi, left, k), interval, ts)
        dchi = 0.0 if d == 0 else 2.0 * chi[1] / k
        psi_t = poly_eval(psi, interval, ts)
        lhs1, lhs2 = np.sum(w * rate * psi_t), np.sum(w * dchi * psi_t)
        jump = (poly_eval(chi, interval, t_n) - left) * poly_eval(psi, interval, t_n)
        # rounding scales with the terms that cancel, not with their sums
        scale = (1.0 + np.sum(np.abs(w * rate * psi_t)) + np.sum(np.abs(w * dchi * psi_t))
                 + abs(jump))
        assert abs(lhs1 - lhs2 - jump) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([0, 1]), t_n=st.floats(-5.0, 5.0), k=st.floats(1e-2, 10.0),
           psi=st.lists(value, min_size=2, max_size=2), left=value)
    def test_decay_inequality(self, d, t_n, k, psi, left):
        # int d(I psi)/dt psi >= (psi(t_{n+1})^2 - psi(t_n^-)^2) / 2
        interval = (t_n, k)
        psi = np.array(psi[: d + 1])
        ts, w = self._quad(interval)
        lhs = np.sum(w * poly_eval(lift_rate_modes(psi, left, k), interval, ts)
                     * poly_eval(psi, interval, ts))
        rhs = 0.5 * (np.sum(psi) ** 2 - left**2)
        assert lhs >= rhs - 1e-12 * (1.0 + abs(lhs) + abs(rhs))


class TestProjectInterval:
    def test_constant(self):
        out = project_interval(lambda ts: 5.0 * np.ones_like(ts), (0.0, 1.0), 1)
        assert out == pytest.approx([5.0, 0.0], abs=1e-14)

    def test_linear_d1(self):
        out = project_interval(lambda ts: ts, (0.0, 1.0), 1)
        assert out == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_quadratic_mean_d0(self):
        out = project_interval(lambda ts: ts**2, (0.0, 1.0), 0)
        assert out == pytest.approx([1.0 / 3.0], abs=1e-14)

    def test_contraction_piecewise_linear(self):
        rng = np.random.default_rng(5)
        interval = (0.0, 1.0)
        ts = interval[0] + GAUSS4_NODES
        w = GAUSS4_WEIGHTS
        for _ in range(100):
            a, b, brk = rng.standard_normal(3)
            brk = 0.2 + 0.6 * abs(brk) / (1 + abs(brk))

            def f(t):
                return np.where(t < brk, a * t, a * brk + b * (t - brk))

            for d in (0, 1):
                proj = project_interval(f, interval, d)
                norm_p = np.sqrt(sum(proj[j] ** 2 / (2 * j + 1) for j in range(d + 1)))
                norm_f = np.sqrt(np.sum(w * f(ts) ** 2))
                assert norm_p <= norm_f + 1e-10


class TestTimePartition:
    def test_uniform(self):
        p = TimePartition.uniform(0.0, 1.0, 4)
        assert p.n_intervals == 4
        assert p.lengths == pytest.approx([0.25] * 4)

    def test_monotone_required(self):
        with pytest.raises(ValueError):
            TimePartition(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_locate(self):
        p = TimePartition.uniform(0.0, 1.0, 4)
        assert locate(p, 0.1) == 0
        assert locate(p, 0.25) == 0  # intervals are (t_n, t_{n+1}]
        assert locate(p, 0.26) == 1
        assert locate(p, 1.0) == 3
