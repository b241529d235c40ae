"""Per-interval polynomial machinery for the DG time discretization.

Each time interval I_n = (t_n, t_{n+1}] carries a scaled Legendre basis
L_{n,j}(t) = P_j(2(t - t_{n+1/2})/k_n) with L_{n,j}(t_{n+1}) = 1 and
L_{n,j}(t_n) = (-1)^j.  The module provides the Gram norms and the
derivative/jump coupling tables of the implicit DG scheme, the
Gauss-Radau rule (right endpoint included, exact on P_{2d}), and the
Legendre modes of the time derivative of the degree-raising lift that
interpolates at the left breakpoint and the Radau nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimePartition",
    "IntervalBasis",
    "RadauRule",
    "legendre_eval",
    "build_interval_basis",
    "gauss_radau",
    "lift_rate_modes",
    "GAUSS4_NODES",
    "GAUSS4_WEIGHTS",
]

# 4-point Gauss-Legendre on [0,1]: used for time integrals of configured
# data (exact on P_7, far beyond the scheme order).
_g4 = np.array([
    -0.8611363115940526, -0.3399810435848563,
    0.3399810435848563, 0.8611363115940526,
])
_w4 = np.array([
    0.3478548451374538, 0.6521451548625461,
    0.6521451548625461, 0.3478548451374538,
])
GAUSS4_NODES = 0.5 * (_g4 + 1.0)
GAUSS4_WEIGHTS = 0.5 * _w4


def _check_degree(d):
    if d not in (0, 1):
        raise ValueError(f"unsupported DG degree {d} (only d in {{0, 1}})")


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing breakpoints t_0 < ... < t_N covering a window."""

    breakpoints: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("partition needs at least two breakpoints")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def uniform(cls, t_start, t_end, n):
        return cls(np.linspace(t_start, t_end, n + 1))

    @property
    def n_intervals(self):
        return self.breakpoints.size - 1

    @property
    def lengths(self):
        return np.diff(self.breakpoints)

    @property
    def start(self):
        return float(self.breakpoints[0])

    @property
    def end(self):
        return float(self.breakpoints[-1])

    def gram(self, degree):
        """(N, degree+1) Legendre Gram weights int_{I_n} L_j^2 = k_n/(2j+1)."""
        return self.lengths[:, None] / (2.0 * np.arange(degree + 1) + 1.0)



@dataclass(frozen=True)
class RadauRule:
    """Right Gauss-Radau rule on [0,1], exact on P_{2d}."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_radau(d):
    _check_degree(d)
    if d == 0:
        return RadauRule(np.array([1.0]), np.array([1.0]))
    return RadauRule(np.array([1.0 / 3.0, 1.0]), np.array([0.75, 0.25]))


@dataclass(frozen=True)
class IntervalBasis:
    """Scheme tables for one interval of length k.

    gram[j]   = int_I L_j^2          = k/(2j+1)
    D[k_][j]  = int_I L_k' L_j       = 0 (k<=j), 1-(-1)^(k+j) (k>j)
    A[k_][j]  = D[k_][j] + L_k(t_n+) L_j(t_n+)
              = (-1)^(k+j) (k<=j), 1 (k>j)
    """

    degree: int
    k: float
    gram: np.ndarray
    D: np.ndarray
    A: np.ndarray


def build_interval_basis(d, k):
    _check_degree(d)
    if k <= 0:
        raise ValueError("interval length must be positive")
    js = np.arange(d + 1)
    gram = k / (2.0 * js + 1.0)
    D = np.zeros((d + 1, d + 1))
    A = np.zeros((d + 1, d + 1))
    for kk in range(d + 1):
        for j in range(d + 1):
            if kk > j:
                D[kk, j] = 1.0 - (-1.0) ** (kk + j)
                A[kk, j] = 1.0
            else:
                A[kk, j] = (-1.0) ** (kk + j)
    return IntervalBasis(degree=d, k=float(k), gram=gram, D=D, A=A)


def legendre_eval(j, interval, t):
    """Scaled Legendre polynomial L_{n,j} at time t, for j <= 1.

    interval is (t_n, k_n).
    """
    t_n, k_n = interval
    theta = 2.0 * (np.asarray(t, dtype=float) - (t_n + 0.5 * k_n)) / k_n
    if j == 0:
        return np.ones_like(theta) if theta.shape else 1.0
    if j == 1:
        return theta if theta.shape else float(theta)
    raise ValueError(f"legendre_eval supports j <= 1, got {j}")


def lift_rate_modes(coeffs, left_value, k, d=None):
    """Legendre modes of d(I_n .)/dt on one interval.

    The derivative of the lifted P_{d+1} polynomial is again P_d; these
    are the modes entering the transmission operators' time-derivative
    term.  d=0: [(U - U^-)/k];  d=1: [(U0+U1-U^-)/k, 3(-U0+U1+U^-)/k].
    """
    coeffs = np.asarray(coeffs, dtype=float)
    left_value = np.asarray(left_value, dtype=float)
    if d is None:
        d = coeffs.shape[0] - 1
    _check_degree(d)
    if d == 0:
        return np.stack([(coeffs[0] - left_value) / k])
    u0, u1 = coeffs[0], coeffs[1]
    return np.stack([
        (u0 + u1 - left_value) / k,
        3.0 * (-u0 + u1 + left_value) / k,
    ])
