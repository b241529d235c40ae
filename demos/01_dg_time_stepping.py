"""Discontinuous-Galerkin time stepping on a single domain.

DG(0) is the modified backward Euler scheme; DG(1) advances two Legendre
modes per interval through a 2x2 block system.  Three things to see:

* the DG(1) endpoint value of a scalar decay equals the (1,2) Pade
  approximant of the exponential,
* endpoint errors superconverge at third order while the global-in-time
  error is second order,
* the same machinery drives a 2D heat-type solve.
"""

import numpy as np
import scipy.sparse as sp

from oswr.analysis import (
    RefGrid,
    error_norms,
    fit_slope,
    solve_monodomain,
)
from oswr.dgsolver import Operators, solve_window
from oswr.problem import parse_config
from oswr.timebasis import TimePartition

one = sp.csr_matrix(np.array([[1.0]]))
decay = Operators(M_vol=one, A_vol=one, degree=1)  # u' + u = 0


def march(n):
    """u(1) of u' + u = 0, u(0) = 1, after n DG(1) steps."""
    traj = solve_window(decay, {}, TimePartition.uniform(0.0, 1.0, n), np.array([1.0]),
                        [np.zeros((2, 1))] * n)
    return traj.final_value()[0]


print("scalar decay u' + u = 0, one DG(1) step of size k = 1:")
pade = (1.0 - 1.0 / 3.0) / (1.0 + 2.0 / 3.0 + 1.0 / 6.0)
print(f"  endpoint {march(1):.15f}; (1,2) Pade of e^-1 = {pade:.15f}")

print("\nendpoint superconvergence (order 3) for u' + u = 0 on (0, 1):")
for n in (5, 10, 20):
    print(f"  k = {1.0 / n:5.3f}: |u(1) - e^-1| = {abs(march(n) - np.exp(-1.0)):.3e}")

print("\n2D advection-diffusion, time refinement (expect order 2 in"
      " L-inf(L2), order 3 at the final time):")
cfg = parse_config("""
[domain]
box = 0 1 0 1
T = 0.5
u0 = "exp(-20*((x-0.5)^2+(y-0.5)^2))"

[subdomain]
id = 1
box = 0 1 0 1
nu = "0.05"
bx = "0.4"
by = "-0.3"
c = "0.5"
nx = 16
ny = 16
nt = 4
degree = 1
""")
ref = solve_monodomain(cfg, RefGrid(nx={1: 16}, ny=16, nt=512))
ks, e_inf, e_T = [], [], []
for lev in range(4):
    nt = 4 * 2**lev
    sol = solve_monodomain(cfg, RefGrid(nx={1: 16}, ny=16, nt=nt))
    rep = error_norms(sol, ref)
    ks.append(0.5 / nt)
    e_inf.append(rep.e_inf[1])
    e_T.append(rep.e_T_l2[1])
    print(f"  nt = {nt:3d}: e_inf = {e_inf[-1]:.3e}   e_T = {e_T[-1]:.3e}")
print(f"  slopes: e_inf {fit_slope(ks, e_inf):.2f}, e_T {fit_slope(ks, e_T):.2f}")
