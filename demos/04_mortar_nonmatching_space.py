"""Nonmatching spatial meshes on the interface.

Every interface carries an extra unknown Q approximating the diffusive
flux nu du/dn on the interface, determined by an interface equation
tested against the subdomain's own trace space.  Transmission data is then assembled from
(U, Q) with hat-function overlap integrals between the two interface
meshes, so no common refinement is ever built.

The problem here has a porosity coefficient jumping by a factor 10
across the interface, a rotating advection field, and grids that match
neither in space (5 vs 4 interface cells per unit) nor in time.
"""

from oswr.analysis import RefGrid, error_norms, solve_monodomain
from oswr.driver import build_multidomain, run_windows
from oswr.problem import parse_config

cfg = parse_config("""
[domain]
box = 0 1 0 2
T = 1.0
tolerance = 1e-10
max_iterations = 300
initial_guess = from_u0
u0 = "0.5*exp(-10*(x-0.5)^2-3*(y-1)^2)"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 2
nu = "0.05"
bx = "-sin(1.5707963267948966*(y-1))*cos(3.141592653589793*(x-0.5))"
by = "cos(1.5707963267948966*(y-1))*sin(3.141592653589793*(x-0.5))"
c = "0"
omega = "0.1"
nx = 8
ny = 20
nt = 24
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.15"
bx = "-sin(1.5707963267948966*(y-1))*cos(3.141592653589793*(x-0.5))"
by = "cos(1.5707963267948966*(y-1))*sin(3.141592653589793*(x-0.5))"
c = "0"
omega = "1"
nx = 8
ny = 16
nt = 16
degree = 1

[transmission]
from = 1
to = 2
p = 0.5
q = 0.05
r = "0"
s = 0.15

[transmission]
from = 2
to = 1
p = 0.5
q = 0.05
r = "0"
s = 0.05
""")

md = build_multidomain(cfg)
print("interface nodes per subdomain:",
      {sid: {nb: ia.nodes.size for nb, ia in asm.iface.items()}
       for sid, asm in md.assemblies.items()})
sol = run_windows(cfg, md=md)
print(f"converged in {sol.histories[0].iterations} iterations")

ref = solve_monodomain(cfg, RefGrid(nx={1: 32, 2: 32}, ny=320, nt=96))
rep = error_norms(sol, ref)
for sid in (1, 2):
    print(f"subdomain {sid}: e_inf = {rep.e_inf[sid]:.3e}, "
          f"e_T(L2) = {rep.e_T_l2[sid]:.3e}, e_T(H1) = {rep.e_T_h1[sid]:.3e}")
