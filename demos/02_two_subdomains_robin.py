"""Two-subdomain waveform relaxation with Robin transmission conditions.

The subdomains carry strongly different coefficients (the diffusion jumps
from 0.001 sqrt(y) to 0.1 sin(xy); the advection is tangential to the
interface on the left and normal to it on the right).  Each iteration
solves both subdomains over the whole window and exchanges Robin data.
After convergence the multidomain solution matches the monodomain
discrete solution to solver accuracy, interface included.
"""

from oswr.analysis import RefGrid, max_nodal_difference, solve_monodomain
from oswr.driver import run_windows
from oswr.problem import parse_config

cfg = parse_config("""
[domain]
box = 0 1 0 2
T = 1.0
tolerance = 1e-10
max_iterations = 300
initial_guess = from_u0
u0 = "0.25*exp(-100*((x-0.55)^2+(y-1.7)^2))"
f = "0"

[subdomain]
id = 1
box = 0 0.5 0 2
nu = "0.001*sqrt(y)"
bx = "0"
by = "-1"
c = "0"
nx = 8
ny = 32
nt = 32
degree = 1

[subdomain]
id = 2
box = 0.5 1 0 2
nu = "0.1*sin(x*y)"
bx = "-0.1"
by = "0"
c = "0"
nx = 8
ny = 32
nt = 32
degree = 1

[transmission]
from = 1
to = 2
p = 1.0
""")

sol = run_windows(cfg)
hist = sol.histories[0]
print(f"converged in {hist.iterations} iterations")
print("interface residual history (every 10th):")
for it, r in enumerate(hist.residuals, start=1):
    if it % 10 == 0 or it == 1:
        print(f"  iteration {it:3d}: {r:.3e}")

ref = solve_monodomain(cfg, RefGrid(nx={1: 8, 2: 8}, ny=32, nt=32))
print(f"max nodal difference vs monodomain solve: "
      f"{max_nodal_difference(sol, ref):.3e}")

u1 = sol.view(1).final_value()
u2 = sol.view(2).final_value()
print(f"solution range at T: [{min(u1.min(), u2.min()):.4f}, "
      f"{max(u1.max(), u2.max()):.4f}]")
