"""An elastic loop relaxing in steady Stokes flow.

The initial ellipse is stretched relative to its rest circle, so tension
pulls it toward a circular equilibrium whose radius is fixed by the enclosed
(incompressible) area.  We march the same problem with four time
discretizations and watch the elastic energy: the explicit scheme needs a
small step, the semi-implicit ones do not.
"""

import numpy as np

from ibstokes import diagnostics, schemes
from ibstokes.errors import BlowupError
from ibstokes.grids import GridSpec
from ibstokes.params import PhysParams

phys = PhysParams(rho=1.0, mu=1.0, elastic=1.0, interface_length=2 * np.pi * 0.2)
grid = GridSpec.make(64)

print("initial potential energy and area of the 0.32 x 0.24 ellipse:")
state0 = schemes.initial_state(phys, grid)
rec0 = diagnostics.record_state(state0, phys, grid)
print(f"  E = {rec0.total:.5f}, area = {rec0.area:.5f}\n")

print(f"{'scheme':>16s} {'dt':>6s} {'steps':>6s} {'final E':>10s} {'area':>8s}  outcome")
for scheme, dt in [("explicit_steady", 0.1), ("explicit_steady", 1.0),
                   ("ssd1_steady", 1.0), ("ssd1_steady", 10.0),
                   ("ifrk4_steady", 10.0), ("stable_steady", 10.0)]:
    cfg = schemes.SchemeConfig(scheme=scheme, dt=dt)
    n_steps = max(round(20.0 / dt), 5)
    state = state0
    try:
        for state in schemes.simulate(state0, phys, grid, cfg, n_steps):
            pass
        rec = diagnostics.record_state(state, phys, grid)
        print(f"{scheme:>16s} {dt:6g} {n_steps:6d} {rec.total:10.5f} {rec.area:8.5f}  ok")
    except BlowupError as err:
        print(f"{scheme:>16s} {dt:6g} {n_steps:6d} {'-':>10s} {'-':>8s}  blew up ({err})")

print("""
The explicit scheme sits under a stiffness limit proportional to the mesh
width; the semi-implicit and integrating-factor schemes march at steps two
orders of magnitude larger.  The provably stable two-step scheme never lets
the energy rise, at the price of one dense solve per variable per step.""")
