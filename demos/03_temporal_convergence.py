"""Temporal accuracy of the midpoint/trapezoidal semi-implicit scheme.

Successive step-halving errors e(dt) = ||X(T; dt) - X(T; dt/2)|| measured at
T = 1 for the interface positions and the velocity field.  The fitted slopes
sit near 2.
"""

import numpy as np

from ibstokes import diagnostics, schemes
from ibstokes.grids import GridSpec
from ibstokes.params import PhysParams

phys = PhysParams(rho=1.0, mu=0.01, elastic=1.0, interface_length=2 * np.pi * 0.2)
grid = GridSpec.make(128)


def run(dt):
    cfg = schemes.SchemeConfig(scheme="second_order_unsteady", dt=dt)
    st = schemes.initial_state(phys, grid)
    for st in schemes.simulate(st, phys, grid, cfg, round(1.0 / dt)):
        pass
    return {"X": (st.interface.curve.as_array(), st.interface.dalpha),
            "u": (np.stack([st.fluid.u, st.fluid.v], -1), grid.h**2)}


dts = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
study = diagnostics.run_convergence_study(run, dts)

for name, d in study.items():
    print(f"observable {name}:")
    for dt, err in zip(d["dts"], d["errors"]):
        print(f"  dt = 1/{round(1 / dt):<4d} e(dt) = {err:.3e}")
    print(f"  fitted rate {d['rate']:.2f}, per-pair "
          f"{['%.2f' % r for r in d['pair_rates']]}\n")
