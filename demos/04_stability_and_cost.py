"""Stability regions and per-step cost of the schemes.

Two observations drive the design: the explicit stiffness limit shrinks with
the mesh while the semi-implicit limit does not, and the semi-implicit step
costs only a handful of FFTs while the unconditionally stable scheme pays a
dense solve.
"""

import tempfile

import numpy as np

from ibstokes import cli, diagnostics, schemes
from ibstokes.grids import GridSpec
from ibstokes.params import PhysParams


def probe(scheme, n, dt, steps=60, mu=1.0):
    phys = PhysParams(rho=1.0, mu=mu, elastic=1.0, interface_length=2 * np.pi * 0.2)
    grid = GridSpec.make(n)
    cfg = schemes.SchemeConfig(scheme=scheme, dt=dt)
    state = schemes.initial_state(phys, grid)
    verdict, _, _ = diagnostics.stability_probe(state, phys, grid, cfg, steps)
    return verdict


print("largest stable step of the explicit steady scheme shrinks with h:")
dts = [1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2]
for n in (32, 64, 128):
    verdicts = [probe("explicit_steady", n, dt) for dt in dts]
    stable = [dt for dt, v in zip(dts, verdicts) if v == "stable"]
    print(f"  N={n:3d}: " + " ".join(f"{v[0]}@{dt:g}" for dt, v in zip(dts, verdicts))
          + f"   largest stable {max(stable) if stable else 'none':g}")

print("\nsemi-implicit scheme at the same steps (mesh-independent):")
for n in (32, 64, 128):
    verdicts = [probe("ssd1_steady", n, dt) for dt in dts]
    print(f"  N={n:3d}: " + " ".join(f"{v[0]}@{dt:g}" for dt, v in zip(dts, verdicts)))

print("\nper-step cost (unsteady schemes, mu = 0.01):")
with tempfile.TemporaryDirectory() as out:
    for scheme, ns in (("ssd1_unsteady", "64,128,256"), ("stable_unsteady", "64,128")):
        cli.main(["cost", "--schemes", scheme, "--n-list", ns, "--steps", "4",
                  "--set", "mu=0.01", "--set", "dt=0.05", "--out", out])
