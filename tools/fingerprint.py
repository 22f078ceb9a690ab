"""Record trajectory fingerprints of every scheme to tests/fingerprints.json.

    PYTHONPATH=src python3 tools/fingerprint.py

Each case runs a few steps from the model ellipse and keeps the final
(s_alpha, phi, ref_points, fluid u, v), each summarised by its 2-norm, its
max-abs and the values at a few fixed indices.  The cases are all ten schemes
at N = 32, the eight non-stable schemes at N = 64, and both stable schemes at
N = 32 with N_b = 320, which sends their implicit systems through GMRES.
`tests/test_fingerprints.py` recomputes them and compares.

A change that moves a trajectory on purpose re-records the file in the same
commit and names each moved scheme, the size of the move and its reason.
"""

import json
import os

import numpy as np

from ibstokes import schemes
from ibstokes.io import RunConfig

STEPS = 3
N_SAMPLES = 8
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests",
                    "fingerprints.json")


def case_config(scheme, n, n_boundary=None):
    """The `ibstokes cost` settings: steady mu = 1, dt = 0.1 (stable 1);
    unsteady mu = 0.01, dt = 0.05 (explicit 0.005)."""
    steady = scheme in schemes.STEADY_SCHEMES
    if steady:
        dt = 1.0 if scheme == "stable_steady" else 0.1
    else:
        dt = 0.005 if scheme == "explicit_unsteady" else 0.05
    return {"scheme": scheme, "n": n, "n_boundary": n_boundary, "dt": dt,
            "mu": 1.0 if steady else 0.01}


def cases():
    stable = ("stable_steady", "stable_unsteady")
    out = [case_config(s, 32) for s in schemes.ALL_SCHEMES]
    out += [case_config(s, 64) for s in schemes.ALL_SCHEMES if s not in stable]
    out += [case_config(s, 32, 320) for s in stable]
    return out


def case_id(config):
    return f"{config['scheme']}-n{config['n']}-nb{config['n_boundary'] or 2 * config['n']}"


def final_arrays(config, steps=STEPS):
    run = RunConfig(**config)
    phys, grid, cfg = run.phys(), run.grid(), run.scheme_config()
    state = run.initial_state()
    for _ in range(steps):
        state = schemes.step(state, phys, grid, cfg)
    arrays = {"s_alpha": state.interface.s_alpha, "phi": state.interface.phi,
              "ref_points": state.interface.ref_points}
    if state.fluid is not None:
        arrays.update(u=state.fluid.u, v=state.fluid.v)
    return arrays


def summarise(x):
    flat = np.asarray(x, dtype=float).ravel()
    index = np.linspace(0, flat.size - 1, N_SAMPLES).astype(int)
    return {"norm": float(np.linalg.norm(flat)), "max_abs": float(np.max(np.abs(flat))),
            "index": index.tolist(), "values": flat[index].tolist()}


def main():
    record = {"steps": STEPS, "cases": []}
    for config in cases():
        arrays = final_arrays(config)
        record["cases"].append({"id": case_id(config), "config": config,
                                "arrays": {k: summarise(v) for k, v in arrays.items()}})
        print(f"{case_id(config)}: {', '.join(arrays)}")
    with open(PATH, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.normpath(PATH)}")


if __name__ == "__main__":
    main()
