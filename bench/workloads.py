"""Benchmark workloads: fixed lists of ``ibstokes run`` configurations.

Every run relaxes the model ellipse with S_b = rho = 1 and rest_radius = 0.2.
The seed perturbs the ellipse axes and centre within a small band in which
every run stays clean; the package receives only the resulting ``RunConfig``
values.
"""

import random

# workloads: (scheme, N, mu, dt, steps, snapshot_every) per run.  Gated
# times are host-speed corrected (hostspeed.py), which makes 20 s runs of a
# single group steady, so each stresses one layer and has a partner that
# bypasses it.
WORKLOADS = {
    # column-by-column implicit assembly of the two stable schemes: 259/260
    # fluid solves and 518 stencil builds per step at N_b = 128
    "stable_n64": (("stable_steady", 64, 1.0, 1.0, 3, 0),
                   ("stable_unsteady", 64, 0.01, 0.05, 3, 0)),
    # dense boundary algebra: circulant builds, LAPACK solves, RK4 stages
    "dense_n128": (("ssd2_steady", 128, 1.0, 0.1, 30, 0),
                   ("ifrk4_steady", 128, 1.0, 0.1, 30, 0),
                   ("ssd2_unsteady", 128, 0.01, 0.05, 30, 0)),
    # few, large fluid solves (2 and 4 per step); no dense algebra
    "fluid_n256": (("ssd1_unsteady", 256, 0.01, 0.05, 16, 0),
                   ("second_order_unsteady", 256, 0.01, 0.02, 12, 0)),
    # snapshot writes and reloads beside cheap steps (the paper's figure cadence)
    "snapshot_n128": (("ssd1_unsteady", 128, 0.01, 0.05, 100, 20),),
    # tiny runs for the benchmark's own self-test
    "selftest_tiny": (("ssd1_unsteady", 16, 0.01, 0.05, 4, 2),
                      ("stable_steady", 16, 1.0, 1.0, 2, 0)),
    "selftest_blowup": (("explicit_steady", 32, 1.0, 2.0, 8, 0),),
}

# resume leg: straight run to RESUME_AT + RESUME_STEPS steps, snapshot at
# RESUME_AT, resume from it with a fresh SchemeConfig
RESUME_AT = 100
RESUME_STEPS = 20


def ellipse(seed):
    """Seeded ellipse: axes within 2% and centre within 0.01 of the paper's."""
    rng = random.Random(seed)
    return {"ellipse_a": 0.32 * (1.0 + rng.uniform(-0.02, 0.02)),
            "ellipse_b": 0.24 * (1.0 + rng.uniform(-0.02, 0.02)),
            "center_x": 0.5 + rng.uniform(-0.01, 0.01),
            "center_y": 0.5 + rng.uniform(-0.01, 0.01)}


def run_configs(name, seed, run_config_cls):
    """The workload's RunConfig list for this seed."""
    shape = ellipse(seed)
    return [run_config_cls(scheme=scheme, n=n, mu=mu, dt=dt, t_end=steps * dt,
                           rho=1.0, elastic=1.0, rest_radius=0.2,
                           snapshot_every=snap, label=f"{i}-{scheme}-N{n}", **shape)
            for i, (scheme, n, mu, dt, steps, snap) in enumerate(WORKLOADS[name])]
