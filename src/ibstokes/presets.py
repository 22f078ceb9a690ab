"""Named experiment presets: the canonical relaxing-ellipse runs on the unit
periodic domain, grouped the way the stability/energy/convergence studies
report them."""

from .io import RunConfig


def _steady(scheme, dt, t_end, n=128, **kw):
    return RunConfig(scheme=scheme, n=n, dt=dt, t_end=t_end, mu=1.0,
                     label=f"{scheme}-dt{dt:g}", **kw)


def _unsteady(scheme, dt, t_end, n=128, mu=0.01, **kw):
    return RunConfig(scheme=scheme, n=n, dt=dt, t_end=t_end, mu=mu,
                     label=f"{scheme}-mu{mu:g}-dt{dt:g}", **kw)


def build_presets():
    p = {}
    # energy of four steady schemes at dt = 0.1 and 1 (explicit goes unstable
    # at the larger step)
    p["steady-fig1"] = [
        _steady(s, dt, t_end=20.0)
        for dt in (0.1, 1.0)
        for s in ("explicit_steady", "ssd1_steady", "ifrk4_steady", "stable_steady")
    ]
    # semi-implicit energies at dt = 10
    p["steady-fig2"] = [
        _steady("ssd1_steady", 10.0, t_end=200.0),
        _steady("ifrk4_steady", 10.0, t_end=200.0),
    ]
    # boundary configuration after 20 steps at dt = 10
    p["steady-fig3"] = [
        _steady("ssd1_steady", 10.0, t_end=200.0, snapshot_every=20),
        _steady("ifrk4_steady", 10.0, t_end=200.0, snapshot_every=20),
    ]
    # unsteady energies at dt = 0.005 / 0.05 (explicit unstable at the larger)
    p["unsteady-fig4"] = [
        _unsteady(s, dt, t_end=1.0)
        for dt in (0.005, 0.05)
        for s in ("explicit_unsteady", "ssd1_unsteady", "stable_unsteady")
    ]
    # semi-implicit energies at dt = 1
    p["unsteady-fig5"] = [
        _unsteady("ssd1_unsteady", 1.0, t_end=20.0),
        _unsteady("stable_unsteady", 1.0, t_end=20.0),
    ]
    # configuration after 20 steps at dt = 1
    p["unsteady-fig6"] = [
        _unsteady("ssd1_unsteady", 1.0, t_end=20.0, snapshot_every=20),
        _unsteady("stable_unsteady", 1.0, t_end=20.0, snapshot_every=20),
    ]
    # base runs of the second-order scheme's temporal convergence study at
    # dt = 1/16; `convergence` takes no preset, so a study sets the same
    # values with --set and takes its dt chain from --dts
    p["conv-fig7-table3"] = [
        _unsteady("second_order_unsteady", 1.0 / 16, t_end=1.0, n=256, mu=0.05),
        _unsteady("second_order_unsteady", 1.0 / 16, t_end=1.0, n=256, mu=0.01),
    ]
    # second-order scheme stability at dt = 0.002 / 0.02
    p["stab-fig8"] = [
        _unsteady("second_order_unsteady", dt, t_end=1.0)
        for dt in (0.002, 0.02)
    ]
    return p


PRESETS = build_presets()
