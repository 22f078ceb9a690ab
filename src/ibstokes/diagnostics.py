"""Energy, area and stability instrumentation plus the temporal
convergence-study harness."""

from dataclasses import dataclass

import numpy as np

from .coupling import inner_product_gamma, inner_product_omega
from .errors import BlowupError, ParameterError, SolverStallError
from .geometry import anchor_drift, enclosed_area
from .schemes import step


def kinetic_energy(fluid, rho, h):
    """K = (rho/2) <u, u> on the grid; zero when there is no fluid state."""
    if fluid is None:
        return 0.0
    return 0.5 * rho * (inner_product_omega(fluid.u, fluid.u, h)
                        + inner_product_omega(fluid.v, fluid.v, h))


def potential_energy(s_alpha, elastic, dalpha):
    """P = (S_b/2) sum (s_alpha - 1)^2 dalpha."""
    dev = np.asarray(s_alpha) - 1.0
    return 0.5 * elastic * inner_product_gamma(dev, dev, dalpha)


@dataclass
class DiagnosticsRecord:
    """One step's diagnostics.  ``anchor_drift`` is the gap between the two
    anchored curve reconstructions; ``c_v`` / ``c_u`` are the state's SSD
    rescaling coefficients, None where the scheme has none (yet)."""

    step: int
    t: float
    kinetic: float
    potential: float
    total: float
    area: float
    max_u: float
    min_salpha: float
    max_salpha: float
    anchor_drift: float
    c_v: float = None
    c_u: float = None
    stable: bool = True

    CSV_HEADER = "step,t,K,P,E,area,max_u,min_salpha,max_salpha,anchor_drift,c_v,c_u,stable"

    @classmethod
    def failure(cls, step):
        """The row of a step that failed: every value NaN, flagged unstable."""
        return cls(step, *[np.nan] * 11, stable=False)

    def csv_row(self):
        nums = (self.t, self.kinetic, self.potential, self.total, self.area,
                self.max_u, self.min_salpha, self.max_salpha, self.anchor_drift,
                self.c_v, self.c_u)
        return f"{self.step}," + ",".join("" if v is None else format(v, ".17g")
                                          for v in nums) + f",{int(self.stable)}"


def record_state(state, phys, grid):
    k = kinetic_energy(state.fluid, phys.rho, grid.h)
    p = potential_energy(state.interface.s_alpha, phys.elastic, state.interface.dalpha)
    max_u = state.fluid.max_speed() if state.fluid is not None else 0.0
    return DiagnosticsRecord(
        step=state.step, t=state.t, kinetic=k, potential=p, total=k + p,
        area=enclosed_area(state.interface.curve), max_u=max_u,
        min_salpha=float(np.min(state.interface.s_alpha)),
        max_salpha=float(np.max(state.interface.s_alpha)),
        anchor_drift=anchor_drift(state.interface),
        c_v=state.c_v, c_u=state.c_u)


def _curve_in_box(curve, centre, length):
    """Every node within 1.5 domain lengths of ``centre`` in x and in y."""
    half = 1.5 * length
    return bool(np.all((np.abs(curve.x - centre[0]) <= half)
                       & (np.abs(curve.y - centre[1]) <= half)))


def stability_probe(state, phys, grid, cfg, n_steps):
    """Run the scheme and classify the trajectory.

    Unstable iff the total energy ever exceeds 10x its initial value, any
    field goes non-finite, or a node moves out of the box of half-width 1.5
    domain lengths centred on the initial curve's centroid.  Returns
    (verdict, records, final_state) where final_state is None after a
    detected failure.
    """
    records = [record_state(state, phys, grid)]
    e0 = records[0].total
    centre = (state.interface.curve.x.mean(), state.interface.curve.y.mean())
    for _ in range(n_steps):
        try:
            state = step(state, phys, grid, cfg)
        except (BlowupError, SolverStallError):
            records.append(DiagnosticsRecord.failure(records[-1].step + 1))
            return "unstable", records, None
        rec = record_state(state, phys, grid)
        if (not np.isfinite(rec.total)) or rec.total > 10.0 * e0 \
                or not _curve_in_box(state.interface.curve, centre, grid.length):
            rec.stable = False
            records.append(rec)
            return "unstable", records, state
        records.append(rec)
    return "stable", records, state


def fit_rate(dts, errors):
    """Least-squares slope of log(error) vs log(dt), plus per-pair ratios."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    logd, loge = np.log(dts), np.log(errors)
    slope = np.polyfit(logd, loge, 1)[0]
    pair_rates = np.log2(errors[:-1] / errors[1:]).tolist()
    return float(slope), pair_rates


def run_convergence_study(run_fn, dt_list):
    """Successive-refinement temporal errors e(dt) = ||q(T; dt) - q(T; dt/2)||.

    run_fn(dt) returns a dict mapping observable name to (values, weight)
    where the norm is sqrt(sum(values^2) * weight).  dt_list must be a
    halving chain of at least two timesteps; one extra run at dt_list[-1]/2
    provides the last pair.
    Returns {observable: {"dts", "errors", "rate", "pair_rates"}}.
    """
    dt_list = list(dt_list)
    if len(dt_list) < 2:
        raise ParameterError(f"dt list needs at least two timesteps to fit a rate, got {dt_list}")
    for a, b in zip(dt_list[:-1], dt_list[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ParameterError(f"dt list must halve at each entry, got {a:g} then {b:g}")
    all_dts = dt_list + [dt_list[-1] / 2.0]
    solutions = [run_fn(dt) for dt in all_dts]
    names = solutions[0].keys()
    out = {}
    for name in names:
        errs = []
        for sol, finer in zip(solutions[:-1], solutions[1:]):
            vals, w = sol[name]
            vals_f, _ = finer[name]
            errs.append(float(np.sqrt(np.sum((vals - vals_f) ** 2) * w)))
        rate, pair_rates = fit_rate(dt_list, errs)
        out[name] = {"dts": dt_list, "errors": errs, "rate": rate,
                     "pair_rates": pair_rates}
    return out
