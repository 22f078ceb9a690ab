"""Run configuration, config-file parsing, snapshots, and CSV output.

The config format is a flat key = value document: one assignment per line,
'#' starts a comment, and each unquoted value is read as its key's declared
type (int, float or str).  Command-line flags override file values.
Snapshots are versioned JSON with explicit arrays; floats use the shortest
representation that round-trips exactly, so save/load is lossless.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .geometry import InterfaceState, reconstruct_curve
from .grids import GridSpec
from .params import PhysParams, finite_real
from .schemes import SchemeConfig, StepState, initial_state
from .stokes import FluidState

# format 2 adds the SSD rescaling coefficients c_v / c_u; format 1 still loads
SNAPSHOT_FORMAT_VERSION = 2

TWO_PI = 2.0 * np.pi


@dataclass
class RunConfig:
    """Everything needed to reproduce one simulation run."""

    scheme: str = "ssd1_unsteady"
    n: int = 64
    n_boundary: int = None          # default 2N
    dt: float = 0.25
    t_end: float = 2.0
    rho: float = 1.0
    mu: float = 0.01
    elastic: float = 1.0
    domain_length: float = 1.0
    ellipse_a: float = 0.32
    ellipse_b: float = 0.24
    center_x: float = 0.5
    center_y: float = 0.5
    rest_radius: float = 0.2
    snapshot_every: int = 0         # 0: final snapshot only
    label: str = ""

    def __post_init__(self):
        if self.n_boundary is None:
            self.n_boundary = 2 * self.n
        self.validate()

    def validate(self):
        """Check the run's values; SchemeConfig checks scheme and dt."""
        for name in ("n", "n_boundary"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0 or v % 2 != 0:
                raise ParameterError(f"{name}: must be a positive even integer, got {v}")
        for name in ("rho", "mu", "elastic", "domain_length",
                     "ellipse_a", "ellipse_b", "rest_radius"):
            v = getattr(self, name)
            if not (finite_real(v) and v > 0):
                raise ParameterError(f"{name}: must be positive and finite, got {v!r}")
        if not (type(self.snapshot_every) is int and self.snapshot_every >= 0):  # not bool
            raise ParameterError("snapshot_every: must be a nonnegative integer, "
                                 f"got {self.snapshot_every}")
        if not (finite_real(self.t_end) and self.t_end >= 0):
            raise ParameterError(f"t_end: must be nonnegative and finite, got {self.t_end!r}")
        for name in ("center_x", "center_y"):
            v = getattr(self, name)
            if not finite_real(v):
                raise ParameterError(f"{name}: must be finite, got {v!r}")
        self.scheme_config()

    def interface_length(self):
        return TWO_PI * self.rest_radius

    def phys(self):
        return PhysParams(rho=self.rho, mu=self.mu, elastic=self.elastic,
                          interface_length=self.interface_length())

    def grid(self):
        return GridSpec(n=self.n, length=self.domain_length,
                        n_boundary=self.n_boundary,
                        dalpha=self.interface_length() / self.n_boundary)

    def scheme_config(self):
        return SchemeConfig(scheme=self.scheme, dt=self.dt)

    def initial_state(self):
        return initial_state(self.phys(), self.grid(), a=self.ellipse_a, b=self.ellipse_b,
                             center=(self.center_x, self.center_y))

    def n_steps(self):
        return int(round(self.t_end / self.dt))

    def run_name(self):
        if self.label:
            return self.label
        return f"{self.scheme}-N{self.n}-dt{self.dt:g}"


def _parse_value(key, text):
    """``text`` read as the declared type (int, float or str) of the RunConfig
    field ``key``; an unknown key keeps its text, for load_run_config to refuse."""
    field = RunConfig.__dataclass_fields__.get(key)
    kind = str if field is None else field.type
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"{key}: expected {kind.__name__}, got {text!r}") from None


def parse_config_text(text):
    """Parse the flat key = value grammar into a dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = _parse_value(key, value)
    return out


def load_run_config(path=None, overrides=None):
    """Build a RunConfig from an optional file plus override assignments."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data.update(parse_config_text(fh.read()))
    if overrides:
        data.update(overrides)
    valid = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - valid
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data)


def save_snapshot(path, state, run_config=None):
    """Write the full simulation state as versioned JSON."""
    iface = state.interface
    doc = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "t": state.t,
        "step": state.step,
        "interface_length": iface.length,
        "s_alpha": iface.s_alpha.tolist(),
        "phi": iface.phi.tolist(),
        "ref_points": iface.ref_points.tolist(),
        "u": state.fluid.u.tolist() if state.fluid is not None else None,
        "v": state.fluid.v.tolist() if state.fluid is not None else None,
        "speed_ref": state.speed_ref,
        "c_v": state.c_v,
        "c_u": state.c_u,
    }
    if run_config is not None:
        doc["config"] = asdict(run_config)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_snapshot(path):
    """Rebuild a StepState from a snapshot file."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") not in (1, SNAPSHOT_FORMAT_VERSION):
        raise ParameterError(f"unsupported snapshot format {doc.get('format_version')}")
    iface = InterfaceState(np.array(doc["s_alpha"]), np.array(doc["phi"]),
                           np.array(doc["ref_points"]), doc["interface_length"])
    fluid = None
    if doc["u"] is not None:
        u = np.array(doc["u"])
        fluid = FluidState(u, np.array(doc["v"]))
    curve = reconstruct_curve(iface, drift_tol=np.inf)
    return StepState(iface, curve, fluid, doc["t"], doc["step"], doc.get("speed_ref"),
                     doc.get("c_v"), doc.get("c_u"))


def write_diagnostics_csv(path, records):
    from .diagnostics import DiagnosticsRecord

    with open(path, "w") as fh:
        fh.write(DiagnosticsRecord.CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def output_dir():
    """Output directory when ``--out`` is not given: $IBSTOKES_OUTDIR, else "out"."""
    return os.environ.get("IBSTOKES_OUTDIR", "out")
