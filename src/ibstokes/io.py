"""Run configuration, config-file parsing, snapshots, and CSV output.

The config format is a flat key = value document: one assignment per line,
'#' starts a comment, and each unquoted value is read as its key's declared
type (int, float or str).  Command-line flags override file values.
Snapshots are versioned JSON documents.  Format 3 holds each array as a
record of its dtype, shape and raw little-endian float64 bytes in base64,
and its scalars as JSON numbers (shortest repr, exact), so save/load is
lossless.  Formats 1 and 2, whose arrays are JSON float lists, still load.
"""

import base64
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .geometry import InterfaceState, reconstruct_curve
from .grids import GridSpec
from .params import PhysParams, finite_real
from .schemes import SchemeConfig, StepState, initial_state
from .stokes import FluidState

# format 2 adds the SSD rescaling coefficients c_v / c_u; format 3 writes
# arrays as base64 float64 records; formats 1 and 2 still load
SNAPSHOT_FORMAT_VERSION = 3

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


def _encode_array(a):
    """The format-3 record of a float64 array: its dtype, its shape and its
    raw little-endian bytes in base64."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(name, record):
    """The writable, C-contiguous float64 array of the format-3 record of
    snapshot field ``name``; ParameterError naming the field when the record
    is malformed or its payload does not hold exactly its shape's values."""
    try:
        dtype, shape = record["dtype"], tuple(record["shape"])
        raw = base64.b64decode(record["base64"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:     # binascii.Error is a ValueError
        raise ParameterError(f"snapshot field {name}: bad array record ({exc})") from None
    if dtype != "<f8" or not all(type(d) is int and d >= 0 for d in shape) \
            or len(raw) != 8 * math.prod(shape):
        raise ParameterError(f"snapshot field {name}: {len(raw)} bytes of {dtype!r} do not "
                             f"make a float64 array of shape {list(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def save_snapshot(path, state, run_config=None):
    """Write the full simulation state as versioned JSON.  The document goes
    to a temporary file beside ``path`` and replaces it only once complete,
    so a failed write leaves any earlier snapshot at ``path`` intact."""
    iface, fluid = state.interface, state.fluid
    doc = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "t": state.t,
        "step": state.step,
        "interface_length": iface.length,
        "s_alpha": _encode_array(iface.s_alpha),
        "phi": _encode_array(iface.phi),
        "ref_points": _encode_array(iface.ref_points),
        "u": _encode_array(fluid.u) if fluid is not None else None,
        "v": _encode_array(fluid.v) if fluid is not None else None,
        "speed_ref": state.speed_ref,
        "c_v": state.c_v,
        "c_u": state.c_u,
    }
    if run_config is not None:
        doc["config"] = asdict(run_config)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # the write failed
            os.remove(tmp)


def load_snapshot(path):
    """Rebuild a StepState from a snapshot file of any supported format."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version not in (1, 2, SNAPSHOT_FORMAT_VERSION):
        raise ParameterError(f"unsupported snapshot format {version}")

    def array(name):
        if version == SNAPSHOT_FORMAT_VERSION:
            return _decode_array(name, doc[name])
        return np.array(doc[name])      # formats 1 and 2: JSON float lists

    iface = InterfaceState(array("s_alpha"), array("phi"), array("ref_points"),
                           doc["interface_length"])
    fluid = None if doc["u"] is None else FluidState(array("u"), array("v"))
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
