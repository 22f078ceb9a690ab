"""Run configuration, config-file parsing, snapshots, and CSV output.

The config format is a flat key = value document: one assignment per line,
'#' starts a comment, and each unquoted value is read as its key's declared
type (int, float or str).  Command-line flags override file values.
Snapshots are JSON documents of format 4, the one format that loads;
earlier formats are refused.  Each array is a record of its dtype, shape
and raw little-endian float64 bytes in base64, and each scalar a JSON
number (shortest repr, exact) or null.  The interface is stored as (s_alpha,
phi, anchors), the fluid as its rfft2 half spectrum (``u_hat``, ``v_hat``);
a reloaded state forms its curve and u, v when first read, as every state
does, so a run resumed at any step, step 0 included, is the unbroken run.
"""

import base64
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .diagnostics import potential_energy
from .errors import ParameterError
from .geometry import InterfaceState, enclosed_area
from .grids import GridSpec
from .params import PhysParams, finite_real
from .schemes import ROUNDOFF, SchemeConfig, StepState, initial_state
from .spectral import TWO_PI
from .stokes import FluidState

SNAPSHOT_FORMAT_VERSION = 4


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
        """Check the run's values; GridSpec checks n and n_boundary,
        PhysParams rho, mu and elastic, and SchemeConfig scheme and dt."""
        for name in ("domain_length", "ellipse_a", "ellipse_b", "rest_radius"):
            v = getattr(self, name)     # 2 pi rest_radius is the interface length
            if not (finite_real(v) and v > 0 and finite_real(TWO_PI * v)):
                raise ParameterError(f"{name}: must be positive with 2 pi {name} finite, got {v!r}")
        if not (type(self.snapshot_every) is int and self.snapshot_every >= 0):  # not bool
            raise ParameterError("snapshot_every: must be a nonnegative integer, "
                                 f"got {self.snapshot_every}")
        if not (finite_real(self.t_end) and self.t_end >= 0):
            raise ParameterError(f"t_end: must be nonnegative and finite, got {self.t_end!r}")
        for name in ("center_x", "center_y"):
            v = getattr(self, name)
            if not finite_real(v):
                raise ParameterError(f"{name}: must be finite, got {v!r}")
        # the label is the stem of every output file: it names no other directory
        if any(sep and sep in self.label for sep in ("/", os.sep, os.altsep)):
            raise ParameterError(f"label: must not contain a path separator, got {self.label!r}")
        self.grid()
        self.phys()
        self.scheme_config()

    def phys(self):
        return PhysParams(rho=self.rho, mu=self.mu, elastic=self.elastic,
                          interface_length=TWO_PI * self.rest_radius)

    def grid(self):
        return GridSpec(n=self.n, length=self.domain_length, n_boundary=self.n_boundary)

    def scheme_config(self):
        return SchemeConfig(scheme=self.scheme, dt=self.dt)

    def initial_state(self):
        state = initial_state(self.phys(), self.grid(), a=self.ellipse_a, b=self.ellipse_b,
                              center=(self.center_x, self.center_y))
        iface = state.interface
        with np.errstate(over="ignore", invalid="ignore"):
            size = potential_energy(iface.s_alpha, 1.0, iface.dalpha) + enclosed_area(iface.curve)
        if not np.isfinite(size):
            raise ParameterError("ellipse_a, ellipse_b: the start state's elastic energy or area "
                                 f"overflows, got a={self.ellipse_a!r}, b={self.ellipse_b!r}")
        return state

    def n_steps(self):
        """The steps of dt that make t_end, a whole number to round-off."""
        steps = round(self.t_end / self.dt)
        if abs(self.t_end / self.dt - steps) > ROUNDOFF * max(steps, 1):
            raise ParameterError(f"t_end {self.t_end:g} is not a whole number "
                                 f"of steps of dt {self.dt:g}")
        return steps

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
        try:
            with open(path, encoding="utf-8") as fh:
                data.update(parse_config_text(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ParameterError(f"config file {path}: {getattr(exc, 'strerror', exc)}") from None
    if overrides:
        data.update(overrides)
    valid = set(RunConfig.__dataclass_fields__)
    unknown = set(data) - valid
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**data)


def _encode_array(a):
    """The record of a float64 array: its dtype, its shape and its
    raw little-endian bytes in base64."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"dtype": "<f8", "shape": list(a.shape),
            "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(name, record):
    """The writable, C-contiguous float64 array of the record of
    snapshot field ``name``; ParameterError naming the field when the record
    is malformed, its payload does not hold exactly its shape's values or
    one of them is not finite."""
    try:
        dtype, shape = record["dtype"], tuple(record["shape"])
        raw = base64.b64decode(record["base64"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:     # binascii.Error is a ValueError
        raise ParameterError(f"snapshot field {name}: bad array record ({exc})") from None
    if dtype != "<f8" or not all(type(d) is int and d >= 0 for d in shape) \
            or len(raw) != 8 * math.prod(shape):
        raise ParameterError(f"snapshot field {name}: {len(raw)} bytes of {dtype!r} do not "
                             f"make a float64 array of shape {list(shape)}")
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"snapshot field {name}: holds a non-finite value")
    return a


def _encode_spectrum(a):
    """The record of a complex half spectrum (N, N/2 + 1), as float64 (real,
    imaginary) pairs on a last axis."""
    return _encode_array(np.stack((a.real, a.imag), axis=-1))


def _decode_fluid(array):
    """The FluidState of a format-4 document's ``u_hat`` / ``v_hat`` records,
    read through ``array(name, shape)``; ParameterError naming the field when
    ``u_hat`` is not the (N, N/2 + 1, 2) half spectrum of an even N, or
    ``v_hat`` is not shaped like it."""
    u_hat = array("u_hat")
    n = u_hat.shape[0] if u_hat.ndim == 3 else 0
    if not (n > 0 and n % 2 == 0 and u_hat.shape == (n, n // 2 + 1, 2)):
        raise ParameterError(f"snapshot field u_hat: shape {list(u_hat.shape)} is not "
                             "the half spectrum (N, N/2 + 1, 2) of an even N")
    v_hat = array("v_hat", u_hat.shape)
    return FluidState((u_hat.view(complex)[..., 0], v_hat.view(complex)[..., 0]))


def save_snapshot(path, state, run_config):
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
        "u_hat": None if fluid is None else _encode_spectrum(fluid.spectrum[0]),
        "v_hat": None if fluid is None else _encode_spectrum(fluid.spectrum[1]),
        "speed_ref": state.speed_ref,
        "c_v": state.c_v,
        "c_u": state.c_u,
        "config": asdict(run_config),
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # the write failed
            os.remove(tmp)


def load_snapshot(path):
    """Rebuild a StepState from a format-4 snapshot file; ParameterError for
    a file that is not a JSON object, is of another format, lacks a field or
    holds a malformed one."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:       # JSONDecodeError, UnicodeDecodeError
            raise ParameterError(f"snapshot {path}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"snapshot {path}: not a JSON object")
    version = doc.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ParameterError(f"unsupported snapshot format {version}")

    def field(name):
        try:
            return doc[name]
        except KeyError:
            raise ParameterError(f"snapshot field {name}: missing") from None

    def array(name, shape=None):
        a = _decode_array(name, field(name))
        if shape is not None and a.shape != shape:
            raise ParameterError(f"snapshot field {name}: shape {list(a.shape)}, "
                                 f"expected {list(shape)}")
        return a

    def number(name, positive, nullable=False):
        v = field(name)
        if not (v is None and nullable or finite_real(v) and (v > 0 if positive else v >= 0)):
            rule = ("null or " if nullable else "") + ("positive" if positive else "nonnegative")
            raise ParameterError(f"snapshot field {name}: must be {rule} and finite, got {v!r}")
        return v

    step = field("step")
    if not (type(step) is int and step >= 0):   # not bool
        raise ParameterError(f"snapshot field step: must be a nonnegative integer, got {step!r}")
    s_alpha = array("s_alpha")
    iface = InterfaceState(s_alpha, array("phi", s_alpha.shape), array("ref_points", (2, 2)),
                           number("interface_length", positive=True))
    fluid = None if field("u_hat") is None else _decode_fluid(array)
    return StepState(iface, fluid, number("t", positive=False), step,
                     number("speed_ref", positive=True, nullable=True),
                     *(number(name, positive=False, nullable=True) for name in ("c_v", "c_u")))


def write_diagnostics_csv(path, records):
    from .diagnostics import DiagnosticsRecord

    with open(path, "w") as fh:
        fh.write(DiagnosticsRecord.CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
