"""Span tracer that wraps the package's functions from outside.

Each wrapped call records a span (name, start, end, parent span, run id) in
memory.  A function is patched in its defining module and at every by-name
import site inside the package (``schemes.steady_stokes_grid_solve``,
``io.reconstruct_curve``, ``diagnostics.step``, ...), found by identity, so no
call path escapes the trace.  ``numpy.fft`` transforms are counted rather than
timed: their time stays in the self time of the layer that calls them.
"""

import functools
import inspect
import os
import time

import numpy as np

# the repo's modules, in layer order; every one is a layer
LAYERS = ("spectral", "bessel", "geometry", "coupling", "stokes", "schemes",
          "diagnostics", "io", "cli")

# functions reported by name, per layer
NAMED = {
    "spectral": ("derivative_1d", "antiderivative", "apply_symbol_1d"),
    "bessel": ("ssd_symbol_t", "ssd_symbol_s", "ssd_symbol_second_order"),
    "geometry": ("reconstruct_curve", "elastic_force", "tangent_normal", "theta_derivative"),
    "coupling": ("delta_stencils", "spread", "interpolate"),
    "stokes": ("unsteady_stokes_step", "steady_stokes_grid_solve"),
    "schemes": ("step", "_solve_linear", "_dense_solve", "_circulant_from_multiplier"),
    "diagnostics": ("record_state",),
    "io": ("save_snapshot", "load_snapshot", "write_diagnostics_csv"),
    "cli": ("execute_run",),
}

# counted transforms: the 1-D family and the 2-D family, forward and inverse
FFT_FAMILIES = {
    "fft": ("fft", "ifft", "rfft", "irfft"),
    "fft2": ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"),
}


def _is_traced_function(module, attr, obj):
    """Functions defined in the module: the public ones and the named private
    ones.  The per-scheme steppers stay inside ``schemes.step``'s self time
    (the scheme-level algebra); generators are skipped because a wrapper
    would time only their creation."""
    if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
        return False
    if inspect.isgeneratorfunction(obj):
        return False
    layer = module.__name__.rsplit(".", 1)[-1]
    if attr.startswith("_"):
        return attr in NAMED.get(layer, ())
    return not (layer == "schemes" and attr.startswith("step_"))


class Tracer:
    """Spans and counts of the package's calls while ``patch()`` is in force;
    ``unpatch()`` restores every original."""

    def __init__(self, modules):
        self.modules = modules          # {layer: module}
        self.spans = []                 # [id, parent, name, start, end, run]
        self.stack = []
        self.run = ""
        self.fft_calls = {family: 0 for family in FFT_FAMILIES}
        self.stokes_fft2_bytes = 0
        self.curves = set()             # distinct curves of the current patch
        self.distinct_curves = 0
        self.snapshot_bytes = 0
        self.missing = [f"{layer}.{name}" for layer, names in NAMED.items()
                        for name in names if not hasattr(modules[layer], name)]
        self._patches = []              # (owner, attr, original, wrapper)
        self._build_patches()

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([sid, stack[-1] if stack else -1, name, 0.0, 0.0, self.run])
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid][3] = start
                spans[sid][4] = end
        return wrapper

    def _delta_stencils(self, fn):
        # distinct curves seen by delta_stencils give builds_per_curve
        @functools.wraps(fn)
        def wrapper(curve, grid):
            self.curves.add(hash((curve.x.tobytes(), curve.y.tobytes())))
            return fn(curve, grid)
        return wrapper

    def _save_snapshot(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            self.snapshot_bytes += os.path.getsize(path)
            return out
        return wrapper

    def _fft_counter(self, family, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.fft_calls[family] += 1
            out = fn(a, *args, **kwargs)
            if family == "fft2" and self.stack \
                    and self.spans[self.stack[-1]][2].startswith("stokes."):
                self.stokes_fft2_bytes += np.asarray(a).nbytes + out.nbytes
            return out
        return wrapper

    def _build_patches(self):
        for layer, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                if not _is_traced_function(module, attr, obj):
                    continue
                counter = {("coupling", "delta_stencils"): self._delta_stencils,
                           ("io", "save_snapshot"): self._save_snapshot}.get((layer, attr))
                wrapper = self._span(f"{layer}.{attr}", counter(obj) if counter else obj)
                # every by-name import site inside the package, found by identity
                for site in self.modules.values():
                    for site_attr, value in list(vars(site).items()):
                        if value is obj:
                            self._patches.append((site, site_attr, obj, wrapper))
        solve = np.linalg.solve
        self._patches.append((np.linalg, "solve", solve, self._span("numpy.linalg.solve", solve)))
        for family, names in FFT_FAMILIES.items():
            for attr in names:
                fn = getattr(np.fft, attr)
                self._patches.append((np.fft, attr, fn, self._fft_counter(family, fn)))

    def patch(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def unpatch(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.distinct_curves += len(self.curves)
        self.curves.clear()

    def sites(self):
        """Names of every patched attribute, e.g. 'schemes.reconstruct_curve'."""
        return sorted({f"{owner.__name__.replace('ibstokes.', '')}.{attr}"
                       for owner, attr, _, _ in self._patches})

    def summary(self):
        """Per span name: calls and self time in ms (duration minus the
        durations of its direct children)."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end, _ in self.spans:
            calls, self_ms = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_ms + 1e3 * (end - start - child[sid]))
        return out

    def calls_by_run(self, name):
        counts = {}
        for _, _, span_name, _, _, run in self.spans:
            if span_name == name:
                counts[run] = counts.get(run, 0) + 1
        return counts
