"""One fresh benchmark process: set up, run the workload's ``execute_run``
list for a fixed time, check the outputs, and print one JSON result line.

Started by ``run.py``; prints ``READY`` once set-up is done so the parent can
time interpreter start -> ready.  With ``--trace 0`` only ``schemes.step`` is
wrapped (per-step times), and pass and step times are nominal (hostspeed.py);
with ``--trace 1`` untraced and traced passes
alternate and the result carries the per-layer split.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np
import scipy

from ibstokes import cli, diagnostics, schemes, spectral, stokes
from ibstokes import io as ib_io
from ibstokes.errors import BlowupError, IBStokesError
from hostspeed import NominalClock
from tracer import FFT_FAMILIES, LAYERS, NAMED, Tracer
from workloads import RESUME_AT, RESUME_STEPS, WORKLOADS, run_configs

HERE = os.path.dirname(os.path.abspath(__file__))
MODULES = {name: sys.modules[f"ibstokes.{name}"] for name in LAYERS}

# output checks: criterion-3 energy bound, criterion-2 divergence bound, and
# the tolerance on final states against the references recorded for seed 0
ENERGY_RISE_TOL = 1e-12
DIVERGENCE_TOL = 1e-10
REFERENCE_RTOL = 1e-8
REFERENCE_SEED = 0
REFERENCE_FIELDS = ("t", "total", "area", "max_u", "min_salpha", "max_salpha")


def fluid_solves_per_step(scheme, n_boundary):
    """Structural fluid-solve counts of the dense (N_b <= dense_max) paths."""
    return {"ssd1_unsteady": 2, "second_order_unsteady": 4,
            "stable_steady": 2 * n_boundary + 3,
            "stable_unsteady": 2 * n_boundary + 4}.get(scheme)


class StepTimer:
    """Wraps only ``schemes.step`` (and its by-name import sites) to time
    steps in nominal milliseconds, with a clock mark at entry and exit."""

    def __init__(self, clock):
        self.times = {}
        self.recording = False
        original = schemes.step

        def timed_step(state, phys, grid, cfg):
            if not self.recording:
                return original(state, phys, grid, cfg)
            clock.mark()
            start = clock.wall
            out = original(state, phys, grid, cfg)
            clock.mark()
            key = f"{cfg.scheme}-N{grid.n}"
            self.times.setdefault(key, []).append(1e3 * (clock.wall - start))
            return out

        for module in MODULES.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, timed_step)


def snapshot_path(out_dir, rc, tag):
    return os.path.join(out_dir, f"{rc.run_name()}-{tag}.json")


def run_pass(configs, out_dir, tracer=None):
    """The workload's fixed list of execute_run calls, with each snapshot
    written reloaded.  Returns [(config, exit code, records, loaded)]."""
    outcomes = []
    for rc in configs:
        if tracer is not None:
            tracer.run = rc.run_name()
        try:
            code, records = cli.execute_run(rc, out_dir)
        except IBStokesError:
            code, records = None, []
        loaded = []
        if rc.snapshot_every:
            done = sum(r.stable for r in records[1:])
            tags = [f"step{k}" for k in range(rc.snapshot_every, done + 1, rc.snapshot_every)]
            if code == 0:
                tags.append("final")
            for tag in tags:
                loaded.append((tag, ib_io.load_snapshot(snapshot_path(out_dir, rc, tag))))
        outcomes.append((rc, code, records, loaded))
    return outcomes


def _state_arrays(s):
    fluid = () if s.fluid is None else (s.fluid.u, s.fluid.v)
    return (s.interface.s_alpha, s.interface.phi, s.interface.ref_points) + fluid


def _same_state(a, b):
    return (a.t, a.step, a.speed_ref) == (b.t, b.step, b.speed_ref) \
        and all(np.array_equal(x, y) for x, y in zip(_state_arrays(a), _state_arrays(b)))


class Checks:
    """Attempted and failed steps, and a message per failed check, over passes."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, outcomes, out_dir, full):
        """Count a pass.  Failed steps: steps not completed, steps whose energy
        rose on a stable scheme and, with ``full`` (the last pass, whose output
        files are the ones left on disk), a final fluid that is not discretely
        divergence free, a snapshot that does not round-trip, or a final state
        off the reference."""
        for rc, code, records, loaded in outcomes:
            label = rc.run_name()
            n = rc.n_steps()
            self.attempted += n
            bad = set(range(sum(r.stable for r in records[1:]) + 1, n + 1))
            notes = [f"{label}: exit code {code}"] if code != 0 else []
            if rc.scheme.startswith("stable_") and records:
                e0 = records[0].total
                for a, b in zip(records, records[1:]):
                    if b.stable and b.total - a.total > ENERGY_RISE_TOL * e0:
                        bad.add(b.step)
                        notes.append(f"{label}: energy rose {(b.total - a.total) / e0:.2e}*E0 "
                                     f"at step {b.step}")
            if full and code == 0:
                final = dict(loaded).get("final") \
                    or ib_io.load_snapshot(snapshot_path(out_dir, rc, "final"))
                if rc.scheme.endswith("_unsteady"):
                    div = stokes.divergence_inf_norm(final.fluid, rc.domain_length) \
                        / max(final.fluid.max_speed(), 1e-30)
                    if not div <= DIVERGENCE_TOL:
                        bad.add(n)
                        notes.append(f"{label}: final relative divergence {div:.2e}")
                phys, grid = rc.phys(), rc.grid()
                again_path = os.path.join(out_dir, "roundtrip.json")
                for tag, state in loaded:
                    ib_io.save_snapshot(again_path, state, rc)
                    again = ib_io.load_snapshot(again_path)
                    rec = diagnostics.record_state(state, phys, grid)
                    if not (_same_state(state, again) and rec == records[state.step]):
                        bad.add(state.step)
                        notes.append(f"{label}: snapshot {tag} does not round-trip")
                if self.reference is not None:
                    want = self.reference[label]
                    off = [f for f in REFERENCE_FIELDS
                           if not abs(getattr(records[-1], f) - want[f])
                           <= REFERENCE_RTOL * abs(want[f]) + 1e-14]
                    if off:
                        bad.add(n)
                        notes.append(f"{label}: final {', '.join(off)} off the reference")
            self.failed += len(bad)
            self.notes += [note for note in notes if note not in self.notes]


def resume_leg(rc, out_dir):
    """Straight run to RESUME_AT + RESUME_STEPS against a resume from the
    RESUME_AT snapshot with a fresh SchemeConfig.  Returns (max |s_alpha|
    difference over the steps both reached, step of the first blowup in the
    leg or 0)."""
    phys, grid = rc.phys(), rc.grid()
    cfg = rc.scheme_config()
    state = schemes.initial_state(phys, grid, a=rc.ellipse_a, b=rc.ellipse_b,
                                  center=(rc.center_x, rc.center_y))
    path = os.path.join(out_dir, "resume.json")
    end = RESUME_AT + RESUME_STEPS
    straight = {}
    try:
        for k in range(1, end + 1):
            state = schemes.step(state, phys, grid, cfg)
            if k == RESUME_AT:
                ib_io.save_snapshot(path, state, rc)
            straight[k] = state.interface.s_alpha
    except BlowupError as exc:
        if exc.step <= RESUME_AT:
            return 0.0, exc.step
        end = exc.step - 1
    resumed = ib_io.load_snapshot(path)
    fresh = rc.scheme_config()
    drift = 0.0
    for k in range(RESUME_AT + 1, end + 1):
        try:
            resumed = schemes.step(resumed, phys, grid, fresh)
        except BlowupError as exc:
            return drift, exc.step
        drift = max(drift, float(np.max(np.abs(resumed.interface.s_alpha - straight[k]))))
    return drift, 0


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "fft_threads": 1}


def timed_metrics(configs, out_dir, seconds, checks):
    clock = NominalClock()
    timer = StepTimer(clock)
    walls, cpus, raw_walls = [], [], []
    start = time.perf_counter()
    done = False
    while not done:
        timer.recording = True
        clock.mark()
        w0, c0, t0 = clock.wall, clock.cpu, time.perf_counter()
        outcomes = run_pass(configs, out_dir)
        clock.mark()
        raw_walls.append(time.perf_counter() - t0)
        walls.append(clock.wall - w0)
        cpus.append(clock.cpu - c0)
        timer.recording = False
        done = time.perf_counter() - start + statistics.fmean(raw_walls) > seconds
        if done:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks.add(outcomes, out_dir, full=done)
    medians = {s: statistics.median(t) for s, t in timer.times.items()}
    step_ms = math.exp(statistics.fmean(math.log(m) for m in medians.values())) \
        if medians else 0.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "step_ms.p50": (step_ms, "ms"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "clean_step_frac": (1.0 - checks.failed / checks.attempted, "1"),
    }
    kernel_ms = [1e3 * k for k in clock.kernel_s]
    samples = {"passes": len(walls), "pass_wall_s": walls, "pass_cpu_s": cpus,
               "pass_raw_wall_s": raw_walls, "steal_s": clock.steal,
               "kernel_ms": {"runs": len(kernel_ms), "min": min(kernel_ms),
                             "quartiles": statistics.quantiles(kernel_ms, n=4),
                             "max": max(kernel_ms)},
               "step_ms": timer.times,
               "steps_per_scheme": {s: len(t) for s, t in timer.times.items()},
               "step_ms_median_per_scheme": medians,
               "failed_step_frac": checks.failed / checks.attempted}
    return metrics, samples


def traced_metrics(configs, out_dir, seconds, checks, workload, seed):
    tracer = Tracer(MODULES)
    stokes_counters = getattr(stokes, "counters", {})
    spectral_counters = getattr(spectral, "counters", {})
    clock = NominalClock()
    walls = {False: [], True: []}       # nominal pass wall times
    solves = fft_counted = 0
    start = time.perf_counter()
    done = False
    while not done:
        for traced in (False, True):
            # marks only while unpatched: the kernel's transforms and solve
            # must not enter the trace
            clock.mark()
            start_pass = clock.wall
            if traced:
                solves -= stokes_counters.get("fluid_solves", 0)
                fft_counted -= spectral_counters.get("fft", 0)
                tracer.patch()
            try:
                outcomes = run_pass(configs, out_dir, tracer if traced else None)
            finally:
                if traced:
                    tracer.unpatch()
            clock.mark()
            walls[traced].append(clock.wall - start_pass)
            if traced:
                solves += stokes_counters.get("fluid_solves", 0)
                fft_counted += spectral_counters.get("fft", 0)
                elapsed = time.perf_counter() - start
                done = elapsed + elapsed / len(walls[True]) > seconds
            checks.add(outcomes, out_dir, full=done)

    summary = tracer.summary()
    steps = summary.get("schemes.step", (0, 0.0))[0]
    per_step = 1.0 / max(steps, 1)
    metrics = {}
    for layer, names in NAMED.items():
        for name in names:
            calls, self_ms = summary.get(f"{layer}.{name}", (0, 0.0))
            metrics[f"{layer}.{name}.calls"] = (calls * per_step, "count")
            metrics[f"{layer}.{name}.self_ms"] = (self_ms * per_step, "ms")
    calls, self_ms = summary.get("numpy.linalg.solve", (0, 0.0))
    metrics["numpy.linalg.solve.calls"] = (calls * per_step, "count")
    metrics["numpy.linalg.solve.self_ms"] = (self_ms * per_step, "ms")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_ms"] = (per_step * sum(
            ms for name, (_, ms) in summary.items() if name.startswith(layer + ".")), "ms")
    for family in FFT_FAMILIES:
        metrics[f"numpy.fft.{family}.calls"] = (tracer.fft_calls[family] * per_step, "count")
    metrics["spectral.counters.fft"] = (fft_counted * per_step, "count")
    metrics["stokes.fft2.mb_computed"] = (tracer.stokes_fft2_bytes / 1e6 * per_step, "MB")
    metrics["stokes.counters.fluid_solves"] = (solves * per_step, "count")
    builds = summary.get("coupling.delta_stencils", (0, 0.0))[0]
    metrics["coupling.delta_stencils.builds_per_curve"] = (builds / max(tracer.distinct_curves, 1),
                                                           "count")
    saves = summary.get("io.save_snapshot", (0, 0.0))[0]
    metrics["io.save_snapshot.bytes"] = (tracer.snapshot_bytes / max(saves, 1), "B")
    metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                      / statistics.median(walls[False]) - 1.0, "1")
    metrics["trace.missing_names"] = (len(tracer.missing), "count")

    # self-checks: traced fluid solves against the package's own counter, and
    # the structural per-step counts of each scheme
    traced_solves = sum(summary.get(f"stokes.{name}", (0, 0.0))[0]
                        for name in NAMED["stokes"])
    if "fluid_solves" in stokes_counters and traced_solves != solves:
        checks.notes.append(f"tracer saw {traced_solves} fluid solves, "
                            f"stokes.counters {solves}")
    passes = len(walls[True])
    for rc in configs:
        expected = fluid_solves_per_step(rc.scheme, rc.n_boundary)
        if expected is None:
            continue
        seen = sum(tracer.calls_by_run(f"stokes.{name}").get(rc.run_name(), 0)
                   for name in NAMED["stokes"])
        if seen != expected * rc.n_steps() * passes:
            checks.notes.append(f"{rc.run_name()}: {seen / (rc.n_steps() * passes):g} fluid "
                                f"solves/step, expected {expected}")

    drift, blowup = 0.0, 0
    snap = [rc for rc in configs if rc.snapshot_every]
    if snap:
        drift, blowup = resume_leg(snap[0], out_dir)
    metrics["io.resume_drift"] = (drift, "1")
    metrics["io.resume_blowup_step"] = (blowup, "step")

    spans_path = os.path.join(os.path.dirname(out_dir), f"spans-{workload}-seed{seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "run"],
                   "spans": tracer.spans}, fh)
    samples = {"passes_untraced": len(walls[False]), "passes_traced": passes,
               "steps_traced": steps, "missing_names": tracer.missing,
               "patched_sites": tracer.sites(), "spans_file": spans_path}
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for run outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # the package's known, documented warnings (also filtered by its test suite)
    warnings.filterwarnings("ignore", "reference-point reconstructions disagree", RuntimeWarning)
    warnings.filterwarnings("ignore", "rescaling disabled", RuntimeWarning)
    configs = run_configs(args.workload, args.seed, ib_io.RunConfig)
    for rc in configs:
        # warm-up with its own SchemeConfig: step writes c_v / c_u into it
        phys, grid = rc.phys(), rc.grid()
        state = schemes.initial_state(phys, grid, a=rc.ellipse_a, b=rc.ellipse_b,
                                      center=(rc.center_x, rc.center_y))
        try:
            schemes.step(state, phys, grid, rc.scheme_config())
        except IBStokesError:
            pass    # a failing run is counted by the measured passes
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = None
    if args.seed == REFERENCE_SEED:
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh).get(args.workload)
    checks = Checks(reference)
    if args.trace:
        metrics, samples = traced_metrics(configs, args.out, args.seconds, checks,
                                          args.workload, args.seed)
    else:
        metrics, samples = timed_metrics(configs, args.out, args.seconds, checks)
    print(json.dumps({
        "correct": not checks.notes, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "notes": checks.notes,
        "record": {"machine": machine_record(), "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "configs": [asdict(rc) for rc in configs], "samples": samples},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
