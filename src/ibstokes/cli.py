"""Command-line driver.

Subcommands: run (single run or preset group), convergence (temporal
refinement study), sweep (stability verdict matrix), cost (per-step scaling
report), presets (list names).  The four commands that make runs share
``--set`` and ``--out``.  Exit codes: 0 clean, 2 instability detected,
3 solver failure, 64 usage error.
"""

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import diagnostics, schemes, stokes
from .errors import BlowupError, ParameterError, SolverStallError
from .io import _parse_value, load_run_config, save_snapshot, write_diagnostics_csv
from .presets import PRESETS

EXIT_OK = 0
EXIT_UNSTABLE = 2
EXIT_SOLVER = 3
EXIT_USAGE = 64
# exit code and message prefix of each error that ends a run
FAILURES = {BlowupError: (EXIT_UNSTABLE, "instability"),
            SolverStallError: (EXIT_SOLVER, "solver failure")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"usage error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _number(text):
    """A decimal or a fraction such as 1/16."""
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)


def _list_of(item):
    """argparse type: comma-separated ``item`` values ('' is the empty list)."""
    def parse(text):
        try:
            return [item(x) for x in text.split(",")] if text else []
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return parse


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _parse_assignments(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ParameterError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        out[key] = _parse_value(key, value)
    return out


def _base_config(args):
    """The run that ``--config`` and ``--set`` describe."""
    return load_run_config(args.config, _parse_assignments(args.set))


def _out_dir(args, configs=()):
    """Make and return the output directory (``--out``, else $IBSTOKES_OUTDIR,
    else "out"), only once every run's initial state builds: input refused
    there (degenerate ellipse axes) leaves no directory behind."""
    for config in configs:
        config.initial_state()
    path = args.out or os.environ.get("IBSTOKES_OUTDIR", "out")
    os.makedirs(path, exist_ok=True)
    return path


def execute_run(config, out_dir):
    """Run one simulation, writing diagnostics CSV and snapshots.  A run
    ended by a blowup or a solver failure says why on stderr.

    Returns (exit_code, records).
    """
    phys = config.phys()
    grid = config.grid()
    cfg = config.scheme_config()
    state = config.initial_state()
    records = [diagnostics.record_state(state, phys, grid)]
    name = config.run_name()
    code = EXIT_OK
    try:
        for k in range(config.n_steps()):
            state = schemes.step(state, phys, grid, cfg)
            records.append(diagnostics.record_state(state, phys, grid))
            if config.snapshot_every and (k + 1) % config.snapshot_every == 0:
                save_snapshot(os.path.join(out_dir, f"{name}-step{k + 1}.json"),
                              state, config)
    except (BlowupError, SolverStallError) as exc:
        records.append(diagnostics.DiagnosticsRecord.failure(records[-1].step + 1))
        code, kind = FAILURES[type(exc)]
        print(f"{name}: {kind}: {exc}", file=sys.stderr)
    else:
        save_snapshot(os.path.join(out_dir, f"{name}-final.json"), state, config)
    write_diagnostics_csv(os.path.join(out_dir, f"{name}.csv"), records)
    return code, records


def cmd_run(args):
    if args.preset:
        if args.preset not in PRESETS:
            raise ParameterError(f"unknown preset {args.preset!r}; try 'ibstokes presets'")
        overrides = _parse_assignments(args.set)
        # an overridden n takes N_b = 2N unless the command sets n_boundary too
        reset = {"n_boundary": None} if "n" in overrides else {}
        configs = [load_run_config(None, {**c.__dict__, **reset, **overrides})
                   for c in PRESETS[args.preset]]
    else:
        configs = [_base_config(args)]
    for config in configs:
        config.n_steps()    # t_end off the dt grid is refused before any output
    out = _out_dir(args, configs)
    worst = EXIT_OK
    for config in configs:
        code, records = execute_run(config, out)
        verdict = {EXIT_OK: "clean", EXIT_UNSTABLE: "unstable", EXIT_SOLVER: "solver-failed"}[code]
        print(f"{config.run_name()}: {verdict}, {len(records) - 1} steps, "
              f"E {records[0].total:.6g} -> {records[-1].total:.6g}")
        worst = max(worst, code)
    return worst


def cmd_convergence(args):
    base = _base_config(args)
    phys, grid = base.phys(), base.grid()
    # every run of the chain, the extra one at the last dt/2 too, ends at t_end
    dts = args.dts + [dt / 2 for dt in args.dts[-1:]]
    steps = {dt: replace(base, dt=dt).n_steps() for dt in dts}
    if 0 in steps.values():
        raise ParameterError(f"t_end {base.t_end:g} makes no step of dt {max(dts):g}")

    def run_fn(dt):
        cfg = replace(base.scheme_config(), dt=dt)
        st = base.initial_state()
        for s in schemes.simulate(st, phys, grid, cfg, steps[dt]):
            st = s
        out = {"X": (st.interface.curve.as_array(), st.interface.dalpha)}
        if st.fluid is not None:
            out["u"] = (np.stack([st.fluid.u, st.fluid.v], -1), grid.h**2)
        return out

    try:
        study = diagnostics.run_convergence_study(run_fn, args.dts)
    except BlowupError:
        print("convergence study aborted: a run blew up", file=sys.stderr)
        return EXIT_UNSTABLE
    stem = os.path.join(_out_dir(args), f"convergence-{base.run_name()}")
    with open(stem + ".csv", "w") as fh:
        fh.write("observable,dt,error\n")
        for name, d in study.items():
            for dt, err in zip(d["dts"], d["errors"]):
                fh.write(f"{name},{format(dt, '.17g')},{format(err, '.17g')}\n")
    summary = {name: {"rate": d["rate"], "pair_rates": d["pair_rates"],
                      "dts": d["dts"], "errors": d["errors"]}
               for name, d in study.items()}
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    for name, d in study.items():
        print(f"{name}: rate {d['rate']:.3f} (pairs {['%.2f' % r for r in d['pair_rates']]})")
    return EXIT_OK


def cmd_sweep(args):
    base = _base_config(args)
    ns, dts = args.n_list, args.dt_list
    configs = {(n, dt): replace(base, n=n, n_boundary=None, dt=dt, label="")
               for n in ns for dt in dts}
    steps = {key: config.n_steps() for key, config in configs.items()}
    path = os.path.join(_out_dir(args, configs.values()), f"sweep-{base.scheme}.csv")
    verdicts = {}
    for (n, dt), config in configs.items():
        verdicts[(n, dt)] = diagnostics.stability_probe(
            config.initial_state(), config.phys(), config.grid(), config.scheme_config(),
            steps[(n, dt)])[0]
        print(f"N={n} dt={dt:g}: {verdicts[(n, dt)]}")
    with open(path, "w") as fh:
        fh.write("dt\\N," + ",".join(str(n) for n in ns) + "\n")
        for dt in dts:
            fh.write(format(dt, "g") + ","
                     + ",".join(verdicts[(n, dt)] for n in ns) + "\n")
        largest = []
        for n in ns:
            stable = [dt for dt in dts if verdicts[(n, dt)] == "stable"]
            largest.append(format(max(stable), "g") if stable else "none")
        fh.write("largest_stable," + ",".join(largest) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


@contextmanager
def _counted_calls():
    """Count, while in force, the calls that ``cost`` reports: the numpy
    transforms the package calls ("fft"), the fluid solves and the dense
    solves.  Each is wrapped where the package looks it up, and every
    original is restored on exit.  Yields the counts."""
    counted = {"fft": [(np.fft, name) for name in ("fft", "ifft", "rfft", "irfft", "rfft2",
                                                   "irfft2")],
               "fluid_solves": [(stokes, "_spectral_solve")],
               "dense_solves": [(schemes, "_dense_solve")]}
    counts = dict.fromkeys(counted, 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = []
    try:
        for key, targets in counted.items():
            for owner, name in targets:
                fn = getattr(owner, name)
                originals.append((owner, name, fn))
                setattr(owner, name, counting(key, fn))
        yield counts
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def cmd_cost(args):
    base = _base_config(args)
    ns = args.n_list
    # every run's config is checked before the first run starts
    runs = {scheme: [replace(base, scheme=scheme, n=n, n_boundary=None, label="") for n in ns]
            for scheme in args.schemes.split(",")}
    path = os.path.join(_out_dir(args, [c for cs in runs.values() for c in cs]), "cost.csv")
    fields = ("scheme", "n", "seconds_per_step", "fft_per_step", "fluid_solves_per_step",
              "dense_solves_per_step")
    # each row is written once measured: a blowup or a stall keeps the rows before it
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for scheme, configs in runs.items():
            times = []
            for config in configs:
                phys, grid, cfg = config.phys(), config.grid(), config.scheme_config()
                st = config.initial_state()
                st = schemes.step(st, phys, grid, cfg)  # warm up, sets rescaling
                with _counted_calls() as counts:
                    t0 = time.perf_counter()
                    for _ in range(args.steps):
                        st = schemes.step(st, phys, grid, cfg)
                    per_step = (time.perf_counter() - t0) / args.steps
                row = {"scheme": scheme, "n": config.n, "seconds_per_step": per_step,
                       **{f"{key}_per_step": count / args.steps for key, count in counts.items()}}
                fh.write(",".join(str(row[k]) for k in fields) + "\n")
                times.append(per_step)
                print(f"{scheme} N={config.n}: {per_step * 1e3:.2f} ms/step, "
                      f"{row['fluid_solves_per_step']:.0f} fluid solves/step")
            if len(set(ns)) >= 2:     # a slope needs two distinct sizes
                slope = np.polyfit(np.log(ns), np.log(times), 1)[0]
                print(f"{scheme}: wall-time exponent in N = {slope:.2f}")
                fh.write(f"{scheme},exponent,{slope},,,\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_presets(args):
    for name, runs in PRESETS.items():
        labels = ", ".join(r.run_name() for r in runs[:4])
        more = "" if len(runs) <= 4 else f", ... ({len(runs)} runs)"
        print(f"{name}: {labels}{more}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="ibstokes",
                     description="Elastic interface in 2D periodic Stokes flow")
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every command that makes runs
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    common.add_argument("--out", help="output directory")

    run = sub.add_parser("run", parents=[common], help="execute one run or a preset group")
    source = run.add_mutually_exclusive_group()
    source.add_argument("--config", help="key = value config file")
    source.add_argument("--preset", help="named experiment group")
    run.set_defaults(func=cmd_run)

    conv = sub.add_parser("convergence", parents=[common], help="temporal convergence study")
    conv.add_argument("--config", help="base config file")
    conv.add_argument("--dts", required=True, type=_list_of(_number),
                      help="comma-separated halving chain, e.g. 1/16,1/32,1/64")
    conv.set_defaults(func=cmd_convergence)

    sweep = sub.add_parser("sweep", parents=[common], help="stability verdict matrix")
    sweep.add_argument("--config", help="base config file")
    sweep.add_argument("--n-list", required=True, type=_list_of(int),
                       help="comma-separated grid sizes")
    sweep.add_argument("--dt-list", required=True, type=_list_of(_number),
                       help="comma-separated timesteps")
    sweep.set_defaults(func=cmd_sweep)

    cost = sub.add_parser("cost", parents=[common], help="per-step cost scaling report")
    cost.add_argument("--config", help="base config file")
    cost.add_argument("--schemes", required=True, help="comma-separated scheme names")
    cost.add_argument("--n-list", required=True, type=_list_of(int))
    cost.add_argument("--steps", type=_positive_int, default=3)
    cost.set_defaults(func=cmd_cost)

    pre = sub.add_parser("presets", help="list preset names")
    pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BlowupError, SolverStallError) as exc:
        code, kind = FAILURES[type(exc)]
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
