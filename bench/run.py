"""ibstokes benchmark (see README.md in this directory).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real ``ibstokes run`` path (``cli.execute_run``) on one workload
in fresh worker processes, checks the outputs, prints every metric as
``name: value unit`` and ends with one JSON result line.  --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer split.  setup_s is the median over
SETUP_SAMPLES fresh processes of interpreter start -> ready.  Gated times are
in nominal seconds (see hostspeed.py).
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import REF_SECONDS, kernel_seconds, nominal, steal_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 5
KERNEL_RUNS = 5
THREADS = "1"
SETUP_TIMEOUT_S = 120


def worker_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_worker(args, out_dir, setup_only):
    """Start a worker and wait for it; return (seconds from start to READY,
    its stdout after READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
            raise RuntimeError("worker set-up timed out")
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=args.seconds + SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "READY":
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return ready, rest


def kernel_probe():
    """Host speed now: the median of KERNEL_RUNS reference-kernel times."""
    return statistics.median(kernel_seconds() for _ in range(KERNEL_RUNS))


def setup_seconds(args, out_dir):
    """Nominal set-up time of one set-up-only worker, which exits at READY:
    less the steal time from its start to its end, and corrected by
    reference-kernel runs just before its start and after its end."""
    before, steal = kernel_probe(), steal_seconds()
    ready, _ = run_worker(args, out_dir, setup_only=True)
    steal = steal_seconds() - steal
    return nominal(ready - steal, before, kernel_probe())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ibstokes", "cli.py")):
        print(f"error: no ibstokes sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = [] if args.trace else [setup_seconds(args, out_dir)
                                        for _ in range(SETUP_SAMPLES)]
        _, stdout = run_worker(args, out_dir, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = json.loads(stdout.strip().splitlines()[-1])
    record = result.pop("record")
    notes = result.pop("notes")
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
        record["samples"]["setup_s"] = setups
    record["notes"] = notes
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({**result, "record": record}, fh, indent=1)

    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    samples = record["samples"]
    if not args.trace:
        print(f"  samples: {SETUP_SAMPLES} set-ups, {samples['passes']} passes, "
              f"steps per scheme {samples['steps_per_scheme']}, "
              f"failed_step_frac {samples['failed_step_frac']:.6g}")
        print(f"  uncorrected: pass wall {statistics.median(samples['pass_raw_wall_s']):.6g} s "
              f"(median); reference kernel {samples['kernel_ms']['quartiles'][1]:.4g} ms "
              f"(median of {samples['kernel_ms']['runs']}), nominal "
              f"{1e3 * REF_SECONDS:.4g} ms; steal {samples['steal_s']:.3g} s in all")
    for note in notes:
        print(f"check failed: {note}")
    print(f"record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
