"""Fast self-test of the benchmark itself (tiny N, about half a minute).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
an injected blowup (explicit_steady at a large dt) is counted as failed steps
instead of crashing, and that the benchmark refuses to run without the
package's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def check_metrics(trace, kind):
    out = bench("selftest_tiny", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    want = declared(kind)
    assert set(result["metrics"]) == set(want), set(result["metrics"]) ^ set(want)
    for name, unit in want.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines), name


def test_end_to_end_metrics_print_with_units():
    check_metrics(0, "end_to_end")


def test_per_layer_metrics_print_with_units():
    check_metrics(1, "per_layer")


def test_blowup_counts_as_failed_steps():
    out = bench("selftest_blowup", 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"], result
    assert result["metrics"]["clean_step_frac"]["value"] == 1 - result["failed"] / result["attempted"]


def test_refuses_without_sources():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("fluid_n256", 0, root=bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
