"""Record the seed-0 final states that the benchmark checks outputs against.

    PYTHONPATH=src python3 bench/record_reference.py

Runs one pass of every workload at the reference seed and writes the final
diagnostics record of each run to bench/reference.json.  Re-record only when
a change is meant to move the trajectories, and say so in its description.
"""

import json
import os
import tempfile
import warnings

from ibstokes.io import RunConfig
from worker import HERE, REFERENCE_FIELDS, REFERENCE_SEED, run_pass
from workloads import WORKLOADS, run_configs


def main():
    warnings.filterwarnings("ignore", "reference-point reconstructions disagree", RuntimeWarning)
    warnings.filterwarnings("ignore", "rescaling disabled", RuntimeWarning)
    reference = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name in WORKLOADS:
            if name.startswith("selftest_"):
                continue
            outcomes = run_pass(run_configs(name, REFERENCE_SEED, RunConfig), out_dir)
            reference[name] = {}
            for rc, code, records, _ in outcomes:
                if code != 0:
                    raise SystemExit(f"{name}/{rc.run_name()}: exit code {code}")
                final = records[-1]
                reference[name][rc.run_name()] = {f: getattr(final, f) for f in REFERENCE_FIELDS}
            print(f"{name}: {len(outcomes)} runs")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
