"""Compare the final states of the fingerprint cases with another checkout.

    python3 tools/compare_states.py OTHER_TREE

Runs every case of `fingerprint.cases()` (this tree's list) in this tree and
in OTHER_TREE, each in its own subprocess whose PYTHONPATH holds only that
tree's `src` and `tools`.  For each case and array it prints "bitwise" when
the two final arrays are identical, else the relative move
max|a - b| / max|a|, with a taken from this tree.  It exits 0 when every
array is bitwise, 1 when any array moved or is missing from OTHER_TREE, and
64 on a usage error.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(HERE, "src"), os.path.join(HERE, "tools")]
import fingerprint  # noqa: E402

# run in each tree: read the case configs from stdin, save the final arrays
_WORKER = """
import json, sys
import numpy as np
import fingerprint
out = {}
for i, config in enumerate(json.load(sys.stdin)):
    for name, a in fingerprint.final_arrays(config).items():
        out[f"{i}/{name}"] = a
np.savez(sys.argv[1], **out)
"""


def final_states(tree, configs, path):
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "tools")]))
    subprocess.run([sys.executable, "-c", _WORKER, path], input=json.dumps(configs),
                   text=True, env=env, cwd=tree, check=True)
    with np.load(path) as data:
        return dict(data)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    configs = fingerprint.cases()
    with tempfile.TemporaryDirectory() as tmp:
        ours = final_states(HERE, configs, os.path.join(tmp, "ours.npz"))
        theirs = final_states(argv[0], configs, os.path.join(tmp, "theirs.npz"))
    worst, moved = 0.0, False
    for i, config in enumerate(configs):
        names = sorted({k.split("/")[1] for k in ours if k.startswith(f"{i}/")})
        cells = []
        for name in names:
            a, b = ours[f"{i}/{name}"], theirs.get(f"{i}/{name}")
            if b is None or a.shape != b.shape:
                cells.append(f"{name} missing")
                moved = True
            elif np.array_equal(a, b):
                cells.append(f"{name} bitwise")
            else:
                moved = True
                rel = float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-300))
                worst = max(worst, rel)
                cells.append(f"{name} {rel:.2e}")
        print(f"{fingerprint.case_id(config)}: {', '.join(cells)}")
    print(f"largest relative move: {worst:.2e}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
