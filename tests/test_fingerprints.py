"""Final states of every scheme against the checked-in fingerprints.

`tests/fingerprints.json` is written by `tools/fingerprint.py`; each recorded
number must be reproduced to 1e-12 of its array's max-abs.
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))
import fingerprint  # noqa: E402

with open(fingerprint.PATH) as fh:
    RECORD = json.load(fh)

TOL = 1e-12


def test_record_covers_every_case():
    assert [c["config"] for c in RECORD["cases"]] == fingerprint.cases()
    assert RECORD["steps"] == fingerprint.STEPS


@pytest.mark.parametrize("case", RECORD["cases"], ids=[c["id"] for c in RECORD["cases"]])
def test_final_state_matches_fingerprint(case):
    arrays = fingerprint.final_arrays(case["config"], RECORD["steps"])
    assert sorted(arrays) == sorted(case["arrays"])
    for name, want in case["arrays"].items():
        got = fingerprint.summarise(arrays[name])
        scale = want["max_abs"]
        assert got["index"] == want["index"], name
        assert abs(got["norm"] - want["norm"]) <= TOL * np.sqrt(arrays[name].size) * scale, name
        assert abs(got["max_abs"] - scale) <= TOL * scale, name
        err = np.max(np.abs(np.subtract(got["values"], want["values"])))
        assert err <= TOL * scale, (name, err / scale)
