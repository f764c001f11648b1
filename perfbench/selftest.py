"""Self-test: at the default seed, two repetitions of every workload must
pass their checks and match the committed fingerprint.

Run it by path from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` on purpose: the repository's tier-1
run collects those, and each workload's set-up here takes seconds and up
to about 750 MB of memory.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMITTED = json.loads(run.FINGERPRINTS.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_repetitions_match_committed_fingerprint(name):
    workload = WORKLOADS[name]
    expected = COMMITTED["fingerprints"][name]
    reps = run.Repetitions(workload, workload.setup(COMMITTED["seed"]), expected)
    reps.run()
    reps.run()
    assert reps.failures == []
    assert reps.fingerprints == [expected, expected]
