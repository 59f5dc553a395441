"""The benchmark's seed-0 streams still end in the SLAM state recorded
here: the map snapshot, every solver report and the loop-constraint count,
hashed together. A change meant to leave results alone fails here if it
moves any of them by one bit.

Each run is a fresh interpreter with one BLAS thread, as in the benchmark:
with two OpenBLAS threads the rooms4-online state differs in the last bits
while its input stream does not. Run this file as a script to print a
workload's digest:

    python3 tests/test_state_digests.py rooms4-online
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from run import BLAS_THREAD_VARS, use_program_source  # noqa: E402 - needs perfbench/ on the import path

use_program_source()
from workloads import WORKLOADS  # noqa: E402

RECORDED = {
    "rooms4-online": "7964a6a933325c12502a10f2fb45023f5531a214a12e5e3fa75f3451775440f2",
    "square-loop": "52727dea23abaabdaeb5b00e25f44b8fb6ccdaaf84eb6bb0191b69e3af2c4c2e",
}


def state_digest(workload: str) -> str:
    """sha256 of the state `run_slam` leaves on the workload's noise-seed-0
    stream."""
    from sgraph.io import graph_to_dict
    from sgraph.pipeline import run_slam

    wl = WORKLOADS[workload]
    result = run_slam(wl.make_stream(wl.make_world(), 0), wl.cfg)
    state = {
        "graph": graph_to_dict(result.graph),
        "reports": [asdict(r) for r in result.reports],
        "loop_constraints": result.loop_constraints,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_state_matches_recorded_digest(workload):
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    run = subprocess.run(
        [sys.executable, __file__, workload], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == RECORDED[workload]


if __name__ == "__main__":
    print(state_digest(sys.argv[1]))
