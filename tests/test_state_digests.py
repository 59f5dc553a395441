"""The benchmark's seed-0 streams, and rooms4-online's noise-seed-2 stream,
still end in the SLAM state recorded here: the map snapshot, every solver
report and the loop-constraint count, hashed together. A change meant to
leave results alone fails here if it moves any of them by one bit. The
seed-2 stream merges planes four times, so it covers the solve's rebuilt
layout, which seed 0 never needs.

Each run is a fresh interpreter with one BLAS thread, as in the benchmark:
with two OpenBLAS threads the rooms4-online state differs in the last bits
while its input stream does not. Run this file as a script to print a
workload's digest, of noise seed 0 or the seed given:

    python3 tests/test_state_digests.py rooms4-online [2]
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
# rooms4-online noise seed 2, recorded before the solve kept its layout
# between `optimize` calls
ROOMS4_SEED2 = "d4cff532ff6e7050f35f874fcfacea8375ba1b6d8fb330341142fdb9a6280b6a"


def state_digest(workload: str, seed: int = 0) -> str:
    """sha256 of the state `run_slam` leaves on the workload's stream of
    noise seed `seed`."""
    from sgraph.io import graph_to_dict
    from sgraph.pipeline import run_slam

    wl = WORKLOADS[workload]
    result = run_slam(wl.make_stream(wl.make_world(), seed), wl.cfg)
    state = {
        "graph": graph_to_dict(result.graph),
        "reports": [asdict(r) for r in result.reports],
        "loop_constraints": result.loop_constraints,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def digest_in_subprocess(*args: str) -> str:
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    run = subprocess.run(
        [sys.executable, __file__, *args], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.strip()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_state_matches_recorded_digest(workload):
    assert digest_in_subprocess(workload) == RECORDED[workload]


def test_rooms4_seed2_state_matches_recorded_digest():
    assert digest_in_subprocess("rooms4-online", "2") == ROOMS4_SEED2


if __name__ == "__main__":
    print(state_digest(sys.argv[1], *map(int, sys.argv[2:])))
