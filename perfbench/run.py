"""Seeded benchmark of the sgraph SLAM pipeline.

    python3 perfbench/run.py --workload rooms4-online --seed 0 --seconds 35 --trace 0

Replays the workload's generated sensor streams (several per seed) through
the unmodified pipeline (`pipeline.run_slam`, which calls
`pipeline.process_step` per step), one step after the other in this one
process, checks the outputs and prints every metric with its unit. The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the first stream is replayed once more with spans around
every layer call and the metrics are the per-layer ones.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# one BLAS thread: the load is one closed-loop client on a two-core box, and
# OpenBLAS's default of two threads burns CPU there without shortening wall time
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("rooms4-online", "square-loop")


def use_program_source() -> None:
    """Import the program from this checkout's src/ only."""
    if not (SRC / "sgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'sgraph'}")
    sys.path[:0] = [str(SRC), str(HERE)]


def prepare() -> None:
    """Fix the BLAS thread count before numpy loads, then use_program_source."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    use_program_source()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="replay repeatedly until this much time is measured (every stream at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunk worlds, for the tests")
    args = parser.parse_args(argv)
    prepare()
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
