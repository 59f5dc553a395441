"""Record the stream digests of every workload for a range of run seeds.

    python3 perfbench/record_digests.py --seeds 0..39 [--workload NAME] [--smoke]

A run checks each stream it generates against the digest recorded here for
its workload and noise seed, so a change to the simulator, or to the inputs
a seed produces, shows as a failed run. Run seed n uses the noise seeds
`Workload.noise_seeds(n)`; this records all of them. Re-record only when
such a change is meant.
"""

from __future__ import annotations

import argparse
import json

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="run seeds, e.g. 0..39 or 0,1,2")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("..")
    seeds = range(int(lo), int(hi) + 1) if hi else [int(s) for s in args.seeds.split(",")]

    run.prepare()
    from sgraph.ablation import stream_digest
    from workloads import SMOKE, WORKLOADS

    chosen = SMOKE if args.smoke else WORKLOADS
    path = run.HERE / "digests.json"
    table = {k: v for k, v in json.loads(path.read_text()).items() if k.split("/")[0] in chosen}
    for name in args.workload or list(chosen):
        wl = chosen[name]
        key = name + ("/smoke" if args.smoke else "")
        world = wl.make_world()
        entries = table.setdefault(key, {})
        for seed in (s for run_seed in seeds for s in wl.noise_seeds(run_seed)):
            entries[str(seed)] = stream_digest(wl.make_stream(world, seed))
            print(key, seed, entries[str(seed)][:12], flush=True)
        table[key] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
