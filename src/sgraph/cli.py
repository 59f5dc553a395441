"""Command-line interface: simulate / slam / eval / ablate."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .ablation import RunMetrics, run_ablation, stream_digest
from .io import export_dataset, from_json, load_dataset, load_graph, read_tum, save_graph, write_tum
from .metrics import TrajectoryPair, ate_alignment, map_rmse, start_end_error
from .pipeline import SlamConfig, SlamResult, aggregate_map_points, run_slam
from .simulator import (
    LayoutSpec,
    NoiseSpec,
    ScanPattern,
    TrajectorySpec,
    generate_world,
    simulate_run,
)


def load_layout(path) -> tuple[LayoutSpec, TrajectorySpec, ScanPattern]:
    d = json.loads(Path(path).read_text())
    traj = from_json(TrajectorySpec, d.pop("trajectory", {}))
    pattern = from_json(ScanPattern, d.pop("pattern", {}))
    return from_json(LayoutSpec, d), traj, pattern


def load_noise(path, seed: int) -> NoiseSpec:
    return replace(from_json(NoiseSpec, json.loads(Path(path).read_text())), seed=seed)


def load_slam_config(path) -> SlamConfig:
    """Every SlamConfig field may be set; a nested object overlays the
    pipeline's default for that field, and an unknown key is an error."""
    if path is None:
        return SlamConfig()
    return from_json(SlamConfig, json.loads(Path(path).read_text()))


def cmd_simulate(args) -> int:
    layout, traj, pattern = load_layout(args.layout)
    noise = load_noise(args.noise, args.seed)
    world = generate_world(layout)
    steps = simulate_run(world, traj, noise, pattern)
    export_dataset(args.out, world, steps)
    print(f"wrote {len(steps)} steps to {args.out} (digest {stream_digest(steps)[:12]})")
    return 0


def cmd_slam(args) -> int:
    cfg = load_slam_config(args.config)
    world, steps = load_dataset(args.dataset)
    result = run_slam(steps, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_tum(out / "estimate.tum", result.trajectory)
    save_graph(out / "graph.json", result.graph)
    meta = {
        "dataset": str(Path(args.dataset).resolve()),
        "enable_topology": cfg.enable_topology,
        "enable_loop_closure": cfg.enable_loop_closure,
        "n_keyframes": len(result.graph.keyframes),
        "n_planes": len(result.graph.planes),
        "n_rooms": len(result.graph.rooms),
        "n_corridors": len(result.graph.corridors),
        "loop_constraints": result.loop_constraints,
        "final_cost": result.reports[-1].final_cost if result.reports else None,
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=1))
    print(json.dumps(meta, indent=1))
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    meta = json.loads((run_dir / "run_meta.json").read_text())
    world, steps = load_dataset(meta["dataset"])
    estimate = read_tum(run_dir / "estimate.tum")
    reference = [(s.timestamp, s.gt_pose) for s in steps]
    T, ate_val = ate_alignment(TrajectoryPair(estimated=estimate, reference=reference))

    # rebuild the optimized map from the estimate and the dataset scans
    graph = load_graph(run_dir / "graph.json")
    step_times = np.array([s.timestamp for s in steps])
    for kf_id in sorted(graph.keyframes):
        kf = graph.keyframes[kf_id]
        idx = int(np.argmin(np.abs(step_times - kf.timestamp)))
        kf.scan = steps[idx].scan
    result = SlamResult(graph=graph)
    points = aggregate_map_points(result, steps)
    if points.shape[0]:
        # map points live in the estimate's frame; bring them into the
        # world frame with the same rigid alignment the ATE uses
        points = points @ T.rotation.T + T.translation
        rmse = map_rmse(points, world)
    else:
        rmse = float("nan")
    t_err, r_err = start_end_error(estimate)
    report = {
        "ate": ate_val,
        "map_rmse": rmse,
        "map_rmse_cutoff": 0.5,
        "start_end_translation": t_err,
        "start_end_rotation_deg": r_err,
    }
    Path(args.report).write_text(json.dumps(report, indent=1))
    csv_path = Path(args.report).with_suffix(".csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.keys())
        writer.writerow(report.values())
    print(json.dumps(report, indent=1))
    return 0


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def cmd_ablate(args) -> int:
    layout, traj, pattern = load_layout(args.layout)
    noise = load_noise(args.noise, 0)
    seeds = parse_seeds(args.seeds)
    report = run_ablation(layout, traj, noise, seeds, pattern=pattern)
    d = report.to_dict()
    Path(args.report).write_text(json.dumps(d, indent=1))
    csv_path = Path(args.report).with_suffix(".csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        columns = [f.name for f in fields(RunMetrics)]
        writer.writerow(["seed", "config", *columns])
        for which, runs in (("full", report.full), ("without_topology", report.without_topology)):
            for seed, m in runs.items():
                writer.writerow([seed, which, *(getattr(m, c) for c in columns)])
    print(json.dumps({k: d[k] for k in d if k.startswith(("mean", "improvement"))}, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sgraph")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--layout", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("slam", help="run the mapping pipeline on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_slam)

    p = sub.add_parser("eval", help="compute metrics for a finished run")
    p.add_argument("--run", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="with/without-topology ablation study")
    p.add_argument("--layout", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1..10 or 1,2,3")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_ablate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
