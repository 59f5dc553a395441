"""Measurement, output checks and per-layer metrics of the benchmark.

Import through run.py, which fixes the BLAS thread count and puts the
checkout's src/ on the import path first.
"""

from __future__ import annotations

import ctypes
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from sgraph import pipeline
from sgraph.ablation import duplicate_plane_count, stream_digest
from sgraph.geometry import inverse_compose
from sgraph.metrics import TrajectoryPair, align_rigid, associate, ate, map_rmse, point_to_world_distance
from sgraph.solver import layer_costs
from run import BLAS_THREAD_VARS
from tracing import ROOT_SPAN, STEP_SPAN, Tracer, layer_patches, patched
from workloads import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_wall_s": "s",
    "kf_latency_p50_ms": "ms",
    "kf_latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "map_inlier_share": "ratio",
}

# quality that a seed moves by more than any end-to-end bound allows: printed
# with every run, and a per-layer metric of the traced run
QUALITY = {
    "ate_m": "m",
    "map_rmse_m": "m",
    "duplicate_walls": "count",
    "topology_error": "count",
}

PER_LAYER = {
    "simulator.simulate_run_s": "s",
    "simulator.rays": "count",
    "simulator.hits": "count",
    "planes.preprocess_s": "s",
    "planes.extract_planes_s": "s",
    "planes.extract_planes_p50_ms": "ms",
    "planes.points": "count",
    "planes.detections": "count",
    "planes.kept_ratio": "ratio",
    "planes.too_few_points": "count",
    "graph.maybe_add_keyframe_s": "s",
    "graph.add_plane_observation_s": "s",
    "graph.observations": "count",
    "graph.new_landmark_ratio": "ratio",
    "graph.keyframes": "count",
    "graph.landmarks": "count",
    "graph.factors": "count",
    "topology.update_topology_s": "s",
    "topology.rooms": "count",
    "topology.corridors": "count",
    "loops.close_loops_s": "s",
    "loops.register_scans_s": "s",
    "loops.candidates": "count",
    "loops.accepted": "count",
    "loops.accept_ratio": "ratio",
    "loops.no_convergence": "count",
    "solver.optimize_s": "s",
    "solver.optimize_calls": "count",
    "solver.optimize_p50_ms": "ms",
    "solver.iterations": "count",
    "solver.factor_evals": "count",
    "solver.no_progress_calls": "count",
    "solver.max_iter_calls": "count",
    "solver.dim": "count",
    "solver.final_cost": "cost",
    "solver.cost.tracking": "cost",
    "solver.cost.plane": "cost",
    "solver.cost.room": "cost",
    "solver.cost.corridor": "cost",
    "solver.ate_over_odom": "ratio",
    "pipeline.step_self_s": "s",
    "trace.layer_share": "ratio",
    "trace.overhead_s": "s",
    **{f"quality.{name}": unit for name, unit in QUALITY.items()},
}

MAP_CUTOFF = 0.5  # m, the map_rmse default


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads": _openblas_threads(),
    }


def _openblas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def expected_keyframes(steps, policy) -> int:
    """Keyframes the odometry stream implies under the keyframe policy."""
    last = None
    count = 0
    for step in steps:
        if last is not None:
            rel = inverse_compose(last, step.odom_pose)
            if (
                float(np.linalg.norm(rel.translation)) < policy.min_translation
                and float(np.linalg.norm(rel.log()[3:6])) < policy.min_rotation
            ):
                continue
        last = step.odom_pose
        count += 1
    return count


def evaluate(wl, world, steps, result) -> tuple[dict, list[str]]:
    """Quality and counts of one replay, plus the output checks it fails."""
    graph = result.graph
    problems = []
    if not all(
        np.all(np.isfinite(kf.pose.rotation)) and np.all(np.isfinite(kf.pose.translation))
        for kf in graph.keyframes.values()
    ):
        problems.append("non-finite pose")
    if len(result.trajectory) != len(graph.keyframes):
        problems.append(f"{len(result.trajectory)} trajectory poses for {len(graph.keyframes)} keyframes")
    implied = expected_keyframes(steps, wl.cfg.keyframe)
    if len(graph.keyframes) != implied:
        problems.append(f"{len(graph.keyframes)} keyframes, odometry implies {implied}")

    reference = [(s.timestamp, s.gt_pose) for s in steps]
    ate_m = ate(TrajectoryPair(result.trajectory, reference))
    odometry = [(graph.keyframes[k].timestamp, graph.keyframes[k].odom_pose) for k in sorted(graph.keyframes)]
    ate_odom_m = ate(TrajectoryPair(odometry, reference))
    # map points live in the estimate's frame (keyframe 0 at the origin):
    # bring them into the world frame with the alignment the ATE uses
    pairs = associate(result.trajectory, reference, 0.25)
    T = align_rigid(
        np.array([p.translation for p, _ in pairs]), np.array([r.translation for _, r in pairs])
    )
    points = pipeline.aggregate_map_points(result, steps) @ T.rotation.T + T.translation
    within = point_to_world_distance(points, world) <= MAP_CUTOFF
    quality = {
        "keyframes": len(graph.keyframes),
        "landmarks": len(graph.planes),
        "rooms": len(graph.rooms),
        "corridors": len(graph.corridors),
        "factors": len(graph.factors),
        "loop_constraints": result.loop_constraints,
        "solver_reports": [
            (r.initial_cost, r.final_cost, r.iterations, r.converged) for r in result.reports
        ],
        "ate_m": ate_m,
        "ate_odom_m": ate_odom_m,
        "map_points": int(points.shape[0]),
        "map_rmse_m": map_rmse(points, world, MAP_CUTOFF),
        "map_inlier_share": float(np.mean(within)),
        "duplicate_walls": duplicate_plane_count(result, world),
        "topology_error": abs(len(graph.rooms) - len(world.rooms))
        + abs(len(graph.corridors) - len(world.corridors)),
        "layer_costs": layer_costs(graph, wl.cfg.solver.huber_delta),
    }
    return quality, problems


def replay(wl, steps, tracer=None) -> tuple[object, float, list[float]]:
    """Run the pipeline over the stream, timing each keyframe step.

    Returns (SlamResult, wall seconds, seconds of each process_step call
    that added a keyframe).
    """
    latencies: list[float] = []
    step = pipeline.process_step
    run_slam = pipeline.run_slam
    patches = []
    if tracer is not None:
        step = tracer.wrap(STEP_SPAN, step)
        run_slam = tracer.wrap(ROOT_SPAN, run_slam)
        patches = layer_patches(tracer, wl.cfg.min_plane_inlier_count)

    def timed_step(*args, **kwargs):
        t0 = time.perf_counter()
        kf_id = step(*args, **kwargs)
        if kf_id is not None:
            latencies.append(time.perf_counter() - t0)
        return kf_id

    gc.collect()  # start every replay from the same heap state
    with patched([(pipeline, "process_step", timed_step)] + patches):
        t0 = time.perf_counter()
        result = run_slam(steps, wl.cfg)
        wall = time.perf_counter() - t0
    return result, wall, latencies


def percentile_ms(values: list[float], pct: float) -> float:
    return 1e3 * float(np.percentile(values, pct))


def per_layer_metrics(tracer, quality, setup, traced_wall, untraced_wall) -> dict:
    c = tracer.counts
    self_s = tracer.self_times()

    def ratio(num, den):
        return num / den if den else 0.0

    costs = quality["layer_costs"]
    values = {
        "simulator.simulate_run_s": setup["simulate_run_s"],
        "simulator.rays": setup["rays"],
        "simulator.hits": setup["hits"],
        "planes.preprocess_s": self_s.get("preprocess", 0.0),
        "planes.extract_planes_s": self_s.get("extract_planes", 0.0),
        "planes.extract_planes_p50_ms": percentile_ms(tracer.durations("extract_planes") or [0.0], 50),
        "planes.points": c["planes.points"],
        "planes.detections": c["planes.detections"],
        "planes.kept_ratio": ratio(c["planes.kept"], c["planes.detections"]),
        "planes.too_few_points": c["planes.too_few_points"],
        "graph.maybe_add_keyframe_s": self_s.get("maybe_add_keyframe", 0.0),
        "graph.add_plane_observation_s": self_s.get("add_plane_observation", 0.0),
        "graph.observations": c["graph.observations"],
        "graph.new_landmark_ratio": ratio(c["graph.new_landmarks"], c["graph.observations"]),
        "graph.keyframes": quality["keyframes"],
        "graph.landmarks": quality["landmarks"],
        "graph.factors": quality["factors"],
        "topology.update_topology_s": self_s.get("update_topology", 0.0),
        "topology.rooms": quality["rooms"],
        "topology.corridors": quality["corridors"],
        "loops.close_loops_s": self_s.get("close_loops", 0.0),
        "loops.register_scans_s": self_s.get("register_scans", 0.0),
        "loops.candidates": c["loops.candidates"],
        "loops.accepted": c["loops.accepted"],
        "loops.accept_ratio": ratio(c["loops.accepted"], c["loops.candidates"]),
        "loops.no_convergence": c["loops.no_convergence"],
        "solver.optimize_s": self_s.get("optimize", 0.0),
        "solver.optimize_calls": c["solver.optimize_calls"],
        "solver.optimize_p50_ms": percentile_ms(tracer.durations("optimize") or [0.0], 50),
        "solver.iterations": c["solver.iterations"],
        "solver.factor_evals": c["solver.factor_evals"],
        "solver.no_progress_calls": c["solver.no_progress_calls"],
        "solver.max_iter_calls": c["solver.max_iter_calls"],
        "solver.dim": c["solver.dim"],
        "solver.final_cost": quality["solver_reports"][-1][1],
        "solver.cost.tracking": costs["tracking"],
        "solver.cost.plane": costs["plane"],
        "solver.cost.room": costs["room"],
        "solver.cost.corridor": costs["corridor"],
        "solver.ate_over_odom": quality["ate_m"] / quality["ate_odom_m"],
        "pipeline.step_self_s": self_s.get("process_step", 0.0),
        "trace.layer_share": tracer.layer_time() / traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        **{f"quality.{name}": quality[name] for name in QUALITY},
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def set_up(wl, seed: int, recorded: str | None) -> tuple[object, list, dict, list[str]]:
    """Generate the world and stream several times; time the median.

    Every repeat must give the same stream, and that stream must match the
    digest recorded for this workload and noise seed when there is one.
    """
    totals, sims, digests = [], [], []
    for _ in range(wl.setup_repeats):
        world = steps = None  # free the last repeat's stream before making the next
        t0 = time.perf_counter()
        world = wl.make_world()
        t1 = time.perf_counter()
        steps = wl.make_stream(world, seed)
        t2 = time.perf_counter()
        totals.append(t2 - t0)
        sims.append(t2 - t1)
        digests.append(stream_digest(steps))
    problems = []
    if len(set(digests)) != 1:
        problems.append("set-up repeats gave different streams")
    if recorded is not None and digests[0] != recorded:
        problems.append(f"stream digest {digests[0][:12]} != recorded {recorded[:12]}")
    info = {
        "setup_s": statistics.median(totals),
        "setup_runs_s": totals,
        "simulate_run_s": statistics.median(sims),
        "digest": digests[0],
        "digest_check": "recorded" if recorded is not None else "repeats-only (seed not recorded)",
        "steps": len(steps),
        "stream_s": steps[-1].timestamp - steps[0].timestamp,
        "rays": len(steps) * wl.pattern.n_rings * wl.pattern.n_azimuth,
        "hits": sum(len(s.scan) for s in steps),
    }
    return world, steps, info, problems


def recorded_digest(name: str, seed: int) -> str | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(name, {}).get(str(seed))


@dataclass
class Stream:
    """One generated stream of a run and what its replays measured."""

    seed: int  # noise seed
    world: object
    steps: list
    setup: dict
    problems: list[str]
    first: dict | None = None  # quality of its first replay
    walls: list[float] = field(default_factory=list)
    p50s: list[float] = field(default_factory=list)
    tails: list[float] = field(default_factory=list)
    kf_counts: list[int] = field(default_factory=list)
    beyond: list[int] = field(default_factory=list)
    samples_ms: list[list[float]] = field(default_factory=list)  # keyframe latencies per replay


def run(args) -> tuple[dict, dict]:
    """Returns (final result line, full record for the results file)."""
    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    key = wl.name + ("/smoke" if args.smoke else "")
    record = {"workload": key, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    # the traced run needs one stream only: it reports that stream's layers
    seeds = wl.noise_seeds(args.seed)[: 1 if args.trace else None]
    streams = [Stream(s, *set_up(wl, s, recorded_digest(key, s))) for s in seeds]
    record["setup"] = {
        "setup_s": statistics.median(t for st in streams for t in st.setup["setup_runs_s"]),
        "simulate_run_s": statistics.median(st.setup["simulate_run_s"] for st in streams),
        "streams": [st.setup for st in streams],
    }

    attempted = failed = 0
    log = []

    def attempt(st: Stream, tracer=None):
        """One replay of a stream; returns (quality, wall) or None when it failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            result, wall, lat = replay(wl, st.steps, tracer)
            quality, issues = evaluate(wl, st.world, st.steps, result)
        except Exception:  # noqa: BLE001 - a failed replay is counted, not fatal
            failed += 1
            log.append(traceback.format_exc())
            print(log[-1], file=sys.stderr)
            return None
        issues = st.problems + issues
        if st.first is None:
            st.first = quality
        elif quality != st.first:
            issues.append(f"replay of noise seed {st.seed} differs from its first replay")
        if issues:
            failed += 1
            log.extend(issues)
            print("check failed: " + "; ".join(issues), file=sys.stderr)
        if tracer is None and lat:
            st.walls.append(wall)
            st.p50s.append(percentile_ms(lat, 50))
            st.tails.append(percentile_ms(lat, wl.tail_pct))
            st.kf_counts.append(len(lat))
            st.beyond.append(sum(1e3 * x > st.tails[-1] for x in lat))
            st.samples_ms.append([1e3 * x for x in lat])
        return quality, wall

    # every stream once, then round robin while another replay (and the
    # traced one, if asked for) still fits in the measured seconds
    t_start = time.perf_counter()
    for i in itertools.count():
        if i >= len(streams):
            walls = [w for st in streams for w in st.walls]
            typical = statistics.median(walls) if walls else 0.0
            if time.perf_counter() - t_start + (1 + args.trace) * typical > args.seconds:
                break
        attempt(streams[i % len(streams)])

    def mean_of_medians(attr: str) -> float:
        # the mean over streams: every stream's work counts, and the noise
        # seed moves one stream's time by more than host noise moves a replay
        return statistics.fmean(statistics.median(getattr(st, attr)) for st in streams)

    metrics = {}
    if all(st.first is not None and st.walls for st in streams):
        record["outputs"] = {st.seed: {k: v for k, v in st.first.items() if k != "solver_reports"}
                             for st in streams}
        record["input"] = {st.seed: {"steps": st.setup["steps"], "keyframes": st.first["keyframes"],
                                     "stream_s": st.setup["stream_s"], "replay_wall_s": st.walls}
                           for st in streams}
        record["kf_latency"] = {"tail_pct": wl.tail_pct,
                                **{st.seed: {"samples_per_replay": st.kf_counts,
                                             "samples_beyond_tail": st.beyond,
                                             "p50_ms": st.p50s, "tail_ms": st.tails,
                                             "samples_ms": st.samples_ms} for st in streams}}
        e2e = {
            "setup_s": record["setup"]["setup_s"],
            "run_wall_s": mean_of_medians("walls"),
            "kf_latency_p50_ms": mean_of_medians("p50s"),
            "kf_latency_tail_ms": mean_of_medians("tails"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "map_inlier_share": statistics.fmean(st.first["map_inlier_share"] for st in streams),
        }
        record["end_to_end"] = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
        first = streams[0]
        record["quality"] = {n: {"value": first.first[n], "unit": u} for n, u in QUALITY.items()}
        metrics = record["end_to_end"]
        if args.trace:
            tracer = Tracer(f"{key}:seed{args.seed}:noise{first.seed}:traced")
            out = attempt(first, tracer)
            if out is not None:
                setup = {**first.setup, "simulate_run_s": record["setup"]["simulate_run_s"]}
                metrics = per_layer_metrics(tracer, out[0], setup, out[1], statistics.median(first.walls))
                record["per_layer"] = metrics
                record["spans"] = tracer.to_records()
            else:
                metrics = {}
    record["attempted"], record["failed"], record["log"] = attempted, failed, log
    record["failed_share"] = {"value": failed / attempted, "unit": "ratio"}
    line = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, record


def write_record(args, record: dict) -> Path:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    return path


def main(args) -> int:
    try:
        line, record = run(args)
    except Exception:  # noqa: BLE001 - set-up failed: report it as a failed run
        print(traceback.format_exc(), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    path = write_record(args, record)
    named = {**record.get("end_to_end", {}), **record.get("quality", {}),
             "failed_share": record["failed_share"], **record.get("per_layer", {})}
    for name, m in named.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("environment: " + json.dumps(record["environment"]))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1
