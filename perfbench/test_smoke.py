"""Tests of the benchmark itself, on the shrunk smoke worlds."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

run.use_program_source()
import bench  # noqa: E402 - needs the import path set above
from workloads import SMOKE, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(SMOKE)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


def test_run_seeds_use_disjoint_streams():
    for wl in WORKLOADS.values():
        assert wl.noise_seeds(0)[0] == 0
        used = [s for run_seed in range(10) for s in wl.noise_seeds(run_seed)]
        assert len(used) == len(set(used)) == 10 * wl.streams


@pytest.mark.parametrize("workload", list(SMOKE))
def test_smoke_run_and_traced_run(workload):
    args = ["--workload", workload, "--seed", "0", "--seconds", "0", "--smoke"]
    streams = SMOKE[workload].streams
    proc, line = run_bench(*args, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == streams
    assert units(line["metrics"]) == bench.END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())
    record = json.loads((HERE / "results" / f"{workload}-smoke-seed0-trace0.json").read_text())
    assert [st["digest_check"] for st in record["setup"]["streams"]] == ["recorded"] * streams
    assert record["environment"]["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    seeds = [str(s) for s in SMOKE[workload].noise_seeds(0)]
    assert list(record["input"]) == seeds
    for seed in seeds:
        assert record["kf_latency"][seed]["samples_per_replay"] == [record["input"][seed]["keyframes"]]

    proc, traced = run_bench(*args, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert traced["correct"] and traced["attempted"] == 2  # the first stream, untraced and traced
    m = {name: v["value"] for name, v in traced["metrics"].items()}
    assert units(traced["metrics"]) == bench.PER_LAYER
    assert m["trace.layer_share"] >= 0.95
    assert m["graph.keyframes"] == record["input"][seeds[0]]["keyframes"]
    if SMOKE[workload].cfg.enable_loop_closure:
        assert m["loops.accepted"] > 0
    if SMOKE[workload].cfg.enable_topology:
        assert m["topology.rooms"] > 0 and m["graph.landmarks"] > 0
    spans = (HERE / "results" / f"{workload}-smoke-seed0-trace1.spans.jsonl").read_text().splitlines()
    names = {json.loads(s)["name"] for s in spans}
    assert {"run_slam", "process_step", "extract_planes", "optimize"} <= names


@pytest.fixture(scope="module")
def replayed():
    wl = SMOKE["rooms4-online"]
    world, steps, setup, problems = bench.set_up(wl, 0, bench.recorded_digest("rooms4-online/smoke", 0))
    assert problems == []
    result, wall, latencies = bench.replay(wl, steps)
    return wl, world, steps, result


def test_checks_pass_on_a_good_replay(replayed):
    wl, world, steps, result = replayed
    quality, problems = bench.evaluate(wl, world, steps, result)
    assert problems == []
    assert quality["keyframes"] == bench.expected_keyframes(steps, wl.cfg.keyframe)


def test_checks_catch_bad_outputs(replayed):
    wl, world, steps, result = replayed
    bad = copy.deepcopy(result)
    kf = bad.graph.keyframes[max(bad.graph.keyframes)]
    kf.pose = replace(kf.pose, translation=np.array([np.nan, 0.0, 0.0]))
    bad.trajectory = bad.trajectory[:-1]
    _, problems = bench.evaluate(wl, world, steps, bad)
    assert any("non-finite" in p for p in problems)
    assert any("trajectory poses" in p for p in problems)

    _, problems = bench.evaluate(wl, world, steps[: len(steps) // 2], result)
    assert any("odometry implies" in p for p in problems)


def test_wrong_recorded_digest_fails_the_run():
    _, _, _, problems = bench.set_up(SMOKE["square-loop"], 0, "0" * 64)
    assert any("digest" in p for p in problems)


def test_tracing_leaves_the_program_unpatched(replayed):
    from sgraph import loops, pipeline
    from sgraph.graph import SGraph

    from tracing import Tracer

    before = (pipeline.process_step, pipeline.optimize, loops.register_scans, SGraph.evaluate_factor)
    wl, _, steps, result = replayed
    tracer = Tracer("test")
    traced, _, _ = bench.replay(wl, steps, tracer)
    after = (pipeline.process_step, pipeline.optimize, loops.register_scans, SGraph.evaluate_factor)
    assert before == after
    assert len(traced.graph.factors) == len(result.graph.factors)
    assert tracer.counts["solver.optimize_calls"] == len(result.reports)
    self_times = tracer.self_times()
    assert sum(self_times.values()) == pytest.approx(tracer.durations("run_slam")[0])


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc, line = run_bench("--workload", "square-loop", "--seed", "0", "--seconds", "1", "--trace", "0",
                       cwd=tmp_path)
    assert proc.returncode != 0 and line is None
