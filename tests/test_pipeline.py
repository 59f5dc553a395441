"""End-to-end pipeline behavior and the command-line interface."""

import csv
import json
import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from sgraph import pipeline, planes
from sgraph.ablation import AblationReport, RunMetrics, duplicate_plane_count
from sgraph.cli import load_layout, load_slam_config, main, parse_seeds
from sgraph.factors import FactorKind
from sgraph.io import graph_to_dict, save_world, to_json
from sgraph.metrics import TrajectoryPair, ate
from sgraph.pipeline import SlamConfig, run_slam
from sgraph.simulator import (
    LayoutSpec,
    NoiseSpec,
    RectSpec,
    ScanPattern,
    TrajectorySpec,
    default_multi_room_layout,
    generate_world,
    perimeter_waypoints,
    simulate_run,
)

LAYOUT = LayoutSpec(rects=(RectSpec(-4.0, 4.0, -3.0, 3.0, kind="room"),))
TRAJ = TrajectorySpec(waypoints=((-2.0, -1.0, 0.0), (2.0, -1.0, 0.0), (2.0, 1.0, 0.0)))
PATTERN = ScanPattern(n_rings=12, n_azimuth=180)


def run_steps(noise=NoiseSpec(seed=0)):
    world = generate_world(LAYOUT)
    return world, simulate_run(world, TRAJ, noise, PATTERN)


def test_loop_closure_with_topology_on():
    """Loop closure and the room and corridor layer in one run: the 2-room
    layout's perimeter path, rooms4-online's noise, loop closure on."""
    layout = default_multi_room_layout(2)
    world = generate_world(layout)
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    noise = NoiseSpec(trans_drift=0.02, rot_drift=0.005, range_sigma=0.01, seed=0)
    steps = simulate_run(world, traj, noise, ScanPattern(n_rings=8, n_azimuth=180, max_range=9.0))
    cfg = SlamConfig(enable_loop_closure=True)
    result = run_slam(steps, cfg)
    graph = result.graph
    assert result.loop_constraints > 0
    assert sum(f.kind is FactorKind.LOOP_CLOSURE for f in graph.factors) == result.loop_constraints
    assert len(graph.rooms) >= 1
    for kf in graph.keyframes.values():
        assert np.isfinite(kf.pose.rotation).all() and np.isfinite(kf.pose.translation).all()
    assert graph_to_dict(run_slam(steps, cfg).graph) == graph_to_dict(graph)


class TestRunSlam:
    def test_noiseless_recovers_trajectory(self):
        world, steps = run_steps()
        result = run_slam(steps, SlamConfig())
        pair = TrajectoryPair(
            estimated=result.trajectory,
            reference=[(s.timestamp, s.gt_pose) for s in steps],
        )
        assert ate(pair) < 1e-6
        assert result.reports[-1].final_cost < 1e-8

    def test_builds_room_layer(self):
        world, steps = run_steps()
        result = run_slam(steps, SlamConfig())
        assert len(result.graph.planes) >= 4
        assert len(result.graph.rooms) == 1
        room = next(iter(result.graph.rooms.values()))
        spans = [result.graph.spans[s] for s in room.spans]
        # the map frame is anchored at the first pose, so the room center
        # sits at world center (0,0) minus the start position
        start_xy = steps[0].gt_pose.translation[:2]
        assert np.allclose([s.center for s in spans], -start_xy, atol=0.05)
        assert np.allclose([s.width for s in spans], [8.0, 6.0], atol=0.1)

    def test_topology_flag_isolated(self):
        _, steps = run_steps()
        off = run_slam(steps, SlamConfig(enable_topology=False))
        assert len(off.graph.rooms) == 0
        assert len(off.graph.corridors) == 0
        assert all(f.kind.value not in ("room_plane", "corridor_plane") for f in off.graph.factors)

    def test_loop_flag_default_off_is_bit_identical(self):
        _, steps = run_steps(NoiseSpec(trans_drift=0.01, seed=2))
        a = run_slam(steps, SlamConfig())
        b = run_slam(steps, SlamConfig(enable_loop_closure=False))
        assert a.loop_constraints == 0
        assert graph_to_dict(a.graph) == graph_to_dict(b.graph)

    def test_keyframe_spacing_respected(self):
        _, steps = run_steps()
        result = run_slam(steps, SlamConfig())
        kfs = sorted(result.graph.keyframes)
        for a, b in zip(kfs, kfs[1:]):
            d = np.linalg.norm(
                result.graph.keyframes[b].odom_pose.translation
                - result.graph.keyframes[a].odom_pose.translation
            )
            assert d > 0.5  # policy min_translation=1.0 along straight segments


class TestPlaneFloor:
    """RANSAC searches only for planes the map keeps: a cloud smaller than
    `min_plane_inlier_count` is stored for loop closure but not searched."""

    # a closed walk round the room, twice, so loop closure has candidates
    LOOP = TrajectorySpec(
        waypoints=((-2.0, -1.5, 0.0), (2.0, -1.5, 0.0), (2.0, 1.5, 0.0), (-2.0, 1.5, 0.0)), loops=2
    )

    def test_cloud_below_the_floor_is_not_searched(self, monkeypatch):
        steps = simulate_run(generate_world(LAYOUT), self.LOOP, NoiseSpec(trans_drift=0.02, seed=1), PATTERN)
        base = SlamConfig(enable_loop_closure=True)
        clouds = {s.timestamp: planes.preprocess(s.scan, base.filter) for s in steps}
        cfg = replace(base, min_plane_inlier_count=1 + max(len(c) for c in clouds.values()))

        # before the floor reached RANSAC: search at RANSAC's own floor,
        # then keep none of the planes found
        found = []
        with monkeypatch.context() as mp:
            extract = pipeline.extract_planes

            def discard(cloud, _ransac, predicted):
                found.extend(extract(cloud, cfg.ransac, predicted))
                return []

            mp.setattr(pipeline, "extract_planes", discard)
            want = run_slam(steps, cfg)
        assert found

        def search(*_args):
            raise AssertionError("searched a cloud that cannot hold a kept plane")

        monkeypatch.setattr(planes, "_ransac_round", search)
        monkeypatch.setattr(planes, "_trim_fit", search)
        got = run_slam(steps, cfg)
        assert got.graph.keyframes and not got.graph.planes
        assert all(f.kind is not FactorKind.POSE_PLANE for f in got.graph.factors)
        for kf in got.graph.keyframes.values():
            assert kf.scan.points.tobytes() == clouds[kf.timestamp].points.tobytes()
        assert got.loop_constraints == want.loop_constraints > 0
        assert graph_to_dict(got.graph) == graph_to_dict(want.graph)
        assert [to_json(r) for r in got.reports] == [to_json(r) for r in want.reports]

    def test_default_floor_searches_and_maps_planes(self, monkeypatch):
        _, steps = run_steps()
        rounds = [0]
        ransac_round = planes._ransac_round

        def counted(*args):
            rounds[0] += 1
            return ransac_round(*args)

        monkeypatch.setattr(planes, "_ransac_round", counted)
        result = run_slam(steps, SlamConfig())
        assert rounds[0] > 0
        assert len(result.graph.planes) >= 4


def rooms4_run(rects, yaw=0.0):
    """Noiseless rooms4-online scans of `rects`, walked centre to centre
    with every waypoint at one yaw, and the run on them."""
    world = generate_world(LayoutSpec(rects=tuple(rects)))
    traj = TrajectorySpec(waypoints=tuple((x, y, yaw) for x, y, _ in perimeter_waypoints(list(rects))))
    steps = simulate_run(world, traj, NoiseSpec(), ScanPattern(max_range=9.0))
    return world, run_slam(steps, SlamConfig())


def node_spans(graph, swap=False):
    """Rooms, then corridors: each node's spans as sorted (axis, centre,
    width) rows, axis 0 for x and 1 for y, or the other way round."""
    def spans(node):
        return sorted(
            (1 - s.axis.index if swap else s.axis.index, s.center, s.width)
            for s in (graph.spans[i] for i in node.spans)
        )
    return [np.array(sorted(spans(n) for n in layer.values())) for layer in (graph.rooms, graph.corridors)]


class TestMapFrame:
    """The map does not depend on how the map frame lies in the building."""

    ROOMS4 = default_multi_room_layout(4).rects

    @pytest.fixture(scope="class")
    def at_zero(self):
        return rooms4_run(self.ROOMS4)

    def test_heading_45_maps_each_wall_once(self, at_zero):
        # a wall near 45 degrees changes label between observations; the
        # association ignores labels, so it is still mapped once
        world, zero = at_zero
        _, result = rooms4_run(self.ROOMS4, yaw=math.pi / 4)
        assert duplicate_plane_count(zero, world) == 0
        assert len(result.graph.planes) == len(zero.graph.planes)
        assert duplicate_plane_count(result, world) == 0

    def test_transposed_layout_gives_the_spans_with_the_axes_swapped(self, at_zero):
        # the layout mirrored across y = x: the corridors become x spans,
        # which no benchmark workload has
        mirrored = [RectSpec(r.y_min, r.y_max, r.x_min, r.x_max, r.kind, r.name) for r in self.ROOMS4]
        _, result = rooms4_run(mirrored)
        _, zero = at_zero
        for got, want in zip(node_spans(result.graph, swap=True), node_spans(zero.graph)):
            assert got.shape == want.shape and got.size
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)


class TestCli:
    def write_configs(self, tmp_path):
        layout = {
            "rects": [{"x_min": -4.0, "x_max": 4.0, "y_min": -3.0, "y_max": 3.0}],
            "trajectory": {
                "waypoints": [[-2.0, -1.0, 0.0], [2.0, -1.0, 0.0], [2.0, 1.0, 0.0]]
            },
            "pattern": {"n_rings": 12, "n_azimuth": 180},
        }
        noise = {"trans_drift": 0.0, "rot_drift": 0.0, "range_sigma": 0.0}
        (tmp_path / "layout.json").write_text(json.dumps(layout))
        (tmp_path / "noise.json").write_text(json.dumps(noise))

    def test_simulate_slam_eval_round_trip(self, tmp_path):
        self.write_configs(tmp_path)
        data = tmp_path / "data"
        run = tmp_path / "run"
        report = tmp_path / "report.json"
        assert main([
            "simulate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"), "--out", str(data),
        ]) == 0
        assert (data / "world.json").exists()
        assert (data / "ground_truth.tum").exists()
        assert main(["slam", "--dataset", str(data), "--out", str(run)]) == 0
        meta = json.loads((run / "run_meta.json").read_text())
        assert meta["n_rooms"] == 1
        assert (meta["enable_topology"], meta["enable_loop_closure"]) == (True, False)
        assert main(["eval", "--run", str(run), "--report", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["ate"] < 1e-6
        assert rep["map_rmse"] < 1e-6
        assert report.with_suffix(".csv").exists()

    def test_slam_flags_reach_run_meta(self, tmp_path):
        self.write_configs(tmp_path)
        data = tmp_path / "data"
        run = tmp_path / "run"
        assert main([
            "simulate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"), "--out", str(data),
        ]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"enable_topology": False, "enable_loop_closure": True}))
        assert main([
            "slam", "--dataset", str(data), "--out", str(run), "--config", str(cfg),
        ]) == 0
        meta = json.loads((run / "run_meta.json").read_text())
        assert (meta["enable_topology"], meta["enable_loop_closure"]) == (False, True)
        assert meta["n_rooms"] == meta["n_corridors"] == 0

    def test_integer_coordinates_are_read_as_floats(self, tmp_path):
        # the README's example layout, written with integers
        layout = {
            "rects": [{"x_min": -4, "x_max": 4, "y_min": -3, "y_max": 3}],
            "trajectory": {"waypoints": [[-2, -1, 0], [2, -1, 0], [2, 1, 0]]},
            "pattern": {"n_rings": 16, "n_azimuth": 360},
        }
        (tmp_path / "layout.json").write_text(json.dumps(layout))
        spec, traj, pattern = load_layout(tmp_path / "layout.json")
        assert spec.rects[0] == RectSpec(-4.0, 4.0, -3.0, 3.0)
        assert type(spec.rects[0].x_min) is float and type(traj.waypoints[0][0]) is float
        assert pattern == ScanPattern(n_rings=16, n_azimuth=360)
        save_world(tmp_path / "world.json", generate_world(spec))

    def test_unknown_layout_key_is_named(self, tmp_path):
        self.write_configs(tmp_path)
        layout = json.loads((tmp_path / "layout.json").read_text())
        layout["pattern"]["n_ring"] = 4
        (tmp_path / "layout.json").write_text(json.dumps(layout))
        with pytest.raises(ValueError, match="n_ring"):
            load_layout(tmp_path / "layout.json")

    def test_unknown_rectangle_kind_is_an_error(self, tmp_path, capsys):
        self.write_configs(tmp_path)
        layout = json.loads((tmp_path / "layout.json").read_text())
        layout["rects"][0]["kind"] = "Room"
        (tmp_path / "layout.json").write_text(json.dumps(layout))
        assert main([
            "simulate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"), "--out", str(tmp_path / "data"),
        ]) == 1
        assert capsys.readouterr().err.startswith("error: rectangle RectSpec(")
        assert not (tmp_path / "data").exists()

    def test_non_finite_odometry_fails_the_slam_command(self, tmp_path, capsys):
        self.write_configs(tmp_path)
        data = tmp_path / "data"
        assert main([
            "simulate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"), "--out", str(data),
        ]) == 0
        odom = data / "odometry.tum"
        lines = odom.read_text().splitlines()
        fields = lines[len(lines) // 3].split()
        fields[2] = "nan"
        lines[len(lines) // 3] = " ".join(fields)
        odom.write_text("\n".join(lines) + "\n")
        assert main(["slam", "--dataset", str(data), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "odometry.tum" in err and "bad TUM line" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name", ["odometry.tum", "scans/000001.ply"])
    def test_non_numeric_value_fails_the_slam_command(self, tmp_path, capsys, name):
        self.write_configs(tmp_path)
        data = tmp_path / "data"
        assert main([
            "simulate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"), "--out", str(data),
        ]) == 0
        path = data / name
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace(lines[-1].split()[1], "abc", 1)
        path.write_text("\n".join(lines) + "\n")
        assert main(["slam", "--dataset", str(data), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{len(lines)}: not a number in ")
        assert not (tmp_path / "run").exists()

    def test_error_gives_nonzero_exit(self, tmp_path):
        assert main(["slam", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path)]) == 1

    def test_parse_seeds(self):
        assert parse_seeds("1..4") == [1, 2, 3, 4]
        assert parse_seeds("0,5,9") == [0, 5, 9]

    @pytest.mark.parametrize(("seeds", "message"), [("3..1", "empty"), ("1,1,2", "repeated")])
    def test_bad_seeds_are_an_error(self, tmp_path, capsys, seeds, message):
        with pytest.raises(ValueError, match=message):
            parse_seeds(seeds)
        self.write_configs(tmp_path)
        assert main([
            "ablate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"),
            "--seeds", seeds, "--report", str(tmp_path / "ablation.json"),
        ]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "ablation.json").exists()

    def test_ablate_writes_report(self, tmp_path):
        self.write_configs(tmp_path)
        report = tmp_path / "ablation.json"
        assert main([
            "ablate", "--layout", str(tmp_path / "layout.json"),
            "--noise", str(tmp_path / "noise.json"),
            "--seeds", "0", "--report", str(report),
        ]) == 0
        d = json.loads(report.read_text())
        assert "mean_ate_full" in d or "mean_ate" in str(d)
        with open(report.with_suffix(".csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "seed", "config", "ate", "n_planes", "n_duplicates", "n_rooms", "n_corridors", "final_cost",
        ]
        assert [row[:2] for row in rows[1:]] == [["0", "full"], ["0", "without_topology"]]
        full = d["full"]["0"]
        assert rows[1][2:] == [str(full[name]) for name in rows[0][2:]]


def every_leaf_changed(cfg):
    """`cfg` with every scalar field, nested ones included, off its value."""
    changes = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if is_dataclass(v):
            changes[f.name] = every_leaf_changed(v)
        elif isinstance(v, bool):
            changes[f.name] = not v
        elif isinstance(v, int):
            changes[f.name] = v + 1
        else:
            changes[f.name] = v * 1.5 + 0.25
    return replace(cfg, **changes)


def leaves(cfg, prefix=""):
    """(dotted name, value) of every scalar field, nested ones included."""
    out = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        out += leaves(v, f"{prefix}{f.name}.") if is_dataclass(v) else [(prefix + f.name, v)]
    return out


class TestSlamConfigFile:
    def load(self, tmp_path, d):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        return load_slam_config(path)

    def test_no_file_is_the_default(self):
        assert load_slam_config(None) == SlamConfig()

    def test_nested_object_overlays_the_pipeline_default(self, tmp_path):
        cfg = self.load(tmp_path, {"ransac": {"threshold": 0.05}})
        assert cfg.ransac == replace(SlamConfig().ransac, threshold=0.05)
        assert cfg.ransac.max_iters == 300
        assert replace(cfg, ransac=SlamConfig().ransac) == SlamConfig()

    def test_every_field_is_read(self, tmp_path):
        cfg = self.load(
            tmp_path,
            {
                "room": {"min_width": 0.8},
                "loop": {"gate": 5.0},
                "solver": {"max_iters": 10},
                "optimize_every_keyframe": False,
            },
        )
        default = SlamConfig()
        assert cfg.room == replace(default.room, min_width=0.8)
        assert cfg.loop == replace(default.loop, gate=5.0)
        assert cfg.solver == replace(default.solver, max_iters=10)
        assert cfg.solver.check_rank is False
        assert cfg.optimize_every_keyframe is False

    def test_every_leaf_round_trips(self, tmp_path):
        cfg = every_leaf_changed(SlamConfig())
        unchanged = [n for (n, a), (_, b) in zip(leaves(cfg), leaves(SlamConfig())) if a == b]
        assert unchanged == []
        assert self.load(tmp_path, to_json(cfg)) == cfg

    @pytest.mark.parametrize(
        "d, key",
        [
            ({"enable_topolgy": False}, "enable_topolgy"),
            ({"ransac": {"treshold": 0.1}}, "treshold"),
            # settings that are module constants now
            ({"loop": {"icp_tol": 1e-6}}, "icp_tol"),
            ({"room": {"width_match_tol": 0.3}}, "width_match_tol"),
            ({"association_gate": 4.0}, "association_gate"),
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, d, key):
        with pytest.raises(ValueError, match=key):
            self.load(tmp_path, d)

    @pytest.mark.parametrize(
        "d, key",
        [
            ({"enable_topology": "false"}, "enable_topology"),
            ({"ransac": {"min_inliers": 120.7}}, "min_inliers"),
            ({"topology_sigma": True}, "topology_sigma"),
            ({"plane_sigma_d": "0.02"}, "plane_sigma_d"),
            ({"keyframe": {"min_translation": None}}, "min_translation"),
        ],
    )
    def test_wrong_json_type_is_named(self, tmp_path, d, key):
        with pytest.raises(ValueError, match=key):
            self.load(tmp_path, d)

    def test_json_integer_is_a_valid_float(self, tmp_path):
        cfg = self.load(tmp_path, {"topology_sigma": 4, "ransac": {"threshold": 0}})
        assert type(cfg.topology_sigma) is float and cfg.topology_sigma == 4.0
        assert type(cfg.ransac.threshold) is float and cfg.ransac.threshold == 0.0
        assert cfg.ransac.min_inliers == 100

    def test_unknown_key_fails_the_slam_command(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"enable_topolgy": False}))
        argv = ["slam", "--dataset", str(tmp_path), "--config", str(tmp_path / "cfg.json")]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 1
        assert "enable_topolgy" in capsys.readouterr().err


def test_ablation_report_json_unchanged():
    run = RunMetrics(ate=0.5, n_planes=7, n_duplicates=1, n_rooms=2, n_corridors=1, final_cost=3.25)
    off = RunMetrics(ate=0.75, n_planes=9, n_duplicates=3, n_rooms=0, n_corridors=0, final_cost=4.0)
    report = AblationReport(
        seeds=[4], digests={4: "abc"}, full={4: run}, without_topology={4: off}
    )
    expected = {
        "seeds": [4],
        "stream_digests": {"4": "abc"},
        "full": {
            "4": {
                "ate": 0.5,
                "n_planes": 7,
                "n_duplicates": 1,
                "n_rooms": 2,
                "n_corridors": 1,
                "final_cost": 3.25,
            }
        },
        "without_topology": {
            "4": {
                "ate": 0.75,
                "n_planes": 9,
                "n_duplicates": 3,
                "n_rooms": 0,
                "n_corridors": 0,
                "final_cost": 4.0,
            }
        },
        "mean_ate_full": 0.5,
        "mean_ate_without_topology": 0.75,
        "mean_duplicates_full": 1.0,
        "mean_duplicates_without_topology": 3.0,
        "improvement_confirmed": True,
    }
    assert json.dumps(report.to_dict(), indent=1) == json.dumps(expected, indent=1)


def test_ablation_report_rejects_an_unknown_run_name():
    run = RunMetrics(ate=0.5, n_planes=7, n_duplicates=1, n_rooms=2, n_corridors=1, final_cost=3.25)
    off = RunMetrics(ate=0.75, n_planes=9, n_duplicates=3, n_rooms=0, n_corridors=0, final_cost=4.0)
    report = AblationReport(seeds=[4], digests={4: "abc"}, full={4: run}, without_topology={4: off})
    assert (report.mean_ate("full"), report.mean_duplicates("full")) == (0.5, 1.0)
    assert (report.mean_ate("without"), report.mean_duplicates("without")) == (0.75, 3.0)
    # a typo must not silently read the topology-disabled runs
    for name in ("ful", "Full", "without_topology", ""):
        with pytest.raises(KeyError):
            report.mean_ate(name)
        with pytest.raises(KeyError):
            report.mean_duplicates(name)
