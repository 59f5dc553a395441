"""Serialization round trips: graph snapshots, TUM trajectories, PLY clouds,
world models and datasets."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sgraph.factors import Factor, FactorKind
from sgraph.geometry import PlaneClass, PlaneMinimal, Pose3, rot_exp
from sgraph.graph import Keyframe, Node, PlaneLandmark, SGraph, Span
from sgraph.io import (
    SNAPSHOT_VERSION,
    from_json,
    graph_from_dict,
    graph_to_dict,
    load_dataset,
    load_graph,
    load_world,
    read_ply,
    read_tum,
    save_graph,
    save_world,
    export_dataset,
    write_ply,
    write_tum,
)
from sgraph.pipeline import SlamConfig, run_slam
from sgraph.planes import PointCloud
from sgraph.simulator import (
    CorridorAnnotation,
    LayoutSpec,
    NoiseSpec,
    RectSpec,
    ScanPattern,
    TrajectorySpec,
    WorldModel,
    default_multi_room_layout,
    generate_world,
    perimeter_waypoints,
    simulate_run,
)


def sample_graph():
    """Small graph exercising every variable and factor kind."""
    g = SGraph()
    rng = np.random.default_rng(11)
    for i in range(3):
        pose = Pose3(rot_exp(rng.normal(0, 0.3, 3)), rng.normal(0, 2.0, 3))
        odom = Pose3(rot_exp(rng.normal(0, 0.3, 3)), rng.normal(0, 2.0, 3))
        g.keyframes[i] = Keyframe(
            id=i,
            timestamp=0.5 * i,
            pose=pose,
            odom_pose=odom,
            odom_cov=np.diag(rng.uniform(1e-4, 1e-2, 6)),
        )
    g.planes[0] = PlaneLandmark(
        id=0,
        params=PlaneMinimal(0.3, 0.01, 4.2),
        plane_class=PlaneClass.X_VERTICAL,
        extent=np.array([3.0, 2.5]),
        side=-1.0,
    )
    g.planes[1] = PlaneLandmark(
        id=1,
        params=PlaneMinimal(math.pi / 2, 0.0, 1.5),
        plane_class=PlaneClass.Y_VERTICAL,
        extent=np.array([4.0, 2.5]),
        side=1.0,
    )
    # room 0 is spans 0 (x) and 1 (y), corridor 0 is span 2
    g.spans = {
        0: Span(PlaneClass.X_VERTICAL, 1.0, 4.0, (0, 1)),
        1: Span(PlaneClass.Y_VERTICAL, 2.0, 3.0, (0, 1)),
        2: Span(PlaneClass.X_VERTICAL, 1.0, 2.0, (0, 1)),
    }
    g.rooms[0] = Node((0, 1))
    g.corridors[0] = Node((2,))
    g.factors = [
        Factor(
            kind=FactorKind.ODOMETRY,
            variables=(("kf", 0), ("kf", 1)),
            measurement=Pose3(rot_exp(rng.normal(0, 0.1, 3)), rng.normal(0, 1, 3)),
            information=np.diag(rng.uniform(10, 100, 6)),
        ),
        Factor(
            kind=FactorKind.LOOP_CLOSURE,
            variables=(("kf", 2), ("kf", 0)),
            measurement=Pose3(rot_exp(rng.normal(0, 0.1, 3)), rng.normal(0, 1, 3)),
            information=np.eye(6) * 37.5,
            robust=True,
        ),
        Factor(
            kind=FactorKind.POSE_PLANE,
            variables=(("kf", 1), ("plane", 0)),
            measurement=PlaneMinimal(0.31, 0.02, 3.9),
            information=np.diag([2500.0, 2500.0, 2500.0]),
            robust=True,
        ),
        Factor(
            kind=FactorKind.ROOM_PLANE,
            variables=(("span", 0), ("plane", 0)),
            measurement=0,
            information=np.array([[100.0]]),
        ),
        Factor(
            kind=FactorKind.CORRIDOR_PLANE,
            variables=(("span", 2), ("plane", 1)),
            measurement=1,
            information=np.array([[100.0]]),
        ),
    ]
    # the edge factors of the other wall slots: every span wall has its own
    g.factors += [
        Factor(FactorKind.ROOM_PLANE, (("span", span), ("plane", p)), slot, np.array([[100.0]]))
        for span, slot, p in ((0, 1, 1), (1, 2, 0), (1, 3, 1))
    ] + [Factor(FactorKind.CORRIDOR_PLANE, (("span", 2), ("plane", 0)), 0, np.array([[100.0]]))]
    g._next_plane_id = 2
    g._next_span_id = 3
    g._next_room_id = 1
    g._next_corridor_id = 1
    return g


def assert_pose_close(a: Pose3, b: Pose3, tol=1e-12):
    assert np.max(np.abs(a.rotation - b.rotation)) < tol
    assert np.max(np.abs(a.translation - b.translation)) < tol


class TestGraphRoundTrip:
    def test_variables_exact(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "graph.json"
        save_graph(path, g)
        h = load_graph(path)
        assert set(h.keyframes) == set(g.keyframes)
        for k in g.keyframes:
            assert_pose_close(h.keyframes[k].pose, g.keyframes[k].pose)
            assert_pose_close(h.keyframes[k].odom_pose, g.keyframes[k].odom_pose)
            assert np.allclose(h.keyframes[k].odom_cov, g.keyframes[k].odom_cov, atol=1e-15)
            assert h.keyframes[k].timestamp == g.keyframes[k].timestamp
        for k in g.planes:
            pa, pb = g.planes[k], h.planes[k]
            assert pb.params == pa.params  # exact float round trip via json
            assert pb.plane_class is pa.plane_class
            assert pb.side == pa.side
            assert np.array_equal(pb.extent, pa.extent)
        assert h.spans == g.spans
        assert h.spans[1].axis is PlaneClass.Y_VERTICAL
        assert h.rooms == g.rooms and h.corridors == g.corridors

    def test_factor_topology_identical(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "graph.json"
        save_graph(path, g)
        h = load_graph(path)
        assert len(h.factors) == len(g.factors)
        for fa, fb in zip(g.factors, h.factors):
            assert fb.kind is fa.kind
            assert fb.variables == fa.variables
            assert fb.robust == fa.robust
            assert np.allclose(
                np.atleast_2d(fb.information), np.atleast_2d(fa.information), atol=1e-15
            )

    def test_double_round_trip_stable(self):
        g = sample_graph()
        h = graph_from_dict(graph_to_dict(g))
        hh = graph_from_dict(graph_to_dict(h))
        for k in g.keyframes:
            assert_pose_close(hh.keyframes[k].pose, h.keyframes[k].pose, tol=1e-14)

    def test_unsupported_version_rejected(self):
        d = graph_to_dict(sample_graph())
        d["version"] = 999
        import pytest

        with pytest.raises(ValueError):
            graph_from_dict(d)

    def test_id_counters_restored(self, tmp_path):
        g = sample_graph()
        path = tmp_path / "graph.json"
        save_graph(path, g)
        h = load_graph(path)
        assert h._next_plane_id == 2
        assert h._next_span_id == 3
        assert h._next_room_id == 1
        assert h._next_corridor_id == 1


def slam_graph():
    """The graph `run_slam` builds on a two-room world with drifting odometry."""
    layout = default_multi_room_layout(2)
    world = generate_world(layout)
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    noise = NoiseSpec(trans_drift=0.01, rot_drift=0.005, range_sigma=0.01, seed=3)
    steps = simulate_run(world, traj, noise, ScanPattern(n_rings=8, n_azimuth=180))
    return run_slam(steps, SlamConfig()).graph


def pose_bytes(graph):
    """Every pose of the graph as raw bytes: keyframe and odometry poses."""
    poses = []
    for k in sorted(graph.keyframes):
        poses += [graph.keyframes[k].pose, graph.keyframes[k].odom_pose]
    return [p.rotation.tobytes() + p.translation.tobytes() for p in poses]


class TestExactSnapshot:
    @pytest.mark.parametrize("make", [sample_graph, slam_graph], ids=["sample", "run_slam"])
    def test_round_trip_is_exact(self, make, tmp_path):
        g = make()
        path = tmp_path / "graph.json"
        save_graph(path, g)
        h = load_graph(path)
        assert graph_to_dict(h) == graph_to_dict(g)
        assert pose_bytes(h) == pose_bytes(g)

    def test_scans_are_not_saved(self):
        g = sample_graph()
        g.keyframes[0].scan = PointCloud(np.ones((4, 3)))
        d = graph_to_dict(g)
        assert "scan" not in d["keyframes"]["0"]
        assert graph_from_dict(d).keyframes[0].scan is None

    def test_next_corridor_id_survives_removal(self, tmp_path):
        g = sample_graph()
        g.remove_corridor(0)
        path = tmp_path / "graph.json"
        save_graph(path, g)
        h = load_graph(path)
        span = Span(PlaneClass.X_VERTICAL, 1.0, 2.0, (0, 1))
        assert h.add_node("corridor", (span,), 100.0) == g.add_node("corridor", (replace(span),), 100.0) == 1
        assert h.corridors[1].spans == g.corridors[1].spans == (3,)

    @pytest.mark.parametrize("counter", ["_next_plane_id", "_next_span_id", "_next_room_id", "_next_corridor_id"])
    def test_id_counter_not_above_its_ids_rejected(self, counter):
        # a counter at an id it gave would hand that id out again, and the
        # new variable would replace the old one under its factors
        d = graph_to_dict(sample_graph())
        d[counter] = 0
        with pytest.raises(ValueError, match=counter):
            graph_from_dict(d)

    def test_only_the_current_version_is_read(self):
        d = graph_to_dict(sample_graph())
        assert d["version"] == SNAPSHOT_VERSION == 5
        for version in (1, 2, 3, 4, None):
            with pytest.raises(ValueError, match="unsupported snapshot version"):
                graph_from_dict(dict(d, version=version))

    def test_unknown_field_rejected(self):
        d = graph_to_dict(sample_graph())
        d["keyframes"]["0"]["stamp"] = 0.0
        with pytest.raises(ValueError, match="stamp"):
            graph_from_dict(d)

    def test_factor_without_kind_rejected(self):
        d = graph_to_dict(sample_graph())
        del d["factors"][2]["kind"]
        with pytest.raises(ValueError, match="without a kind"):
            graph_from_dict(d)

    @pytest.mark.parametrize(
        "slot, key", [(0, ["kf", 99]), (1, ["plnae", 1]), (1, ["plane", 7])], ids=["kf", "kind", "plane"]
    )
    def test_factor_on_a_variable_the_snapshot_lacks_rejected(self, slot, key):
        d = graph_to_dict(sample_graph())
        d["factors"][2]["variables"][slot] = key
        with pytest.raises(ValueError, match="not in the snapshot"):
            graph_from_dict(d)

    @pytest.mark.parametrize(
        "index, variables",
        [(2, [["span", 0], ["plane", 0]]), (3, [["plane", 0], ["span", 0]]), (0, [["kf", 0], ["plane", 0]])],
        ids=["pose_plane-on-a-room", "room_plane-reversed", "odometry-on-a-plane"],
    )
    def test_factor_on_variables_of_the_wrong_kinds_rejected(self, index, variables):
        d = graph_to_dict(sample_graph())
        d["factors"][index]["variables"] = variables
        with pytest.raises(ValueError, match="not on"):
            graph_from_dict(d)

    @pytest.mark.parametrize(
        "index, information",
        [(2, [[2500.0, 0.0], [0.0, 2500.0]]), (2, [[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
         (3, [[0.0]]), (0, (np.eye(6) + 0.5 * np.eye(6, k=1)).tolist())],
        ids=["plane-2x2", "plane-negative-definite", "room-zero", "odometry-not-symmetric"],
    )
    def test_bad_information_rejected(self, index, information):
        d = graph_to_dict(sample_graph())
        d["factors"][index]["information"] = information
        kind = d["factors"][index]["kind"]
        with pytest.raises(ValueError, match=f"{kind} factor on .*: information .* is not a positive definite"):
            graph_from_dict(d)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["spans"]["1"].update(walls=[0, 999]), "span 1 links plane 999 in slot 3"),
            (lambda d: d["spans"]["0"].update(walls=[1, 0]), "span 0 links plane 1 in slot 0"),
            (lambda d: d["spans"]["2"].update(walls=[1, 0]), "span 2 links plane 1 in slot 0"),
            (lambda d: d["spans"]["2"].update(axis="y"), "span 2 links plane 0 in slot 2"),
            (lambda d: d["spans"]["2"].update(axis="h"), "span 2 is along z"),
            (lambda d: d["factors"].pop(3), "span 0 links plane 0 in slot 0"),
            (lambda d: d["factors"].pop(4), "span 2 links plane 1 in slot 1"),
            (lambda d: d["rooms"]["0"].update(spans=[0, 7]), "room 0 names span 7"),
            (lambda d: d["corridors"]["0"].update(spans=[3]), "corridor 0 names span 3"),
        ],
        ids=[
            "room-link-to-a-missing-plane",
            "room-x-links-swapped",
            "corridor-links-swapped",
            "corridor-axis-without-its-slots",
            "corridor-along-z",
            "span-without-its-low-edge",
            "span-without-its-high-edge",
            "room-names-a-missing-span",
            "corridor-names-a-missing-span",
        ],
    )
    def test_plane_link_without_its_edge_factor_rejected(self, mutate, message):
        d = graph_to_dict(sample_graph())
        mutate(d)
        with pytest.raises(ValueError, match=message):
            graph_from_dict(d)

    def test_edge_factor_beyond_the_plane_links_accepted(self):
        g = sample_graph()
        g.factors.append(Factor(FactorKind.ROOM_PLANE, (("span", 0), ("plane", 1)), 0, np.array([[1.0]])))
        assert len(graph_from_dict(graph_to_dict(g)).factors) == len(g.factors)


class TestTumRoundTrip:
    def test_lossless(self, tmp_path):
        rng = np.random.default_rng(7)
        traj = [
            (float(i) * 0.1, Pose3(rot_exp(rng.normal(0, 1, 3)), rng.normal(0, 5, 3)))
            for i in range(25)
        ]
        path = tmp_path / "est.tum"
        write_tum(path, traj)
        back = read_tum(path)
        assert len(back) == len(traj)
        for (ta, pa), (tb, pb) in zip(traj, back):
            assert ta == tb
            # quaternion round trip through full-precision repr
            assert np.max(np.abs(pa.translation - pb.translation)) < 1e-15
            assert np.max(np.abs(pa.rotation - pb.rotation)) < 1e-12

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "est.tum"
        path.write_text("# header\n\n0.0 1.0 2.0 3.0 0.0 0.0 0.0 1.0\n")
        back = read_tum(path)
        assert len(back) == 1
        assert np.allclose(back[0][1].translation, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "est.tum"
        path.write_text(f"# header\n0.0 1.0 2.0 3.0 0.0 0.0 0.0 1.0\n1.0 1.0 {value} 3.0 0.0 0.0 0.0 1.0\n")
        with pytest.raises(ValueError, match=f"est.tum:3: bad TUM line: '1.0 1.0 {value} 3.0"):
            read_tum(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "est.tum"
        path.write_text("0.0 1.0 2.0 3.0 0.0 0.0 0.0 1.0\n1.0 1.0 abc 3.0 0.0 0.0 0.0 1.0\n")
        with pytest.raises(ValueError, match="est.tum:2: not a number in '1.0 1.0 abc 3.0"):
            read_tum(path)


PLY_HEADER = ["ply", "format ascii 1.0", "element vertex 3", "property double x",
              "property double y", "property double z", "end_header"]


class TestPlyRoundTrip:
    def test_lossless(self, tmp_path):
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.normal(0, 3, size=(100, 3)), timestamp=4.5)
        path = tmp_path / "scan.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        assert back.timestamp == cloud.timestamp
        assert np.array_equal(back.points, cloud.points)

    def test_truncated_body_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        path = tmp_path / "scan.ply"
        write_ply(path, PointCloud(rng.normal(0, 3, size=(100, 3)), timestamp=4.5))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="99 vertex rows, the header declares 100"):
            read_ply(path)

    def test_short_vertex_row_rejected(self, tmp_path):
        # reshaping the six numbers would make two points of them
        path = tmp_path / "scan.ply"
        path.write_text("\n".join(PLY_HEADER + ["1 2", "3 4", "5 6"]) + "\n")
        with pytest.raises(ValueError, match="scan.ply:8: vertex row of 2 values, not 3"):
            read_ply(path)

    @pytest.mark.parametrize(("dropped", "message"), [
        ("element vertex 3", "header without 'element vertex'"),
        ("end_header", "header without end_header"),
    ])
    def test_incomplete_header_rejected(self, tmp_path, dropped, message):
        path = tmp_path / "scan.ply"
        lines = [line for line in PLY_HEADER if line != dropped]
        path.write_text("\n".join(lines + ["1 2 3", "4 5 6", "7 8 9"]) + "\n")
        with pytest.raises(ValueError, match=f"scan.ply: PLY {message}"):
            read_ply(path)

    def test_negative_vertex_count_rejected(self, tmp_path):
        path = tmp_path / "scan.ply"
        lines = [line.replace("vertex 3", "vertex -1") for line in PLY_HEADER]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="scan.ply:3: negative vertex count -1"):
            read_ply(path)

    @pytest.mark.parametrize(("line", "bad"), [(3, "element vertex x3"), (9, "4 5 abc")])
    def test_non_numeric_value_rejected(self, tmp_path, line, bad):
        path = tmp_path / "scan.ply"
        lines = PLY_HEADER + ["1 2 3", "4 5 6", "7 8 9"]
        lines[line - 1] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"scan.ply:{line}: not a number"):
            read_ply(path)


class TestWorldAndDataset:
    LAYOUT = LayoutSpec(rects=(RectSpec(-3.0, 3.0, -2.0, 2.0, kind="room"),))

    def test_world_round_trip(self, tmp_path):
        world = generate_world(self.LAYOUT)
        path = tmp_path / "world.json"
        save_world(path, world)
        back = load_world(path)
        assert back.wall_height == world.wall_height
        assert len(back.walls) == len(world.walls)
        for wa, wb in zip(world.walls, back.walls):
            assert wa == wb
        assert len(back.rooms) == len(world.rooms)

    def test_world_json_format_pinned(self, tmp_path):
        # the dataset format: changing it breaks datasets already exported
        path = tmp_path / "world.json"
        save_world(path, generate_world(self.LAYOUT))
        assert json.loads(path.read_text()) == {
            "walls": [
                {"axis": 0, "offset": -3.0, "u_min": -2.0, "u_max": 2.0, "v_min": 0.0, "v_max": 2.5},
                {"axis": 0, "offset": 3.0, "u_min": -2.0, "u_max": 2.0, "v_min": 0.0, "v_max": 2.5},
                {"axis": 1, "offset": -2.0, "u_min": -3.0, "u_max": 3.0, "v_min": 0.0, "v_max": 2.5},
                {"axis": 1, "offset": 2.0, "u_min": -3.0, "u_max": 3.0, "v_min": 0.0, "v_max": 2.5},
                {"axis": 2, "offset": 0.0, "u_min": -3.0, "u_max": 3.0, "v_min": -2.0, "v_max": 2.0},
                {"axis": 2, "offset": 2.5, "u_min": -3.0, "u_max": 3.0, "v_min": -2.0, "v_max": 2.0},
            ],
            "rooms": [{"center": [0.0, 0.0], "widths": [6.0, 4.0]}],
            "corridors": [],
            "wall_height": 2.5,
        }

    def test_corridor_annotation_read(self):
        world = from_json(
            WorldModel,
            {
                "wall_height": 2.5,
                "walls": [],
                "rooms": [],
                "corridors": [{"axis": "y", "center": [0.0, 5.0], "width": 2.0}],
            },
        )
        (corr,) = world.corridors
        assert isinstance(corr, CorridorAnnotation)
        assert corr.axis is PlaneClass.Y_VERTICAL
        assert np.array_equal(corr.center, [0.0, 5.0]) and corr.width == 2.0

    def exported(self, tmp_path):
        """Export a short run to tmp_path; returns its world and steps."""
        world = generate_world(self.LAYOUT)
        traj = TrajectorySpec(waypoints=((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
        steps = simulate_run(
            world, traj, NoiseSpec(seed=1), ScanPattern(n_rings=4, n_azimuth=60)
        )
        export_dataset(tmp_path, world, steps)
        return world, steps

    def test_dataset_round_trip(self, tmp_path):
        world, steps = self.exported(tmp_path)
        world2, steps2 = load_dataset(tmp_path)
        assert len(steps2) == len(steps)
        for sa, sb in zip(steps, steps2):
            assert sa.timestamp == sb.timestamp
            assert np.max(np.abs(sa.gt_pose.translation - sb.gt_pose.translation)) < 1e-15
            assert np.array_equal(sa.scan.points, sb.scan.points)
        assert len(world2.walls) == len(world.walls)

    def test_missing_scan_rejected(self, tmp_path):
        n = len(self.exported(tmp_path)[1])
        # a middle scan: every later pose would pair with the wrong scan
        (tmp_path / "scans" / f"{n // 2:06d}.ply").unlink()
        with pytest.raises(ValueError, match=f"{n} odometry poses, {n - 1} scans"):
            load_dataset(tmp_path)

    def test_extra_tum_line_rejected(self, tmp_path):
        n = len(self.exported(tmp_path)[1])
        odom = tmp_path / "odometry.tum"
        odom.write_text(odom.read_text() + "99.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n")
        with pytest.raises(ValueError, match=f"{n} ground-truth poses, {n + 1} odometry poses"):
            load_dataset(tmp_path)

    def test_non_finite_odometry_rejected(self, tmp_path):
        n = len(self.exported(tmp_path)[1])
        odom = tmp_path / "odometry.tum"
        lines = odom.read_text().splitlines()
        fields = lines[n // 3].split()
        fields[1] = "nan"
        lines[n // 3] = " ".join(fields)
        odom.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"odometry.tum:{n // 3 + 1}: bad TUM line"):
            load_dataset(tmp_path)

    def test_timestamp_mismatch_rejected(self, tmp_path):
        self.exported(tmp_path)
        odom = tmp_path / "odometry.tum"
        lines = odom.read_text().splitlines()
        lines[1] = "77.5 " + lines[1].split(" ", 1)[1]
        odom.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="odometry at t=77.5"):
            load_dataset(tmp_path)
