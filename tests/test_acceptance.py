"""Acceptance gate: one test per release criterion.

Each test emits a single `ACCEPTANCE <n> <name>: PASS|FAIL` line (visible
with `pytest -s`, and mirrored by the verbose test outcome) and enforces
the stated tolerance with plain asserts.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np

from sgraph.ablation import run_ablation
from sgraph.factors import FactorKind
from sgraph.geometry import PlaneClass, PlaneMinimal, Pose3, rot_exp
from sgraph.graph import Span
from sgraph.io import graph_from_dict, graph_to_dict, read_tum, write_tum
from sgraph.metrics import TrajectoryPair, ate, map_rmse
from sgraph.pipeline import SlamConfig, run_slam
from sgraph.planes import PointCloud, RansacConfig, extract_planes
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
from sgraph.solver import SolverConfig, layer_costs, optimize
from sgraph.topology import detect_corridor, detect_room

from reference_factors import plane_retract, pose_retract
from test_factors import pose_between, pose_plane, span_plane
from test_io import sample_graph
from test_topology import CFG as TOPO_CFG
from test_topology import wall


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def gt_pairs(steps):
    return [(s.timestamp, s.gt_pose) for s in steps]


def test_criterion_1_noiseless_consistency():
    # four connected rooms, zero noise, no hard loop closure
    t0 = time.time()
    layout = default_multi_room_layout(4)
    world = generate_world(layout)
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    steps = simulate_run(world, traj, NoiseSpec())
    result = run_slam(steps, SlamConfig(enable_loop_closure=False))
    cost = result.reports[-1].final_cost
    err = ate(TrajectoryPair(result.trajectory, gt_pairs(steps)))
    elapsed = time.time() - t0
    ok = cost < 1e-10 and err < 1e-6 and elapsed < 60.0
    verdict(
        1,
        "noiseless-consistency",
        ok,
        f"final cost {cost:.2e} < 1e-10, ATE {err:.2e} m < 1e-6, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_jacobian_correctness():
    rng = np.random.default_rng(42)
    h = 1e-6
    worst = {"relative_pose": 0.0, "pose_plane": 0.0, "room_plane": 0.0, "corridor_plane": 0.0}

    def rel_err(J, Jfd):
        return float(np.max(np.abs(J - Jfd)) / max(1.0, np.max(np.abs(J))))

    def fd(f, dim):
        J = np.zeros((np.atleast_1d(f(np.zeros(dim))).size, dim))
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            J[:, k] = (np.atleast_1d(f(e)) - np.atleast_1d(f(-e))) / (2 * h)
        return J

    def random_pose():
        return Pose3(rot_exp(rng.normal(0, 0.5, 3)), rng.normal(0, 2.0, 3))

    for _ in range(100):
        # relative-pose residual (odometry and hard loop-closure factors)
        xa, xb, m = random_pose(), random_pose(), random_pose()
        r, Ja, Jb = pose_between(xa, xb, m)
        worst["relative_pose"] = max(
            worst["relative_pose"],
            rel_err(Ja, fd(lambda d: pose_between(pose_retract(xa, d), xb, m)[0], 6)),
            rel_err(Jb, fd(lambda d: pose_between(xa, pose_retract(xb, d), m)[0], 6)),
        )

        # plane observation residual, the plane moved by its step on the
        # sphere; keep the sample clear of the d >= 0 reflection point
        pose = Pose3(rot_exp(rng.normal(0, 0.3, 3)), rng.normal(0, 0.5, 3))
        plane = PlaneMinimal(
            rng.uniform(-math.pi, math.pi), rng.uniform(-0.9, 0.9), rng.uniform(2.0, 5.0)
        )
        meas = PlaneMinimal(plane.azimuth + 0.01, plane.elevation - 0.02, plane.distance + 0.05)
        r, Jpose, Jplane = pose_plane(pose, plane, meas)

        def move_plane(d, plane=plane, pose=pose, meas=meas):
            return pose_plane(pose, plane_retract(plane, d), meas)[0]

        worst["pose_plane"] = max(
            worst["pose_plane"],
            rel_err(
                Jpose,
                fd(lambda d, p=pose, pl=plane, m_=meas: pose_plane(pose_retract(p, d), pl, m_)[0], 6),
            ),
            rel_err(Jplane, fd(move_plane, 3)),
        )

        # room-plane and corridor-plane edge residuals of a span on either
        # axis, on a wall facing along +axis or -axis of the slot (azimuth 0
        # or pi about it), so on either side of the origin
        center = rng.normal(0, 3.0, 2)
        widths = rng.uniform(2.0, 7.0, 2)
        distance = rng.uniform(1.0, 6.0)
        edges = (("room_plane", FactorKind.ROOM_PLANE), ("corridor_plane", FactorKind.CORRIDOR_PLANE))
        for name, kind in edges:
            slot = int(rng.integers(0, 4))
            facing = float(rng.choice([0.0, math.pi]))
            edge_wall = PlaneMinimal(facing + math.pi / 2 * (slot // 2), 0.0, distance)
            c, w = center[slot // 2], widths[slot // 2]
            _, Js, Jp = span_plane(c, w, edge_wall, slot, kind)

            def move_span(d, slot=slot, edge_wall=edge_wall, c=c, w=w, kind=kind):
                return span_plane(c + d[0], w + d[1], edge_wall, slot, kind)[0]

            def move_edge_plane(d, slot=slot, edge_wall=edge_wall, c=c, w=w, kind=kind):
                p = PlaneMinimal(
                    edge_wall.azimuth + d[0], edge_wall.elevation + d[1], edge_wall.distance + d[2]
                )
                return span_plane(c, w, p, slot, kind)[0]

            worst[name] = max(
                worst[name],
                rel_err(Js, fd(move_span, 2)),
                rel_err(Jp, fd(move_edge_plane, 3)),
            )

    ok = all(v < 1e-5 for v in worst.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    verdict(2, "jacobian-correctness", ok, f"max FD relative error per kind: {detail} (< 1e-5)")


def test_criterion_3_topological_exactness():
    # worked example: x-walls at 1 and 5, y-walls at 2 and 4
    x_span, y_span = detect_room(
        (wall(0, "x", 1.0), wall(1, "x", 5.0)),
        (wall(2, "y", 2.0), wall(3, "y", 4.0)),
        TOPO_CFG,
    )
    center = np.array([x_span.center, y_span.center])
    widths = np.array([x_span.width, y_span.width])
    center_ok = np.max(np.abs(center - [3.0, 3.0])) < 1e-12
    widths_ok = np.max(np.abs(widths - [4.0, 2.0])) < 1e-12
    # center identities: low room edge coincides with the low wall
    ident_ok = (
        abs((center[0] - widths[0] / 2.0) - 1.0) < 1e-12
        and abs((center[1] - widths[1] / 2.0) - 2.0) < 1e-12
    )
    # residuals exactly zero at creation
    (r_lo,), _, _ = span_plane(x_span.center, x_span.width, PlaneMinimal(0.0, 0.0, 1.0), 0)
    (r_hi,), _, _ = span_plane(x_span.center, x_span.width, PlaneMinimal(0.0, 0.0, 5.0), 1)
    zero_ok = r_lo == 0.0 and r_hi == 0.0
    # perturbed high-x wall 5 -> 5.2 gives residual (3 + 2) - 5.2 = -0.2
    (r_pert,), _, _ = span_plane(x_span.center, x_span.width, PlaneMinimal(0.0, 0.0, 5.2), 1)
    pert_ok = abs(r_pert - (-0.2)) < 1e-12

    # corridor worked example: x-walls at 0 and 2 -> center 1, width 2
    corr = detect_corridor(
        (wall(0, "x", 0.0, observer=(1.0, 0.0)), wall(1, "x", 2.0, observer=(1.0, 0.0))),
        TOPO_CFG,
    )
    corr_ok = (
        corr is not None
        and abs(corr.center - 1.0) < 1e-12
        and abs(corr.width - 2.0) < 1e-12
    )
    corridor = FactorKind.CORRIDOR_PLANE
    (rc0,), _, _ = span_plane(corr.center, corr.width, PlaneMinimal(0.0, 0.0, 0.0), 0, corridor)
    (rc1,), _, _ = span_plane(corr.center, corr.width, PlaneMinimal(0.0, 0.0, 2.0), 1, corridor)
    corr_zero_ok = rc0 == 0.0 and rc1 == 0.0

    ok = center_ok and widths_ok and ident_ok and zero_ok and pert_ok and corr_ok and corr_zero_ok
    verdict(
        3,
        "topological-exactness",
        ok,
        "room (3,3)/(4,2) and identities to 1e-12, residuals 0 at creation, "
        f"perturbed residual {r_pert:+.3f} = -0.2, corridor center 1 width 2",
    )


def test_criterion_4_ablation_direction():
    t0 = time.time()
    layout = default_multi_room_layout(4)  # 4 rooms joined by 3 corridors
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    noise = NoiseSpec(trans_drift=0.02, rot_drift=0.005, range_sigma=0.01)
    cfg = SlamConfig(
        optimize_every_keyframe=False,
        solver=SolverConfig(max_iters=30, rel_tol=1e-10, check_rank=False),
        odom_sigma_t=0.02,
        odom_sigma_r=0.005,
    )
    report = run_ablation(
        layout, traj, noise, seeds=list(range(10)), cfg=cfg, pattern=ScanPattern(max_range=9.0)
    )
    elapsed = time.time() - t0
    full = report.mean_ate("full")
    without = report.mean_ate("without")
    dup_full = report.mean_duplicates("full")
    dup_without = report.mean_duplicates("without")
    streams_ok = all(len(set(report.digests.values())) == len(report.digests) for _ in [0])
    ok = full < without and dup_full <= dup_without and elapsed < 600.0 and streams_ok
    verdict(
        4,
        "ablation-direction",
        ok,
        f"10 seeds, mean ATE {full:.4f} < {without:.4f} m, "
        f"mean duplicates {dup_full:.1f} <= {dup_without:.1f}, {elapsed:.0f}s < 600s",
    )


def test_criterion_5_soft_loop_closure():
    layout = default_multi_room_layout(4)
    world = generate_world(layout)
    traj = TrajectorySpec(waypoints=perimeter_waypoints(list(layout.rects)))
    steps = simulate_run(world, traj, NoiseSpec())
    cfg = SlamConfig()
    result = run_slam(steps, cfg)
    graph = result.graph
    assert len(graph.rooms) >= 1 and sum(layer_costs(graph).values()) < 1e-10

    room = next(iter(graph.rooms.values()))
    pid = graph.node_walls(room)[0]
    lm = graph.planes[pid]
    d_true = lm.params.distance
    lm.params = PlaneMinimal(lm.params.azimuth, lm.params.elevation, d_true + 0.3)
    report = optimize(graph, cfg.solver)
    d_restored = graph.planes[pid].params.distance
    err = abs(d_restored - d_true)
    ok = err < 1e-6
    verdict(
        5,
        "soft-loop-closure",
        ok,
        f"wall d perturbed by 0.3 m, restored to {err:.2e} m of consistent value "
        f"(< 1e-6) in {report.iterations} iterations",
    )


def test_criterion_6_hard_loop_closure():
    layout = LayoutSpec(rects=(RectSpec(-7.0, 7.0, -7.0, 7.0, kind="room"),), wall_height=3.0)
    world = generate_world(layout)
    traj = TrajectorySpec(
        waypoints=((-5.0, -5.0, 0.0), (5.0, -5.0, 0.0), (5.0, 5.0, 0.0), (-5.0, 5.0, 0.0)),
        loops=2,
    )
    pattern = ScanPattern(
        n_rings=48, n_azimuth=480, elevation_min=-0.6, elevation_max=0.6, max_range=30.0
    )
    noise = NoiseSpec(trans_drift=0.055, rot_drift=0.002, range_sigma=0.01, seed=4)
    steps = simulate_run(world, traj, noise, pattern)
    # realized end-point odometry drift over the 80 m double loop
    drift = float(np.linalg.norm(steps[-1].odom_pose.translation - steps[-1].gt_pose.translation))
    drift_pct = 100.0 * drift / 80.0

    base = SlamConfig(
        enable_topology=False,
        min_plane_inlier_count=10**9,  # odometry + loop factors only
        odom_sigma_t=0.055,
        odom_sigma_r=0.002,
        solver=SolverConfig(max_iters=25, rel_tol=1e-10, check_rank=False),
    )
    results = {}
    for loop in (False, True):
        res = run_slam(steps, replace(base, enable_loop_closure=loop))
        results[loop] = (ate(TrajectoryPair(res.trajectory, gt_pairs(steps))), res.loop_constraints)
    ate_off, _ = results[False]
    ate_on, n_constraints = results[True]
    reduction = 1.0 - ate_on / ate_off
    ok = n_constraints > 0 and reduction >= 0.5
    verdict(
        6,
        "hard-loop-closure",
        ok,
        f"square loop, realized drift {drift_pct:.2f}%, ATE {ate_off:.4f} -> {ate_on:.4f} m "
        f"with {n_constraints} loop constraints, reduction {100 * reduction:.1f}% >= 50%",
    )


def test_criterion_7_plane_extraction_fidelity():
    rng = np.random.default_rng(12)
    planted = [  # (normal, d) with points planted on n.x = d
        (np.array([1.0, 0.0, 0.0]), 4.0),
        (np.array([0.0, 1.0, 0.0]), 3.0),
        (np.array([0.0, 0.0, 1.0]), 2.0),
    ]
    pts = []
    for n, d in planted:
        basis = np.eye(3)[np.abs(np.eye(3) @ n) < 0.5][:2]
        uv = rng.uniform(-4.0, 4.0, size=(3000, 2))
        pts.append(n * d + uv @ basis + rng.normal(0, 0.01, size=(3000, 3)))
    cloud = PointCloud(np.vstack(pts), timestamp=0.0)
    cfg = RansacConfig(threshold=0.03, min_inliers=500, max_iters=300, seed=0)
    dets = extract_planes(cloud, cfg)
    dets2 = extract_planes(cloud, cfg)

    n_ok = len(dets) == 3
    max_ang = 0.0
    max_dist = 0.0
    for det in dets:
        best = min(
            planted,
            key=lambda pl: abs(abs(float(det.plane.normal @ pl[0])) - 1.0),
        )
        ang = math.degrees(math.acos(min(1.0, abs(float(det.plane.normal @ best[0])))))
        max_ang = max(max_ang, ang)
        max_dist = max(max_dist, abs(det.plane.distance - best[1]))
    sets = [set(det.inlier_indices.tolist()) for det in dets]
    disjoint = all(not (sets[i] & sets[j]) for i in range(len(sets)) for j in range(i + 1, len(sets)))
    deterministic = len(dets) == len(dets2) and all(
        np.array_equal(a.inlier_indices, b.inlier_indices)
        and np.allclose(a.plane.normal, b.plane.normal, atol=0)
        for a, b in zip(dets, dets2)
    )
    ok = n_ok and max_ang < 1.0 and max_dist < 0.01 and disjoint and deterministic
    verdict(
        7,
        "plane-extraction-fidelity",
        ok,
        f"3/3 planted planes, max normal error {max_ang:.3f} deg < 1, max distance error "
        f"{max_dist:.4f} m < 0.01, inliers disjoint={disjoint}, deterministic={deterministic}",
    )


def test_criterion_8_metric_sanity():
    rng = np.random.default_rng(21)
    traj = [
        (0.5 * i, Pose3(rot_exp(rng.normal(0, 0.4, 3)), rng.normal(0, 5.0, 3)))
        for i in range(60)
    ]
    zero = ate(TrajectoryPair(traj, traj))
    T = Pose3(rot_exp(np.array([0.2, -0.1, 0.7])), np.array([10.0, -4.0, 2.0]))
    moved = [(t, T.compose(p)) for t, p in traj]
    shifted = ate(TrajectoryPair(moved, traj))
    ate_ok = zero < 1e-9 and shifted < 1e-9

    # map RMSE recovers the injected range noise at 1e5 points
    layout = LayoutSpec(rects=(RectSpec(-5.0, 5.0, -4.0, 4.0, kind="room"),))
    world = generate_world(layout)
    sigma = 0.02
    n = 10**5
    vertical = [w for w in world.walls if w.axis in (0, 1)][:4]
    pts = []
    for w in vertical:
        k = n // len(vertical)
        u, v = [i for i in range(3) if i != w.axis]
        p = np.zeros((k, 3))
        p[:, w.axis] = w.offset + rng.normal(0.0, sigma, k)
        margin_u = 0.1 * (w.u_max - w.u_min)
        margin_v = 0.1 * (w.v_max - w.v_min)
        p[:, u] = rng.uniform(w.u_min + margin_u, w.u_max - margin_u, k)
        p[:, v] = rng.uniform(w.v_min + margin_v, w.v_max - margin_v, k)
        pts.append(p)
    rmse = map_rmse(np.vstack(pts), world)
    rmse_ok = 0.8 * sigma <= rmse <= 1.2 * sigma
    ok = ate_ok and rmse_ok
    verdict(
        8,
        "metric-sanity",
        ok,
        f"ATE identical {zero:.1e}, rigid-moved {shifted:.1e} (< 1e-9); map RMSE {rmse:.4f} "
        f"within 20% of injected sigma {sigma}",
    )


def test_criterion_9_serialization_round_trip(tmp_path):
    g = sample_graph()  # a room and a corridor
    removed = Span(PlaneClass.Y_VERTICAL, 0.5, 2.0, (1, 0))
    g.remove_corridor(g.add_node("corridor", (removed,), 100.0))
    h = graph_from_dict(graph_to_dict(g))
    worst = 0.0
    for k in g.keyframes:
        worst = max(
            worst,
            float(np.max(np.abs(g.keyframes[k].pose.rotation - h.keyframes[k].pose.rotation))),
            float(np.max(np.abs(g.keyframes[k].pose.translation - h.keyframes[k].pose.translation))),
        )
    for k in g.planes:
        worst = max(
            worst,
            float(np.max(np.abs(g.planes[k].params.as_array() - h.planes[k].params.as_array()))),
        )
    for k in g.spans:
        sa, sb = g.spans[k], h.spans[k]
        worst = max(worst, abs(sa.center - sb.center), abs(sa.width - sb.width))
    nodes = (g.rooms, g.corridors, g._next_span_id, g._next_corridor_id)
    topo_ok = (
        nodes == (h.rooms, h.corridors, h._next_span_id, h._next_corridor_id)
        and len(g.factors) == len(h.factors)
        and all(
            fa.kind is fb.kind and fa.variables == fb.variables and fa.robust == fb.robust
            for fa, fb in zip(g.factors, h.factors)
        )
    )

    rng = np.random.default_rng(5)
    traj = [
        (0.1 * i, Pose3(rot_exp(rng.normal(0, 1, 3)), rng.normal(0, 5, 3))) for i in range(30)
    ]
    path = tmp_path / "t.tum"
    write_tum(path, traj)
    back = read_tum(path)
    tum_worst = max(
        float(np.max(np.abs(pa.translation - pb.translation)))
        + float(np.max(np.abs(pa.rotation - pb.rotation)))
        for (_, pa), (_, pb) in zip(traj, back)
    )
    ok = worst < 1e-12 and topo_ok and tum_worst < 1e-12
    verdict(
        9,
        "serialization-round-trip",
        ok,
        f"graph variables to {worst:.1e} (< 1e-12), factor topology identical={topo_ok}, "
        f"TUM round-trip error {tum_worst:.1e}",
    )
