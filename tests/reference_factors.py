"""The per-factor kernels as they stood before the batched kernels in
`sgraph.factors` became the only copy, kept as a second, independent
implementation for the cross-checks in the tests. The plane observation
and the plane step follow the current manifold (the measured normal's own
frame, a great-circle step on the sphere), written one factor at a time
with rotation matrices where the batched code uses tangent bases.

`so3_right_jacobian_inv` is the old scalar copy from `sgraph.geometry`,
`pose_retract` the one-pose step that `BatchedFactors.retract` takes in
batch, `evaluate_factor` the old per-kind ladder of `SGraph.evaluate_factor`
and `associate_plane` the old per-landmark loop of `SGraph.associate_plane`,
the last two taking the graph as their first argument.
"""

from __future__ import annotations

import math

import numpy as np

from sgraph.factors import Factor, FactorKind, VariableKey
from sgraph.geometry import (
    Pose3,
    PlaneClass,
    PlaneMinimal,
    classify_plane,
    from_minimal,
    rot_exp,
    rot_log,
    skew,
    to_minimal,
    transform_plane,
)
from sgraph.graph import NEW_LANDMARK, SGraph
from sgraph.planes import PlaneDetection


def so3_right_jacobian_inv(w: np.ndarray) -> np.ndarray:
    """Inverse right Jacobian of SO(3) at rotation vector w."""
    theta = float(np.linalg.norm(w))
    W = skew(w)
    if theta < 1e-8:
        return np.eye(3) + 0.5 * W + (W @ W) / 12.0
    half = theta / 2.0
    cot_term = (1.0 / (theta * theta)) - (1.0 + math.cos(theta)) / (
        2.0 * theta * math.sin(theta)
    )
    return np.eye(3) + 0.5 * W + cot_term * (W @ W)


def pose_retract(pose: Pose3, delta: np.ndarray) -> Pose3:
    """Right-perturbation update: R <- R exp(dw), t <- t + R dt."""
    delta = np.asarray(delta, dtype=float)
    return Pose3(pose.rotation @ rot_exp(delta[3:6]), pose.translation + pose.rotation @ delta[0:3])


def huber_cost_and_weight(s: float, delta: float) -> tuple[float, float]:
    """Robust cost and IRLS weight for whitened residual norm-squared s.

    Returns (rho(s), weight) with weight = 1 inside the delta region and
    delta/||r|| outside; residual and Jacobian rows are scaled by sqrt(weight).
    """
    if s <= delta * delta:
        return s, 1.0
    norm = math.sqrt(s)
    return 2.0 * delta * norm - delta * delta, delta / norm


def pose_between_residual(
    x_prev: Pose3, x_curr: Pose3, meas: Pose3
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual of a relative-pose factor plus Jacobians w.r.t. both poses.

    r = [R_m^T (t_pred - t_m); Log(R_m^T R_pred)] with the prediction the
    relative pose of x_curr in the frame of x_prev.
    """
    Ra, ta = x_prev.rotation, x_prev.translation
    Rb, tb = x_curr.rotation, x_curr.translation
    Rm, tm = meas.rotation, meas.translation

    Rp = Ra.T @ Rb
    tp = Ra.T @ (tb - ta)

    r_t = Rm.T @ (tp - tm)
    E = Rm.T @ Rp
    r_w = rot_log(E)
    r = np.concatenate([r_t, r_w])

    Jinv = so3_right_jacobian_inv(r_w)

    Ja = np.zeros((6, 6))
    Jb = np.zeros((6, 6))
    # translation block
    Jb[0:3, 0:3] = Rm.T @ Rp
    Ja[0:3, 0:3] = -Rm.T
    Ja[0:3, 3:6] = Rm.T @ skew(tp)
    # rotation block
    Jb[3:6, 3:6] = Jinv
    Ja[3:6, 3:6] = -Jinv @ Rp.T
    return r, Ja, Jb


def _minimal_jacobian_wrt_normal(n: np.ndarray) -> np.ndarray:
    """d(azimuth, elevation)/d(unit normal), a 2x3 matrix."""
    nx, ny, nz = n
    rho2 = nx * nx + ny * ny
    rho = math.sqrt(rho2)
    J = np.zeros((2, 3))
    J[0, 0] = -ny / rho2
    J[0, 1] = nx / rho2
    J[1, 0] = -nx * nz / rho
    J[1, 1] = -ny * nz / rho
    J[1, 2] = rho
    return J


def _rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def measurement_frame(meas: PlaneMinimal) -> np.ndarray:
    """The rotation that takes the measured normal to +x, its azimuth
    tangent to +y and its elevation tangent to +z."""
    return _rot_y(meas.elevation) @ _rot_z(-meas.azimuth)


def tangents(plane: PlaneMinimal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit normal of a plane and its unit tangents along azimuth and
    elevation, well defined at the poles too."""
    n = from_minimal(plane).normal
    e_az = _rot_z(plane.azimuth) @ np.array([0.0, 1.0, 0.0])
    return n, e_az, np.cross(n, e_az)


def plane_retract(plane: PlaneMinimal, step: np.ndarray) -> PlaneMinimal:
    """The plane with its normal rotated by the tangent step u = u_az e_az
    + u_el e_el through the angle |u| about n x u, and its distance moved
    by step[2]."""
    n, e_az, e_el = tangents(plane)
    u = step[0] * e_az + step[1] * e_el
    n = rot_exp(np.cross(n, u)) @ n
    return PlaneMinimal(
        math.atan2(n[1], n[0]), math.atan2(n[2], math.hypot(n[0], n[1])), plane.distance + step[2]
    )


def pose_plane_residual(
    pose: Pose3, plane: PlaneMinimal, meas: PlaneMinimal
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual of a plane observation plus Jacobians (pose 3x6, plane 3x3).

    The map plane is predicted into the sensor frame, rotated into the
    measurement's frame, where the measured normal is +x, and compared by
    the azimuth and elevation it has there and by distance.
    """
    R, t = pose.rotation, pose.translation
    n_m, e_az, e_el = tangents(plane)
    d_m = plane.distance

    n_l = R.T @ n_m
    d_l = d_m - float(t @ n_m)

    # chain the plane's tangent steps into the sensor frame
    dnl_du = R.T @ np.column_stack([e_az, e_el])  # 3x2
    ddl_du = -np.array([t @ e_az, t @ e_el])

    # pose perturbation: R <- R exp(w^), t <- t + R u
    dnl_dw = skew(n_l)  # 3x3
    ddl_dt = -n_l  # 1x3

    sign = 1.0
    if d_l < 0.0:
        # closest-point convention at the linearization point
        sign = -1.0
        n_l = -n_l
        d_l = -d_l

    M = measurement_frame(meas)
    n_f = M @ n_l
    Jmin = _minimal_jacobian_wrt_normal(n_f) @ M
    r = np.array(
        [
            math.atan2(n_f[1], n_f[0]),
            math.atan2(n_f[2], math.hypot(n_f[0], n_f[1])),
            d_l - meas.distance,
        ]
    )

    Jplane = np.zeros((3, 3))
    Jplane[0:2, 0:2] = Jmin @ (sign * dnl_du)
    Jplane[2, 0:2] = sign * ddl_du
    Jplane[2, 2] = sign * 1.0

    Jpose = np.zeros((3, 6))
    Jpose[0:2, 3:6] = Jmin @ (sign * dnl_dw)
    Jpose[2, 0:3] = sign * ddl_dt
    return r, Jpose, Jplane


def plane_axis_sign(plane: PlaneMinimal, cls: PlaneClass) -> float:
    """Sign of the normal component along the class axis (signed distance)."""
    n = from_minimal(plane).normal
    idx = 0 if cls is PlaneClass.X_VERTICAL else 1
    return 1.0 if n[idx] >= 0.0 else -1.0


def span_plane_residual(
    center: float, width: float, plane: PlaneMinimal, slot: int, sign: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Span-plane edge residual plus Jacobians (span 1x2, plane 1x3).

    Slots: 0 low-x, 1 high-x, 2 low-y, 3 high-y. The plane enters through
    its signed distance along the span's axis, sign fixed by its normal.
    """
    d_signed = sign * plane.distance
    if slot in (0, 2):
        r = (center - width / 2.0) - d_signed
        Js = np.array([1.0, -0.5])
    elif slot in (1, 3):
        r = (center + width / 2.0) - d_signed
        Js = np.array([1.0, 0.5])
    else:
        raise ValueError(f"invalid edge slot {slot}")
    Jp = np.array([0.0, 0.0, -sign])
    return float(r), Js, Jp


def associate_plane(
    graph: SGraph,
    det: PlaneDetection,
    kf_id: int,
    gate: float,
    plane_information: np.ndarray,
) -> int:
    """Mahalanobis association of a detection against mapped planes.

    Returns the id of the nearest same-class landmark inside the gate,
    or NEW_LANDMARK. Each mapped plane is predicted into the current
    sensor frame and compared there against the detection, so the
    distance coordinate is not inflated by the robot's position in the
    map. The covariance is the measurement covariance plus the latest
    odometry-increment uncertainty pushed through the prediction.
    """
    kf = graph.keyframes[kf_id]
    map_plane = transform_plane(kf.pose, det.plane, to_sensor=False)
    cls = classify_plane(map_plane)
    meas = to_minimal(det.plane)
    meas_cov = np.linalg.inv(np.asarray(plane_information, dtype=float))

    best_id = NEW_LANDMARK
    best_dist = gate
    for lm in graph.planes.values():
        if lm.plane_class is not cls:
            continue
        diff, Jpose, _ = pose_plane_residual(kf.pose, lm.params, meas)
        cov = meas_cov + Jpose @ kf.odom_cov @ Jpose.T
        dist = math.sqrt(float(diff @ np.linalg.solve(cov, diff)))
        if dist < best_dist:
            best_dist = dist
            best_id = lm.id
    return best_id


def evaluate_factor(
    graph: SGraph, factor: Factor
) -> tuple[np.ndarray, dict[VariableKey, np.ndarray]]:
    """Raw residual and per-variable Jacobian blocks at the current
    estimates (no whitening, no robust weighting)."""
    kind = factor.kind
    if kind in (FactorKind.ODOMETRY, FactorKind.LOOP_CLOSURE):
        ka, kb = factor.variables
        r, Ja, Jb = pose_between_residual(
            graph.keyframes[ka[1]].pose,
            graph.keyframes[kb[1]].pose,
            factor.measurement,
        )
        return r, {ka: Ja, kb: Jb}
    if kind is FactorKind.POSE_PLANE:
        kk, kp = factor.variables
        r, Jpose, Jplane = pose_plane_residual(
            graph.keyframes[kk[1]].pose,
            graph.planes[kp[1]].params,
            factor.measurement,
        )
        return r, {kk: Jpose, kp: Jplane}
    if kind in (FactorKind.ROOM_PLANE, FactorKind.CORRIDOR_PLANE):
        ks, kp = factor.variables
        span = graph.spans[ks[1]]
        plane = graph.planes[kp[1]]
        slot = factor.measurement
        axis = PlaneClass.X_VERTICAL if slot < 2 else PlaneClass.Y_VERTICAL
        sign = plane_axis_sign(plane.params, axis)
        r, Js, Jp = span_plane_residual(span.center, span.width, plane.params, slot, sign)
        return np.array([r]), {ks: Js.reshape(1, 2), kp: Jp.reshape(1, 3)}
    raise ValueError(f"unknown factor kind {kind}")
