"""File formats: TUM trajectories, ASCII PLY clouds, and one JSON codec
for world descriptions, versioned graph snapshots and CLI inputs."""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
from scipy.spatial.transform import Rotation

from .factors import KINDS, Factor, FactorKind
from .geometry import PlaneClass, Pose3
from .graph import SGraph
from .planes import PointCloud
from .simulator import SimStep, WorldModel

SNAPSHOT_VERSION = 5


# -- JSON codec -------------------------------------------------------------

# the values a scalar field accepts: JSON has one number type, so an
# integer is a valid float, but a bool is no number and a string no bool
_SCALAR_JSON_TYPES = {bool: (bool, np.bool_), int: Integral, float: Real, str: str}


def to_json(obj):
    """JSON value of a dataclass, enum, array, sequence, mapping or scalar.

    A dataclass becomes an object of its fields, except the fields declared
    `compare=False`: they are not part of the value, so they are not saved.
    Enums are written by value, arrays as nested lists and mapping keys as
    strings."""
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj) if f.compare}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {str(to_json(k)): to_json(v) for k, v in obj.items()}
    return obj


def from_json(tp, data, base=None):
    """The value of type `tp` that `to_json` wrote as `data`.

    Dataclass fields are read through their type hints. A missing field
    takes its default, a nested object overlays the field's default (`base`
    holds the defaults one level down), and an unknown key raises
    ValueError, as does a scalar of the wrong JSON type (a JSON integer
    is a valid float). Arrays read back as float arrays, and a factor's
    measurement as the type its kind names."""
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        if tp is Factor:
            if "kind" not in data:
                raise ValueError("Factor without a kind")
            hints["measurement"] = KINDS[FactorKind(data["kind"])].measurement
        unknown = sorted(set(data) - {f.name for f in fields(tp) if f.compare})
        if unknown:
            raise ValueError(f"unknown {tp.__name__} field(s): {', '.join(unknown)}")
        defaults = tp if base is None else base
        values = {}
        for k, v in data.items():
            try:
                values[k] = from_json(hints[k], v, getattr(defaults, k, None))
            except TypeError as err:
                raise ValueError(f"{tp.__name__}.{k}: {err}") from None
        return tp(**values) if base is None else replace(base, **values)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        (inner,) = [a for a in args if a is not type(None)]  # X | None only
        return None if data is None else from_json(inner, data)
    if tp is np.ndarray:
        return np.array(data, dtype=float)
    if origin is tuple and args[-1] is Ellipsis:
        return tuple(from_json(args[0], v) for v in data)
    if origin is tuple:
        return tuple(from_json(a, v) for a, v in zip(args, data, strict=True))
    if origin is list:
        return [from_json(args[0], v) for v in data]
    if origin is dict:
        # keys were written as strings
        return {args[0](k): from_json(args[1], v) for k, v in data.items()}
    if tp in _SCALAR_JSON_TYPES:
        if not isinstance(data, _SCALAR_JSON_TYPES[tp]) or (tp is not bool and isinstance(data, bool)):
            raise TypeError(f"expected {tp.__name__}, got {type(data).__name__} {data!r}")
    return tp(data)  # enums by value, and scalars


# -- poses ------------------------------------------------------------------


def pose_to_list(pose: Pose3) -> list[float]:
    q = Rotation.from_matrix(pose.rotation).as_quat()  # (x, y, z, w)
    t = pose.translation
    return [t[0], t[1], t[2], q[0], q[1], q[2], q[3]]


def pose_from_list(vals) -> Pose3:
    t = np.array(vals[0:3], dtype=float)
    R = Rotation.from_quat(vals[3:7]).as_matrix()
    return Pose3(R, t)


# -- TUM trajectories -------------------------------------------------------


def write_tum(path, stamped_poses: list[tuple[float, Pose3]]) -> None:
    lines = []
    for t, pose in stamped_poses:
        vals = pose_to_list(pose)
        lines.append(" ".join([repr(float(t))] + [repr(float(v)) for v in vals]))
    Path(path).write_text("\n".join(lines) + "\n")


def _numbers(path, n: int, text: str, kind=float) -> list:
    """The numbers in `text`, from line `n` of a file; a token that is not
    one raises ValueError naming the file and the line."""
    try:
        return [kind(x) for x in text.split()]
    except ValueError:
        raise ValueError(f"{path}:{n}: not a number in {text!r}") from None


def read_tum(path) -> list[tuple[float, Pose3]]:
    """The stamped poses of a TUM file; a line with other than eight
    finite numbers raises ValueError naming it."""
    out = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vals = _numbers(path, n, line)
        if len(vals) != 8 or not np.isfinite(vals).all():
            raise ValueError(f"{path}:{n}: bad TUM line: {line!r}")
        out.append((vals[0], pose_from_list(vals[1:8])))
    return out


# -- PLY point clouds -------------------------------------------------------


def write_ply(path, cloud: PointCloud) -> None:
    pts = cloud.points
    header = [
        "ply",
        "format ascii 1.0",
        f"comment timestamp {cloud.timestamp!r}",
        f"element vertex {pts.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    body = [" ".join(repr(float(c)) for c in p) for p in pts]
    Path(path).write_text("\n".join(header + body) + "\n")


def read_ply(path) -> PointCloud:
    """The cloud an ASCII PLY file holds. A header without `element vertex`
    or `end_header`, a negative vertex count, a body shorter than it
    declares, a vertex row of fewer than three values or a token that is
    no number raises ValueError naming the file and, where there is one,
    the line."""
    lines = Path(path).read_text().splitlines()
    n, timestamp = None, 0.0
    for i, line in enumerate(lines, start=1):
        if line.startswith("element vertex"):
            (n,) = _numbers(path, i, line.split()[-1], int)
            if n < 0:
                raise ValueError(f"{path}:{i}: negative vertex count {n}")
        elif line.startswith("comment timestamp"):
            (timestamp,) = _numbers(path, i, line.split()[-1])
        elif line.strip() == "end_header":
            break
    else:
        raise ValueError(f"{path}: PLY header without end_header")
    if n is None:
        raise ValueError(f"{path}: PLY header without 'element vertex'")
    rows = [_numbers(path, k, line) for k, line in enumerate(lines[i : i + n], start=i + 1)]
    if len(rows) < n:
        raise ValueError(f"{path}: {len(rows)} vertex rows, the header declares {n}")
    for k, row in enumerate(rows, start=i + 1):
        if len(row) < 3:
            raise ValueError(f"{path}:{k}: vertex row of {len(row)} values, not 3")
    return PointCloud(np.array([row[:3] for row in rows]).reshape(-1, 3), timestamp)


# -- world model ------------------------------------------------------------


def save_world(path, world: WorldModel) -> None:
    Path(path).write_text(json.dumps(to_json(world), indent=1))


def load_world(path) -> WorldModel:
    return from_json(WorldModel, json.loads(Path(path).read_text()))


# -- dataset directories ----------------------------------------------------


def export_dataset(out_dir, world: WorldModel, steps: list[SimStep]) -> None:
    out = Path(out_dir)
    (out / "scans").mkdir(parents=True, exist_ok=True)
    save_world(out / "world.json", world)
    write_tum(out / "ground_truth.tum", [(s.timestamp, s.gt_pose) for s in steps])
    write_tum(out / "odometry.tum", [(s.timestamp, s.odom_pose) for s in steps])
    for i, s in enumerate(steps):
        write_ply(out / "scans" / f"{i:06d}.ply", s.scan)


def load_dataset(data_dir) -> tuple[WorldModel, list[SimStep]]:
    """The world and steps `export_dataset` wrote. Raises ValueError when
    the ground truth, the odometry and the scans differ in count, or the
    ground truth and the odometry in a timestamp."""
    data = Path(data_dir)
    world = load_world(data / "world.json")
    gt = read_tum(data / "ground_truth.tum")
    odom = read_tum(data / "odometry.tum")
    scans = sorted((data / "scans").glob("*.ply"))
    if not len(gt) == len(odom) == len(scans):
        raise ValueError(
            f"{data}: {len(gt)} ground-truth poses, {len(odom)} odometry poses, {len(scans)} scans"
        )
    steps = []
    for (t, gt_pose), (t_odom, odom_pose), scan_path in zip(gt, odom, scans):
        if t_odom != t:
            raise ValueError(f"{data}: ground truth at t={t!r}, odometry at t={t_odom!r}")
        steps.append(
            SimStep(
                timestamp=t,
                gt_pose=gt_pose,
                odom_pose=odom_pose,
                scan=read_ply(scan_path),
            )
        )
    return world, steps


# -- graph snapshots --------------------------------------------------------


def graph_to_dict(graph: SGraph) -> dict:
    return {"version": SNAPSHOT_VERSION, **to_json(graph)}


def graph_from_dict(d: dict) -> SGraph:
    """The graph a snapshot holds. These raise ValueError:
    - a snapshot of another version;
    - an id counter that is not above every id it has given;
    - a factor without a kind, on variables of the wrong kinds for its
      kind or on a variable the snapshot lacks, or with an information
      that is no positive definite matrix of its kind's residual size;
    - a room or corridor that names a missing span;
    - a span along z, or a span wall without an edge factor on that plane
      in its slot.
    A span may have edge factors beyond its walls."""
    d = dict(d)
    version = d.pop("version", None)
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    graph = from_json(SGraph, d)
    held = {"kf": graph.keyframes, "plane": graph.planes, "span": graph.spans}
    counted = {
        "_next_plane_id": graph.planes,
        "_next_span_id": graph.spans,
        "_next_room_id": graph.rooms,
        "_next_corridor_id": graph.corridors,
    }
    for counter, ids in counted.items():
        if ids and getattr(graph, counter) <= max(ids):
            raise ValueError(f"{counter} {getattr(graph, counter)} is not above id {max(ids)}, which it gave")
    for f in graph.factors:
        for kind, vid in f.variables:
            if vid not in held.get(kind, ()):
                raise ValueError(f"{f.kind.value} factor on {kind} {vid}, not in the snapshot")
        if tuple(kind for kind, _ in f.variables) != KINDS[f.kind].variables:
            raise ValueError(f"{f.kind.value} factor on {f.variables}, not on a {KINDS[f.kind].variables} pair")
        m, info = KINDS[f.kind].residual, f.information
        symmetric = info.shape == (m, m) and np.isfinite(info).all() and np.array_equal(info, info.T)
        if not (symmetric and np.linalg.eigvalsh(info).min() > 0.0):
            raise ValueError(
                f"{f.kind.value} factor on {f.variables}: information {info.tolist()} "
                f"is not a positive definite {m}x{m} matrix"
            )
    for layer, nodes in (("room", graph.rooms), ("corridor", graph.corridors)):
        for node_id, node in nodes.items():
            missing = [s for s in node.spans if s not in graph.spans]
            if missing:
                raise ValueError(f"{layer} {node_id} names span {missing[0]}, not in the snapshot")
    edges = {(*f.variables, f.measurement) for f in graph.factors if f.variables[0][0] == "span"}
    for span_id, span in graph.spans.items():
        if span.axis is PlaneClass.HORIZONTAL:
            raise ValueError(f"span {span_id} is along z, not x or y")
        for slot, plane_id in zip(span.wall_slots(), span.walls):
            if (("span", span_id), ("plane", plane_id), slot) not in edges:
                raise ValueError(
                    f"span {span_id} links plane {plane_id} in slot {slot}, "
                    "but the snapshot has no edge factor on it in that slot"
                )
    return graph


def save_graph(path, graph: SGraph) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(graph)))


def load_graph(path) -> SGraph:
    return graph_from_dict(json.loads(Path(path).read_text()))
