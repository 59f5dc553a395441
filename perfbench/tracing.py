"""In-memory spans and counters around the calls the pipeline makes into
each layer.

The benchmark wraps public functions by replacing them on the module or
class the pipeline looks them up on, and restores them on exit; the
program itself is unchanged. A span records its name, start, end, parent
span and run id. Self time is a span's duration minus what its children
cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from sgraph import loops, pipeline
from sgraph.factors import LOCAL_DIM
from sgraph.graph import SGraph
from sgraph.loops import NoConvergence
from sgraph.planes import TooFewPoints
from sgraph.solver import SolverConfig

# spans of the replay itself; every other span name is a layer
ROOT_SPAN = "run_slam"
STEP_SPAN = "process_step"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts for one run (one replay of a stream)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """Return fn wrapped in a span; the hooks see the call's arguments."""

        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._open[-1] if self._open else None, name,
                        time.perf_counter())
            self.spans.append(span)
            self._open.append(span.id)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, *args, **kwargs)
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(out, *args, **kwargs)
            return out

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.duration - child[s.id]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def layer_time(self) -> float:
        """Seconds spent inside top-level layer spans (children of the
        replay or of a pipeline step)."""
        outer = {s.id for s in self.spans if s.name in (ROOT_SPAN, STEP_SPAN)}
        return sum(s.duration for s in self.spans if s.parent in outer and s.id not in outer)

    def to_records(self) -> list[dict]:
        return [
            {"run": self.run_id, "id": s.id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]):
    """Temporarily set attributes; every target must already exist."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _graph_dim(graph: SGraph) -> int:
    """Dimension of the solve: every variable except the gauge keyframe."""
    return (
        LOCAL_DIM["kf"] * (len(graph.keyframes) - 1)
        + LOCAL_DIM["plane"] * len(graph.planes)
        + LOCAL_DIM["room"] * len(graph.rooms)
        + LOCAL_DIM["corridor"] * len(graph.corridors)
    )


def layer_patches(tracer: Tracer, min_plane_inlier_count: int) -> list[tuple[object, str, object]]:
    """Span and count wrappers for every layer call of the pipeline."""
    c = tracer.counts

    def preprocess_done(cloud, *_a, **_k):
        c["planes.points"] += len(cloud)

    def planes_done(dets, *_a, **_k):
        c["planes.detections"] += len(dets)
        c["planes.kept"] += sum(d.inlier_count >= min_plane_inlier_count for d in dets)

    def planes_failed(exc, *_a, **_k):
        if isinstance(exc, TooFewPoints):
            c["planes.too_few_points"] += 1

    def add_observation(graph, *args, **kwargs):
        before = len(graph.planes)
        lm_id = observe(graph, *args, **kwargs)
        c["graph.observations"] += 1
        c["graph.new_landmarks"] += len(graph.planes) > before
        return lm_id

    def registered(_constraint, *_a, **_k):
        c["loops.accepted"] += 1

    def not_registered(exc, *_a, **_k):
        if isinstance(exc, NoConvergence):
            c["loops.no_convergence"] += 1

    def register(*args, **kwargs):
        c["loops.candidates"] += 1
        return register_traced(*args, **kwargs)

    def optimize(graph, *args, **kwargs):
        c["solver.dim"] = max(c["solver.dim"], _graph_dim(graph))
        report = optimize_traced(graph, *args, **kwargs)
        cfg = args[0] if args else kwargs.get("cfg", SolverConfig())
        c["solver.optimize_calls"] += 1
        c["solver.iterations"] += report.iterations
        c["solver.no_progress_calls"] += (
            report.final_cost == report.initial_cost and report.initial_cost > 1e-12
        )
        c["solver.max_iter_calls"] += report.iterations >= cfg.max_iters and not report.converged
        return report

    evaluate = SGraph.evaluate_factor

    def evaluate_factor(*args, **kwargs):
        c["solver.factor_evals"] += 1
        return evaluate(*args, **kwargs)

    observe = tracer.wrap("add_plane_observation", SGraph.add_plane_observation)
    register_traced = tracer.wrap("register_scans", loops.register_scans, registered, not_registered)
    optimize_traced = tracer.wrap("optimize", pipeline.optimize)
    return [
        (pipeline, "preprocess", tracer.wrap("preprocess", pipeline.preprocess, preprocess_done)),
        (pipeline, "extract_planes",
         tracer.wrap("extract_planes", pipeline.extract_planes, planes_done, planes_failed)),
        (SGraph, "maybe_add_keyframe", tracer.wrap("maybe_add_keyframe", SGraph.maybe_add_keyframe)),
        (SGraph, "add_plane_observation", add_observation),
        (pipeline, "update_topology", tracer.wrap("update_topology", pipeline.update_topology)),
        (pipeline, "close_loops", tracer.wrap("close_loops", pipeline.close_loops)),
        (loops, "register_scans", register),
        (pipeline, "optimize", optimize),
        (SGraph, "evaluate_factor", evaluate_factor),
    ]
