import dataclasses
import math
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from scipy.linalg import cho_factor

from sgraph import solver
from sgraph.factors import KINDS, Factor, FactorKind
from sgraph.geometry import PlaneMinimal, Pose3
from sgraph.graph import KeyframePolicy, SGraph
from sgraph.linearize import LAYERS, BatchedFactors, Linearization
from sgraph.solver import (
    SingularSystem,
    SolverConfig,
    layer_costs,
    optimize,
)

from reference_factors import pose_retract
from test_geometry import almost_equal
from test_io import sample_graph


def tx(x):
    return Pose3(np.eye(3), np.array([x, 0.0, 0.0]))


def make_chain(n, step=1.0):
    """Noiseless odometry chain along +x."""
    g = SGraph()
    policy = KeyframePolicy(min_translation=0.5, min_rotation=0.5)
    for i in range(n):
        g.maybe_add_keyframe(tx(i * step), policy, timestamp=float(i))
    return g


class TestKeyframePolicy:
    def test_first_call_creates_origin_keyframe(self):
        g = SGraph()
        kf = g.maybe_add_keyframe(tx(5.0), KeyframePolicy(), timestamp=0.0)
        assert kf == 0
        assert almost_equal(g.keyframes[0].pose, Pose3.identity())

    def test_below_threshold_no_keyframe(self):
        g = SGraph()
        g.maybe_add_keyframe(tx(0.0), KeyframePolicy(min_translation=1.0))
        assert g.maybe_add_keyframe(tx(0.1), KeyframePolicy(min_translation=1.0)) is None
        assert len(g.keyframes) == 1

    def test_motion_creates_keyframe_with_odometry_factor(self):
        g = SGraph()
        g.maybe_add_keyframe(tx(0.0), KeyframePolicy(min_translation=1.0))
        kf = g.maybe_add_keyframe(tx(1.5), KeyframePolicy(min_translation=1.0))
        assert kf == 1
        assert len(g.factors) == 1
        meas = g.factors[0].measurement
        assert almost_equal(meas, tx(1.5))

    def test_first_keyframe_keeps_its_stamp_and_odometry_and_adds_no_factor(self):
        g = SGraph()
        odom = Pose3.from_xyz_yaw(5.0, -2.0, 1.0, 0.3)
        g.maybe_add_keyframe(odom, KeyframePolicy(), timestamp=7.5, odom_information=np.eye(6))
        kf = g.keyframes[0]
        assert kf.timestamp == 7.5
        assert kf.odom_pose is odom
        assert np.array_equal(kf.odom_cov, np.zeros((6, 6)))
        assert g.factors == []

    def test_later_keyframe_covariance_inverts_the_given_information(self):
        g = SGraph()
        info = np.diag([100.0, 200.0, 400.0, 1e4, 2e4, 4e4])
        g.maybe_add_keyframe(tx(0.0), KeyframePolicy(), odom_information=info)
        g.maybe_add_keyframe(tx(1.5), KeyframePolicy(), timestamp=2.0, odom_information=info)
        assert g.keyframes[1].timestamp == 2.0
        assert np.array_equal(g.keyframes[1].odom_cov, np.linalg.inv(info))
        (f,) = g.factors
        assert f.kind is FactorKind.ODOMETRY
        assert f.variables == (("kf", 0), ("kf", 1))
        assert np.array_equal(f.information, info)

    def test_odometry_information_defaults(self):
        g = SGraph()
        g.maybe_add_keyframe(tx(0.0), KeyframePolicy())
        g.maybe_add_keyframe(tx(1.5), KeyframePolicy())
        assert np.array_equal(g.factors[0].information, np.eye(6) * 1e4)
        assert np.array_equal(g.keyframes[1].odom_cov, np.linalg.inv(np.eye(6) * 1e4))

    def test_rotation_alone_makes_a_keyframe(self):
        g = SGraph()
        policy = KeyframePolicy(min_translation=1.0, min_rotation=0.5)
        g.maybe_add_keyframe(tx(0.0), policy)
        assert g.maybe_add_keyframe(Pose3.from_xyz_yaw(0.0, 0.0, 0.0, 0.4), policy) is None
        assert g.maybe_add_keyframe(Pose3.from_xyz_yaw(0.0, 0.0, 0.0, 0.6), policy) == 1
        assert almost_equal(g.keyframes[1].pose, Pose3.from_xyz_yaw(0.0, 0.0, 0.0, 0.6))


class TestOptimize:
    def test_consistent_chain_zero_cost(self):
        g = make_chain(5)
        report = optimize(g, SolverConfig())
        assert report.initial_cost == pytest.approx(0.0, abs=1e-12)
        assert report.final_cost == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_chain_recovers(self):
        g = make_chain(5)
        truth = {k: g.keyframes[k].pose for k in g.keyframes}
        rng = np.random.default_rng(0)
        for k in list(g.keyframes)[1:]:
            g.keyframes[k].pose = pose_retract(g.keyframes[k].pose, rng.normal(0, 0.3, 6))
        report = optimize(g, SolverConfig())
        assert report.final_cost < 1e-16
        for k, pose in truth.items():
            assert almost_equal(g.keyframes[k].pose, pose, tol=1e-6)

    def test_single_plane_distance_converges(self):
        # one keyframe, one plane factor, plane d off by 1 m: 1-D quadratic
        g = make_chain(1)
        from sgraph.graph import PlaneLandmark
        from sgraph.geometry import PlaneClass

        meas = PlaneMinimal(0.0, 0.0, 3.0)
        g.planes[0] = PlaneLandmark(
            id=0,
            params=PlaneMinimal(0.0, 0.0, 4.0),
            plane_class=PlaneClass.X_VERTICAL,
            extent=np.array([1.0, 1.0]),
        )
        info = np.diag([2500.0, 2500.0, 2500.0])
        g.factors.append(
            Factor(FactorKind.POSE_PLANE, (("kf", 0), ("plane", 0)), meas, info)
        )
        report = optimize(g, SolverConfig())
        assert g.planes[0].params.distance == pytest.approx(3.0, abs=1e-8)
        assert report.final_cost < 1e-12

    def test_accepted_steps_never_increase_cost(self):
        g = make_chain(8)
        rng = np.random.default_rng(1)
        for k in list(g.keyframes)[1:]:
            g.keyframes[k].pose = pose_retract(g.keyframes[k].pose, rng.normal(0, 0.2, 6))
        report = optimize(g, SolverConfig())
        assert report.final_cost <= report.initial_cost

    def test_gauge_unique_minimum_from_perturbation(self):
        g = make_chain(6)
        truth = {k: g.keyframes[k].pose for k in g.keyframes}
        rng = np.random.default_rng(2)
        for k in list(g.keyframes)[1:]:
            delta = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.2, 0.2, 3)])
            g.keyframes[k].pose = pose_retract(g.keyframes[k].pose, delta)
        optimize(g, SolverConfig())
        for k, pose in truth.items():
            assert almost_equal(g.keyframes[k].pose, pose, tol=1e-6)

    def test_layer_cost_decomposition(self):
        g = make_chain(4)
        rng = np.random.default_rng(3)
        for k in list(g.keyframes)[1:]:
            g.keyframes[k].pose = pose_retract(g.keyframes[k].pose, rng.normal(0, 0.1, 6))
        costs = layer_costs(g)
        factors = BatchedFactors(g)
        full = factors.linearize(factors.values(g), 1.0).costs
        assert sum(costs.values()) == pytest.approx(sum(full.values()), abs=1e-12)
        assert costs["tracking"] > 0.0
        assert costs["plane"] == costs["room"] == costs["corridor"] == 0.0

    def test_singular_system_detected(self):
        # a free-floating plane variable with no factor makes H singular
        g = make_chain(3)
        from sgraph.graph import PlaneLandmark
        from sgraph.geometry import PlaneClass

        g.planes[0] = PlaneLandmark(
            id=0,
            params=PlaneMinimal(0.0, 0.0, 4.0),
            plane_class=PlaneClass.X_VERTICAL,
            extent=np.array([1.0, 1.0]),
        )
        with pytest.raises(SingularSystem) as err:
            optimize(g, SolverConfig(check_rank=True))
        assert err.value.nullity == 3


def variable_state(g):
    """Every optimized quantity of the graph, as plain tuples."""
    return (
        {k: (kf.pose.rotation.tobytes(), kf.pose.translation.tobytes())
         for k, kf in g.keyframes.items()},
        {k: lm.params for k, lm in g.planes.items()},
        {k: np.array([s.center, s.width]).tobytes() for k, s in g.spans.items()},
    )


def values_state(values):
    """Every array of gathered values, as bytes."""
    return tuple(getattr(values, f.name).tobytes() for f in dataclasses.fields(values))


def reject_damped_tries(monkeypatch, seen=lambda values: None):
    """Patch `BatchedFactors.linearize` so that every call after the first,
    the linearization of a damped try, shows its values to `seen` and reads
    infinite in every layer; the first, of the starting point, passes
    through."""
    linearize = BatchedFactors.linearize
    calls = []

    def reject(self, values, huber_delta, jacobians=True):
        lin = linearize(self, values, huber_delta, jacobians)
        calls.append(values)
        if len(calls) > 1:
            seen(values)
            lin.costs = dict.fromkeys(LAYERS, math.inf)
        return lin

    monkeypatch.setattr(BatchedFactors, "linearize", reject)


class TestDampedTries:
    def test_cost_only_equals_full_linearization_cost(self):
        g = sample_graph()
        factors = BatchedFactors(g)
        values = factors.values(g)
        cost = sum(factors.linearize(values, 1.0).costs.values())
        cost_only = factors.linearize(values, 1.0, jacobians=False).costs
        assert sum(cost_only.values()) == pytest.approx(cost, rel=1e-12)
        assert sum(layer_costs(g).values()) == pytest.approx(cost, rel=1e-12)

    def test_rejected_try_restores_every_variable(self, monkeypatch):
        g = sample_graph()
        before = variable_state(g)
        start = values_state(BatchedFactors(g).values(g))
        tried = []
        reject_damped_tries(monkeypatch, lambda values: tried.append(values_state(values)))
        report = optimize(g, SolverConfig(check_rank=False))
        assert len(tried) == 20 and all(state != start for state in tried)
        assert report.final_cost == report.initial_cost
        assert variable_state(g) == before
        assert (report.status, report.accepted, report.rejected) == ("stalled", 0, 20)


@pytest.fixture
def spied(monkeypatch):
    """Counts, over the solves that follow, of each layer's kernel calls, of
    each `Linearization`'s g and H builds ("g", "H") and of
    `BatchedFactors.write` calls ("write"). Only layouts built after the
    patch call the counted kernels."""
    calls = Counter()

    def counted_kernel(spec):
        def kernel(*args, _kernel=spec.kernel, _layer=spec.layer):
            calls[_layer] += 1
            return _kernel(*args)

        return dataclasses.replace(spec, kernel=kernel)

    counted = {}
    for kind, spec in KINDS.items():
        monkeypatch.setitem(KINDS, kind, counted.setdefault(spec, counted_kernel(spec)))
    for name in ("g", "H"):

        def build(self, _build=Linearization.__dict__[name].func, _name=name):
            calls[_name] += 1
            return _build(self)

        prop = cached_property(build)
        prop.__set_name__(Linearization, name)
        monkeypatch.setattr(Linearization, name, prop)
    write = BatchedFactors.write

    def counted_write(self, graph, values):
        calls["write"] += 1
        write(self, graph, values)

    monkeypatch.setattr(BatchedFactors, "write", counted_write)
    return calls


class TestOnePassPerTry:
    """Each damped try runs each block's kernel once, with Jacobians; an
    accepted try's linearization serves the next iteration, H is built only
    to solve a step (or for the rank check), and nothing is written back
    unless a step was accepted."""

    @pytest.mark.parametrize("check_rank", [False, True])
    def test_a_solve_at_the_minimum_builds_no_H_and_writes_nothing(self, spied, check_rank):
        g = make_chain(5)
        poses = {k: kf.pose for k, kf in g.keyframes.items()}
        report = optimize(g, SolverConfig(check_rank=check_rank))
        assert (report.status, report.iterations, report.accepted, report.rejected) == (
            "converged", 1, 0, 0)
        # the rank check reads H; the solve itself reads g alone
        assert spied == Counter(tracking=1, g=1, H=int(check_rank))
        assert all(g.keyframes[k].pose is pose for k, pose in poses.items())

    @staticmethod
    def rejecting_chain():
        """A chain perturbed so far that its solve rejects 6 damped tries."""
        g = make_chain(6)
        rng = np.random.default_rng(3)
        for k in list(g.keyframes)[1:]:
            g.keyframes[k].pose = pose_retract(g.keyframes[k].pose, rng.normal(0, 0.8, 6))
        return g

    @pytest.mark.parametrize("graph", ["sample", "rejecting chain"])
    def test_each_try_runs_each_kernel_once(self, spied, graph):
        g = sample_graph() if graph == "sample" else self.rejecting_chain()
        report = optimize(g, SolverConfig(check_rank=False))
        assert report.converged and report.accepted >= 2
        assert report.rejected == (0 if graph == "sample" else 6)
        # the start and each try, one pass each: an accepted try is not
        # linearized again
        passes = 1 + report.accepted + report.rejected
        layers = {KINDS[f.kind].layer for f in g.factors}
        assert {layer: spied[layer] for layer in LAYERS} == {
            layer: passes if layer in layers else 0 for layer in LAYERS}
        # g at each point an iteration starts from, H at each point a step
        # was solved from (not at the last, when its gradient converged),
        # and one write
        assert (spied["g"], spied["write"]) == (report.iterations, 1)
        assert spied["H"] == report.accepted == report.iterations - (graph == "sample")

    def test_the_last_accepted_try_builds_no_normal_equations(self, spied):
        g = TestReportStatus.perturbed_chain(5)
        before = variable_state(g)
        poses = {k: kf.pose for k, kf in g.keyframes.items()}
        report = optimize(g, SolverConfig(max_iters=1, check_rank=False))
        assert (report.status, report.accepted, report.rejected) == ("max_iters", 1, 0)
        # g and H of the first point only
        assert spied == Counter(tracking=2, g=1, H=1, write=1)
        assert variable_state(g) != before
        assert all(g.keyframes[k].pose is not pose for k, pose in list(poses.items())[1:])


class TestReportStatus:
    @staticmethod
    def perturbed_chain(seed):
        g = make_chain(6)
        rng = np.random.default_rng(seed)
        for k in list(g.keyframes)[1:]:
            g.keyframes[k].pose = pose_retract(g.keyframes[k].pose, rng.normal(0, 0.3, 6))
        return g

    def test_converged(self):
        report = optimize(self.perturbed_chain(4), SolverConfig())
        assert report.status == "converged" and report.converged
        assert report.accepted >= 2 and report.iterations in (report.accepted, report.accepted + 1)
        assert report.final_cost < 1e-16

    def test_converged_without_a_step_at_the_minimum(self):
        report = optimize(make_chain(4), SolverConfig())
        assert report.status == "converged" and report.converged
        assert (report.iterations, report.accepted, report.rejected) == (1, 0, 0)

    def test_stalled_is_not_converged(self, monkeypatch):
        g = self.perturbed_chain(5)
        reject_damped_tries(monkeypatch)
        report = optimize(g, SolverConfig())
        assert report.status == "stalled" and not report.converged
        assert (report.iterations, report.accepted, report.rejected) == (1, 0, 20)
        assert report.final_cost == report.initial_cost

    @pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(check_rank=False)])
    def test_graph_without_columns_converged_without_an_iteration(self, cfg):
        g = make_chain(1)
        before = variable_state(g)
        report = optimize(g, cfg)
        assert (report.status, report.iterations, report.accepted, report.rejected) == (
            "converged", 0, 0, 0)
        assert report.initial_cost == report.final_cost == 0.0
        assert variable_state(g) == before

    def test_graph_without_keyframes_rejected(self):
        with pytest.raises(ValueError, match="no keyframes"):
            optimize(SGraph())

    def test_max_iters(self):
        report = optimize(self.perturbed_chain(6), SolverConfig(max_iters=2))
        assert report.status == "max_iters" and not report.converged
        assert (report.iterations, report.accepted) == (2, 2)
        assert report.final_cost < report.initial_cost

    def test_failed_factorizations_raise_the_damping(self, monkeypatch):
        calls = []

        def fail_twice(A, **kwargs):
            calls.append(A[0, 0])
            if len(calls) <= 2:
                raise np.linalg.LinAlgError("not positive definite")
            return cho_factor(A, **kwargs)

        monkeypatch.setattr(solver, "cho_factor", fail_twice)
        report = optimize(self.perturbed_chain(7), SolverConfig(max_iters=1))
        assert report.rejected == 2 and report.accepted == 1
        assert calls[1] > calls[0] and calls[2] > calls[1]
