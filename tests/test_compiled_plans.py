"""Compiled inference plans: lowering coverage, semantics, and fallbacks.

Parity at the engine level is fuzzed per registry cell in
``test_formulation_matrix.py`` and per instance network in
``test_incremental_serving.py``; this module checks each untrained
network's plan against the oracle once, then tests the plan machinery
itself — the step vocabulary, buffer lifecycle, and the lowering contract
(built-in paths that cannot be lowered raise at engine init; plug-ins
without a plan serve through their own scorer).
"""

import numpy as np
import pytest

from repro.construction.rules import knn_graph
from repro.datasets import TabularPreprocessor, make_correlated_instances
from repro.gnn.networks import _Local, build_network
from repro.serving import InferenceEngine, ModelArtifact
from repro.serving.compiled import (
    KERNELS,
    InferencePlan,
    PlanBuilder,
    PlanStep,
    UnsupportedPlanError,
)
from repro.tensor import ops

NETWORKS = ("gcn", "sage", "gin", "gat", "gated")


def _instance_artifact(network, n=60, hidden=16, k=5, seed=0):
    dataset = make_correlated_instances(n=n, seed=seed)
    prep = TabularPreprocessor(mode="onehot").fit(dataset)
    x = prep.transform_dataset(dataset)
    graph = knn_graph(x, k=k, metric="euclidean", y=dataset.y)
    model = build_network(
        network, graph, hidden, dataset.num_classes,
        np.random.default_rng(seed), num_layers=2,
    )
    return ModelArtifact(
        formulation="instance",
        network=network,
        config={
            "hidden_dim": hidden, "out_dim": dataset.num_classes, "k": k,
            "metric": "euclidean", "num_layers": 2, "embed_dim": 8,
            "task": dataset.task,
        },
        state_dict=model.state_dict(),
        preprocessor=prep,
        pool_x=np.asarray(graph.x, dtype=np.float64),
        pool_edge_index=graph.edge_index.astype(np.int64),
    )


# ---------------------------------------------------------------------------
# plan machinery
# ---------------------------------------------------------------------------
class TestPlanMachinery:
    def test_unknown_op_rejected_at_build_time(self):
        with pytest.raises(UnsupportedPlanError, match="unknown kernel op"):
            PlanStep("warp_drive", ("x",), "out", {})

    def test_plan_reuses_buffers_per_batch_size(self):
        builder = PlanBuilder()
        builder.feed("x")
        w = builder.const("w", np.eye(3))
        out = builder.buffer("out", lambda batch: (batch, 3))
        builder.step("linear", ("x", w), out)
        plan = builder.build(out)

        first = plan.run(4, {"x": np.ones((4, 3))})
        assert plan.reallocations == 1
        np.testing.assert_allclose(first, 1.0)
        second = plan.run(4, {"x": np.full((4, 3), 2.0)})
        assert second is first  # plan-owned output buffer, reused
        assert plan.reallocations == 1
        plan.run(2, {"x": np.ones((2, 3))})
        assert plan.reallocations == 2

    def test_views_are_windows_into_parent_buffers(self):
        builder = PlanBuilder()
        builder.feed("x")
        w = builder.const("w", np.eye(2))
        combined = builder.buffer("combined", lambda batch: (batch, 4))
        left = builder.view("left", combined, lambda batch: (slice(None), slice(0, 2)))
        right = builder.view(
            "right", combined, lambda batch: (slice(None), slice(2, 4))
        )
        builder.step("linear", ("x", w), left)
        builder.step("relu", ("x",), right)
        plan = builder.build(combined)
        got = plan.run(3, {"x": np.full((3, 2), -1.5)})
        np.testing.assert_allclose(got[:, :2], -1.5)
        np.testing.assert_allclose(got[:, 2:], 0.0)

    def test_every_step_op_is_in_the_kernel_vocabulary(self):
        # The backend contract: whatever a lowering emits, a swap-in
        # backend only needs to implement the KERNELS names.
        for network in NETWORKS:
            artifact = _instance_artifact(network)
            engine = InferenceEngine(artifact, cache_size=0)
            assert engine.compiled
            plan = engine._scorer._compiled.plan
            assert plan.ops, network
            assert set(plan.ops) <= set(KERNELS), network
            assert isinstance(plan, InferencePlan)


# ---------------------------------------------------------------------------
# per-network lowering parity (untrained weights, engine level)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("network", NETWORKS)
def test_network_lowering_matches_full_graph_oracle(network):
    artifact = _instance_artifact(network)
    rows = make_correlated_instances(n=60, seed=0).numerical[:6] + 0.05
    compiled = InferenceEngine(artifact, cache_size=0)
    oracle = InferenceEngine(artifact, cache_size=0, incremental=False)
    assert compiled.compiled and not oracle.compiled
    assert compiled.compile_ms > 0.0
    np.testing.assert_allclose(
        compiled.predict_batch(rows), oracle.predict_batch(rows), atol=1e-8
    )
    # Attach accounting identical: the plan consumes the same neighbors.
    assert compiled.stats["attach_edges"] == oracle.stats["attach_edges"] > 0


# ---------------------------------------------------------------------------
# fallback contract
# ---------------------------------------------------------------------------
class TestFallbacks:
    def test_full_graph_oracle_stays_interpreted(self):
        # The oracle runs the autograd forward; no plan is built for it.
        engine = InferenceEngine(
            _instance_artifact("gcn"), cache_size=0, incremental=False
        )
        assert not engine.compiled
        assert engine._scorer._compiled is None
        assert engine.compile_ms >= 0.0

    def test_unlowerable_builtin_raises_at_engine_init(self):
        # A built-in scorer never degrades silently: a network step the
        # lowerings do not cover fails the engine at construction.
        artifact = _instance_artifact("gcn")
        build = artifact.build_model

        def with_opaque_step(graph=None):
            model = build(graph)
            model._steps.insert(1, _Local(ops.exp))
            return model

        artifact.build_model = with_opaque_step
        with pytest.raises(UnsupportedPlanError, match="unsupported local step"):
            InferenceEngine(artifact, cache_size=0)
        # The oracle builds no plan, so the same artifact still serves it.
        assert not InferenceEngine(artifact, incremental=False).compiled

    def test_default_scorer_hook_keeps_plugins_interpreted(self):
        from repro.formulations.base import RowScorer

        class PluginScorer(RowScorer):
            def score(self, numerical, categorical):  # pragma: no cover
                return np.zeros((numerical.shape[0], 2))

        scorer = PluginScorer()
        assert scorer.compile_plan() is None
        assert scorer.enable_compiled() is False
        assert scorer._compiled is None

    def test_compiled_gauge_reports_serving_path(self):
        engine = InferenceEngine(_instance_artifact("gcn"))
        text = engine.registry.render_prometheus()
        assert 'repro_engine_compiled{formulation="instance"} 1' in text
        oracle = InferenceEngine(_instance_artifact("gcn"), incremental=False)
        text = oracle.registry.render_prometheus()
        assert 'repro_engine_compiled{formulation="instance"} 0' in text
