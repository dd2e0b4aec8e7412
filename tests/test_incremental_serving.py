"""Tests for incremental query propagation through the serving stack.

The incremental path (cached per-step pool activations feeding the
compiled query plan) must be numerically indistinguishable from the
full-graph oracle (rebuild the (pool + queries) graph, re-forward
everything) for **every** network in the zoo — operator, attention and
gated stacks alike — across retrieval metrics and batch sizes.  Also covers the supporting machinery this path
leans on: memoized graph operators and edge views, the precomputed
``PoolIndex``, skip-init artifact loading, and LRU cache
eviction/read-only guarantees.
"""

import numpy as np
import pytest

from repro.construction.retrieval import PoolIndex, cross_similarity, retrieve_neighbors
from repro.construction.rules import knn_graph
from repro.datasets import TabularPreprocessor, make_correlated_instances
from repro.gnn.networks import build_network
from repro.serving import InferenceEngine, ModelArtifact

POOL_ROWS = 90
K = 6
ALL_NETWORKS = ["gcn", "sage", "gin", "gat", "gated"]


def _instance_artifact(network, metric, seed=0, num_layers=2):
    """Random-weight instance artifact — parity doesn't need training."""
    dataset = make_correlated_instances(n=POOL_ROWS, seed=seed)
    prep = TabularPreprocessor(mode="onehot").fit(dataset)
    x = prep.transform_dataset(dataset)
    graph = knn_graph(x, k=5, metric="euclidean", y=dataset.y)
    model = build_network(
        "gated" if network == "gated" else network,
        graph,
        16,
        dataset.num_classes,
        np.random.default_rng(seed),
        num_layers=num_layers,
    )
    artifact = ModelArtifact(
        formulation="instance",
        network=network,
        config={
            "hidden_dim": 16,
            "out_dim": dataset.num_classes,
            "k": K,
            "metric": metric,
            "num_layers": num_layers,
            "embed_dim": 8,
            "task": dataset.task,
        },
        state_dict=model.state_dict(),
        preprocessor=prep,
        pool_x=np.asarray(graph.x, dtype=np.float64),
        pool_edge_index=graph.edge_index.astype(np.int64),
    )
    return dataset, artifact


# ----------------------------------------------------------------------
# incremental vs full-graph parity
# ----------------------------------------------------------------------
class TestIncrementalParity:
    @pytest.mark.parametrize("network", ALL_NETWORKS)
    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "rbf"])
    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_predict_batch_matches_full_graph_oracle(
        self, network, metric, batch_size
    ):
        dataset, artifact = _instance_artifact(network, metric)
        incremental = InferenceEngine(artifact, cache_size=0, incremental=True)
        oracle = InferenceEngine(artifact, cache_size=0, incremental=False)
        assert incremental.incremental and not oracle.incremental
        rng = np.random.default_rng(7)
        rows = dataset.numerical[:batch_size] + rng.normal(
            0.0, 0.1, (batch_size, dataset.num_numerical)
        )
        got = incremental.predict_batch(rows)
        expected = oracle.predict_batch(rows)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    @pytest.mark.parametrize("network", ["gcn", "gat"])
    def test_three_layer_stack_parity(self, network):
        dataset, artifact = _instance_artifact(network, "euclidean", num_layers=3)
        incremental = InferenceEngine(artifact, cache_size=0, incremental=True)
        oracle = InferenceEngine(artifact, cache_size=0, incremental=False)
        rows = dataset.numerical[:4] + 0.05
        np.testing.assert_allclose(
            incremental.predict_batch(rows), oracle.predict_batch(rows), atol=1e-8
        )

    @pytest.mark.parametrize("network", ALL_NETWORKS)
    def test_auto_mode_picks_incremental_for_every_network(self, network):
        _, artifact = _instance_artifact(network, "euclidean")
        assert InferenceEngine(artifact, cache_size=0).incremental is True

    @pytest.mark.parametrize("network", ["gat", "gated"])
    def test_oracle_path_retained_for_explicit_opt_out(self, network):
        dataset, artifact = _instance_artifact(network, "euclidean")
        engine = InferenceEngine(artifact, cache_size=0, incremental=False)
        assert engine.incremental is False
        probs = engine.predict_batch(dataset.numerical[:2])
        assert probs.shape == (2, dataset.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)

    def test_feature_formulation_strict_mode_raises(self):
        from repro.datasets import make_fraud
        from repro.pipeline import run_pipeline

        result = run_pipeline(
            make_fraud(n=120, seed=0), formulation="feature", max_epochs=3, seed=0
        )
        artifact = result.export_artifact()
        assert InferenceEngine(artifact, cache_size=0).incremental is False
        with pytest.raises(ValueError, match="pool graph"):
            InferenceEngine(artifact, cache_size=0, incremental=True)

    def test_model_built_once_and_reused_across_requests(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        builds = []
        original = artifact.build_model
        artifact.build_model = lambda graph=None: (
            builds.append(original(graph)) or builds[-1]
        )
        engine = InferenceEngine(artifact, cache_size=0)
        model = engine._scorer.model
        for i in range(3):
            engine.predict(dataset.numerical[i] + 0.01)
        assert engine._scorer.model is model
        assert len(builds) == 1, "incremental path must not rebuild per request"

    def test_compiled_executor_validates_inputs(self):
        _, artifact = _instance_artifact("gcn", "euclidean")
        executor = InferenceEngine(artifact, cache_size=0)._scorer._compiled
        good = np.zeros((2, artifact.pool_x.shape[1]))
        with pytest.raises(ValueError, match="features"):
            executor.run(np.zeros((2, 3)), np.zeros((2, K), np.int64))
        with pytest.raises(ValueError, match="neighbor"):
            executor.run(good, np.zeros((3, K), np.int64))


# ----------------------------------------------------------------------
# supporting machinery
# ----------------------------------------------------------------------
class TestPoolIndex:
    @pytest.mark.parametrize(
        "measure", ["cosine", "euclidean", "rbf", "heat", "inner", "pearson"]
    )
    def test_matches_cross_similarity_and_retrieve_neighbors(self, measure):
        rng = np.random.default_rng(0)
        pool = rng.normal(size=(40, 6))
        queries = rng.normal(size=(5, 6))
        index = PoolIndex(pool, measure)
        np.testing.assert_array_equal(
            index.similarity(queries), cross_similarity(queries, pool, measure)
        )
        np.testing.assert_array_equal(
            index.top_k(queries, 4), retrieve_neighbors(queries, pool, 4, measure)
        )

    def test_k_bounds_validated(self):
        index = PoolIndex(np.eye(3))
        with pytest.raises(ValueError):
            index.top_k(np.eye(3), 0)
        with pytest.raises(ValueError):
            index.top_k(np.eye(3), 4)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            PoolIndex(np.zeros((0, 3)))


class TestMemoizedOperators:
    def test_adjacency_operators_are_cached(self):
        g = knn_graph(np.random.default_rng(0).normal(size=(30, 4)), k=3)
        assert g.adjacency() is g.adjacency()
        assert g.gcn_adjacency() is g.gcn_adjacency()
        assert g.mean_adjacency() is g.mean_adjacency()
        assert g.mean_adjacency(True) is g.mean_adjacency(True)
        assert g.mean_adjacency() is not g.mean_adjacency(True)

    def test_structure_transforms_get_fresh_caches(self):
        g = knn_graph(np.random.default_rng(0).normal(size=(30, 4)), k=3)
        adj = g.adjacency()
        looped = g.add_self_loops()
        assert looped.adjacency() is not adj
        assert looped.adjacency().diagonal().sum() == 30


class TestSkipInitArtifactLoading:
    def test_skip_init_and_random_init_load_identical_models(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        graph = artifact.pool_graph()
        fast = artifact.build_model(graph)
        slow = artifact.build_model(graph, skip_init=False)
        for (name_f, p_f), (name_s, p_s) in zip(
            fast.named_parameters(), slow.named_parameters()
        ):
            assert name_f == name_s
            np.testing.assert_array_equal(p_f.data, p_s.data)
        rows = dataset.numerical[:3]
        engine = InferenceEngine(artifact, cache_size=0)
        assert engine.predict_batch(rows).shape == (3, dataset.num_classes)


# ----------------------------------------------------------------------
# LRU cache: eviction, size accounting, read-only entries
# ----------------------------------------------------------------------
class TestCacheEvictionAndSafety:
    def test_lru_eviction_order_and_size_accounting(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        engine = InferenceEngine(artifact, cache_size=3)
        rows = [dataset.numerical[i] + 0.01 for i in range(5)]
        for row in rows:
            engine.predict(row)
        assert len(engine._cache) == 3
        assert engine.stats["forward_passes"] == 5
        # rows 0 and 1 were evicted (LRU); 2..4 are resident.
        engine.predict(rows[4])
        engine.predict(rows[2])
        assert engine.stats["forward_passes"] == 5
        assert engine.stats["cache_hits"] == 2
        # Touching row 0 again recomputes and evicts the stalest (row 3).
        engine.predict(rows[0])
        assert engine.stats["forward_passes"] == 6
        assert len(engine._cache) == 3
        engine.predict(rows[3])
        assert engine.stats["forward_passes"] == 7

    def test_cached_probabilities_are_read_only(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        engine = InferenceEngine(artifact, cache_size=8)
        probs = engine.predict(dataset.numerical[0])
        assert probs.flags.writeable is False
        with pytest.raises(ValueError):
            probs[0] = 0.5
        # The cache entry is intact: the hit still sums to one.
        again = engine.predict(dataset.numerical[0])
        assert again is probs
        np.testing.assert_allclose(again.sum(), 1.0, atol=1e-12)

    def test_batch_output_rows_are_caller_owned_copies(self):
        dataset, artifact = _instance_artifact("gcn", "euclidean")
        engine = InferenceEngine(artifact, cache_size=8)
        out = engine.predict_batch(dataset.numerical[:2])
        out[0, 0] = 123.0  # must not raise nor poison the cache
        fresh = engine.predict_batch(dataset.numerical[:2])
        assert fresh[0, 0] != 123.0
        assert engine.stats["cache_hits"] >= 2
