"""Instance-graph formulation: rows as nodes, kNN construction, retrieval serving.

Phases 1+2 (LUNAR / GNN4MV style): one-hot featurize with statistics frozen
on the training split, build a symmetric kNN graph, train any Table 5
network on it.  Serving (PET style, survey Sec. 4.2.4): unseen rows link
into the frozen training pool via retrieval and are scored incrementally —
the pool's per-layer activations are cached once and only the query rows
propagate, O(B·k·d) per request for every network in the zoo.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro import nn
from repro.construction.retrieval import PoolIndex
from repro.construction.rules import knn_graph
from repro.datasets.preprocessing import TabularPreprocessor
from repro.datasets.tabular import TabularDataset
from repro.formulations.base import FittedFormulation, Formulation, RowScorer
from repro.gnn.networks import build_network
from repro.graph.homogeneous import Graph


class InstanceScorer(RowScorer):
    """Retrieval-attach scoring against the frozen training pool.

    ``incremental=None/True`` (default) caches the pool's per-layer
    activations at construction and runs only the query rows through the
    compiled plan per request; ``incremental=False`` keeps the full-graph
    autograd rebuild purely as a correctness oracle.

    Retrieval rides a pluggable :class:`~repro.construction.PoolIndex`
    backend: ``index="exact"`` (default) is the exhaustive scan,
    ``index="ivf"`` the sub-linear inverted-file index (``nprobe`` probed
    cells per query).  Selection resolves engine kwarg > artifact config
    (``config["index"]`` / ``config["nprobe"]``) > exact.  The scorer
    reports the live backend (``self.index`` — "exact" when an exotic
    measure forced the fallback), the one-time build cost
    (``self.index_build_ms``) and, for approximate backends, a sampled
    recall-vs-exact gauge (``self.retrieval_recall``, refreshed every
    ``_RECALL_EVERY``-th attach on a few rows of the live batch).
    """

    #: refresh the sampled recall gauge on every Nth attach stage.
    _RECALL_EVERY = 64
    #: how many rows of the sampled batch are re-ranked exactly.
    _RECALL_ROWS = 4

    def __init__(
        self,
        artifact,
        fitted: "FittedInstance",
        incremental: Optional[bool],
        stats: Dict[str, int],
        index: Optional[str] = None,
        nprobe: Optional[int] = None,
    ) -> None:
        self._artifact = artifact
        self._graph = fitted.graph
        self._stats = stats
        stats.setdefault("attach_edges", 0)
        self._pool_x = np.asarray(fitted.graph.x, dtype=np.float64)
        self._pool_edges = fitted.graph.edge_index.astype(np.int64)
        self._k = min(int(fitted.config["k"]), self._pool_x.shape[0])
        if index is None:
            index = str(fitted.config.get("index", "exact"))
        if nprobe is None and fitted.config.get("nprobe") is not None:
            nprobe = int(fitted.config["nprobe"])
        if index == "exact":
            nprobe = None  # the exhaustive scan has no probe budget
        backend_opts = {} if nprobe is None else {"nprobe": int(nprobe)}
        started = time.perf_counter()
        self._pool_index = PoolIndex(
            self._pool_x,
            measure=str(fitted.config.get("metric", "euclidean")),
            backend=index,
            **backend_opts,
        )
        self.index_build_ms = (time.perf_counter() - started) * 1000.0
        self.index = self._pool_index.backend_name
        self.nprobe = int(nprobe) if nprobe is not None else None
        self.retrieval_recall: Optional[float] = None
        self._attach_tick = 0
        if self._pool_index.is_approximate:
            stats.setdefault("retrieval_probed_cells", 0)
            stats.setdefault("retrieval_candidates", 0)
            self.retrieval_recall = 1.0
        self.incremental = True if incremental is None else bool(incremental)
        if self.incremental:
            # One model for the scorer's lifetime, built on the pool graph,
            # then the precompute step: one pool-only forward, cached
            # forever.  The oracle path instead rebuilds a model on the
            # induced graph per request, so it has no use for either.
            self.model = artifact.build_model(self._graph)
            self.pool_hiddens = self.model.pool_hidden_states()

    def _forward_full(self, features: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
        """Correctness-oracle path: rebuild the (pool + queries) graph.

        Pays O(pool + E) per request — kept solely as the reference the
        compiled plan is tested against (``incremental=False``).
        """
        batch = features.shape[0]
        n_pool = self._pool_x.shape[0]
        k = neighbors.shape[1]
        query_ids = n_pool + np.arange(batch, dtype=np.int64)
        attach = np.stack([neighbors.reshape(-1), np.repeat(query_ids, k)])
        edge_index = np.concatenate([self._pool_edges, attach], axis=1)
        graph = Graph(
            n_pool + batch,
            edge_index,
            x=np.concatenate([self._pool_x, features], axis=0),
        )
        model = self._artifact.build_model(graph)
        return model().data[n_pool:]

    def score(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        with self.stage("encode"):
            features = self._artifact.preprocessor.transform(numerical, categorical)
        # Directed pool→query attachment edges: queries aggregate from
        # their retrieved neighbors but leave every pool node's degree
        # (and hence the GNN's normalization over the pool) untouched.
        # Predictions are therefore exactly independent of which other
        # queries share the batch — safe to micro-batch and to memoize.
        with self.stage("attach"):
            neighbors = self._pool_index.top_k(features, self._k)
            self._stats["attach_edges"] += int(neighbors.size)
            if self._pool_index.is_approximate:
                self._observe_retrieval(features, neighbors)
        if self._compiled is None:
            with self.stage("propagate"):
                return self._forward_full(features, neighbors)
        with self.stage("plan_execute"):
            return self._compiled.run(features, neighbors)

    def _observe_retrieval(
        self, features: np.ndarray, neighbors: np.ndarray
    ) -> None:
        """Sync approximate-retrieval counters and the sampled recall gauge.

        Runs under the engine lock (``score`` always does), so the stats
        writes are consistent with the engine's own counters.  The probe
        counters mirror the :class:`PoolIndex` cumulative stats; recall is
        re-measured on a few rows of every ``_RECALL_EVERY``-th batch by
        re-ranking them through the exact oracle — cheap enough to stay in
        the hot path, fresh enough to catch a drifting index.
        """
        probe_stats = self._pool_index.stats
        self._stats["retrieval_probed_cells"] = int(probe_stats["probed_cells"])
        self._stats["retrieval_candidates"] = int(probe_stats["candidates"])
        self._attach_tick += 1
        if (self._attach_tick - 1) % self._RECALL_EVERY:
            return
        rows = min(self._RECALL_ROWS, features.shape[0])
        exact = self._pool_index.exact_top_k(features[:rows], self._k)
        hits = sum(
            len(set(neighbors[i]) & set(exact[i])) for i in range(rows)
        )
        self.retrieval_recall = hits / float(rows * self._k)

    def compile_plan(self):
        if not self.incremental:
            return None  # the full-graph oracle runs on autograd
        from repro.serving.compiled import compile_instance

        return compile_instance(self.model, self._graph, self.pool_hiddens, self._k)


class FittedInstance(FittedFormulation):
    name = "instance"

    def __init__(
        self,
        graph: Graph,
        preprocessor: TabularPreprocessor,
        config: Dict[str, object],
    ) -> None:
        super().__init__(config, preprocessor)
        self.graph = graph

    def build_model(self, rng, graph: Optional[Graph] = None) -> nn.Module:
        return build_network(
            str(self.config["network"]),
            self.graph if graph is None else graph,
            int(self.config["hidden_dim"]),
            int(self.config["out_dim"]),
            rng,
            num_layers=int(self.config.get("num_layers", 2)),
        )

    @property
    def aux_features(self) -> Optional[np.ndarray]:
        return self.graph.x

    @property
    def features(self) -> Optional[np.ndarray]:
        return self.graph.x

    @property
    def model_builder(self) -> str:
        return str(self.config["network"])

    @property
    def pool_rows(self) -> Optional[int]:
        return int(self.graph.num_nodes)

    def artifact_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        arrays = {
            "x": np.asarray(self.graph.x, dtype=np.float64),
            "edge_index": self.graph.edge_index.astype(np.int64),
        }
        return arrays, {"pool_rows": int(self.graph.num_nodes)}

    @classmethod
    def from_payload(cls, arrays, meta, config, preprocessor) -> "FittedInstance":
        x = np.asarray(arrays["x"], dtype=np.float64)
        graph = Graph(x.shape[0], arrays["edge_index"].astype(np.int64), x=x)
        return cls(graph, preprocessor, config)

    def make_scorer(
        self, artifact, incremental, stats, index=None, nprobe=None
    ) -> InstanceScorer:
        return InstanceScorer(
            artifact, self, incremental, stats, index=index, nprobe=nprobe
        )


class InstanceFormulation(Formulation):
    name = "instance"
    fitted_cls = FittedInstance

    def fit(self, dataset, train_mask, config) -> FittedInstance:
        # Standardization statistics are fit once on the training split and
        # frozen (train/serve parity): the same transform the serving
        # engine later applies to unseen rows produced these node features.
        preprocessor = TabularPreprocessor(mode="onehot").fit(
            dataset, row_mask=train_mask
        )
        x = preprocessor.transform_dataset(dataset)
        graph = knn_graph(
            x,
            k=int(config["k"]),
            metric=str(config.get("metric", "euclidean")),
            y=dataset.y,
        )
        return self.fitted_cls(graph, preprocessor, config)
