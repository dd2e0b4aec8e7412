"""Hetero formulation: feature values as typed nodes (GCT/HSGNN/GraphFC).

Phases 1+2: every categorical column (and, optionally, every quantile-
binned numerical column) becomes a node *type* whose nodes are the
column's distinct values, connected to the instances possessing them;
:class:`~repro.gnn.hetero.HeteroGNN` runs typed message passing.

Serving — value-node vocabularies with an UNK bucket
----------------------------------------------------
Instances receive messages *only* from value-node types, and value-node
states never depend on query rows, so one pool forward caches everything:
a query row attaches to the frozen value node for each of its values by
vocabulary lookup (for binned columns, through the frozen quantile edges)
and replays the per-layer update with those cached states — training-table
rows reproduce their transductive logits exactly.  A never-seen value
(code outside the training cardinality) falls into the UNK bucket: no
edge, zero message for that column — the same treatment a missing cell
gets transductively — so predictions stay valid and the vocabulary never
grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.construction.intrinsic import (
    ValueColumnSpec,
    hetero_from_dataset,
    value_column_specs,
)
from repro.datasets.preprocessing import StandardScaler, TabularPreprocessor
from repro.formulations.base import FittedFormulation, Formulation, RowScorer
from repro.graph.heterogeneous import HeteroGraph
from repro.models import HeteroTabClassifier

_GRAPH = "graph::"


class HeteroScorer(RowScorer):
    """Value-node lookup scoring against cached typed pool states.

    The default serves the compiled plan over the cached pool states.
    ``incremental=False`` is the full-graph autograd oracle: the B queries
    are appended as target-type nodes that receive directed value→query
    edges (the ``rev_has_*`` types) and send none, and the model's
    ordinary typed forward runs on that graph.
    """

    def __init__(
        self,
        artifact,
        fitted: "FittedHetero",
        incremental: Optional[bool],
        stats: Dict[str, int],
    ) -> None:
        self._artifact = artifact
        self._fitted = fitted
        self._stats = stats
        stats.setdefault("unk_values", 0)
        stats.setdefault("attach_edges", 0)
        self.incremental = True if incremental is None else bool(incremental)
        if self.incremental:
            self.model = artifact.build_model()
            self.pool_states = self.model.network.pool_states()

    def _forward_full(
        self, features: np.ndarray, value_ids: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """Correctness-oracle path: rebuild the graph with query instances."""
        graph = self._fitted.graph
        target = graph.target_type or "instance"
        n_pool, batch = graph.node_counts[target], features.shape[0]
        counts = dict(graph.node_counts)
        counts[target] += batch
        attached = HeteroGraph(counts)
        query_ids = n_pool + np.arange(batch, dtype=np.int64)
        for edge_type, edge_index in graph.edge_indexes.items():
            src_type, _, dst_type = edge_type
            if dst_type == target:
                ids = value_ids[src_type]
                edge_index = np.concatenate(
                    [edge_index, np.stack([ids[ids >= 0], query_ids[ids >= 0]])],
                    axis=1,
                )
            attached.add_edges(edge_type, edge_index)
        for node_type, x in graph.node_features.items():
            if node_type == target:
                x = np.concatenate([x, features], axis=0)
            attached.set_features(node_type, x)
        attached.target_type = target
        return self._artifact.build_model(graph=attached)().data[n_pool:]

    def score(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        with self.stage("encode"):
            features = self._fitted.instance_features(numerical)
        with self.stage("attach"):
            value_ids: Dict[str, np.ndarray] = {}
            unk = attached = 0
            for spec in self._fitted.specs:
                ids = spec.encode(numerical, categorical)
                unknown = ids >= spec.cardinality
                unk += int(np.count_nonzero(unknown))
                ids = np.where(unknown, -1, ids)  # UNK bucket: no attach edge
                attached += int(np.count_nonzero(ids >= 0))
                value_ids[spec.name] = ids
            self._stats["unk_values"] += unk
            self._stats["attach_edges"] += attached
        if self._compiled is None:
            with self.stage("propagate"):
                return self._forward_full(features, value_ids)
        with self.stage("plan_execute"):
            return self._compiled.run(features, value_ids)

    def compile_plan(self):
        if not self.incremental:
            return None  # the full-graph oracle runs on autograd
        from repro.serving.compiled import compile_hetero

        return compile_hetero(self.model.network, self.pool_states)


class FittedHetero(FittedFormulation):
    name = "hetero"

    def __init__(
        self,
        graph: HeteroGraph,
        specs: List[ValueColumnSpec],
        scaler_mean: np.ndarray,
        scaler_std: np.ndarray,
        preprocessor: TabularPreprocessor,
        config: Dict[str, object],
    ) -> None:
        super().__init__(config, preprocessor)
        self.graph = graph
        self.specs = list(specs)
        self.scaler_mean = np.asarray(scaler_mean, dtype=np.float64)
        self.scaler_std = np.asarray(scaler_std, dtype=np.float64)

    def instance_features(self, numerical: np.ndarray) -> np.ndarray:
        """Query-row instance-node features via the frozen scaler.

        Mirrors the construction-time featurization exactly: missing cells
        are zero-imputed *before* standardization; featureless datasets use
        a constant one, matching every pool instance node.
        """
        if self.scaler_mean.size == 0:
            return np.ones((numerical.shape[0], 1))
        cleaned = np.nan_to_num(
            np.asarray(numerical, dtype=np.float64), nan=0.0
        )
        return (cleaned - self.scaler_mean) / self.scaler_std

    def build_model(self, rng, graph=None) -> nn.Module:
        return HeteroTabClassifier(
            rng=rng,
            hidden_dim=int(self.config["hidden_dim"]),
            num_layers=int(self.config.get("num_layers", 2)),
            graph=self.graph if graph is None else graph,
            out_dim=int(self.config["out_dim"]),
        )

    @property
    def model_builder(self) -> str:
        return "hetero_gnn"

    @property
    def pool_rows(self) -> Optional[int]:
        target = self.graph.target_type or "instance"
        return int(self.graph.node_counts[target])

    def artifact_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        graph_arrays, graph_meta = self.graph.state()
        arrays = {_GRAPH + name: value for name, value in graph_arrays.items()}
        arrays["scaler_mean"] = self.scaler_mean
        arrays["scaler_std"] = self.scaler_std
        columns: List[Dict[str, object]] = []
        for i, spec in enumerate(self.specs):
            if spec.bin_edges is not None:
                arrays[f"col{i}::bin_edges"] = np.asarray(
                    spec.bin_edges, dtype=np.float64
                )
            columns.append(spec.to_meta())
        meta = {
            "pool_rows": self.pool_rows,
            "columns": columns,
            "graph": graph_meta,
        }
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta, config, preprocessor) -> "FittedHetero":
        graph = HeteroGraph.from_state(
            {
                name[len(_GRAPH):]: value
                for name, value in arrays.items()
                if name.startswith(_GRAPH)
            },
            meta["graph"],
        )
        specs = [
            ValueColumnSpec.from_meta(
                column, bin_edges=arrays.get(f"col{i}::bin_edges")
            )
            for i, column in enumerate(meta["columns"])
        ]
        return cls(
            graph,
            specs,
            arrays["scaler_mean"],
            arrays["scaler_std"],
            preprocessor,
            config,
        )

    def make_scorer(self, artifact, incremental, stats) -> HeteroScorer:
        return HeteroScorer(artifact, self, incremental, stats)


class HeteroFormulation(Formulation):
    name = "hetero"
    fitted_cls = FittedHetero

    def fit(self, dataset, train_mask, config) -> FittedHetero:
        n_bins = int(config.get("n_bins", 5))
        include_bins = bool(config.get("include_numerical_bins", True))
        specs = value_column_specs(
            dataset, n_bins=n_bins, include_numerical_bins=include_bins
        )
        graph = hetero_from_dataset(
            dataset, n_bins=n_bins, include_numerical_bins=include_bins,
            specs=specs,
        )
        if dataset.num_numerical:
            # Mirror the construction-time instance featurization: zero-
            # impute, then standardize with full-table statistics.
            scaler = StandardScaler().fit(
                np.nan_to_num(dataset.numerical, nan=0.0)
            )
            mean, std = scaler.mean_, scaler.std_
        else:
            mean = std = np.zeros(0)
        preprocessor = TabularPreprocessor(mode="onehot").fit(dataset)
        return self.fitted_cls(graph, specs, mean, std, preprocessor, config)
