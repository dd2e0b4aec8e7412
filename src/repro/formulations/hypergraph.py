"""Hypergraph formulation: rows as hyperedges over value nodes (HCL/PET).

Phases 1+2: every (column, value) pair — categorical values directly,
numerical columns quantile-binned (binary 0/1 columns become membership
flags) — is a value node, and each table row is one hyperedge joining the
nodes its cells hit; :class:`~repro.models.HypergraphClassifier` runs HGNN
convolutions over the value nodes and classifies rows through the
node→hyperedge mean readout.

Serving — attach the query as a new hyperedge
---------------------------------------------
The same frozen-pool recipe the value-node formulations use: the artifact
freezes the incidence structure and the fitted
:class:`~repro.construction.intrinsic.HypergraphSpec` (global value-id
offsets, cardinalities, quantile edges), the scorer caches the value-node
states once, and each query row attaches as a **new hyperedge** over the
frozen value nodes — a directed node→query-hyperedge mean through the
same :class:`~repro.graph.homogeneous.EdgeView` substrate the conv layers
propagate on.  Attach edges are directed, so value-node states are
request-invariant and scoring is O(B·n_features·d), independent of the
training-table size.  Training rows rejoin exactly the value nodes they
occupied transductively, so their served logits reproduce the full-graph
forward to round-off; never-seen categorical codes get **no membership**
(the UNK fallback — same zero-message treatment a missing cell gets,
counted in ``stats["unk_values"]``).  ``incremental=False`` keeps a
full-graph oracle: rebuild the model on the incidence with query columns
appended (:meth:`~repro.graph.Hypergraph.with_hyperedges`) and read the
query rows off the ordinary spmm forward.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro import nn
from repro.construction.intrinsic import (
    HypergraphSpec,
    hypergraph_from_dataset,
    hypergraph_spec_from_dataset,
)
from repro.datasets.preprocessing import TabularPreprocessor
from repro.formulations.base import FittedFormulation, Formulation, RowScorer
from repro.graph.hypergraph import Hypergraph
from repro.models import HypergraphClassifier

_GRAPH = "graph::"
_ENC = "enc::"


class HypergraphScorer(RowScorer):
    """Query-as-new-hyperedge scoring over frozen value-node states."""

    def __init__(
        self,
        artifact,
        fitted: "FittedHypergraph",
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
            # One model on the frozen hypergraph, then the precompute step:
            # one node-state forward, cached for the scorer's lifetime.  The
            # oracle path rebuilds a model on the attached incidence per
            # request instead, so it has no use for either.
            self.model = artifact.build_model()
            self.node_states = self.model.pool_node_states()

    def score(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        with self.stage("encode"):
            member_ids = self._fitted.spec.encode(
                numerical, categorical, self._stats
            )
            self._stats["attach_edges"] += int(np.count_nonzero(member_ids >= 0))
        if self._compiled is None:
            with self.stage("attach"):
                attached = self._fitted.graph.with_hyperedges(member_ids)
                model = self._artifact.build_model(graph=attached)
            with self.stage("propagate"):
                return model().data[self._fitted.graph.num_hyperedges:]
        with self.stage("attach"):
            view = self._fitted.graph.attach_view(member_ids)
        with self.stage("plan_execute"):
            return self._compiled.run(view, member_ids.shape[0])

    def compile_plan(self):
        if not self.incremental:
            return None  # the rebuild-per-request oracle runs on autograd
        from repro.serving.compiled import compile_hypergraph

        return compile_hypergraph(self.model, self.node_states)


class FittedHypergraph(FittedFormulation):
    name = "hypergraph"

    def __init__(
        self,
        hypergraph: Hypergraph,
        spec: HypergraphSpec,
        preprocessor: Optional[TabularPreprocessor],
        config: Dict[str, object],
    ) -> None:
        super().__init__(config, preprocessor)
        self.graph = hypergraph
        self.spec = spec

    def build_model(self, rng, graph=None) -> nn.Module:
        return HypergraphClassifier(
            rng=rng,
            hidden_dim=int(self.config["hidden_dim"]),
            num_layers=int(self.config.get("num_layers", 2)),
            hypergraph=self.graph if graph is None else graph,
            out_dim=int(self.config["out_dim"]),
        )

    # -- serving --------------------------------------------------------
    @property
    def model_builder(self) -> str:
        return "hypergraph_gnn"

    @property
    def pool_rows(self) -> Optional[int]:
        return int(self.graph.num_hyperedges)

    def artifact_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        graph_arrays, graph_meta = self.graph.state()
        spec_arrays, spec_meta = self.spec.state()
        arrays = {_GRAPH + name: value for name, value in graph_arrays.items()}
        arrays.update({_ENC + name: value for name, value in spec_arrays.items()})
        meta = {
            "pool_rows": self.pool_rows,
            "graph": graph_meta,
            "encoder": spec_meta,
        }
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta, config, preprocessor) -> "FittedHypergraph":
        graph = Hypergraph.from_state(
            {
                name[len(_GRAPH):]: value
                for name, value in arrays.items()
                if name.startswith(_GRAPH)
            },
            meta["graph"],
        )
        spec = HypergraphSpec.from_state(
            {
                name[len(_ENC):]: value
                for name, value in arrays.items()
                if name.startswith(_ENC)
            },
            meta["encoder"],
        )
        return cls(graph, spec, preprocessor, config)

    def make_scorer(self, artifact, incremental, stats) -> HypergraphScorer:
        return HypergraphScorer(artifact, self, incremental, stats)


class HypergraphFormulation(Formulation):
    name = "hypergraph"
    fitted_cls = FittedHypergraph

    def fit(self, dataset, train_mask, config) -> FittedHypergraph:
        n_bins = int(config.get("n_bins", 5))
        include_bins = bool(config.get("include_numerical_bins", True))
        spec = hypergraph_spec_from_dataset(
            dataset, n_bins=n_bins, include_numerical_bins=include_bins
        )
        hypergraph = hypergraph_from_dataset(
            dataset, n_bins=n_bins, include_numerical_bins=include_bins,
            spec=spec,
        )
        # Serve-time rows are validated (and missing cells normalized)
        # through the fitted preprocessor; the spec does the featurization.
        preprocessor = TabularPreprocessor(mode="onehot").fit(dataset)
        return self.fitted_cls(hypergraph, spec, preprocessor, config)
