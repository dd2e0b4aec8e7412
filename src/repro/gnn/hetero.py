"""Heterogeneous and multi-relational convolutions (survey Sec. 4.3.2).

* :class:`RGCNConv` — relational GCN [115]: one weight matrix per relation
  over a shared node set (the multiplex/multi-relational case, TabGNN-style
  substrate).
* :class:`HeteroConv` / :class:`HeteroGNN` — typed message passing over a
  :class:`repro.graph.HeteroGraph` with per-edge-type transforms and a
  per-node-type self transform (RGCN generalized to typed node sets, the
  GCT/HSGNN/GraphFC substrate).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.graph.heterogeneous import EdgeType, HeteroGraph
from repro.tensor import Tensor, ops


class RGCNConv(nn.Module):
    """Relational GCN over a shared node set: ``sum_r A_r X W_r + X W_self + b``."""

    def __init__(self, in_features: int, out_features: int, num_relations: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        if num_relations < 1:
            raise ValueError("need at least one relation")
        self.num_relations = num_relations
        self.relation_linears = nn.ModuleList(
            [nn.Linear(in_features, out_features, rng, bias=False) for _ in range(num_relations)]
        )
        self.self_linear = nn.Linear(in_features, out_features, rng)

    def forward(self, x: Tensor, operators: Sequence[sp.spmatrix]) -> Tensor:
        if len(operators) != self.num_relations:
            raise ValueError(
                f"expected {self.num_relations} relation operators, got {len(operators)}"
            )
        out = self.self_linear(x)
        for linear, op in zip(self.relation_linears, operators):
            out = ops.add(out, ops.spmm(op, linear(x)))
        return out


class HeteroConv(nn.Module):
    """One round of typed message passing on a :class:`HeteroGraph`.

    For each destination type: mean-aggregate transformed messages over all
    incoming edge types, add the transformed self state.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        in_dims: Dict[str, int],
        out_dim: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.edge_types: List[EdgeType] = list(graph.edge_types)
        self._edge_linears = nn.ModuleList()
        self._edge_key_order: List[EdgeType] = []
        for edge_type in self.edge_types:
            src_type = edge_type[0]
            self._edge_linears.append(nn.Linear(in_dims[src_type], out_dim, rng, bias=False))
            self._edge_key_order.append(edge_type)
        self._self_linears = nn.ModuleList()
        self._node_types = list(graph.node_types)
        for node_type in self._node_types:
            self._self_linears.append(nn.Linear(in_dims[node_type], out_dim, rng))
        # Precompute normalized operators once; structure is fixed.
        self._operators = {et: graph.mean_operator(et) for et in self.edge_types}

    def forward(self, features: Dict[str, Tensor]) -> Dict[str, Tensor]:
        out: Dict[str, Tensor] = {}
        for node_type, linear in zip(self._node_types, self._self_linears):
            out[node_type] = linear(features[node_type])
        for edge_type, linear in zip(self._edge_key_order, self._edge_linears):
            src_type, _, dst_type = edge_type
            message = ops.spmm(self._operators[edge_type], linear(features[src_type]))
            out[dst_type] = ops.add(out[dst_type], message)
        return out


class HeteroGNN(nn.Module):
    """Stacked HeteroConv network producing logits for the target node type.

    Node types without features are given learned type embeddings
    (broadcast via an Embedding over node ids), matching the survey's
    "Random" / "One-hot" initial-feature entries in Table 2.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        num_layers: int = 2,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.graph = graph
        self.target_type = graph.target_type or "instance"
        self._featureless_embeddings = {}
        in_dims: Dict[str, int] = {}
        emb_list = nn.ModuleList()
        self._emb_types: List[str] = []
        for node_type, count in graph.node_counts.items():
            if node_type in graph.node_features:
                in_dims[node_type] = graph.node_features[node_type].shape[1]
            else:
                emb_list.append(nn.Embedding(count, hidden_dim, rng))
                self._emb_types.append(node_type)
                in_dims[node_type] = hidden_dim
        self._embeddings = emb_list
        layers = []
        dims = in_dims
        for layer_idx in range(num_layers):
            width = out_dim if layer_idx == num_layers - 1 else hidden_dim
            layers.append(HeteroConv(graph, dims, width, rng))
            dims = {t: width for t in graph.node_counts}
        self.layers = nn.ModuleList(layers)
        self.dropout = nn.Dropout(dropout, rng) if dropout > 0 else None

    def node_features(self) -> Dict[str, Tensor]:
        feats: Dict[str, Tensor] = {}
        emb_iter = iter(self._embeddings)
        emb_map = dict(zip(self._emb_types, emb_iter))
        for node_type, count in self.graph.node_counts.items():
            if node_type in self.graph.node_features:
                feats[node_type] = Tensor(self.graph.node_features[node_type])
            else:
                feats[node_type] = emb_map[node_type](np.arange(count))
        return feats

    def forward(self) -> Tensor:
        feats = self.node_features()
        for i, layer in enumerate(self.layers):
            feats = layer(feats)
            if i < len(self.layers) - 1:
                feats = {t: ops.relu(h) for t, h in feats.items()}
                if self.dropout is not None:
                    feats = {t: self.dropout(h) for t, h in feats.items()}
        return feats[self.target_type]

    # -- serving: pool-side cache for the compiled plan ----------------
    def pool_states(self) -> List[Dict[str, np.ndarray]]:
        """Per layer: the node states (all types) entering it, eval mode.

        Value-node states never depend on query rows (queries receive
        messages but send none), so one pool-only forward caches
        everything the compiled query path needs.
        """
        states: List[Dict[str, np.ndarray]] = []
        feats = self.node_features()
        for i, layer in enumerate(self.layers):
            states.append({t: h.data for t, h in feats.items()})
            feats = layer(feats)
            if i < len(self.layers) - 1:
                feats = {t: ops.relu(h) for t, h in feats.items()}
        return states

    def embed(self) -> Tensor:
        """Target-type representations from the penultimate layer pass."""
        feats = self.node_features()
        for i, layer in enumerate(self.layers[:-1]):
            feats = layer(feats)
            feats = {t: ops.relu(h) for t, h in feats.items()}
        return feats[self.target_type]
