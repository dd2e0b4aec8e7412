"""Hypergraph convolution (HGNN) and a two-stage node↔hyperedge network.

The tabular formulation (survey Sec. 4.1.3) has feature values as nodes and
rows as hyperedges, so *row classification is hyperedge classification*:
the two-stage network aggregates value-node states into hyperedge (row)
states, which feed the prediction head — the HCL/PET substrate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.graph.hypergraph import Hypergraph
from repro.tensor import Tensor, ops


class HypergraphConv(nn.Module):
    """HGNN layer: ``X' = Dv^-1/2 H We De^-1 H^T Dv^-1/2 X W`` (node → node)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.linear = nn.Linear(in_features, out_features, rng)

    def forward(self, x: Tensor, operator: sp.spmatrix) -> Tensor:
        return ops.spmm(operator, self.linear(x))


class HypergraphGNN(nn.Module):
    """Node-level HGNN stack + hyperedge readout for row classification.

    Value nodes start from learned embeddings (their one-hot identity —
    Table 2's "One-hot" initial feature — composed with a learned
    projection).  After ``num_layers`` HGNN convolutions, node states are
    mean-pooled into each hyperedge (row) and classified.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        num_layers: int = 2,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.hypergraph = hypergraph
        self.node_embedding = nn.Embedding(hypergraph.num_nodes, hidden_dim, rng)
        self.convs = nn.ModuleList(
            [HypergraphConv(hidden_dim, hidden_dim, rng) for _ in range(num_layers)]
        )
        # Per-layer self transform: the HGNN operator mixes aggressively on
        # dense tabular hypergraphs (every value node co-occurs with many
        # others), so a residual self path is needed to avoid over-smoothing
        # at depth ≥ 2 (the survey's Sec. 6 robustness concern).
        self.selfs = nn.ModuleList(
            [nn.Linear(hidden_dim, hidden_dim, rng) for _ in range(num_layers)]
        )
        self.head = nn.Linear(hidden_dim, out_dim, rng)
        self.dropout = nn.Dropout(dropout, rng) if dropout > 0 else None
        self._operator = hypergraph.hgnn_operator()
        self._node_to_edge = hypergraph.node_to_edge_operator()

    def node_states(self) -> Tensor:
        h = self.node_embedding(np.arange(self.hypergraph.num_nodes))
        for conv, self_linear in zip(self.convs, self.selfs):
            h = ops.relu(ops.add(conv(h, self._operator), self_linear(h)))
            if self.dropout is not None:
                h = self.dropout(h)
        return h

    def forward(self) -> Tensor:
        h = self.node_states()
        edge_states = ops.spmm(self._node_to_edge, h)
        return self.head(edge_states)

    def embed(self) -> Tensor:
        """Hyperedge (row) representations before the head."""
        return ops.spmm(self._node_to_edge, self.node_states())

    # ------------------------------------------------------------------
    # serving: frozen node states for the query-hyperedge attach
    # ------------------------------------------------------------------
    def pool_node_states(self) -> np.ndarray:
        """The frozen value-node states incremental serving caches once.

        A query row attaches as a *new hyperedge*, and the readout is a
        node→edge mean over the states leaving the last conv layer — unlike
        query-node formulations there is no per-layer replay to run, so this
        single ``(num_nodes, hidden)`` matrix is the entire pool-side state.
        Call in eval mode (dropout off), as :class:`repro.serving`'s
        ``ModelArtifact.build_model`` does.
        """
        return self.node_states().data
