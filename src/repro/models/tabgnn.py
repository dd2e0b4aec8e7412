"""TabGNN [51]: multiplex graph neural network for tabular prediction.

Formulation (survey Table 2): heterogeneous-multiplex instance graph, one
layer per categorical column via the same-feature-value rule, raw features
as initial node vectors, end-to-end training.

Per relation, a GCN encodes the instances; relation embeddings are fused by
a learned attention over relations (``fusion="attention"``) or a plain mean
(``fusion="mean"`` — the ablation arm of benchmark Table 6), concatenated
with the raw-feature projection, and classified by an MLP head.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.gnn.conv import GCNConv
from repro.graph.multiplex import MultiplexGraph
from repro.tensor import Tensor, ops

FUSIONS = ("attention", "mean")


class TabGNN(nn.Module):
    """Multiplex-graph classifier with per-relation encoders and fusion."""

    def __init__(
        self,
        graph: MultiplexGraph,
        hidden_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        num_layers: int = 2,
        fusion: str = "attention",
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if fusion not in FUSIONS:
            raise ValueError(f"fusion must be one of {FUSIONS}")
        if graph.x is None:
            raise ValueError("multiplex graph must carry node features")
        if graph.num_layers == 0:
            raise ValueError("multiplex graph has no relation layers")
        self.graph = graph
        self.fusion = fusion
        self.x = Tensor(graph.x)
        in_dim = graph.x.shape[1]

        self._adjacencies = [layer.gcn_adjacency() for layer in graph.layers()]
        self.relation_encoders = nn.ModuleList()
        for _ in range(graph.num_layers):
            convs = nn.ModuleList()
            prev = in_dim
            for _ in range(num_layers):
                convs.append(GCNConv(prev, hidden_dim, rng))
                prev = hidden_dim
            self.relation_encoders.append(convs)
        self.attention_vector = nn.Parameter(rng.normal(0.0, 0.1, size=hidden_dim))
        self.self_proj = nn.Linear(in_dim, hidden_dim, rng)
        self.head = nn.MLP(2 * hidden_dim, (hidden_dim,), out_dim, rng, dropout=dropout)
        self.dropout = nn.Dropout(dropout, rng) if dropout > 0 else None

    def relation_embeddings(self) -> list[Tensor]:
        """One (n, hidden) embedding per relation layer."""
        outputs = []
        for convs, adj in zip(self.relation_encoders, self._adjacencies):
            h = self.x
            for i, conv in enumerate(convs):
                h = conv(h, adj)
                if i < len(convs) - 1:
                    h = ops.relu(h)
            outputs.append(h)
        return outputs

    def relation_attention(self, embeddings: list[Tensor]) -> Tensor:
        """Per-instance softmax weights over relations, shape (n, R)."""
        scores = [
            ops.sum(ops.mul(ops.tanh(h), self.attention_vector), axis=1, keepdims=True)
            for h in embeddings
        ]
        return ops.softmax(ops.concat(scores, axis=1), axis=1)

    def _fuse(self, embeddings: list[Tensor], x: Tensor) -> Tensor:
        """Fusion + raw-feature projection: attention (or mean) over
        relation embeddings, concatenated with the projected raw features."""
        if self.fusion == "attention":
            alpha = self.relation_attention(embeddings)  # (n, R)
            fused = None
            for r, h in enumerate(embeddings):
                weighted = ops.mul(h, alpha[:, r : r + 1])
                fused = weighted if fused is None else ops.add(fused, weighted)
        else:
            fused = embeddings[0]
            for h in embeddings[1:]:
                fused = ops.add(fused, h)
            fused = ops.mul(Tensor(1.0 / len(embeddings)), fused)
        self_h = ops.relu(self.self_proj(x))
        return ops.concat([fused, self_h], axis=1)

    def embed(self) -> Tensor:
        combined = self._fuse(self.relation_embeddings(), self.x)
        if self.dropout is not None:
            combined = self.dropout(combined)
        return combined

    def forward(self) -> Tensor:
        return self.head(self.embed())

    # -- serving: pool-side cache for the compiled plan ----------------
    def pool_message_states(self) -> list[list[np.ndarray]]:
        """Per relation, per conv layer: the pool's *transformed* states.

        ``states[r][i]`` is ``linear_i(h_i)`` over the frozen pool — the
        per-node messages entering relation ``r``'s i-th GCN aggregation.
        A query row attached to a same-value group aggregates exactly these
        rows, so the whole pool side of serving is computed once here
        (the compiled plan folds their per-group means into constants).
        """
        states: list[list[np.ndarray]] = []
        for convs, adj in zip(self.relation_encoders, self._adjacencies):
            h = self.x
            entries: list[np.ndarray] = []
            for i, conv in enumerate(convs):
                z = conv.linear(h)
                entries.append(z.data)
                h = ops.spmm(adj, z)
                if i < len(convs) - 1:
                    h = ops.relu(h)
            states.append(entries)
        return states
