"""HCL-lite: hypergraph classifier over rows-as-hyperedges (survey Sec. 4.1.3).

Thin model wrapper: build the feature-value hypergraph intrinsically from a
:class:`~repro.datasets.TabularDataset` and classify hyperedges (rows) with
:class:`~repro.gnn.HypergraphGNN`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.construction.intrinsic import hypergraph_from_dataset
from repro.datasets.tabular import TabularDataset
from repro.gnn.hyper import HypergraphGNN
from repro.tensor import Tensor


class HypergraphClassifier(nn.Module):
    """Rows-as-hyperedges HGNN classifier for tabular data."""

    def __init__(
        self,
        dataset: Optional[TabularDataset] = None,
        rng: Optional[np.random.Generator] = None,
        hidden_dim: int = 32,
        num_layers: int = 2,
        n_bins: int = 5,
        dropout: float = 0.0,
        hypergraph=None,
        out_dim: Optional[int] = None,
    ) -> None:
        super().__init__()
        if hypergraph is None and dataset is None:
            raise ValueError("provide either a dataset or a prebuilt hypergraph")
        if out_dim is None:
            if dataset is None:
                raise ValueError("out_dim is required with a prebuilt hypergraph")
            out_dim = dataset.num_classes if dataset.task != "regression" else 1
        if hypergraph is None:
            hypergraph = hypergraph_from_dataset(dataset, n_bins=n_bins)
        self.hypergraph = hypergraph
        self.network = HypergraphGNN(
            self.hypergraph, hidden_dim, out_dim, rng,
            num_layers=num_layers, dropout=dropout,
        )

    def forward(self) -> Tensor:
        return self.network()

    def embed(self) -> Tensor:
        return self.network.embed()

    def pool_node_states(self) -> np.ndarray:
        """Frozen value-node states for incremental serving (see network)."""
        return self.network.pool_node_states()

    def loss(self, y: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
        return nn.cross_entropy(self.forward(), y, mask=mask)
