"""Homogeneous attributed graphs ``G = (V, E, X)`` (survey Sec. 2.2).

Used for both *instance graphs* (nodes are table rows) and *feature graphs*
(nodes are columns).  Provides the normalized adjacency operators and the
edge-wise :class:`EdgeView` substrate that the GNN layers in
:mod:`repro.gnn` consume.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.graph import utils
from repro.tensor import Tensor, ops

#: Edge-view flavors understood by :meth:`Graph.edge_view`.  Each conv
#: layer declares the flavor it consumes via its ``view_kind`` class
#: attribute.
VIEW_KINDS = ("sum", "mean", "mean_loops", "gcn", "attention")


class EdgeView:
    """Edge-wise message-passing view: directed edges ``src → dst`` over a
    single node table, with optional per-edge coefficients.

    This is the uniform substrate every conv layer's ``propagate`` runs on.
    :meth:`aggregate` is the weighted-sum primitive — gather messages at
    ``src``, scale by :attr:`weight`, segment-sum into ``dst`` buckets —
    with a memoized sparse-operator fast path when the view was derived
    from a whole :class:`Graph`.  Attention layers read :attr:`src` /
    :attr:`dst` directly and normalize with ``segment_softmax`` over
    :attr:`num_nodes` destination buckets.

    :meth:`Graph.edge_view` derives one view per normalization flavor from
    a frozen graph and memoizes it alongside the adjacency-operator cache
    (self loops, where the flavor needs them, are baked in here — no
    per-forward ``tile``/``concat``).  Serving builds small bipartite views
    per request (:meth:`repro.graph.Hypergraph.attach_view`).
    """

    __slots__ = ("src", "dst", "num_nodes", "weight", "_matrix")

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        weight: Optional[np.ndarray] = None,
        matrix: Optional[sp.spmatrix] = None,
    ) -> None:
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if self.src.shape != self.dst.shape or self.src.ndim != 1:
            raise ValueError("src and dst must be equal-length 1-D arrays")
        self.num_nodes = int(num_nodes)
        self.weight = None if weight is None else np.asarray(weight, dtype=np.float64)
        if self.weight is not None and self.weight.shape != self.src.shape:
            raise ValueError("weight length must equal number of edges")
        self._matrix = matrix

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    @classmethod
    def from_edge_index(
        cls, edge_index: np.ndarray, num_nodes: int, add_self_loops: bool = False
    ) -> "EdgeView":
        """Unweighted view from a raw ``(2, E)`` edge index (GAT compat path)."""
        edge_index = np.asarray(edge_index, dtype=np.int64)
        src, dst = edge_index[0], edge_index[1]
        if add_self_loops:
            loops = np.arange(num_nodes, dtype=np.int64)
            src = np.concatenate([src, loops])
            dst = np.concatenate([dst, loops])
        return cls(src, dst, num_nodes)

    def aggregate(self, h: Tensor) -> Tensor:
        """Weighted-sum aggregation: ``out[d] = Σ_{e: dst_e = d} w_e · h[src_e]``.

        Differentiable either way: views derived from a frozen graph carry
        a memoized sparse operator (one ``spmm``); per-request attach views
        run the gather → scale → segment-sum primitives directly, keeping
        the cost proportional to the number of edges in the view.
        """
        if self._matrix is not None:
            return ops.spmm(self._matrix, h)
        messages = ops.gather_rows(h, self.src)
        if self.weight is not None:
            messages = ops.mul(messages, Tensor(self.weight[:, None]))
        return ops.segment_sum(messages, self.dst, self.num_nodes)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"EdgeView(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"weighted={self.weight is not None})"
        )


class Graph:
    """A homogeneous graph with optional node features, labels and masks.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n``.
    edge_index:
        ``(2, E)`` integer array of (source, destination) pairs.  The graph
        is stored as directed; use :meth:`symmetrize` for undirected
        semantics.
    x:
        Optional ``(n, d)`` node-feature matrix.
    y:
        Optional ``(n,)`` label vector (int for classification, float for
        regression).
    edge_weight:
        Optional ``(E,)`` nonnegative weights.
    masks:
        Optional dict of named boolean ``(n,)`` masks (train/val/test).
    """

    def __init__(
        self,
        num_nodes: int,
        edge_index: np.ndarray,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        edge_weight: Optional[np.ndarray] = None,
        masks: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be nonnegative")
        self.num_nodes = int(num_nodes)
        self.edge_index = utils.validate_edge_index(edge_index, self.num_nodes)
        if x is not None:
            x = np.asarray(x, dtype=np.float64)
            if x.shape[0] != num_nodes:
                raise ValueError(
                    f"x has {x.shape[0]} rows but graph has {num_nodes} nodes"
                )
        self.x = x
        if y is not None:
            y = np.asarray(y)
            if y.shape[0] != num_nodes:
                raise ValueError(
                    f"y has {y.shape[0]} entries but graph has {num_nodes} nodes"
                )
        self.y = y
        if edge_weight is not None:
            edge_weight = np.asarray(edge_weight, dtype=np.float64)
            if edge_weight.shape != (self.edge_index.shape[1],):
                raise ValueError("edge_weight length must equal number of edges")
        self.edge_weight = edge_weight
        self.masks: Dict[str, np.ndarray] = {}
        for name, mask in (masks or {}).items():
            self.set_mask(name, mask)
        # Structure is immutable after construction (transforms return new
        # Graphs), so the normalized operators and edge views can be built
        # once and shared.  Callers must treat the cached values as
        # read-only.
        self._operator_cache: Dict[Tuple[str, object], object] = {}

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def num_features(self) -> int:
        return 0 if self.x is None else int(self.x.shape[1])

    def set_mask(self, name: str, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_nodes,):
            raise ValueError(f"mask {name!r} must have shape ({self.num_nodes},)")
        self.masks[name] = mask

    def degrees(self, direction: str = "in") -> np.ndarray:
        row = self.edge_index[1] if direction == "in" else self.edge_index[0]
        return np.bincount(row, minlength=self.num_nodes).astype(np.float64)

    # ------------------------------------------------------------------
    # structure transforms
    # ------------------------------------------------------------------
    def symmetrize(self) -> "Graph":
        """Return an undirected copy (both edge directions, coalesced)."""
        edge_index, edge_weight = utils.symmetrize_edge_index(
            self.edge_index, self.edge_weight
        )
        return self._replace_structure(edge_index, edge_weight)

    def add_self_loops(self) -> "Graph":
        """Return a copy with one self loop (weight 1) on every node."""
        edge_index, edge_weight = utils.remove_self_loops(
            self.edge_index, self.edge_weight
        )
        loops = np.tile(np.arange(self.num_nodes, dtype=np.int64), (2, 1))
        new_index = np.concatenate([edge_index, loops], axis=1)
        if edge_weight is not None or self.edge_weight is not None:
            base = edge_weight if edge_weight is not None else np.ones(edge_index.shape[1])
            new_weight = np.concatenate([base, np.ones(self.num_nodes)])
        else:
            new_weight = None
        return self._replace_structure(new_index, new_weight)

    def _replace_structure(self, edge_index, edge_weight) -> "Graph":
        return Graph(
            self.num_nodes,
            edge_index,
            x=self.x,
            y=self.y,
            edge_weight=edge_weight,
            masks=dict(self.masks),
        )

    # ------------------------------------------------------------------
    # adjacency operators
    # ------------------------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        """Plain (weighted) adjacency ``A`` with ``A[dst, src] = w``.

        Oriented so that ``A @ X`` aggregates *incoming* messages, matching
        the ``aggregate`` step of Sec. 2.3.  Memoized (structure is frozen
        at construction); treat the result as read-only.
        """
        key = ("adjacency", False)
        if key not in self._operator_cache:
            weights = (
                self.edge_weight
                if self.edge_weight is not None
                else np.ones(self.num_edges)
            )
            self._operator_cache[key] = sp.csr_matrix(
                (weights, (self.edge_index[1], self.edge_index[0])),
                shape=(self.num_nodes, self.num_nodes),
            )
        return self._operator_cache[key]

    def gcn_adjacency(self) -> sp.csr_matrix:
        """Symmetric-normalized adjacency with self loops: D^-1/2 (A+I) D^-1/2.

        Memoized; treat the result as read-only.
        """
        key = ("gcn", False)
        if key not in self._operator_cache:
            adj = self.adjacency() + sp.eye(self.num_nodes, format="csr")
            degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
            d_mat = sp.diags(utils.safe_reciprocal(degrees, power=0.5))
            self._operator_cache[key] = (d_mat @ adj @ d_mat).tocsr()
        return self._operator_cache[key]

    def mean_adjacency(self, add_self_loops: bool = False) -> sp.csr_matrix:
        """Row-normalized adjacency D^-1 A (mean aggregation, GraphSAGE).

        Memoized per ``add_self_loops`` value; treat the result as read-only.
        """
        key = ("mean", bool(add_self_loops))
        if key not in self._operator_cache:
            adj = self.adjacency()
            if add_self_loops:
                adj = adj + sp.eye(self.num_nodes, format="csr")
            degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
            self._operator_cache[key] = (
                sp.diags(utils.safe_reciprocal(degrees)) @ adj
            ).tocsr()
        return self._operator_cache[key]

    # ------------------------------------------------------------------
    # edge views (the message-passing substrate)
    # ------------------------------------------------------------------
    def edge_view(self, kind: str) -> EdgeView:
        """Memoized :class:`EdgeView` of this graph under ``kind`` normalization.

        ``kind`` selects how per-edge coefficients (and self loops) are
        derived — one flavor per conv family:

        * ``"sum"`` — raw (weighted) adjacency, no loops (GIN);
        * ``"mean"`` — ``D^-1 A``, no loops (GraphSAGE);
        * ``"mean_loops"`` — ``D^-1 (A + I)`` (gated message steps);
        * ``"gcn"`` — ``D^-1/2 (A + I) D^-1/2`` (GCN);
        * ``"attention"`` — raw edges plus one self loop per node, no
          weights: normalization is learned per edge (GAT).

        The weighted flavors reuse the memoized adjacency operators, so
        :meth:`EdgeView.aggregate` on a full-graph view is exactly the
        operator ``spmm`` of earlier revisions — same numbers, same speed.
        """
        key = ("view", kind)
        if key not in self._operator_cache:
            if kind == "attention":
                loops = np.arange(self.num_nodes, dtype=np.int64)
                view = EdgeView(
                    np.concatenate([self.edge_index[0], loops]),
                    np.concatenate([self.edge_index[1], loops]),
                    self.num_nodes,
                )
            else:
                operators = {
                    "sum": self.adjacency,
                    "mean": self.mean_adjacency,
                    "mean_loops": lambda: self.mean_adjacency(add_self_loops=True),
                    "gcn": self.gcn_adjacency,
                }
                if kind not in operators:
                    raise ValueError(
                        f"unknown edge-view kind {kind!r}; choose from {VIEW_KINDS}"
                    )
                matrix = operators[kind]()
                coo = matrix.tocoo()
                view = EdgeView(
                    coo.col, coo.row, self.num_nodes, weight=coo.data, matrix=matrix
                )
            self._operator_cache[key] = view
        return self._operator_cache[key]

    def _gcn_inv_sqrt_degrees(self) -> np.ndarray:
        """Memoized ``1/sqrt(in_degree + 1)`` — the GCN normalization terms."""
        key = ("gcn_inv_sqrt_deg", False)
        if key not in self._operator_cache:
            degrees = np.asarray(self.adjacency().sum(axis=1)).reshape(-1) + 1.0
            self._operator_cache[key] = 1.0 / np.sqrt(degrees)
        return self._operator_cache[key]

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        if self.edge_weight is not None:
            g.add_weighted_edges_from(
                zip(self.edge_index[0], self.edge_index[1], self.edge_weight)
            )
        else:
            g.add_edges_from(zip(self.edge_index[0], self.edge_index[1]))
        return g

    @staticmethod
    def from_networkx(
        g: nx.Graph,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> "Graph":
        nodes = sorted(g.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in g.edges()]
        if not g.is_directed():
            edges += [(v, u) for u, v in edges]
        edge_index = (
            np.array(edges, dtype=np.int64).T if edges else np.zeros((2, 0), np.int64)
        )
        return Graph(len(nodes), edge_index, x=x, y=y)

    def summary(self) -> Dict[str, object]:
        return utils.graph_summary(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, num_features={self.num_features})"
