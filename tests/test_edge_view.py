"""Tests for the edge-wise message-passing substrate (:class:`EdgeView`).

Covers the two contracts the unified GNN stacks lean on:

* full-graph edge views reproduce the memoized adjacency operators, so
  ``propagate(h, view)`` equals the legacy ``forward(h, operator)`` for
  every conv family;
* the segment primitives under the ``propagate`` path are differentiable
  (finite-difference checked) and ``segment_softmax`` stays a proper
  per-segment distribution even when some segments are empty.
"""

import numpy as np
import pytest

from repro.construction.rules import knn_graph
from repro.gnn.attention import GATConv
from repro.gnn.conv import GCNConv, GINConv, GatedGraphConv, SAGEConv
from repro.graph import EdgeView
from repro.tensor import Tensor, ops

RNG = np.random.default_rng(11)


def rng():
    return np.random.default_rng(5)


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference numerical gradient of scalar-valued fn."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat, grad_flat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def small_graph(n=12, d=4):
    return knn_graph(RNG.normal(size=(n, d)), k=3)


def bipartite_view(n_queries, k, weight=None):
    """``k`` source rows per query feeding ``n_queries`` looped query rows.

    Source rows receive no edges, so their segments stay empty.
    """
    base = n_queries * k
    loops = base + np.arange(n_queries)
    src = np.concatenate([np.arange(base), loops])
    dst = np.concatenate([base + np.repeat(np.arange(n_queries), k), loops])
    if weight is not None:
        weight = np.full(src.shape[0], weight)
    return EdgeView(src, dst, base + n_queries, weight=weight)


# ----------------------------------------------------------------------
# full-graph views vs the memoized operators
# ----------------------------------------------------------------------
class TestGraphEdgeViews:
    @pytest.mark.parametrize(
        "kind, operator",
        [
            ("sum", lambda g: g.adjacency()),
            ("mean", lambda g: g.mean_adjacency()),
            ("mean_loops", lambda g: g.mean_adjacency(add_self_loops=True)),
            ("gcn", lambda g: g.gcn_adjacency()),
        ],
    )
    def test_aggregate_matches_operator_spmm(self, kind, operator):
        g = small_graph()
        h = Tensor(RNG.normal(size=(g.num_nodes, 5)))
        out = g.edge_view(kind).aggregate(h)
        np.testing.assert_allclose(out.data, operator(g) @ h.data, atol=1e-12)

    def test_views_are_memoized(self):
        g = small_graph()
        assert g.edge_view("gcn") is g.edge_view("gcn")
        assert g.edge_view("attention") is g.edge_view("attention")

    def test_attention_view_bakes_in_self_loops(self):
        g = small_graph()
        view = g.edge_view("attention")
        assert view.num_edges == g.num_edges + g.num_nodes
        loops = view.src[g.num_edges:]
        np.testing.assert_array_equal(loops, np.arange(g.num_nodes))
        np.testing.assert_array_equal(view.dst[g.num_edges:], loops)

    def test_unknown_kind_rejected(self):
        g = small_graph()
        with pytest.raises(ValueError, match="edge-view kind"):
            g.edge_view("bogus")

    def test_gatherless_path_matches_matrix_path(self):
        g = small_graph()
        view = g.edge_view("gcn")
        bare = EdgeView(view.src, view.dst, view.num_nodes, weight=view.weight)
        h = Tensor(RNG.normal(size=(g.num_nodes, 3)))
        np.testing.assert_allclose(
            bare.aggregate(h).data, view.aggregate(h).data, atol=1e-12
        )


# ----------------------------------------------------------------------
# propagate(h, view) == legacy forward(h, operator)
# ----------------------------------------------------------------------
class TestPropagateForwardParity:
    def test_gcn(self):
        g = small_graph()
        conv = GCNConv(4, 3, rng())
        x = Tensor(g.x)
        np.testing.assert_allclose(
            conv.propagate(x, g.edge_view("gcn")).data,
            conv(x, g.gcn_adjacency()).data,
            atol=1e-12,
        )

    def test_sage(self):
        g = small_graph()
        conv = SAGEConv(4, 3, rng())
        x = Tensor(g.x)
        np.testing.assert_allclose(
            conv.propagate(x, g.edge_view("mean")).data,
            conv(x, g.mean_adjacency()).data,
            atol=1e-12,
        )

    def test_gin(self):
        g = small_graph()
        conv = GINConv(4, 3, rng())
        x = Tensor(g.x)
        np.testing.assert_allclose(
            conv.propagate(x, g.edge_view("sum")).data,
            conv(x, g.adjacency()).data,
            atol=1e-12,
        )

    def test_gated_steps_compose_to_forward(self):
        g = small_graph(d=6)
        conv = GatedGraphConv(6, rng(), num_steps=3)
        view = g.edge_view("mean_loops")
        h = Tensor(g.x)
        for _ in range(conv.num_steps):
            h = conv.propagate(h, view)
        np.testing.assert_allclose(
            h.data, conv(Tensor(g.x), g.mean_adjacency(add_self_loops=True)).data,
            atol=1e-12,
        )

    def test_gat_forward_is_propagate_on_derived_view(self):
        g = small_graph()
        conv = GATConv(4, 3, rng(), num_heads=2)
        x = Tensor(g.x)
        np.testing.assert_allclose(
            conv(x, g.edge_index).data,
            conv.propagate(x, g.edge_view("attention")).data,
            atol=1e-12,
        )


# ----------------------------------------------------------------------
# gradients through the propagate path
# ----------------------------------------------------------------------
class TestPropagateGradients:
    def _check_input_grad(self, build_fn, x_data, tol=1e-5):
        x = Tensor(x_data.copy(), requires_grad=True)
        loss = ops.sum(ops.mul(build_fn(x), build_fn(x)))
        loss.backward()

        def scalar(arr):
            out = build_fn(Tensor(arr)).data
            return float((out * out).sum())

        np.testing.assert_allclose(
            x.grad, numeric_grad(scalar, x_data.copy()), rtol=tol, atol=tol
        )

    def test_weighted_gather_segment_aggregate(self):
        view = EdgeView(
            src=np.array([0, 1, 2, 0]),
            dst=np.array([3, 3, 4, 4]),
            num_nodes=5,
            weight=np.array([0.5, 0.25, 1.5, 1.0]),
        )
        self._check_input_grad(lambda x: view.aggregate(x), RNG.normal(size=(5, 3)))

    def test_gat_propagate_grad_on_bipartite_view(self):
        conv = GATConv(4, 3, rng(), num_heads=2)
        view = bipartite_view(n_queries=2, k=3)
        self._check_input_grad(
            lambda x: conv.propagate(x, view), RNG.normal(size=(view.num_nodes, 4))
        )
        x = Tensor(RNG.normal(size=(view.num_nodes, 4)), requires_grad=True)
        ops.sum(conv.propagate(x, view)).backward()
        assert conv.weight.grad is not None
        assert conv.att_src.grad is not None

    def test_gated_propagate_grad_reaches_gru(self):
        conv = GatedGraphConv(6, rng(), num_steps=2)
        view = bipartite_view(n_queries=3, k=2, weight=1.0 / 3.0)
        x = Tensor(RNG.normal(size=(view.num_nodes, 6)), requires_grad=True)
        ops.sum(conv.propagate(x, view)).backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0
        assert conv.message.weight.grad is not None
        assert conv.gru.w_hn.grad is not None


# ----------------------------------------------------------------------
# segment_softmax as a distribution
# ----------------------------------------------------------------------
class TestSegmentSoftmaxProperty:
    def test_rows_sum_to_one_with_empty_segments(self):
        # Segments 1 and 3 are empty; occupied segments must each carry a
        # proper distribution and empty ones must contribute nothing.
        scores = Tensor(RNG.normal(size=(6, 2)) * 10.0)
        seg = np.array([0, 0, 2, 2, 2, 4])
        alpha = ops.segment_softmax(scores, seg, 5)
        assert np.all(np.isfinite(alpha.data))
        sums = np.zeros((5, 2))
        np.add.at(sums, seg, alpha.data)
        np.testing.assert_allclose(sums[[0, 2, 4]], 1.0, atol=1e-12)
        np.testing.assert_allclose(sums[[1, 3]], 0.0, atol=1e-12)

    def test_matches_dense_softmax_per_segment(self):
        scores = Tensor(RNG.normal(size=(4, 3)))
        seg = np.array([0, 0, 0, 0])
        alpha = ops.segment_softmax(scores, seg, 1)
        np.testing.assert_allclose(
            alpha.data, ops.softmax(scores, axis=0).data, atol=1e-12
        )
