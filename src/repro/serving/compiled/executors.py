"""Compiled executors for the non-instance servable formulations.

Each ``compile_*`` function lowers one scorer's query path to an
:class:`~repro.serving.compiled.plan.InferencePlan` plus a thin executor
that turns the scorer's per-request inputs (encoded features, value
codes, attach views) into plan feeds.  All pool-side state is
pre-projected through the frozen weights at compile time:

* **feature** — the learned field adjacency is softmax-normalized once;
  tokenize → propagate → readout → head run as five fused kernels;
* **multiplex** — per relation and conv layer, the *group mean* of the
  cached pool messages is precomputed per vocabulary value, so a request
  is a dict lookup plus a masked gather (UNK/attach accounting preserved);
* **hetero** — per layer and incoming edge type, the typed pool states
  are pre-multiplied by the bias-free edge transform, so each query's
  single value edge is one masked gather-add;
* **hypergraph** — the head distributes over the weighted node→hyperedge
  mean, so the value-node states are pre-projected through the head and a
  request is one weighted segment-sum plus bias.

Every compile function raises
:class:`~repro.serving.compiled.plan.UnsupportedPlanError` (or the
``AttributeError`` of a missing model part) for configurations the
lowering does not cover, e.g. a TabGNN with mean fusion.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .lowering import lower_linear, lower_mlp
from .plan import InferencePlan, PlanBuilder, UnsupportedPlanError


# ---------------------------------------------------------------------------
# feature graph (columns as nodes, row-wise)
# ---------------------------------------------------------------------------
class FeatureExecutor:
    """Row-wise execution of the compiled feature-graph plan."""

    def __init__(self, plan: InferencePlan, num_features: int) -> None:
        self.plan = plan
        self._num_features = int(num_features)

    def run(self, features: np.ndarray) -> np.ndarray:
        x = np.nan_to_num(np.asarray(features, dtype=np.float64), nan=0.0)
        if x.ndim != 2 or x.shape[1] != self._num_features:
            raise ValueError(
                f"expected {self._num_features} columns, got {x.shape}"
            )
        return self.plan.run(x.shape[0], {"x": np.ascontiguousarray(x)})


def compile_feature(model):
    """Lower a :class:`~repro.models.FeatureGraphClassifier`."""
    fields = int(model.num_features)
    embed = int(model.embed_dim)
    builder = PlanBuilder()
    builder.feed("x")
    token_w = builder.const("token_w", model.token_weight.data)
    token_b = builder.const("token_b", model.token_bias.data)
    logits = np.asarray(model.edge_logits.data, dtype=np.float64)
    adj_raw = logits + np.eye(fields) * -1e9
    adj_raw = adj_raw - adj_raw.max(axis=1, keepdims=True)
    adj_raw = np.exp(adj_raw)
    adj = builder.const("adjacency", adj_raw / adj_raw.sum(axis=1, keepdims=True))
    tok = builder.buffer("tokens", lambda batch: (batch, fields, embed))
    builder.step("feature_tokens", ("x", token_w, token_b), tok)
    flat = builder.buffer("scratch_flat", lambda batch: (batch, fields, embed))
    msg = builder.buffer("scratch_msg", lambda batch: (batch, fields, embed))
    for linear in model.propagations:
        w = builder.const(builder.fresh("w"), linear.weight.data)
        b = builder.const(builder.fresh("b"), linear.bias.data)
        builder.step("feature_layer", (adj, w, b, flat, msg), tok)
    score_w = builder.const("readout_w", model.readout.score.weight.data)
    score_b = builder.const("readout_b", model.readout.score.bias.data)
    scores = builder.buffer("readout_scores", lambda batch: (batch, fields))
    pooled = builder.buffer("pooled", lambda batch: (batch, embed))
    builder.step("attention_readout", (tok, score_w, score_b, scores), pooled)
    out, _ = lower_mlp(builder, model.head, pooled, embed)
    plan = builder.build(out)
    return FeatureExecutor(plan, fields)


# ---------------------------------------------------------------------------
# multiplex (TabGNN value-group lookup)
# ---------------------------------------------------------------------------
class MultiplexExecutor:
    """Value-code lookup + masked-gather execution of the TabGNN plan.

    Keeps the full-graph oracle's serving statistics: a non-missing code
    absent from a relation's vocabulary counts one ``unk_values``; every
    matched group adds its member count to ``attach_edges`` (the nnz of
    the oracle's row-mean block).
    """

    def __init__(
        self,
        plan: InferencePlan,
        lookups: List[Dict[int, int]],
        group_sizes: List[np.ndarray],
        in_dim: int,
    ) -> None:
        self.plan = plan
        self._lookups = lookups
        self._group_sizes = group_sizes
        self._in_dim = int(in_dim)

    def run(
        self,
        features: np.ndarray,
        codes: Sequence[np.ndarray],
        stats: Dict[str, int],
    ) -> np.ndarray:
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self._in_dim:
            raise ValueError(
                f"features must be (B, {self._in_dim}), got {features.shape}"
            )
        if len(codes) != len(self._lookups):
            raise ValueError(
                f"expected {len(self._lookups)} relation code arrays, got {len(codes)}"
            )
        feeds = {"x": features}
        for rel, rel_codes in enumerate(codes):
            lookup = self._lookups[rel]
            sizes = self._group_sizes[rel]
            idx = np.zeros(len(rel_codes), dtype=np.int64)
            mask = np.zeros(len(rel_codes), dtype=bool)
            for row, code in enumerate(rel_codes):
                code = int(code)
                if code < 0:
                    continue
                group = lookup.get(code, -1)
                if group < 0:
                    stats["unk_values"] += 1
                    continue
                idx[row] = group
                mask[row] = True
                stats["attach_edges"] += int(sizes[group])
            feeds[f"idx{rel}"] = idx
            feeds[f"mask{rel}"] = mask
        return self.plan.run(features.shape[0], feeds)


def compile_multiplex(model, vocabularies, pool_messages):
    """Lower a :class:`~repro.models.TabGNN` with attention fusion.

    ``pool_messages`` is the scorer's ``pool_message_states()`` cache; the
    per-value group means precomputed here equal the oracle's row-mean
    block applied to those messages, to round-off.
    """
    if getattr(model, "fusion", None) != "attention":
        raise UnsupportedPlanError("only attention fusion is lowered")
    hidden = int(model.attention_vector.data.shape[0])
    in_dim = int(model.x.shape[1])
    relations = len(model.relation_encoders)
    builder = PlanBuilder()
    builder.feed("x")
    lookups: List[Dict[int, int]] = []
    group_sizes: List[np.ndarray] = []
    emb_names: List[str] = []
    for rel, (convs, vocab, messages) in enumerate(
        zip(model.relation_encoders, vocabularies, pool_messages)
    ):
        keys = sorted(vocab)
        lookups.append({int(key): j for j, key in enumerate(keys)})
        group_sizes.append(
            np.array([vocab[key].shape[0] for key in keys], dtype=np.int64)
        )
        builder.feed(f"idx{rel}")
        builder.feed(f"mask{rel}")
        h = "x"
        for i, conv in enumerate(convs):
            width = int(conv.linear.out_features)
            means = np.zeros((max(len(keys), 1), width))
            for j, key in enumerate(keys):
                means[j] = messages[i][vocab[key]].mean(axis=0)
            table = builder.const(f"means_{rel}_{i}", means)
            own, _ = lower_linear(builder, conv.linear, h)
            nxt = builder.buffer(
                builder.fresh(f"rel{rel}_h"), lambda batch, d=width: (batch, d)
            )
            builder.step(
                "gather_where", (table, f"idx{rel}", f"mask{rel}", own), nxt
            )
            if i < len(convs) - 1:
                builder.step("relu", (nxt,), nxt)
            h = nxt
        emb_names.append(h)
    combined = builder.buffer("combined", lambda batch: (batch, 2 * hidden))
    fused = builder.view(
        "fused", combined, lambda batch: (slice(None), slice(0, hidden))
    )
    selfv = builder.view(
        "self_h", combined, lambda batch: (slice(None), slice(hidden, 2 * hidden))
    )
    att = builder.const("att_vec", model.attention_vector.data)
    fscores = builder.buffer("fuse_scores", lambda batch: (batch, relations))
    builder.step("tabgnn_fuse", (att, fscores) + tuple(emb_names), fused)
    selfp, _ = lower_linear(builder, model.self_proj, "x")
    builder.step("relu", (selfp,), selfv)
    out, _ = lower_mlp(builder, model.head, combined, 2 * hidden)
    plan = builder.build(out)
    return MultiplexExecutor(plan, lookups, group_sizes, in_dim)


# ---------------------------------------------------------------------------
# hetero (typed value-node lookup)
# ---------------------------------------------------------------------------
class HeteroExecutor:
    """Masked gather-add execution of the typed query update."""

    def __init__(self, plan: InferencePlan, src_types: List[str], in_dim: int) -> None:
        self.plan = plan
        self._src_types = src_types
        self._in_dim = int(in_dim)

    def run(
        self, features: np.ndarray, value_ids: Dict[str, np.ndarray]
    ) -> np.ndarray:
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self._in_dim:
            raise ValueError(
                f"features must be (B, {self._in_dim}), got {features.shape}"
            )
        feeds = {"x": features}
        for src in self._src_types:
            if src not in value_ids:
                raise ValueError(f"no value lookup provided for {src!r}")
            ids = np.asarray(value_ids[src], dtype=np.int64)
            feeds[f"idx::{src}"] = np.clip(ids, 0, None)
            feeds[f"mask::{src}"] = ids >= 0
        return self.plan.run(features.shape[0], feeds)


def compile_hetero(network, pool_states):
    """Lower a :class:`~repro.gnn.HeteroGNN`'s query-update stack.

    ``pool_states`` is the scorer's ``pool_states()`` cache: per layer,
    the typed node states entering it.
    """
    target = network.target_type
    in_dim = None
    builder = PlanBuilder()
    builder.feed("x")
    src_types: List[str] = []
    h = "x"
    layers = list(network.layers)
    for li, (layer, states) in enumerate(zip(layers, pool_states)):
        self_linear = layer._self_linears[layer._node_types.index(target)]
        if in_dim is None:
            in_dim = int(self_linear.in_features)
        width = int(self_linear.out_features)
        out, _ = lower_linear(builder, self_linear, h)
        for edge_type, linear in zip(layer._edge_key_order, layer._edge_linears):
            src_type, _, dst_type = edge_type
            if dst_type != target:
                continue
            if src_type == target:
                raise UnsupportedPlanError(
                    f"edge type {edge_type} flows {target}→{target}"
                )
            if src_type not in src_types:
                src_types.append(src_type)
                builder.feed(f"idx::{src_type}")
                builder.feed(f"mask::{src_type}")
            proj = builder.const(
                builder.fresh(f"hetero_{src_type}"),
                np.asarray(states[src_type], dtype=np.float64)
                @ linear.weight.data,
            )
            builder.step(
                "masked_gather_add",
                (proj, f"idx::{src_type}", f"mask::{src_type}"),
                out,
            )
        if li < len(layers) - 1:
            builder.step("relu", (out,), out)
        h = out
    plan = builder.build(h)
    return HeteroExecutor(plan, src_types, int(in_dim))


# ---------------------------------------------------------------------------
# hypergraph (query as a new hyperedge)
# ---------------------------------------------------------------------------
class HypergraphExecutor:
    """Weighted segment-sum execution of the attach readout."""

    def __init__(self, plan: InferencePlan) -> None:
        self.plan = plan

    def run(self, attach_view, batch: int) -> np.ndarray:
        weight = attach_view.weight
        if weight is None:
            weight = np.ones(attach_view.src.shape[0])
        feeds = {
            "src": attach_view.src,
            "dst": attach_view.dst,
            "w": weight,
        }
        return self.plan.run(int(batch), feeds)


def compile_hypergraph(model, node_states: np.ndarray):
    """Lower a :class:`~repro.models.HypergraphClassifier` attach readout.

    The head linear distributes over the weighted node→hyperedge mean, so
    the entire pool side collapses to one pre-projected ``(N, C)`` table.
    """
    head = model.network.head
    proj = np.asarray(node_states, dtype=np.float64) @ head.weight.data
    out_dim = int(head.out_features)
    bias = (
        head.bias.data
        if head.bias is not None
        else np.zeros(out_dim)
    )
    builder = PlanBuilder()
    for name in ("src", "dst", "w"):
        builder.feed(name)
    table = builder.const("node_proj", proj)
    bias_c = builder.const("head_bias", bias)
    out = builder.buffer("logits", lambda batch, d=out_dim: (batch, d))
    builder.step("segment_weighted_rows", (table, bias_c, "src", "dst", "w"), out)
    plan = builder.build(out)
    return HypergraphExecutor(plan)
