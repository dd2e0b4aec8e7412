"""The compiled-plan kernel vocabulary: pure-numpy, no autograd.

Every kernel is a plain function ``kernel(out, *arrays, **params)`` that
writes its result into the preallocated ``out`` buffer — no
:class:`repro.tensor.Tensor` wrappers, no backward-closure registration,
no per-op output allocation.  ``KERNELS`` maps the step-vocabulary names
an :class:`~repro.serving.compiled.InferencePlan` speaks to these
implementations; a swap-in backend (a torch executor, say) implements the
same names against its own buffer type and can execute any plan the
lowerings in this package emit.

Buffer discipline: step *outputs* always land in plan-owned preallocated
buffers (that is what makes execution allocation-stable across requests);
kernels may allocate small O(B·k·d) internal temporaries where an
``out=`` form does not exist — per-request garbage stays bounded by the
query-block size, never the pool size.

Numerical contract: each kernel reproduces the corresponding
``repro.tensor.ops`` formula exactly (same clipping, same max-shift
softmax), so compiled plans match the autograd path to floating-point
round-off — the 1e-8 parity the formulation matrix enforces.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np


# ---------------------------------------------------------------------------
# dense algebra
# ---------------------------------------------------------------------------
def linear(out: np.ndarray, x: np.ndarray, w: np.ndarray, b=None) -> None:
    """``out = x @ w (+ b)`` — the affine map of :class:`repro.nn.Linear`."""
    np.matmul(x, w, out=out)
    if b is not None:
        out += b


def add(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``out = a + b`` (out may alias either operand)."""
    np.add(a, b, out=out)


def add_scaled(out: np.ndarray, a: np.ndarray, b: np.ndarray, *, alpha: float) -> None:
    """``out = a + alpha * b`` (out must not alias ``a`` or ``b``)."""
    np.multiply(b, alpha, out=out)
    out += a


def relu(out: np.ndarray, x: np.ndarray) -> None:
    np.maximum(x, 0.0, out=out)


def elu(out: np.ndarray, x: np.ndarray, *, alpha: float = 1.0) -> None:
    """Matches ``ops.elu``: ``where(x > 0, x, alpha * (exp(min(x, 0)) - 1))``."""
    out[...] = np.where(x > 0.0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


def leaky_relu(out: np.ndarray, x: np.ndarray, *, slope: float = 0.2) -> None:
    out[...] = np.where(x > 0.0, x, slope * x)


def tanh(out: np.ndarray, x: np.ndarray) -> None:
    np.tanh(x, out=out)


def sigmoid(out: np.ndarray, x: np.ndarray) -> None:
    """Matches ``ops.sigmoid``: input clipped to ±60 before the exponential."""
    np.clip(x, -60.0, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)


def _softmax_inplace(scores: np.ndarray, axis: int) -> None:
    """Max-shifted softmax in place — the ``softmax_rows`` formula."""
    scores -= scores.max(axis=axis, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# gather / attach aggregation
# ---------------------------------------------------------------------------
def gather_rows(out: np.ndarray, table: np.ndarray, idx: np.ndarray) -> None:
    """``out = table[idx]`` along axis 0 (idx of any shape)."""
    np.take(table, idx, axis=0, out=out)


def gather_sum(out: np.ndarray, table: np.ndarray, idx: np.ndarray) -> None:
    """``out[b] = Σ_j table[idx[b, j]]`` — unweighted attach aggregation."""
    batch, k = idx.shape
    out[...] = table[idx.ravel()].reshape(batch, k, -1).sum(axis=1)


def gather_sum_add(out: np.ndarray, a: np.ndarray, table: np.ndarray, idx: np.ndarray) -> None:
    """``out = a + Σ_j table[idx[b, j]]`` — fused gather→sum→add."""
    batch, k = idx.shape
    np.add(a, table[idx.ravel()].reshape(batch, k, -1).sum(axis=1), out=out)


def gather_weighted_sum(
    out: np.ndarray, table: np.ndarray, idx: np.ndarray, w: np.ndarray
) -> None:
    """``out[b] = Σ_j w[b, j] · table[idx[b, j]]`` — weighted attach edges."""
    batch, k = idx.shape
    np.einsum(
        "bkd,bk->bd", table[idx.ravel()].reshape(batch, k, -1), w, out=out
    )


def gather_where(
    out: np.ndarray,
    table: np.ndarray,
    idx: np.ndarray,
    mask: np.ndarray,
    fallback: np.ndarray,
) -> None:
    """``out[b] = table[idx[b]] if mask[b] else fallback[b]`` (1-D idx)."""
    np.take(table, idx, axis=0, out=out)
    miss = ~mask
    if miss.any():
        out[miss] = fallback[miss]


def masked_gather_add(
    out: np.ndarray, table: np.ndarray, idx: np.ndarray, mask: np.ndarray
) -> None:
    """``out[b] += table[idx[b]] if mask[b] else 0`` (idx pre-clipped ≥ 0)."""
    gathered = table[idx]
    gathered[~mask] = 0.0
    out += gathered


def segment_weighted_rows(
    out: np.ndarray,
    table: np.ndarray,
    bias: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
) -> None:
    """``out[q] = bias + Σ_{e: dst_e = q} w_e · table[src_e]``.

    The hypergraph attach readout: a weighted segment-sum over a
    variable-length edge list (edge count varies per request, the output
    buffer does not).
    """
    out[...] = bias
    if src.size:
        np.add.at(out, dst, table[src] * w[:, None])


# ---------------------------------------------------------------------------
# fused attach-attention (GAT over the fixed k + 1 attach topology)
# ---------------------------------------------------------------------------
def gat_attach(
    out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    att_src: np.ndarray,
    att_dst: np.ndarray,
    bias: np.ndarray,
    pool_h: np.ndarray,
    pool_score: np.ndarray,
    idx: np.ndarray,
    hq: np.ndarray,
    vals: np.ndarray,
    scores: np.ndarray,
    *,
    slope: float,
    concat: bool,
) -> None:
    """One GAT layer over the attach view, fused gather→score→softmax→sum.

    Each query attends over exactly its ``k`` retrieved neighbors plus its
    self loop, per head — a dense ``(B, k+1, heads)`` softmax replacing
    :meth:`GATConv.propagate`'s ``segment_softmax`` over an edge list (same
    per-destination max-shift, same edge order: neighbors then loop).
    ``pool_h`` / ``pool_score`` are the pool states pre-projected through
    the layer weights at compile time.
    """
    batch, k = idx.shape
    heads, out_features = att_src.shape
    flat = idx.ravel()
    np.matmul(x, weight, out=hq.reshape(batch, heads * out_features))
    vals[:, :k] = pool_h[flat].reshape(batch, k, heads, out_features)
    vals[:, k] = hq
    scores[:, :k] = pool_score[flat].reshape(batch, k, heads)
    scores[:, k] = np.einsum("bho,ho->bh", hq, att_src)
    scores += np.einsum("bho,ho->bh", hq, att_dst)[:, None, :]
    scores[...] = np.where(scores > 0.0, scores, slope * scores)
    _softmax_inplace(scores, axis=1)
    agg = np.einsum("bjh,bjho->bho", scores, vals)
    if concat:
        out[...] = agg.reshape(batch, heads * out_features)
    else:
        np.mean(agg, axis=1, out=out)
    out += bias


# ---------------------------------------------------------------------------
# gated GRU step
# ---------------------------------------------------------------------------
def gru_step(
    out: np.ndarray,
    x: np.ndarray,
    h: np.ndarray,
    w_ir: np.ndarray, w_hr: np.ndarray, b_r: np.ndarray,
    w_iz: np.ndarray, w_hz: np.ndarray, b_z: np.ndarray,
    w_in: np.ndarray, w_hn: np.ndarray, b_n: np.ndarray,
    r: np.ndarray, z: np.ndarray, n: np.ndarray, tmp: np.ndarray,
) -> None:
    """One :class:`repro.nn.GRUCell` update, scratch buffers preallocated.

    ``out`` must not alias ``x`` or ``h``; the four trailing buffers are
    (B, hidden) scratch reused across requests.
    """
    np.matmul(x, w_ir, out=r)
    np.matmul(h, w_hr, out=tmp)
    r += tmp
    r += b_r
    sigmoid(r, r)
    np.matmul(x, w_iz, out=z)
    np.matmul(h, w_hz, out=tmp)
    z += tmp
    z += b_z
    sigmoid(z, z)
    np.multiply(r, h, out=r)  # reset-gated hidden state
    np.matmul(x, w_in, out=n)
    np.matmul(r, w_hn, out=tmp)
    n += tmp
    n += b_n
    np.tanh(n, out=n)
    np.subtract(1.0, z, out=tmp)
    np.multiply(tmp, n, out=out)
    np.multiply(z, h, out=tmp)
    out += tmp


# ---------------------------------------------------------------------------
# feature-graph (columns-as-nodes) kernels
# ---------------------------------------------------------------------------
def feature_tokens(out: np.ndarray, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> None:
    """Feature tokenizer: ``out[b, f] = x[b, f] * w[f] + b[f]`` (B, F, E)."""
    np.multiply(x[:, :, None], w, out=out)
    out += b


def feature_layer(
    out: np.ndarray,
    adj: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    flat: np.ndarray,
    msg: np.ndarray,
) -> None:
    """One learned-field-graph propagation, in place on the token buffer:
    ``h ← relu(h + adj @ (h @ w + b))`` with (B, F, E) scratch buffers."""
    batch, nodes, dim = out.shape
    np.matmul(out.reshape(batch * nodes, dim), w, out=flat.reshape(batch * nodes, -1))
    flat += b
    np.matmul(adj, flat, out=msg)
    out += msg
    np.maximum(out, 0.0, out=out)


def attention_readout(
    out: np.ndarray, h: np.ndarray, w: np.ndarray, b: np.ndarray, scores: np.ndarray
) -> None:
    """Gated attention pooling over the node axis (B, F, E) → (B, E)."""
    batch, nodes, dim = h.shape
    np.matmul(h.reshape(batch * nodes, dim), w, out=scores.reshape(batch * nodes, 1))
    scores += b
    _softmax_inplace(scores, axis=1)
    np.einsum("bf,bfe->be", scores, h, out=out)


# ---------------------------------------------------------------------------
# multiplex (TabGNN) relation fusion
# ---------------------------------------------------------------------------
def tabgnn_fuse(
    out: np.ndarray, att_vec: np.ndarray, scores: np.ndarray, *embs: np.ndarray
) -> None:
    """Attention fusion over relation embeddings: softmax-weighted sum.

    ``scores`` is (B, R) scratch; ``out`` may be a column view into a
    concat parent buffer (accumulation handles strided outputs).
    """
    for rel, h in enumerate(embs):
        np.einsum("bh,h->b", np.tanh(h), att_vec, out=scores[:, rel])
    _softmax_inplace(scores, axis=1)
    out.fill(0.0)
    for rel, h in enumerate(embs):
        out += scores[:, rel : rel + 1] * h


#: The step vocabulary — op name → numpy implementation.  Lowerings emit
#: only these names; alternate executors implement the same table.
KERNELS: Dict[str, Callable[..., None]] = {
    "linear": linear,
    "add": add,
    "add_scaled": add_scaled,
    "relu": relu,
    "elu": elu,
    "leaky_relu": leaky_relu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "gather_rows": gather_rows,
    "gather_sum": gather_sum,
    "gather_sum_add": gather_sum_add,
    "gather_weighted_sum": gather_weighted_sum,
    "gather_where": gather_where,
    "masked_gather_add": masked_gather_add,
    "segment_weighted_rows": segment_weighted_rows,
    "gat_attach": gat_attach,
    "gru_step": gru_step,
    "feature_tokens": feature_tokens,
    "feature_layer": feature_layer,
    "attention_readout": attention_readout,
    "tabgnn_fuse": tabgnn_fuse,
}
