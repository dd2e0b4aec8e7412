"""Formulation-agnostic inductive inference over frozen training state.

The transductive pipelines score exactly the rows they were trained on.
:class:`InferenceEngine` closes the train/serve gap for every servable
formulation by delegating to the scorer the artifact's fitted formulation
provides (:meth:`~repro.formulations.FittedFormulation.make_scorer`):

* **instance** — unseen rows are preprocessed with the artifact's frozen
  statistics, linked into the frozen training pool via retrieval
  (PET-style, survey Sec. 4.2.4), and propagated incrementally: the pool's
  per-layer activations are cached once, each request computes only the
  B query rows — O(B·k·d), independent of pool size, for every network in
  the zoo.  The full-graph rebuild is kept purely as a correctness oracle
  (``incremental=False``); the two paths agree to floating-point round-off.
* **feature** — the feature-graph model is row-wise by construction; rows
  are tokenized with the frozen field statistics and scored directly.
* **multiplex / hetero** — unseen rows attach to *frozen value nodes* by
  vocabulary lookup: the artifact carries, per column, the mapping from
  value codes to pool value-node state (with binned numerical columns
  re-binned through the frozen quantile edges).  Never-seen values land in
  the UNK bucket (counted in ``stats["unk_values"]``) and still produce
  valid predictions; the vocabulary never grows at serve time.  The oracle
  appends the queries as nodes that only receive edges from the frozen
  value groups / value nodes.
* **hypergraph** — each unseen row attaches as a *new hyperedge* over the
  frozen value nodes: the artifact carries the incidence structure and the
  frozen row→value-node encoder, the scorer caches the value-node states
  once, and a query is the degree-normalized mean of its member nodes'
  cached states — O(B·n_features·d), independent of the training-table
  size, with the attached full-graph forward kept as the parity oracle
  (``incremental=False``).

Every built-in formulation has exactly two scoring paths: the compiled
plan (the default) and the full-graph autograd oracle
(``incremental=False``).  The engine itself is formulation-blind: it
validates rows, handles the LRU prediction cache and stats, and softmaxes
whatever logits the scorer returns.  Registering a new formulation
therefore requires no engine edits.

Repeated rows are memoized in a bounded LRU cache keyed on the raw row
bytes, so hot rows (the head of a production traffic distribution) skip
the forward pass entirely.  Cached probability arrays are marked
read-only before they are stored, so a caller mutating a returned array
cannot silently corrupt the cache.  Batch scoring deduplicates rows
*within* the batch as well, which is what makes the micro-batcher's
coalescing worthwhile under skewed traffic.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracing import NULL_CONTEXT
from repro.serving.artifact import ModelArtifact
from repro.tensor.ops import softmax_rows

#: Engine counter keys, pre-seeded so ``stats`` always carries them in a
#: stable order (scorers add their own, e.g. ``unk_values``).
_STAT_KEYS = ("rows", "cache_hits", "forward_passes", "forward_rows")

_STAT_HELP = {
    "rows": "Rows submitted for scoring.",
    "cache_hits": "Rows served from the LRU prediction cache.",
    "forward_passes": "Vectorized scorer forward passes.",
    "forward_rows": "Distinct rows scored by forward passes.",
    "unk_values": "Lookups that landed in the UNK bucket.",
    "attach_edges": "Pool attach edges created for query rows.",
    "retrieval_probed_cells": "IVF cells probed by approximate retrieval.",
    "retrieval_candidates": "Candidate rows re-ranked by approximate retrieval.",
}


class InferenceEngine:
    """Score unseen rows against a :class:`~repro.serving.ModelArtifact`.

    Parameters
    ----------
    artifact:
        The frozen pipeline to serve.
    cache_size:
        Maximum number of distinct rows memoized in the LRU prediction
        cache; ``0`` disables caching.
    incremental:
        ``None`` (default) serves the formulation's compiled plan, which
        propagates only the query rows against cached pool state wherever
        the formulation has a pool.  ``False`` serves the full-graph
        autograd oracle instead (every built-in formulation has one).
        Explicit values a formulation cannot honor raise ``ValueError``
        (feature artifacts have no pool to propagate from, so reject
        ``True``).
    registry:
        A shared :class:`~repro.obs.MetricsRegistry` to report into (the
        prediction server passes its own so one ``/metrics`` scrape covers
        server, engine and batcher); ``None`` creates a private one.
    observability:
        ``False`` strips every metric/span and no registry exists.  The
        serving bench uses this to measure instrumentation overhead (kept
        < 5% of single-row p50).
    trace_every:
        Stage-span sampling rate: the first request and every
        ``trace_every``-th after it are traced through the per-stage
        spans; the others pay only the (always-on) end-to-end histogram.
        ``1`` traces everything, ``0`` disables stage tracing.  Sampling
        is what keeps instrumentation inside the < 5% overhead budget —
        the request-latency histogram stays exact because it never
        samples.
    index / nprobe:
        Retrieval-index selection for formulations that attach queries by
        pool retrieval (the instance formulation): ``index="exact"`` keeps
        the exhaustive scan, ``index="ivf"`` serves the sub-linear
        inverted-file index with ``nprobe`` probed cells per query (see
        :mod:`repro.construction.retrieval`).  ``None`` (default) defers
        to the artifact config (``config["index"]``/``config["nprobe"]``),
        falling back to exact — so existing artifacts serve bit-identically.
        Explicit values are refused with ``ValueError`` when the
        formulation's scorer takes no ``index`` argument (nothing to
        retrieve from).  ``self.index`` reports the live backend (exact
        after an exotic-measure fallback), ``self.nprobe`` the probe
        budget, ``self.index_build_ms`` the one-time build cost; the
        ``repro_engine_retrieval_*`` counters and the sampled
        ``repro_engine_retrieval_recall`` gauge land in the registry when
        an approximate index serves.

    Notes
    -----
    At construction the scorer's query path is lowered to a flat compiled
    plan (:mod:`repro.serving.compiled`): pure-numpy kernels over
    preallocated reused buffers, no autograd on the hot path, pool-side
    work folded into compile-time constants.  ``self.compiled`` reports
    whether the plan serves — ``False`` for the ``incremental=False``
    oracle and for plug-in formulations that bring no plan — and
    ``self.compile_ms`` the one-time lowering cost.  A built-in scorer
    whose plan cannot be lowered raises here rather than serving slower.

    Cache hits return the stored array itself (no copy, no forward pass);
    cached arrays are marked read-only so accidental mutation raises
    instead of corrupting the cache.  The engine is thread-safe: a lock
    serializes scoring, which matches the micro-batcher's single consumer
    model.  All ``stats`` mutations happen while that lock is held, so
    :meth:`snapshot` (which takes it) returns a view in which related
    counters are consistent — e.g. ``cache_hits + forward_rows`` always
    accounts for every single-row predict.

    Observability (when enabled): end-to-end latency lands in the
    ``repro_request_duration_seconds{formulation,endpoint}`` histogram
    (every request); sampled requests are traced through the
    ``cache → score(encode → attach → plan_execute|propagate) → head``
    stages (``repro_stage_duration_seconds{formulation,stage}``) —
    compiled execution reports the ``plan_execute`` stage where the
    full-graph oracle and plug-in scorers report ``propagate``.  ``stats``
    stays a plain dict — mutated only under the engine lock, so
    increments cost the same as before instrumentation — and is exported
    to the registry through collection-time callbacks
    (``repro_engine_<key>_total``); drift gauges — UNK-hit rate, cache
    hit rate, pool-attach fan-out — are derived the same way.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        cache_size: int = 256,
        incremental: Optional[bool] = None,
        registry: Optional[MetricsRegistry] = None,
        observability: bool = True,
        trace_every: int = 32,
        index: Optional[str] = None,
        nprobe: Optional[int] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.artifact = artifact
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple[bytes, bytes], np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)
        if observability:
            self.registry = registry if registry is not None else MetricsRegistry()
            self._init_observability(trace_every)
        else:
            self.registry = None
            self._tracer = None
            self._request_hists = {}
            self._trace_every = 0
        make_scorer = artifact.fitted.make_scorer
        scorer_kwargs = {}
        if index is not None or nprobe is not None:
            # Plug-in formulations keep the original 3-argument make_scorer
            # signature; only pass index kwargs where they are understood,
            # and refuse explicit requests a formulation cannot honor.
            params = inspect.signature(make_scorer).parameters
            accepts_index = "index" in params or any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
            )
            if not accepts_index:
                raise ValueError(
                    f"formulation {artifact.formulation!r} does not retrieve "
                    "from a pool; index/nprobe selection does not apply"
                )
            scorer_kwargs = {"index": index, "nprobe": nprobe}
        self._scorer = make_scorer(
            artifact, incremental, self.stats, **scorer_kwargs
        )
        self.incremental = bool(self._scorer.incremental)
        #: live retrieval-index backend ("exact"/"ivf"), or None for
        #: formulations that do not retrieve from a pool.
        self.index: Optional[str] = getattr(self._scorer, "index", None)
        self.nprobe: Optional[int] = getattr(self._scorer, "nprobe", None)
        self.index_build_ms = float(getattr(self._scorer, "index_build_ms", 0.0))
        started = time.perf_counter()
        self.compiled = bool(self._scorer.enable_compiled())
        self.compile_ms = (time.perf_counter() - started) * 1000.0
        if self._tracer is not None:
            self._scorer.bind_tracer(self._tracer)
            # The scorer's __init__ has now setdefault'ed its own keys
            # (unk_values, attach_edges, …); export the complete set.
            self._export_stats()

    def _init_observability(self, trace_every: int) -> None:
        labels = {"formulation": str(self.artifact.formulation)}
        self._labels = labels
        self._trace_every = max(0, int(trace_every))
        self._trace_tick = itertools.count()
        self._tracer = Tracer(self.registry, const_labels=labels)
        family = self.registry.histogram(
            "repro_request_duration_seconds",
            "End-to-end engine request latency.",
            labelnames=("formulation", "endpoint"),
        )
        self._request_hists = {
            endpoint: family.labels(endpoint=endpoint, **labels)
            for endpoint in ("predict", "predict_batch")
        }

    def _export_stats(self) -> None:
        """Expose the ``stats`` dict on the registry via callbacks.

        The hot path keeps mutating a plain dict under the engine lock
        (one dict ``+=`` per counter — the cheapest thing Python offers);
        the registry reads the live values only at collection time, the
        same custom-collector idiom real Prometheus clients use for
        counters owned by existing code.
        """
        labels = self._labels
        stats = self.stats
        for key in stats:
            self.registry.counter(
                f"repro_engine_{key}_total", _STAT_HELP.get(key, ""),
                labelnames=("formulation",),
            ).labels(**labels).set_function(lambda k=key: stats[k])

        def _rate(num: str, den: str):
            def compute() -> float:
                total = stats.get(den, 0)
                return stats.get(num, 0) / total if total else 0.0
            return compute

        # Drift gauges, derived at collection time from the live counters:
        # UNK-hit rate rising means the frozen vocabulary is aging out of
        # the traffic; cache-hit rate falling means the hot-row set moved;
        # attach fan-out is the pool linkage the average query still finds.
        self.registry.gauge(
            "repro_engine_unk_rate",
            "UNK-bucket lookups per scored row (drift signal).",
            labelnames=("formulation",),
        ).labels(**labels).set_function(_rate("unk_values", "rows"))
        self.registry.gauge(
            "repro_engine_cache_hit_rate",
            "LRU cache hits per scored row.",
            labelnames=("formulation",),
        ).labels(**labels).set_function(_rate("cache_hits", "rows"))
        self.registry.gauge(
            "repro_engine_attach_fanout",
            "Pool attach edges per forward-scored row.",
            labelnames=("formulation",),
        ).labels(**labels).set_function(_rate("attach_edges", "forward_rows"))
        self.registry.gauge(
            "repro_engine_cache_entries",
            "Rows currently memoized in the LRU cache.",
            labelnames=("formulation",),
        ).labels(**labels).set_function(lambda: len(self._cache))
        self.registry.gauge(
            "repro_engine_compiled",
            "1 when the compiled plan serves, 0 on the full-graph oracle "
            "or a plug-in scorer.",
            labelnames=("formulation",),
        ).labels(**labels).set_function(
            lambda: 1.0 if self.compiled else 0.0
        )
        scorer = self._scorer
        if getattr(scorer, "retrieval_recall", None) is not None:
            self.registry.gauge(
                "repro_engine_retrieval_recall",
                "Sampled recall@k of the approximate retrieval index "
                "against the exact scan.",
                labelnames=("formulation",),
            ).labels(**labels).set_function(
                lambda: float(scorer.retrieval_recall)
            )

    # ------------------------------------------------------------------
    def _root_span(self, name: str):
        """A sampled request-level span (the first request always traces,
        then one in every ``trace_every``)."""
        if self._trace_every and not (
            next(self._trace_tick) % self._trace_every
        ):
            return self._tracer.span(name)
        return NULL_CONTEXT

    def _span(self, name: str):
        """A stage span — records only inside a sampled request (i.e.
        when this thread already has an open span)."""
        tracer = self._tracer
        if tracer is None or tracer.current() is None:
            return NULL_CONTEXT
        return tracer.span(name)

    def _observe_request(self, endpoint: str, started: float) -> None:
        hist = self._request_hists.get(endpoint)
        if hist is not None:
            hist.observe(time.perf_counter() - started)

    def snapshot(self) -> Dict[str, float]:
        """Locked, consistent copy of the engine counters.

        Taken under the engine lock — the same lock every predict mutates
        ``stats`` under — so no in-flight request can tear the view
        (``/healthz`` reads this, never the live dict).
        """
        with self._lock:
            return dict(self.stats)

    @staticmethod
    def merge_snapshots(snapshots) -> Dict[str, float]:
        """Sum per-process engine counter snapshots into fleet totals.

        Engine stats are all monotonic counters, so summation is the
        correct cross-worker aggregation — the scale-out front door uses
        this to report one fleet-wide ``engine`` block on ``/healthz``.
        """
        merged: Dict[str, float] = {}
        for snap in snapshots:
            for key, value in snap.items():
                merged[key] = merged.get(key, 0.0) + float(value)
        return merged

    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        return self.artifact.num_classes

    def _normalize(
        self, numerical: np.ndarray, categorical: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.artifact.preprocessor.normalize_rows(numerical, categorical)

    @staticmethod
    def _key(num_row: np.ndarray, cat_row: np.ndarray) -> Tuple[bytes, bytes]:
        return (num_row.tobytes(), cat_row.tobytes())

    # ------------------------------------------------------------------
    def _forward(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        """One vectorized forward pass over a (B, …) row batch → (B, C) probs."""
        logits = self._scorer.score(numerical, categorical)
        self.stats["forward_passes"] += 1
        self.stats["forward_rows"] += numerical.shape[0]
        with self._span("head"):
            probs = softmax_rows(logits, axis=1)
        # Rows of this array end up in the LRU cache and are returned by
        # reference; freeze them so caller mutation raises instead of
        # corrupting cached entries.
        probs.flags.writeable = False
        return probs

    # ------------------------------------------------------------------
    def predict_batch(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(B, C) class probabilities for a batch of raw rows.

        Rows already in the cache are served from it; the remaining
        *distinct* rows share a single vectorized forward pass.
        """
        started = time.perf_counter()
        with self._root_span("predict_batch"):
            numerical, categorical = self._normalize(numerical, categorical)
            n = numerical.shape[0]
            out = np.empty((n, self.num_classes))
            with self._lock:
                self.stats["rows"] += n
                with self._span("cache"):
                    keys = [
                        self._key(numerical[i], categorical[i]) for i in range(n)
                    ]
                    fresh: "OrderedDict[Tuple[bytes, bytes], int]" = OrderedDict()
                    hits = 0
                    for i, key in enumerate(keys):
                        if self.cache_size and key in self._cache:
                            self._cache.move_to_end(key)
                            out[i] = self._cache[key]
                            hits += 1
                        elif key not in fresh:
                            fresh[key] = i
                    if hits:
                        self.stats["cache_hits"] += hits
                if fresh:
                    rows = list(fresh.values())
                    probs = self._forward(numerical[rows], categorical[rows])
                    for local, key in enumerate(fresh):
                        if self.cache_size:
                            self._cache[key] = probs[local]
                            self._cache.move_to_end(key)
                    fresh_probs = dict(zip(fresh, probs))
                    for i, key in enumerate(keys):
                        if key in fresh_probs:
                            out[i] = fresh_probs[key]
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
        self._observe_request("predict_batch", started)
        return out

    def predict(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """(C,) class probabilities for one raw row.

        A cache hit returns the stored (read-only) array itself — no
        forward pass.
        """
        started = time.perf_counter()
        with self._root_span("predict"):
            numerical, categorical = self._normalize(numerical, categorical)
            if numerical.shape[0] != 1:
                raise ValueError("predict scores one row; use predict_batch")
            key = self._key(numerical[0], categorical[0])
            with self._lock:
                self.stats["rows"] += 1
                with self._span("cache"):
                    hit = self.cache_size and key in self._cache
                if hit:
                    self._cache.move_to_end(key)
                    self.stats["cache_hits"] += 1
                    probs = self._cache[key]
                else:
                    probs = self._forward(numerical, categorical)[0]
                    if self.cache_size:
                        self._cache[key] = probs
                        while len(self._cache) > self.cache_size:
                            self._cache.popitem(last=False)
        self._observe_request("predict", started)
        return probs

    def predict_labels(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return self.predict_batch(numerical, categorical).argmax(axis=1)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
