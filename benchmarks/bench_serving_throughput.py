"""Serving throughput: full-graph oracle vs compiled plan, micro-batching.

Four claims are measured on the instance formulation:

* **micro-batching** amortizes the full-graph path's fixed per-request cost
  (retrieval, induced-graph rebuild, pool re-forward) across coalesced
  requests — bar: >= 5x single-row throughput on the full-graph path;
* the **compiled plan** (the engine default: pool activations cached once
  and pre-projected into plan constants, autograd stripped, only the B
  query rows computed per request) beats the full-graph oracle per
  single-row request — bar: >= 3x lower latency at pool >= 2000 rows, with
  predictions matching the oracle within 1e-8 and the one-time
  ``compile_ms`` persisted per cell;
* compiled per-request latency is **near-flat in pool size**, measured
  by a pool-scaling sweep over all five network families *and* over the
  hypergraph formulation (queries attach as new hyperedges over frozen
  value-node states; the full-graph oracle rebuilds the model on the
  attached incidence) — bar: sub-linear for every family (latency growth
  well below the pool growth factor);
* **sub-linear retrieval** carries the attach stage to 10⁵–10⁶-row pools:
  a synthetic pool-scaling sweep times ``PoolIndex.top_k`` per single
  query under the exact scan vs the IVF backend and measures recall@k
  against the exact oracle — bar: >= 5x top_k speedup at pool = 10⁵ with
  recall@k >= 0.95, persisted as ``ann_pool_scaling`` rows (exact/IVF
  p50, recall, the one-time k-means ``build_ms``).

A further set of claims covers the observability layer itself: the span +
histogram instrumentation must cost < 5% of single-row compiled p50
(measured against an ``observability=False`` engine), and the
engine-internal request histogram must agree with an external caller-side
timer within 10% at p50 and p95 — the cross-check that makes ``/metrics``
latencies trustworthy on their own.

Alongside the human-readable table, results are persisted as
``benchmarks/results/BENCH_serving.json`` (rows/sec, p50/p95 latency, the
pool-scaling curve, and the observability overhead/agreement numbers) so
future PRs have a perf trajectory to compare against.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from _harness import RESULTS_DIR, once, record_table

from repro.construction.retrieval import PoolIndex
from repro.construction.rules import knn_graph
from repro.datasets import TabularPreprocessor, make_correlated_instances, make_fraud
from repro.formulations import HypergraphFormulation
from repro.gnn.networks import build_network
from repro.pipeline import run_pipeline
from repro.serving import InferenceEngine, MicroBatcher, ModelArtifact

N_REQUESTS = 192
POOL_ROWS = 600
SWEEP_POOLS = (500, 1000, 2000, 4000)
SWEEP_NETWORKS = ("gcn", "sage", "gin", "gat", "gated")
SWEEP_REQUESTS = 24
#: ANN retrieval sweep: pool sizes far past what the serving sweep can
#: train on — the attach stage is timed in isolation on synthetic blobs.
ANN_POOLS = (10_000, 100_000, 1_000_000)
ANN_QUERIES = 24
ANN_K = 10
ROWS = []
SWEEP = []
ANN = []
OBS = {}
STATE = {}


def _setup():
    if STATE:
        return
    dataset = make_correlated_instances(
        n=POOL_ROWS, seed=0, cluster_strength=2.0
    )
    result = run_pipeline(
        dataset, formulation="instance", network="gcn", max_epochs=40, seed=0
    )
    rng = np.random.default_rng(1)
    picks = rng.integers(0, POOL_ROWS, N_REQUESTS)
    STATE["artifact"] = result.export_artifact()
    # Perturbed pool rows: realistic unseen traffic, all distinct (no cache
    # assistance on either path — caching is disabled anyway).
    STATE["rows"] = dataset.numerical[picks] + rng.normal(
        0.0, 0.05, (N_REQUESTS, dataset.num_numerical)
    )


#: dataset/preprocessor/kNN graph per sweep pool size — shared across the
#: five network families so extending SWEEP_NETWORKS stays cheap (graph
#: construction, not the model, dominates sweep setup).
_SWEEP_POOL_CACHE = {}


def _sweep_pool(pool_rows):
    if pool_rows not in _SWEEP_POOL_CACHE:
        dataset = make_correlated_instances(n=pool_rows, seed=2)
        prep = TabularPreprocessor(mode="onehot").fit(dataset)
        x = prep.transform_dataset(dataset)
        graph = knn_graph(x, k=10, metric="euclidean", y=dataset.y)
        _SWEEP_POOL_CACHE[pool_rows] = (dataset, prep, graph)
    return _SWEEP_POOL_CACHE[pool_rows]


def _sweep_artifact(pool_rows, network="gcn"):
    """Untrained (random-weight) artifact over a ``pool_rows``-row pool.

    Latency does not depend on the weight values, so skipping training keeps
    the sweep cheap while exercising the exact serving code paths.
    """
    dataset, prep, graph = _sweep_pool(pool_rows)
    model = build_network(
        network, graph, 32, dataset.num_classes, np.random.default_rng(0),
        num_layers=2,
    )
    artifact = ModelArtifact(
        formulation="instance",
        network=network,
        config={
            "hidden_dim": 32,
            "out_dim": dataset.num_classes,
            "k": 10,
            "metric": "euclidean",
            "num_layers": 2,
            "embed_dim": 16,
            "task": dataset.task,
        },
        state_dict=model.state_dict(),
        preprocessor=prep,
        pool_x=np.asarray(graph.x, dtype=np.float64),
        pool_edge_index=graph.edge_index.astype(np.int64),
    )
    rng = np.random.default_rng(3)
    requests = dataset.numerical[
        rng.integers(0, pool_rows, SWEEP_REQUESTS)
    ] + rng.normal(0.0, 0.05, (SWEEP_REQUESTS, dataset.num_numerical))
    return artifact, requests


def _hypergraph_sweep_artifact(pool_rows):
    """Untrained hypergraph artifact over a ``pool_rows``-row training table.

    The "pool" here is the frozen incidence structure (one column per
    training row); incremental serving touches only the cached value-node
    states, so its latency should be flat while the full-graph oracle —
    which rebuilds the model on the attached incidence — grows with it.
    """
    dataset = make_fraud(n=pool_rows, seed=2)
    config = {
        "network": "hypergraph_gnn",
        "hidden_dim": 32,
        "out_dim": dataset.num_classes,
        "num_layers": 2,
        "task": dataset.task,
    }
    fitted = HypergraphFormulation().fit(dataset, None, config)
    model = fitted.build_model(np.random.default_rng(0))
    arrays, meta = fitted.artifact_payload()
    artifact = ModelArtifact(
        formulation="hypergraph",
        network=fitted.model_builder,
        config=config,
        state_dict=model.state_dict(),
        preprocessor=fitted.preprocessor,
        payload_arrays=arrays,
        payload_meta=meta,
    )
    rng = np.random.default_rng(3)
    picks = rng.integers(0, pool_rows, SWEEP_REQUESTS)
    numerical = dataset.numerical[picks] + rng.normal(
        0.0, 0.05, (SWEEP_REQUESTS, dataset.num_numerical)
    )
    return artifact, numerical, dataset.categorical[picks]


def _percentiles(latencies):
    latencies = np.sort(np.asarray(latencies)) * 1000.0
    return (
        float(np.percentile(latencies, 50)),
        float(np.percentile(latencies, 95)),
    )


def _time_single_rows(engine, rows, cats=None):
    latencies = []
    start = time.perf_counter()
    for i, row in enumerate(rows):
        t0 = time.perf_counter()
        engine.predict(row, None if cats is None else cats[i])
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return len(rows) / elapsed, latencies


def _run_single_row(incremental):
    # ``incremental=False`` is the full-graph oracle, ``None`` the
    # compiled default.
    _setup()
    engine = InferenceEngine(
        STATE["artifact"], cache_size=0, incremental=incremental
    )
    return _time_single_rows(engine, STATE["rows"])


def _run_micro_batched():
    _setup()
    # Full-graph engine: micro-batching is what amortizes that path's fixed
    # per-request cost (the compiled path has little left to amortize).
    engine = InferenceEngine(STATE["artifact"], cache_size=0, incremental=False)

    def hit(row):
        t0 = time.perf_counter()
        batcher.submit(row)
        return time.perf_counter() - t0

    with MicroBatcher(engine, max_batch_size=64, max_delay_ms=5.0) as batcher:
        start = time.perf_counter()
        with ThreadPoolExecutor(32) as pool:
            latencies = list(pool.map(hit, STATE["rows"]))
        elapsed = time.perf_counter() - start
        stats = dict(batcher.stats)
    return N_REQUESTS / elapsed, latencies, stats


def test_single_row_full_graph(benchmark):
    rps, latencies = once(benchmark, lambda: _run_single_row(False))
    p50, p95 = _percentiles(latencies)
    ROWS.append(("single-row full-graph", 1, rps, p50, p95))
    assert rps > 0


def test_single_row_compiled(benchmark):
    rps, latencies = once(benchmark, lambda: _run_single_row(None))
    p50, p95 = _percentiles(latencies)
    ROWS.append(("single-row compiled", 1, rps, p50, p95))
    assert rps > 0


def test_micro_batched_throughput(benchmark):
    rps, latencies, stats = once(benchmark, _run_micro_batched)
    p50, p95 = _percentiles(latencies)
    ROWS.append(("micro-batched full-graph", stats["largest_batch"], rps, p50, p95))
    assert stats["batches"] < N_REQUESTS, "batcher never coalesced"


def _sweep_point(network, pool_rows, artifact, *rows):
    """Full-graph oracle vs compiled plan on one sweep cell."""
    full = InferenceEngine(artifact, cache_size=0, incremental=False)
    comp = InferenceEngine(artifact, cache_size=0)  # the default
    assert comp.compiled, f"{network}: plan failed to compile"
    # Correctness first: the compiled plan must match the oracle.
    diff = float(np.abs(comp.predict_batch(*rows) - full.predict_batch(*rows)).max())
    assert diff < 1e-8, f"{network} pool={pool_rows}: parity broken ({diff:.2e})"
    full_p50, _ = _percentiles(_time_single_rows(full, *rows)[1])
    comp_p50, _ = _percentiles(_time_single_rows(comp, *rows)[1])
    return {
        "network": network,
        "pool_rows": pool_rows,
        "full_p50_ms": full_p50,
        "compiled_p50_ms": comp_p50,
        "speedup": full_p50 / comp_p50,
        "compile_ms": float(comp.compile_ms),
        "max_abs_diff": diff,
    }


def test_pool_scaling_sweep(benchmark):
    def sweep():
        for network in SWEEP_NETWORKS:
            for pool_rows in SWEEP_POOLS:
                artifact, requests = _sweep_artifact(pool_rows, network)
                SWEEP.append(_sweep_point(network, pool_rows, artifact, requests))
        # Hypergraph: same sweep, formulation-level — queries attach as new
        # hyperedges over frozen value-node states, oracle rebuilds on the
        # attached incidence.
        for pool_rows in SWEEP_POOLS:
            artifact, numerical, categorical = _hypergraph_sweep_artifact(pool_rows)
            SWEEP.append(_sweep_point(
                "hypergraph", pool_rows, artifact, numerical, categorical
            ))
        return SWEEP

    once(benchmark, sweep)
    for point in SWEEP:
        if point["pool_rows"] >= 2000:
            assert point["speedup"] >= 3.0, (
                f"{point['network']} pool={point['pool_rows']}: compiled only "
                f"{point['speedup']:.1f}x faster than full-graph (bar: >= 3x)"
            )
    pool_growth = SWEEP_POOLS[-1] / SWEEP_POOLS[0]
    for network in dict.fromkeys(p["network"] for p in SWEEP):
        curve = [p for p in SWEEP if p["network"] == network]
        latency_growth = curve[-1]["compiled_p50_ms"] / curve[0]["compiled_p50_ms"]
        assert latency_growth < pool_growth / 2.0, (
            f"{network}: compiled latency grew {latency_growth:.1f}x over a "
            f"{pool_growth:.0f}x pool increase — not sub-linear"
        )


def _time_top_k(index, queries, k):
    """Per-single-query ``top_k`` latencies (the serving attach pattern)."""
    latencies = []
    for i in range(queries.shape[0]):
        query = queries[i : i + 1]
        t0 = time.perf_counter()
        index.top_k(query, k)
        latencies.append(time.perf_counter() - t0)
    return latencies


def test_ann_pool_scaling(benchmark):
    """Exact scan vs IVF index at pools the dense sweep cannot reach.

    Synthetic clustered blobs (the regime a frozen training pool of user
    rows actually lives in — traffic concentrates around modes) at
    10⁴–10⁶ rows; per-query ``top_k`` latency and recall@k against the
    exact oracle are recorded per pool size.  Bar (the tentpole claim):
    the IVF backend is >= 5x faster than the exact scan at pool = 10⁵
    while recall@k >= 0.95.
    """

    def sweep():
        rng = np.random.default_rng(7)
        dim, n_centers = 24, 64
        centers = rng.normal(0.0, 4.0, (n_centers, dim))
        for pool_rows in ANN_POOLS:
            pool = centers[
                rng.integers(0, n_centers, pool_rows)
            ] + rng.normal(0.0, 1.0, (pool_rows, dim))
            queries = centers[
                rng.integers(0, n_centers, ANN_QUERIES)
            ] + rng.normal(0.0, 1.0, (ANN_QUERIES, dim))
            exact = PoolIndex(pool, measure="euclidean")
            t0 = time.perf_counter()
            ivf = PoolIndex(pool, measure="euclidean", backend="ivf")
            build_ms = (time.perf_counter() - t0) * 1000.0
            truth = exact.top_k(queries, ANN_K)
            approx = ivf.top_k(queries, ANN_K)
            recall = sum(
                len(set(truth[i]) & set(approx[i]))
                for i in range(ANN_QUERIES)
            ) / float(ANN_QUERIES * ANN_K)
            exact_p50, exact_p95 = _percentiles(_time_top_k(exact, queries, ANN_K))
            ivf_p50, ivf_p95 = _percentiles(_time_top_k(ivf, queries, ANN_K))
            ANN.append(
                {
                    "pool_rows": pool_rows,
                    "nlist": int(ivf._backend.nlist),
                    "nprobe": int(ivf._backend.nprobe),
                    "exact_p50_ms": exact_p50,
                    "exact_p95_ms": exact_p95,
                    "ivf_p50_ms": ivf_p50,
                    "ivf_p95_ms": ivf_p95,
                    "speedup": exact_p50 / ivf_p50,
                    "recall_at_k": float(recall),
                    "build_ms": build_ms,
                }
            )
        return ANN

    once(benchmark, sweep)
    bar = next(c for c in ANN if c["pool_rows"] == 100_000)
    assert bar["speedup"] >= 5.0, (
        f"IVF only {bar['speedup']:.1f}x faster than the exact scan at "
        f"pool=1e5 (bar: >= 5x)"
    )
    assert bar["recall_at_k"] >= 0.95, (
        f"IVF recall@{ANN_K} {bar['recall_at_k']:.3f} at pool=1e5 "
        f"(bar: >= 0.95)"
    )


def test_observability_overhead_and_agreement(benchmark):
    """Two claims about the instrumentation itself.

    * **Overhead**: the full span + histogram stack (request span, cache /
      score / encode / attach / plan_execute / head stages, request-latency
      observe) costs < 5% of single-row compiled p50 versus an
      ``observability=False`` engine (plus a small absolute slack for
      timer noise on sub-millisecond latencies).
    * **Agreement**: the engine-internal request histogram — fed by its
      own ``perf_counter`` bracket and answering quantiles from the raw
      reservoir — matches an external caller-side timer within 10% at p50
      and p95, so ``/metrics`` latencies can be trusted without a bench
      harness attached.
    """

    def run():
        _setup()

        # A/B interleaved: alternating runs see the same thermal / noisy-
        # neighbor drift, so the best-of-5 floors are comparable; measuring
        # one engine's five runs back-to-back lets a slow minute land
        # entirely on one side and fake (or hide) overhead.
        engines = {
            observability: InferenceEngine(
                STATE["artifact"], cache_size=0, incremental=True,
                observability=observability,
            )
            for observability in (False, True)
        }
        runs = {False: [], True: []}
        for engine in engines.values():
            _time_single_rows(engine, STATE["rows"][:32])  # warm-up
        for _ in range(5):
            for observability, engine in engines.items():
                rps, lat = _time_single_rows(engine, STATE["rows"])
                p50, p95 = _percentiles(lat)
                runs[observability].append((p50, p95, rps))
        # best-of-5 by p50: least scheduler noise
        plain_p50, plain_p95, plain_rps = min(runs[False])
        instrumented_p50, instrumented_p95, instrumented_rps = min(runs[True])

        # Agreement run on a *fresh* instrumented engine: its reservoir
        # then holds exactly the requests the external timer saw.
        engine = InferenceEngine(STATE["artifact"], cache_size=0, incremental=True)
        _, latencies = _time_single_rows(engine, STATE["rows"])
        external_p50, external_p95 = _percentiles(latencies)
        hist = engine.registry.get("repro_request_duration_seconds").labels(
            formulation="instance", endpoint="predict"
        )
        internal_p50 = hist.quantile(0.5) * 1000.0
        internal_p95 = hist.quantile(0.95) * 1000.0

        return {
            "plain_p50_ms": plain_p50,
            "plain_p95_ms": plain_p95,
            "plain_rows_per_sec": plain_rps,
            "instrumented_p50_ms": instrumented_p50,
            "instrumented_p95_ms": instrumented_p95,
            "instrumented_rows_per_sec": instrumented_rps,
            "overhead_pct": 100.0 * (instrumented_p50 / plain_p50 - 1.0),
            "external_p50_ms": external_p50,
            "internal_p50_ms": internal_p50,
            "external_p95_ms": external_p95,
            "internal_p95_ms": internal_p95,
        }

    OBS.update(once(benchmark, run))
    ROWS.append((
        "single-row incr (no obs)", 1, OBS["plain_rows_per_sec"],
        OBS["plain_p50_ms"], OBS["plain_p95_ms"],
    ))
    ROWS.append((
        "single-row incr (instrumented)", 1, OBS["instrumented_rows_per_sec"],
        OBS["instrumented_p50_ms"], OBS["instrumented_p95_ms"],
    ))
    assert OBS["instrumented_p50_ms"] <= OBS["plain_p50_ms"] * 1.05 + 0.02, (
        f"instrumentation overhead {OBS['overhead_pct']:.1f}% "
        f"({OBS['plain_p50_ms']:.3f}ms -> {OBS['instrumented_p50_ms']:.3f}ms) "
        f"blows the 5% budget"
    )
    for q in ("p50", "p95"):
        internal, external = OBS[f"internal_{q}_ms"], OBS[f"external_{q}_ms"]
        assert abs(internal - external) / external < 0.10, (
            f"engine-internal {q} {internal:.3f}ms disagrees with external "
            f"timer {external:.3f}ms by more than 10%"
        )


def test_zzz_render_throughput(benchmark):
    def render():
        single_full = next(r for r in ROWS if r[0] == "single-row full-graph")
        single_comp = next(r for r in ROWS if r[0] == "single-row compiled")
        batched = next(r for r in ROWS if r[0] == "micro-batched full-graph")
        batch_speedup = batched[2] / single_full[2]
        compiled_speedup = single_full[3] / single_comp[3]
        table_rows = [list(r) for r in ROWS] + [
            [
                f"sweep {p['network']} pool={p['pool_rows']} full",
                1, "-", p["full_p50_ms"], "-",
            ]
            for p in SWEEP
        ] + [
            [
                f"sweep {p['network']} pool={p['pool_rows']} compiled",
                1, "-", p["compiled_p50_ms"], "-",
            ]
            for p in SWEEP
        ] + [
            [
                f"ann pool={c['pool_rows']} {mode} top_k",
                1, "-", c[f"{mode}_p50_ms"], c[f"{mode}_p95_ms"],
            ]
            for c in ANN
            for mode in ("exact", "ivf")
        ]
        text = record_table(
            "serving_throughput",
            "Serving throughput: full-graph oracle vs compiled plan",
            ["mode", "max batch", "rows/sec", "p50 (ms)", "p95 (ms)"],
            table_rows,
            note=(
                f"pool={POOL_ROWS} rows, {N_REQUESTS} requests; "
                f"micro-batched speedup = {batch_speedup:.1f}x (bar: >= 5x); "
                f"compiled p50 speedup over full-graph = "
                f"{compiled_speedup:.1f}x; sweep pools {SWEEP_POOLS} x networks "
                f"{SWEEP_NETWORKS} + the hypergraph formulation with >= 3x "
                f"bar from 2000 rows; ANN retrieval sweep pools {ANN_POOLS} "
                f"with >= 5x IVF top_k speedup at recall@{ANN_K} >= 0.95 "
                f"bar at pool=1e5"
            ),
        )
        payload = {
            "pool_rows": POOL_ROWS,
            "n_requests": N_REQUESTS,
            "modes": [
                {
                    "mode": mode,
                    "max_batch": int(max_batch),
                    "rows_per_sec": float(rps),
                    "p50_ms": float(p50),
                    "p95_ms": float(p95),
                }
                for mode, max_batch, rps, p50, p95 in ROWS
            ],
            "microbatch_speedup": float(batch_speedup),
            "compiled_p50_speedup": float(compiled_speedup),
            "pool_scaling": SWEEP,
            "ann_pool_scaling": ANN,
            "observability": {k: float(v) for k, v in OBS.items()},
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / "BENCH_serving.json"
        # Merge over the existing file: other benches (bench_loadgen) own
        # keys in the same JSON, and those rows must survive a rerun here.
        merged = {}
        if out.exists():
            try:
                merged = json.loads(out.read_text())
            except (ValueError, OSError):
                merged = {}
        merged.update(payload)
        out.write_text(json.dumps(merged, indent=2) + "\n")
        assert batch_speedup >= 5.0, (
            f"micro-batching speedup {batch_speedup:.1f}x below 5x bar"
        )
        return text

    once(benchmark, render)
