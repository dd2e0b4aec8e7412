"""Serving workloads: ``hot-single`` and ``cold-batch16``.

Each run trains its artifact from the workload seed with the code under
test (outside every timed metric), then drives a real
``python -m repro.serving`` subprocess — CLI defaults except
``--artifact/--port/--workers`` — over HTTP from this process, and checks
every reply against in-process :func:`repro.serving.server.execute_predict`
on the same artifact.

Untraced runs report the end-to-end metrics, as medians over the windows
of several boots.  Traced runs first serve one untraced window (the
baseline for ``trace.overhead_pct``), then serve the same traffic from
``traced_server.py`` and report per-layer metrics from its spans, from
``/metrics`` and ``/healthz`` and from ``/proc``.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import procs
from loadgen import (
    HttpConnection,
    LoadResult,
    Sample,
    closed_loop,
    http_request,
)
from spans import SpanRecord, median, summarize

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    # Single rows over 2 connections to the stdlib server + micro-batcher.
    "hot-single": dict(formulation="hetero", workers=0, connections=2, rows=1),
    # 16 distinct rows per request over 1 keep-alive connection to a
    # one-worker fleet (front door + forked worker).
    "cold-batch16": dict(formulation="instance", workers=1, connections=1, rows=16),
}

DATASET_ROWS = 2000
FIXTURE_EPOCHS = 30
HOT_ROWS = 128          # fits the default 256-entry LRU with room to spare
HOT_SHARE = 0.8         # share of hot-single requests drawn from the hot set
UNK_SHARE = 0.1         # share of cold hot-single rows given an unseen code
NOISE = 0.01            # perturbation making a cold row never seen before
HIT_BAND = 0.05         # hit rate may trail the hot share by this much
BOOTS = 5               # untraced runs measure one window on each boot;
CALM_BOOTS = 3          # timings are medians over the ones with least steal
WARMUP_S = 1.5          # per boot, before its window
PSS_INTERVAL = 0.5      # the server tree's Pss is sampled this often
PROB_TOL = 1e-6 + 1e-9  # replies round probabilities to 6 decimals


@dataclasses.dataclass
class Fixture:
    artifact: Path
    numerical: np.ndarray
    categorical: np.ndarray
    labels: np.ndarray
    test_rows: np.ndarray
    cardinalities: List[int]


def build_fixture(workload: str, seed: int, workdir: Path) -> Fixture:
    from repro.datasets import make_fraud
    from repro.datasets.preprocessing import train_val_test_masks
    from repro.pipeline import run_pipeline

    dataset = make_fraud(n=DATASET_ROWS, seed=seed)
    result = run_pipeline(
        dataset, formulation=WORKLOADS[workload]["formulation"],
        max_epochs=FIXTURE_EPOCHS, seed=seed,
    )
    artifact = result.export_artifact().save(workdir / "model")
    # The same stratified split run_pipeline draws from its seed: requests
    # are built from test rows, which no label in training came from.
    _, _, test_mask = train_val_test_masks(
        dataset.num_instances, 0.6, 0.2, np.random.default_rng(seed),
        stratify=dataset.y,
    )
    return Fixture(
        artifact=artifact,
        numerical=dataset.numerical,
        categorical=dataset.categorical,
        labels=dataset.y,
        test_rows=np.nonzero(test_mask)[0],
        cardinalities=list(dataset.cardinalities),
    )


class Traffic:
    """Request ``i`` of a workload, a pure function of (seed, i)."""

    def __init__(self, fixture: Fixture, workload: str, seed: int) -> None:
        self.fixture = fixture
        self.workload = workload
        self.seed = seed
        self.rows = WORKLOADS[workload]["rows"]
        rng = np.random.default_rng([seed, 1])
        test = fixture.test_rows
        self.hot = rng.choice(test, size=min(HOT_ROWS, len(test)), replace=False)
        #: index → (body, labels, kind) for every request built
        self.sent: Dict[int, Tuple[bytes, List[int], str]] = {}

    def _row(self, src: int, rng=None, unk_code: Optional[int] = None):
        fx = self.fixture
        numerical = fx.numerical[src]
        if rng is not None:
            numerical = numerical + rng.normal(0.0, NOISE, numerical.shape)
        categorical = fx.categorical[src].tolist()
        if unk_code is not None:
            categorical[0] = unk_code
        return {"numerical": numerical.tolist(), "categorical": categorical}

    def request(self, index: int) -> bytes:
        rng = np.random.default_rng([self.seed, 2, index])
        test = self.fixture.test_rows
        if self.rows == 1:
            if rng.random() < HOT_SHARE:
                src = int(self.hot[rng.integers(len(self.hot))])
                payload, kind = self._row(src), "hot"
            else:
                src = int(test[rng.integers(len(test))])
                unk = None
                if rng.random() < UNK_SHARE:
                    unk = self.fixture.cardinalities[0] + 1 + index
                payload = self._row(src, rng, unk)
                kind = "unk" if unk is not None else "cold"
            labels = [int(self.fixture.labels[src])]
        else:
            srcs = test[rng.integers(len(test), size=self.rows)]
            payload = {"rows": [self._row(int(s), rng) for s in srcs]}
            labels = [int(self.fixture.labels[s]) for s in srcs]
            kind = "cold"
        body = json.dumps(payload).encode()
        self.sent[index] = (body, labels, kind)
        return http_request("POST", "/predict", body)


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
def _get(port: int, path: str, timeout: float = 60.0) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class ExitedDuringBoot(RuntimeError):
    """The server process ended before answering ``/healthz``."""


class Server:
    """One ``repro.serving`` CLI process (tree); ``boot_s`` is the time
    from launch to the first 200 from ``/healthz``."""

    @classmethod
    def boot(cls, *args, attempts: int = 3) -> "Server":
        """Launch, retrying when the process exits during boot — the port
        picked by :func:`procs.free_port` can be taken before it binds."""
        for attempt in range(attempts):
            try:
                return cls(*args)
            except ExitedDuringBoot:
                if attempt == attempts - 1:
                    raise

    def __init__(self, artifact: Path, workers: int, log_path: Path,
                 env: Dict[str, str], span_dir: Optional[Path] = None) -> None:
        self.port = procs.free_port()
        if span_dir is None:
            cmd = [sys.executable, "-m", "repro.serving"]
        else:
            cmd = [sys.executable, str(HERE / "traced_server.py"), str(span_dir)]
        cmd += ["--artifact", str(artifact), "--port", str(self.port),
                "--workers", str(workers)]
        self.log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
        )
        self.pids = [self.proc.pid]
        try:
            self.boot_s = self._wait_healthy(started)
            self.pids = procs.tree(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, started: float, timeout: float = 120.0) -> float:
        while True:
            if self.proc.poll() is not None:
                raise ExitedDuringBoot(
                    f"server exited with {self.proc.returncode} during boot "
                    f"(log: {self.log.name})"
                )
            try:
                status, _ = _get(self.port, "/healthz")
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            if time.perf_counter() - started > timeout:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.005)

    def health(self) -> dict:
        status, body = _get(self.port, "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return json.loads(body)

    def metrics(self) -> Dict[str, float]:
        status, body = _get(self.port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_prometheus(body.decode())

    def signal_all(self, signum: int) -> None:
        for pid in self.pids:
            os.kill(pid, signum)

    def stop(self) -> None:
        try:
            procs.stop(self.proc, self.pids)
        finally:
            self.log.close()


def parse_prometheus(text: str) -> Dict[str, float]:
    """``series{labels}`` → value for every sample line."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            out[series] = float(value)
    return out


# ----------------------------------------------------------------------
# one measured window
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Window:
    load: LoadResult
    warmup: LoadResult
    health: Tuple[dict, dict]
    metrics: Tuple[Dict[str, float], Dict[str, float]]
    cpu_s: float
    rss_mb: float
    steal_pct: float
    spans: Optional[List[dict]] = None


def measure(server: Server, traffic: Traffic, seconds: float,
            span_dir: Optional[Path] = None) -> Window:
    spec = WORKLOADS[traffic.workload]

    def connect() -> HttpConnection:
        return HttpConnection("127.0.0.1", server.port)

    warm_start = max(traffic.sent, default=-1) + 1
    with procs.Sampler(lambda: procs.pss_mb(server.pids), PSS_INTERVAL) as pss:
        warmup = closed_loop(connect, traffic.request, spec["connections"],
                             WARMUP_S, start_index=warm_start)
        health0, metrics0 = server.health(), server.metrics()
        cpu0 = procs.cpu_seconds(server.pids)
        ticks0 = procs.host_cpu_ticks()
        if span_dir is not None:
            server.signal_all(signal.SIGUSR1)
        load = closed_loop(connect, traffic.request, spec["connections"],
                           seconds, start_index=max(traffic.sent) + 1)
        cpu_s = procs.cpu_seconds(server.pids) - cpu0
        steal = procs.steal_pct(ticks0, procs.host_cpu_ticks())
    spans = None
    if span_dir is not None:
        server.signal_all(signal.SIGUSR2)
        spans = _collect_spans(span_dir, server.pids)
    health1, metrics1 = server.health(), server.metrics()
    return Window(load, warmup, (health0, health1), (metrics0, metrics1),
                  cpu_s, max(mb for _, mb in pss.samples), steal, spans)


def _collect_spans(span_dir: Path, pids: List[int],
                   timeout: float = 30.0) -> List[dict]:
    deadline = time.monotonic() + timeout
    paths = [span_dir / f"spans-{pid}.json" for pid in pids]
    while not all(p.exists() for p in paths):
        if time.monotonic() > deadline:
            raise RuntimeError("traced server did not write its spans")
        time.sleep(0.01)
    return [json.loads(p.read_text()) for p in paths]


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
class Verifier:
    """Compares replies with in-process ``execute_predict`` on the artifact.

    Expected answers are computed after the window, for every distinct
    request body, by ``execute_predict`` over their rows in chunks of
    ``CHUNK`` rows — the same function the server runs, called fewer times.
    """

    CHUNK = 1024

    def __init__(self, artifact: Path) -> None:
        from repro.serving import InferenceEngine, ModelArtifact
        from repro.serving.server import execute_predict

        self._engine = InferenceEngine(ModelArtifact.load(artifact))
        self._execute = execute_predict
        #: body → (probabilities, predictions) of its rows
        self._expected: Dict[bytes, Tuple[np.ndarray, np.ndarray]] = {}

    def _score(self, bodies: List[bytes]) -> None:
        rows, owners = [], []
        for body in bodies:
            payload = json.loads(body)
            body_rows = payload["rows"] if "rows" in payload else [payload]
            rows.extend(body_rows)
            owners.extend([body] * len(body_rows))
        probs, preds = [], []
        for at in range(0, len(rows), self.CHUNK):
            answer = self._execute(self._engine, {"rows": rows[at:at + self.CHUNK]})
            probs.extend(answer["probabilities"])
            preds.extend(answer["predictions"])
        grouped: Dict[bytes, Tuple[list, list]] = {}
        for body, p, c in zip(owners, probs, preds):
            entry = grouped.setdefault(body, ([], []))
            entry[0].append(p)
            entry[1].append(c)
        for body, (p, c) in grouped.items():
            self._expected[body] = (np.asarray(p, dtype=np.float64), np.asarray(c))

    def check(self, load: LoadResult, traffic: Traffic) -> Tuple[int, int, int]:
        """(failed, rows scored, rows predicted correctly) over ``load``."""
        self._score(list({
            traffic.sent[s.index][0] for s in load.samples
            if traffic.sent[s.index][0] not in self._expected
        }))
        failed = rows = right = 0
        for sample in load.samples:
            body, labels, _ = traffic.sent[sample.index]
            try:
                if sample.status != 200:
                    raise ValueError(f"status {sample.status}")
                reply = json.loads(sample.body)
                want_p, want_c = self._expected[body]
                got_p = np.asarray(reply["probabilities"], dtype=np.float64)
                if reply["rows"] != len(want_p) or got_p.shape != want_p.shape:
                    raise ValueError("row count mismatch")
                if np.max(np.abs(got_p - want_p)) > PROB_TOL:
                    raise ValueError("probabilities mismatch")
                tie = np.ptp(want_p, axis=1) < 1e-9
                if np.any((np.asarray(reply["predictions"]) != want_c) & ~tie):
                    raise ValueError("predictions mismatch")
            except (ValueError, KeyError, TypeError):
                failed += 1
                continue
            rows += reply["rows"]
            right += int(np.sum(np.asarray(reply["predictions"]) == labels))
        return failed, rows, right


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(window: Window, key: str) -> float:
    """Growth of an engine counter in ``/healthz`` over the window."""
    before, after = window.health
    return float(after["engine"].get(key, 0)) - float(before["engine"].get(key, 0))


def _hist_delta(window: Window, name: str, labels: str = "") -> Tuple[float, float]:
    """(sum, count) a ``/metrics`` histogram gained over the window."""
    before, after = window.metrics
    return tuple(
        after.get(f"{name}_{part}{labels}", 0.0)
        - before.get(f"{name}_{part}{labels}", 0.0)
        for part in ("sum", "count")
    )


@dataclasses.dataclass
class Checked:
    """One measured window with its replies verified."""

    window: Window
    boot_s: float    # launch to the first 200 from /healthz
    failed: int      # failed replies, warm-up included
    rows: int        # rows in verified replies of the window
    right: int       # of those, predicted as their source row's label
    checks: Dict[str, object]

    @property
    def attempted(self) -> int:
        return self.window.warmup.attempted + self.window.load.attempted


def _shape_checks(workload: str, window: Window, traffic: Traffic,
                  rows: int) -> Dict[str, object]:
    """Counts that must come out exactly (or in their band) every run."""
    served_rows = _delta(window, "rows")
    hits = _delta(window, "cache_hits")
    checks: Dict[str, object] = {"engine_rows": served_rows, "client_rows": rows,
                                 "cache_hits": hits}
    problems = []
    if served_rows != rows:
        problems.append(f"engine scored {served_rows} rows, clients got {rows}")
    if workload == "cold-batch16":
        if hits != 0:
            problems.append(f"cold-batch16 had {hits} cache hits")
    else:
        kinds = [traffic.sent[s.index][2] for s in window.load.samples]
        hot_share = kinds.count("hot") / len(kinds)
        hit_rate = _ratio(hits, served_rows)
        unk = _delta(window, "unk_values")
        checks.update(hot_share=hot_share, hit_rate=hit_rate, unk_values=unk)
        if not hot_share - HIT_BAND <= hit_rate <= hot_share:
            problems.append(
                f"hit rate {hit_rate:.4f} outside [{hot_share - HIT_BAND:.4f}, "
                f"{hot_share:.4f}]"
            )
        if unk <= 0:
            problems.append("no UNK lookups")
    checks["problems"] = problems
    return checks


def _serve(workload: str, fixture: Fixture, traffic: Traffic,
           verifier: Verifier, seconds: float, workdir: Path,
           env: Dict[str, str], span_dir: Optional[Path] = None) -> Checked:
    """Boot the server, measure one window, stop it and verify every reply."""
    server = Server.boot(fixture.artifact, WORKLOADS[workload]["workers"],
                         workdir / "server.log", env, span_dir)
    try:
        window = measure(server, traffic, seconds, span_dir)
    finally:
        server.stop()
    failed, rows, right = verifier.check(window.load, traffic)
    warm_failed, _, _ = verifier.check(window.warmup, traffic)
    return Checked(window, server.boot_s, failed + warm_failed, rows, right,
                   _shape_checks(workload, window, traffic, rows))


def _timings(samples: List[Sample], seconds: float,
             rows_per_request: int) -> Dict[str, float]:
    latencies = [s.latency * 1000.0 for s in samples]
    replied = sum(1 for s in samples if s.status == 200)
    return {
        "p50_ms": float(np.percentile(latencies, 50)),
        "p90_ms": float(np.percentile(latencies, 90)),
        "throughput_rows_s": rows_per_request * replied / seconds,
    }


def _end_to_end(workload: str, runs: List[Checked]) -> Dict[str, float]:
    """Each timing is the median over the windows of the ``CALM_BOOTS``
    boots during which the hypervisor took the least CPU time (steal)
    from this host.  How fast a booted server runs varies from boot to
    boot (where the scheduler places its processes and threads), and time
    other tenants take is not the program's."""
    rows = WORKLOADS[workload]["rows"]
    calm = sorted(runs, key=lambda r: r.window.steal_pct)[:CALM_BOOTS]
    timings = [_timings(r.window.load.samples, r.window.load.window, rows)
               for r in calm]
    return {
        "setup_s": statistics.median(r.boot_s for r in runs),
        **{key: statistics.median(t[key] for t in timings) for key in timings[0]},
        "rss_mb": max(r.window.rss_mb for r in runs),
        "test_acc": _ratio(sum(r.right for r in runs), sum(r.rows for r in runs)),
    }


def _per_layer(workload: str, baseline: Checked, traced: Checked) -> Dict[str, float]:
    window = traced.window
    records = [SpanRecord(*r) for proc in window.spans for r in proc["window"]]
    boot = [SpanRecord(*r) for proc in window.spans for r in proc["boot"]]
    reallocs = sum(proc["counts"].get("serving.compiled.reallocs", 0)
                   for proc in window.spans)
    spans, boot_spans = summarize(records), summarize(boot)
    engine_figures = ([p["engine_meta"] for p in window.spans if p["engine_meta"]]
                      or [window.health[1]])

    def field(name: str, key: str = "ms", summary=spans) -> List[float]:
        return summary.get(name, {}).get(key, [])

    encodes = [ms for ms, parent in zip(field("json.encode"),
                                        field("json.encode", "parent"))
               if parent != "serving.server.access_log"]
    requests = len(field("serving.execute_predict"))
    out = {
        "serving.execute_predict.self_ms_p50": median(
            field("serving.execute_predict", "self_ms")),
        "json.decode_ms_p50": median(field("json.decode")),
        "json.encode_ms_p50": median(encodes),
        "serving.engine.predict_ms_p50": median(field("serving.engine.predict")),
        "serving.engine.self_ms_p50": median(
            field("serving.engine.predict", "self_ms")),
        "formulations.score_ms_p50": median(field("formulations.score")),
        "formulations.score_self_ms_p50": median(
            field("formulations.score", "self_ms")),
        "datasets.preprocessing.normalize_rows_ms_p50": median(
            field("datasets.preprocessing.normalize_rows")),
        "datasets.preprocessing.transform_ms_p50": median(
            field("datasets.preprocessing.transform")),
        "construction.retrieval.top_k_ms_p50": median(
            field("construction.retrieval.top_k")),
        "construction.retrieval.top_k_calls_per_req": _ratio(
            len(field("construction.retrieval.top_k")), requests),
        "serving.compiled.plan_run_ms_p50": median(
            field("serving.compiled.plan_run")),
        "serving.compiled.reallocs": reallocs,
        "serving.engine.cache_hit_rate": _ratio(
            _delta(window, "cache_hits"), _delta(window, "rows")),
        "serving.engine.rows_per_forward": _ratio(
            _delta(window, "forward_rows"), _delta(window, "forward_passes")),
        "serving.engine.unk_rate": _ratio(
            _delta(window, "unk_values"), _delta(window, "rows")),
        "serving.cpu_ms_per_row": _ratio(window.cpu_s * 1000.0, traced.rows),
        "serving.artifact.load_ms": median(
            field("serving.artifact.load", summary=boot_spans)),
        # The engine's own set-up figures: from /healthz, or for a fleet,
        # whose /healthz does not carry them, as each worker reported them.
        **{f"serving.engine.{key}": median(f[key] for f in engine_figures)
           for key in ("compile_ms", "index_build_ms")},
    }
    total, count = _hist_delta(
        window, "repro_http_request_duration_seconds", '{path="/predict"}')
    server_ms = 1000.0 * _ratio(total, count)
    if WORKLOADS[workload]["workers"] == 0:
        client_ms = statistics.fmean(window.load.latencies_ms())
        wait_s, waits = _hist_delta(window, "repro_batcher_queue_wait_seconds")
        size_sum, batches = _hist_delta(window, "repro_batcher_batch_size")
        out.update({
            "serving.server.request_ms_mean": server_ms,
            "serving.server.overhead_ms": client_ms - server_ms,
            "serving.batching.queue_wait_ms_mean": 1000.0 * _ratio(wait_s, waits),
            "serving.batching.batch_size_mean": _ratio(size_sum, batches),
        })
    else:
        worker_ms = (sum(field("json.decode")) + sum(encodes)
                     + sum(field("serving.execute_predict")))
        out.update({
            "serving.scaleout.request_ms_mean": server_ms,
            "serving.scaleout.hop_ms": server_ms - _ratio(worker_ms, requests),
        })

    latencies = baseline.window.load.latencies_ms()
    p99 = float(np.percentile(latencies, 99))
    base_p50 = float(np.percentile(latencies, 50))
    traced_p50 = float(np.percentile(window.load.latencies_ms(), 50))
    out.update({
        "loadgen.attempted": baseline.attempted,
        "loadgen.failed": baseline.failed,
        "loadgen.p99_ms": p99,
        "loadgen.beyond_p99": sum(1 for v in latencies if v > p99),
        "loadgen.connects_per_req": _ratio(baseline.window.load.connects,
                                           baseline.window.load.attempted),
        "trace.overhead_pct": 100.0 * (traced_p50 - base_p50) / base_p50,
    })
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path, env: Dict[str, str]) -> Tuple[dict, dict]:
    """One run: ``(result, details)``; ``result`` holds correct/attempted/
    failed/metrics as printed, ``details`` the shape checks and settings.

    Untraced, the server is booted ``BOOTS`` times and each boot serves
    a window of ``seconds / BOOTS``; traced, one untraced and one traced
    boot each serve a window of ``seconds``."""
    fixture = build_fixture(workload, seed, workdir)
    traffic = Traffic(fixture, workload, seed)
    verifier = Verifier(fixture.artifact)
    args = (workload, fixture, traffic, verifier)
    if not trace:
        runs = {f"boot{i}": _serve(*args, seconds / BOOTS, workdir, env)
                for i in range(BOOTS)}
        metrics = _end_to_end(workload, list(runs.values()))
    else:
        span_dir = workdir / "spans"
        span_dir.mkdir()
        runs = {"untraced": _serve(*args, seconds, workdir, env),
                "traced": _serve(*args, seconds, workdir, env, span_dir)}
        metrics = _per_layer(workload, runs["untraced"], runs["traced"])

    failed = sum(r.failed for r in runs.values())
    correct = failed == 0 and not any(r.checks["problems"] for r in runs.values())
    result = {"correct": correct,
              "attempted": sum(r.attempted for r in runs.values()),
              "failed": failed, "metrics": metrics}
    spec = WORKLOADS[workload]
    return result, {"checks": {k: r.checks for k, r in runs.items()},
                    "boots_s": [r.boot_s for r in runs.values()],
                    "warmup_s": WARMUP_S,
                    "steal_pct": {k: r.window.steal_pct for k, r in runs.items()},
                    "windows": {k: _timings(r.window.load.samples,
                                            r.window.load.window, spec["rows"])
                                for k, r in runs.items()},
                    "connections": spec["connections"],
                    "rows_per_request": spec["rows"]}
