"""Stdlib-only JSON-over-HTTP prediction server.

``python -m repro.serving --artifact model.npz`` (or the ``gnn4tdl-serve``
console script) loads a :class:`~repro.serving.ModelArtifact` and exposes:

* ``GET /healthz`` — liveness + artifact summary + engine/batcher stats;
* ``GET /metrics`` — Prometheus text exposition for the whole deployment
  (one shared :class:`~repro.obs.MetricsRegistry` covers HTTP, engine,
  batcher: request/stage latency histograms, cache/UNK/batch gauges);
* ``POST /predict`` — score rows.  The body is either one row::

      {"numerical": [0.1, 2.3], "categorical": [4, 0]}

  or a batch::

      {"rows": [{"numerical": [...], "categorical": [...]}, ...]}

  Single-row requests from concurrent clients are coalesced by the
  micro-batcher; explicit batches go straight to the engine (they are
  already vectorized).  The response carries per-row class probabilities
  and argmax predictions.

* ``POST /admin/reload`` — zero-downtime artifact hot swap: the new
  artifact is loaded and a fresh engine + micro-batcher built *while the
  old ones keep serving*, routing switches atomically, and the old unit
  drains (in-flight requests finish, the micro-batcher flushes) before it
  is closed.  No request is dropped; ``artifact_generation`` on
  ``/healthz`` (and the ``repro_engine_artifact_generation`` gauge) bumps
  so operators can verify the swap landed.

While the engine is still initializing (``lazy_init=True`` binds the
socket before the engine is built) or a shutdown drain is in progress,
``/predict`` answers **503** with a structured JSON body instead of
hanging or surfacing a closed-batcher 500.  Shutdown (SIGTERM /
KeyboardInterrupt / :meth:`PredictionServer.shutdown`) drains: new work is
refused with 503, in-flight requests complete through
:meth:`MicroBatcher.flush`, then the listener closes.

Every request can be access-logged as one structured JSON line (method,
path, status, latency_ms, rows) on the ``repro.serving.access`` logger —
enabled by ``access_log=True`` / the CLI's ``--log-level info``, and off
by default so embedded/test servers stay quiet.

Built on :class:`http.server.ThreadingHTTPServer` speaking HTTP/1.1
keep-alive: each client connection occupies one handler thread for as
long as it stays open (a silent one is released after
``_IDLE_TIMEOUT_S``), and each in-flight request is one producer for the
micro-batcher to coalesce across.  A response sent while request-body
bytes are still unread (unknown route, bad ``Content-Length``, oversized
body) closes the connection, so leftover bytes are never parsed as the
next request.  ``--workers N`` on the CLI switches to
the multi-process scale-out deployment (:mod:`repro.serving.scaleout`):
an async front door dispatching to N worker processes that share one
memory-mapped copy of the artifact's pool state; ``--workers 0`` (the
default) stays on this single-process server, which remains the
correctness oracle.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import numpy as np

from repro.obs import MetricsRegistry
from repro.serving.artifact import ModelArtifact
from repro.serving.batching import MicroBatcher
from repro.serving.engine import InferenceEngine

#: structured JSON access-log lines go here; the CLI attaches a stderr
#: handler, embedded users attach their own (or leave it unhandled).
access_logger = logging.getLogger("repro.serving.access")


class _BadRequest(ValueError):
    """Client error → HTTP 400 with an explanatory JSON body."""


class _ServiceUnavailable(RuntimeError):
    """Server cannot score right now → HTTP 503 with a structured body.

    Raised while the engine is still initializing (lazy start) or while a
    shutdown drain is in progress — the states in which a request would
    previously have hit a closed micro-batcher and surfaced as a 500 (or
    simply hung).  503 tells load balancers to retry elsewhere.
    """


class _ReloadInProgress(RuntimeError):
    """A hot swap is already running → HTTP 409 (retry when it lands)."""


#: How much of an oversized (already-rejected) body the handler drains
#: before closing the socket — enough for any realistic over-limit client
#: to have its 413 delivered cleanly, bounded so a hostile stream cannot
#: occupy the handler thread indefinitely.
_DRAIN_LIMIT = 1 << 25  # 32 MiB

#: Seconds a keep-alive connection may stay silent (or a request stall
#: mid-read) before its handler thread closes it.
_IDLE_TIMEOUT_S = 15.0


def _parse_row(row: Dict[str, object]) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    if not isinstance(row, dict) or "numerical" not in row:
        raise _BadRequest('each row must be an object with a "numerical" list')
    try:
        numerical = np.asarray(row["numerical"], dtype=np.float64).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise _BadRequest(f"bad numerical values: {exc}") from exc
    # Categorical codes pass through raw: normalize_rows validates them
    # (a fractional or non-finite code is a 400, never truncated).
    return numerical, row.get("categorical")


def execute_predict(
    engine: InferenceEngine,
    payload: Dict[str, object],
    submit=None,
) -> Dict[str, object]:
    """Score a parsed ``/predict`` body against ``engine``.

    The single request-semantics implementation shared by every deployment
    shape: the in-process :class:`PredictionServer` passes its
    micro-batcher's ``submit`` so concurrent single-row requests coalesce;
    scale-out workers (:mod:`repro.serving.scaleout.worker`) pass
    ``submit=None`` and single rows score directly — either way the wire
    contract (validation errors, response shape, rounding) is identical,
    which is what keeps ``--workers 0`` the correctness oracle for the
    multi-process deployment.
    """
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    if "rows" in payload:
        rows = payload["rows"]
        if not isinstance(rows, list) or not rows:
            raise _BadRequest('"rows" must be a non-empty list')
        try:
            # Rows may mix present/absent categoricals; normalize_rows
            # fills absent ones with the -1 "missing" code so no row's
            # data is dropped.
            preprocessor = engine.artifact.preprocessor
            parsed = [
                preprocessor.normalize_rows(*_parse_row(row)) for row in rows
            ]
            numerical = np.concatenate([num for num, _ in parsed])
            categorical = np.concatenate([cat for _, cat in parsed])
            probs = engine.predict_batch(numerical, categorical)
        except ValueError as exc:  # ragged rows / wrong column count
            raise _BadRequest(str(exc)) from exc
    else:
        numerical, categorical = _parse_row(payload)
        try:
            if submit is not None:
                probs = np.atleast_2d(submit(numerical, categorical))
            else:
                probs = np.atleast_2d(engine.predict(numerical, categorical))
        except ValueError as exc:  # wrong column count for the artifact
            raise _BadRequest(str(exc)) from exc
    return {
        "predictions": probs.argmax(axis=1).tolist(),
        "probabilities": probs.round(6).tolist(),
        "rows": int(probs.shape[0]),
    }


class _Service:
    """One hot-swappable serving unit: artifact + engine + micro-batcher.

    Tracks its in-flight users so a swap can retire the old unit without
    dropping a single request: :meth:`retire` refuses new acquisitions
    (callers re-read the server's current service and land on the
    replacement), :meth:`drain` then waits for current users to finish,
    flushes the micro-batcher and closes it.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        engine: InferenceEngine,
        batcher: MicroBatcher,
        generation: int,
    ) -> None:
        self.artifact = artifact
        self.engine = engine
        self.batcher = batcher
        self.generation = int(generation)
        self._cond = threading.Condition()
        self._users = 0
        self._retired = False

    def acquire(self) -> bool:
        with self._cond:
            if self._retired:
                return False
            self._users += 1
            return True

    def release(self) -> None:
        with self._cond:
            self._users -= 1
            if self._users == 0:
                self._cond.notify_all()

    def retire(self) -> None:
        with self._cond:
            self._retired = True

    def drain(self, timeout: float = 10.0) -> None:
        self.retire()
        deadline = time.monotonic() + timeout
        with self._cond:
            self._cond.wait_for(
                lambda: self._users == 0,
                timeout=max(0.0, deadline - time.monotonic()),
            )
        self.batcher.flush(timeout=max(0.01, deadline - time.monotonic()))
        self.batcher.close()


class PredictionServer:
    """An :class:`InferenceEngine` + :class:`MicroBatcher` behind HTTP.

    Pass ``port=0`` to bind an ephemeral port (tests); the bound port is
    available as :attr:`port` after construction.
    """

    def __init__(
        self,
        artifact: ModelArtifact,
        host: str = "127.0.0.1",
        port: int = 8000,
        max_batch_size: int = 32,
        cache_size: int = 256,
        max_body_bytes: int = 1 << 20,
        access_log: bool = False,
        registry: Optional[MetricsRegistry] = None,
        index: Optional[str] = None,
        nprobe: Optional[int] = None,
        lazy_init: bool = False,
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self.artifact = artifact
        self.max_body_bytes = int(max_body_bytes)
        self.access_log = bool(access_log)
        #: one registry for the whole deployment: HTTP, engine and batcher
        #: metrics all land here, so ``GET /metrics`` is a single scrape.
        self.registry = registry if registry is not None else MetricsRegistry()
        # Engine/batcher construction options are kept so reload() can
        # build the replacement service identically.
        self._engine_options = dict(
            cache_size=cache_size, index=index, nprobe=nprobe
        )
        self._batcher_options = dict(max_batch_size=max_batch_size)
        self.engine: Optional[InferenceEngine] = None
        self.batcher: Optional[MicroBatcher] = None
        self._service: Optional[_Service] = None
        self._generation = 0
        self._draining = False
        self._init_error: Optional[str] = None
        self._swap_lock = threading.Lock()    # guards _service installs
        self._reload_lock = threading.Lock()  # serializes hot swaps
        self.registry.gauge(
            "repro_engine_artifact_generation",
            "Monotonic artifact generation serving predictions "
            "(bumps on each hot swap).",
        ).set_function(lambda: float(self._generation))
        self._http_requests = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests by method, route and status.",
            labelnames=("method", "path", "status"),
        )
        self._http_duration = self.registry.histogram(
            "repro_http_request_duration_seconds",
            "HTTP request handling latency by route.",
            labelnames=("path",),
        )
        self._rejected_oversize = self.registry.counter(
            "repro_http_rejected_oversize_total",
            "Requests refused with HTTP 413 (body over max_body_bytes).",
        )
        server = self  # captured by the handler class below

        class Handler(BaseHTTPRequestHandler):
            # Keep-alive: a client pays one TCP connect, and the server one
            # handler thread, per connection rather than per request.
            protocol_version = "HTTP/1.1"
            # Headers and body go out in two writes; with Nagle on, the
            # second waits for the client's delayed ACK (~40 ms).
            disable_nagle_algorithm = True
            timeout = _IDLE_TIMEOUT_S

            def log_message(self, fmt, *args):
                # BaseHTTPRequestHandler's stderr chatter is replaced by the
                # structured JSON access log emitted in _finish().
                pass

            def _begin(self) -> float:
                # The handler outlives a request on a keep-alive connection,
                # so per-request state is reset here.  ``_unread`` counts
                # request-body bytes not yet consumed (-1: no valid length).
                self._status = 0
                self._rows = 0
                try:
                    length = int(self.headers.get("Content-Length", 0))
                except ValueError:
                    length = -1
                self._unread = max(length, -1)
                if "Transfer-Encoding" in self.headers:
                    # A body this server does not decode cannot be framed.
                    self.close_connection = True
                return time.perf_counter()

            def _read_body(self, limit: int) -> bytes:
                data = self.rfile.read(min(self._unread, limit))
                self._unread -= len(data)
                return data

            def _send(self, status: int, body: bytes, content_type: str) -> None:
                if self._unread or server._draining:
                    # Unread body bytes would be parsed as the next request;
                    # a draining server sends its clients elsewhere.
                    self.close_connection = True
                self._status = status
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                if self.close_connection:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

            def _send_json(
                self, status: int, payload: Dict[str, object]
            ) -> None:
                self._send(status, json.dumps(payload).encode(), "application/json")

            def _finish(self, method: str, started: float) -> None:
                server._record_request(
                    method,
                    self.path,
                    self._status,
                    time.perf_counter() - started,
                    self._rows,
                )

            def do_GET(self) -> None:
                started = self._begin()
                try:
                    if self.path in ("/healthz", "/health"):
                        self._send_json(200, server.health())
                    elif self.path == "/metrics":
                        self._send(
                            200,
                            server.metrics_text().encode(),
                            "text/plain; version=0.0.4; charset=utf-8",
                        )
                    else:
                        self._send_json(
                            404, {"error": f"unknown path {self.path}"}
                        )
                finally:
                    self._finish("GET", started)

            def do_POST(self) -> None:
                started = self._begin()
                try:
                    self._do_post()
                finally:
                    self._finish("POST", started)

            def _do_post(self) -> None:
                if self.path == "/admin/reload":
                    self._do_reload()
                    return
                if self.path != "/predict":
                    self._send_json(404, {"error": f"unknown path {self.path}"})
                    return
                try:
                    length = self._unread
                    if length < 0:
                        self._send_json(
                            400, {"error": "invalid Content-Length header"}
                        )
                        return
                    if length > server.max_body_bytes:
                        # Refuse before buffering: an oversized body must
                        # never be held in memory.  The connection is closed
                        # (the body stays unread, see _send) so the remainder
                        # cannot be misparsed as a follow-up request, but the
                        # body is first drained (in fixed chunks, up to a
                        # bound) — closing with unread data pending would RST
                        # the socket and destroy the 413 response before the
                        # client could read it.
                        self._send_json(413, {
                            "error": (
                                f"request body of {length} bytes exceeds the "
                                f"{server.max_body_bytes}-byte limit"
                            )
                        })
                        remaining = min(length, _DRAIN_LIMIT)
                        while remaining > 0:
                            chunk = self.rfile.read(min(remaining, 1 << 16))
                            if not chunk:
                                break
                            remaining -= len(chunk)
                        return
                    try:
                        payload = json.loads(self._read_body(length) or b"{}")
                    except json.JSONDecodeError as exc:
                        raise _BadRequest(f"invalid JSON body: {exc}") from exc
                    response = server.predict(payload)
                    self._rows = int(response.get("rows", 0))
                    self._send_json(200, response)
                except _BadRequest as exc:
                    self._send_json(400, {"error": str(exc)})
                except _ServiceUnavailable as exc:
                    self._send_json(503, {
                        "error": str(exc),
                        "status": "unavailable",
                        "retriable": True,
                    })
                except Exception as exc:  # pragma: no cover - defensive
                    self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

            def _do_reload(self) -> None:
                try:
                    if self._unread < 0:
                        self._send_json(
                            400, {"error": "invalid Content-Length header"}
                        )
                        return
                    try:
                        payload = json.loads(self._read_body(1 << 20) or b"{}")
                    except json.JSONDecodeError as exc:
                        raise _BadRequest(f"invalid JSON body: {exc}") from exc
                    if not isinstance(payload, dict):
                        raise _BadRequest("request body must be a JSON object")
                    response = server.reload(
                        path=payload.get("artifact"),
                        mmap_mode=payload.get("mmap_mode"),
                    )
                    self._send_json(200, response)
                except _BadRequest as exc:
                    self._send_json(400, {"error": str(exc)})
                except _ReloadInProgress as exc:
                    self._send_json(409, {"error": str(exc)})
                except _ServiceUnavailable as exc:
                    self._send_json(503, {
                        "error": str(exc),
                        "status": "unavailable",
                        "retriable": True,
                    })
                except (FileNotFoundError, ValueError) as exc:
                    self._send_json(400, {"error": str(exc)})
                except Exception as exc:  # pragma: no cover - defensive
                    self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._init_thread: Optional[threading.Thread] = None
        if lazy_init:
            # Bind-first startup: the socket above is already accepting, so
            # health checks and load balancers see the port immediately;
            # /predict answers 503 until the engine lands.
            self._init_thread = threading.Thread(
                target=self._build_initial,
                args=(artifact,),
                name="repro-serving-init",
                daemon=True,
            )
            self._init_thread.start()
        else:
            try:
                self._install(self._build_service(artifact))
            except BaseException:
                self._httpd.server_close()
                raise

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def _build_service(self, artifact: ModelArtifact) -> _Service:
        engine = InferenceEngine(
            artifact, registry=self.registry, **self._engine_options
        )
        batcher = MicroBatcher(
            engine, registry=self.registry, **self._batcher_options
        )
        return _Service(artifact, engine, batcher, self._generation + 1)

    def _install(self, service: _Service) -> Optional[_Service]:
        """Atomically make ``service`` the serving unit; return the old one."""
        with self._swap_lock:
            old, self._service = self._service, service
            self._generation = service.generation
            self.artifact = service.artifact
            self.engine = service.engine
            self.batcher = service.batcher
        return old

    def _build_initial(self, artifact: ModelArtifact) -> None:
        try:
            self._install(self._build_service(artifact))
        except Exception as exc:  # surfaced via /healthz and predict 503s
            self._init_error = f"{type(exc).__name__}: {exc}"

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until the (possibly lazily built) engine is serving."""
        deadline = time.monotonic() + timeout
        while self._service is None and self._init_error is None:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)
        return self._service is not None

    def reload(
        self,
        artifact: Optional[ModelArtifact] = None,
        path: Optional[str] = None,
        mmap_mode: Optional[str] = None,
    ) -> Dict[str, object]:
        """Zero-downtime artifact hot swap.

        Builds a fresh engine + micro-batcher (from ``artifact``, ``path``,
        or — with neither — the current artifact's ``source_path``) while
        the old unit keeps serving, switches routing atomically, then
        drains and closes the old unit.  In-flight requests finish on the
        engine that accepted them; requests that race the swap land on the
        replacement.  Raises :class:`_ReloadInProgress` when a swap is
        already running (HTTP 409) and keeps the old service on any load
        or build failure.
        """
        if self._draining:
            raise _ServiceUnavailable("server is draining")
        if not self._reload_lock.acquire(blocking=False):
            raise _ReloadInProgress("a reload is already in progress")
        try:
            if artifact is None:
                source = path
                if source is None and self.artifact is not None:
                    source = self.artifact.source_path
                    if mmap_mode is None:
                        mmap_mode = self.artifact.mmap_mode
                if source is None:
                    raise ValueError(
                        "no artifact to reload: pass artifact=/path= or "
                        "serve an artifact that knows its source_path"
                    )
                artifact = ModelArtifact.load(source, mmap_mode=mmap_mode)
            service = self._build_service(artifact)
            old = self._install(service)
            if old is not None:
                old.drain(timeout=10.0)
            return {
                "status": "ok",
                "artifact_generation": service.generation,
                "artifact_sha": artifact.content_sha,
                "formulation": artifact.formulation,
                "network": artifact.network,
            }
        finally:
            self._reload_lock.release()

    # ------------------------------------------------------------------
    #: known routes; anything else is grouped to keep label cardinality
    #: bounded against URL-scanning traffic.
    _ROUTES = ("/predict", "/healthz", "/health", "/metrics", "/admin/reload")

    def _record_request(
        self, method: str, path: str, status: int, duration: float, rows: int
    ) -> None:
        route = path if path in self._ROUTES else "other"
        self._http_requests.labels(
            method=method, path=route, status=str(status)
        ).inc()
        self._http_duration.labels(path=route).observe(duration)
        if status == 413:
            self._rejected_oversize.inc()
        if self.access_log:
            access_logger.info(json.dumps({
                "method": method,
                "path": path,
                "status": int(status),
                "latency_ms": round(duration * 1000.0, 3),
                "rows": int(rows),
            }, sort_keys=True))

    def metrics_text(self) -> str:
        """The deployment's registry in Prometheus text exposition."""
        return self.registry.render_prometheus()

    def health(self) -> Dict[str, object]:
        """Liveness plus which inference path this deployment runs.

        ``formulation``/``network``/``schema_version``/``incremental``/
        ``compiled``/``index``/``pool_rows`` are surfaced at the top level
        so operators can verify what a deployment serves — which
        formulation and artifact schema, whether requests ride a
        cached-pool incremental path, whether the compiled plan (vs the
        full-graph oracle or a plug-in's own scorer) executes them, and
        which retrieval index backend attaches queries (``index``/``nprobe``/
        ``index_build_ms``; ``index`` is ``null`` for formulations that do
        not retrieve from a pool) — without digging through the artifact
        summary.  Engine and batcher stats are
        *locked snapshots* (consistent under concurrent predicts), not
        reads of the live dicts.

        ``artifact_generation`` (monotonic, bumps on hot swap) and
        ``artifact_sha`` (content hash of the served ``.npz``) identify
        *which* artifact is serving — the fields an operator checks after
        ``POST /admin/reload``.
        """
        service = self._service
        if service is None:
            status = "error" if self._init_error else "initializing"
            payload: Dict[str, object] = {
                "status": status,
                "artifact_generation": 0,
                "server": {
                    "rejected_oversize": self._rejected_oversize.value,
                },
            }
            if self._init_error:
                payload["error"] = self._init_error
            return payload
        artifact, engine = service.artifact, service.engine
        return {
            "status": "draining" if self._draining else "ok",
            "formulation": artifact.formulation,
            "network": artifact.network,
            "schema_version": int(artifact.schema_version),
            "incremental": bool(engine.incremental),
            "compiled": bool(engine.compiled),
            "compile_ms": float(engine.compile_ms),
            "index": engine.index,
            "nprobe": engine.nprobe,
            "index_build_ms": float(engine.index_build_ms),
            "pool_rows": artifact.pool_rows,
            "artifact_generation": int(service.generation),
            "artifact_sha": artifact.content_sha,
            "mmapped": artifact.mmap_mode == "r",
            "artifact": artifact.summary(),
            "engine": engine.snapshot(),
            "batcher": service.batcher.snapshot(),
            "server": {
                "rejected_oversize": self._rejected_oversize.value,
            },
        }

    def predict(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Score a parsed request body (shared by HTTP handler and tests).

        Pins the current serving unit for the duration of the request so a
        concurrent hot swap cannot close the micro-batcher underneath it;
        a request that loses the race to a swap simply re-reads and scores
        on the replacement.
        """
        while True:
            if self._draining:
                raise _ServiceUnavailable("server is draining")
            service = self._service
            if service is None:
                raise _ServiceUnavailable(
                    self._init_error or "engine is initializing"
                )
            if service.acquire():
                break
            if self._service is service:
                # Retired with no replacement installed: shutting down.
                raise _ServiceUnavailable("server is draining")
        try:
            return execute_predict(
                service.engine, payload, submit=service.batcher.submit
            )
        finally:
            service.release()

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (Ctrl-C safe)."""
        self._serving = True
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.shutdown()

    def start(self) -> "PredictionServer":
        """Serve on a background thread (tests / embedding)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serving", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Graceful stop: refuse new work with 503, let in-flight requests
        finish (micro-batcher flush included), then tear the listener down."""
        self._draining = True
        service = self._service
        if service is not None:
            service.drain(timeout=10.0)
        # BaseServer.shutdown() blocks on an event that only serve_forever
        # sets — calling it on a never-started server would hang forever.
        if self._serving:
            self._serving = False
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def main(argv=None) -> int:
    """CLI entry point: ``gnn4tdl-serve`` / ``python -m repro.serving``."""
    parser = argparse.ArgumentParser(
        prog="gnn4tdl-serve",
        description="Serve a trained GNN4TDL model artifact over HTTP.",
    )
    parser.add_argument("--artifact", required=True,
                        help="path to the .npz saved by ModelArtifact.save")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--max-body-bytes", type=int, default=1 << 20,
                        help="reject request bodies larger than this (HTTP 413)")
    parser.add_argument("--index", choices=("exact", "ivf"), default=None,
                        help="retrieval index backend for pool-attach "
                             "formulations (default: artifact config, else "
                             "the exact scan)")
    parser.add_argument("--nprobe", type=int, default=None,
                        help="IVF cells probed per query (recall/latency "
                             "knob; only meaningful with --index ivf)")
    parser.add_argument("--log-level", choices=("info", "quiet"), default="info",
                        help="info: one structured JSON access-log line per "
                             "request on stderr; quiet: no request logging")
    parser.add_argument("--workers", type=int, default=0,
                        help="N>0: multi-process scale-out serving — an async "
                             "front door dispatching to N worker processes "
                             "that memory-map one shared read-only copy of "
                             "the artifact; 0 (default): the single-process "
                             "in-memory server (the correctness oracle)")
    parser.add_argument("--lazy-init", action="store_true",
                        help="bind the port before building the engine; "
                             "/predict answers 503 until the engine is ready "
                             "(single-process mode only)")
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")

    access_log = args.log_level != "quiet"
    if access_log and not access_logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        access_logger.addHandler(handler)
        access_logger.setLevel(logging.INFO)
        access_logger.propagate = False

    # Graceful SIGTERM: fall into the KeyboardInterrupt path, which drains
    # in-flight requests before the process exits.
    def _on_sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _on_sigterm)

    if args.workers > 0:
        from repro.serving.scaleout import ScaleOutServer

        try:
            server = ScaleOutServer(
                args.artifact,
                workers=args.workers,
                host=args.host,
                port=args.port,
                cache_size=args.cache_size,
                max_body_bytes=args.max_body_bytes,
                access_log=access_log,
                index=args.index,
                nprobe=args.nprobe,
            )
        except (FileNotFoundError, ValueError, RuntimeError) as exc:
            parser.error(str(exc))
        summary = ", ".join(
            f"{k}={v}" for k, v in server.artifact_summary().items()
        )
        print(f"serving {summary}")
        print(f"listening on {server.url}  "
              f"(POST /predict, GET /healthz, GET /metrics, "
              f"POST /admin/reload; workers={args.workers})")
        server.serve_forever()
        return 0

    try:
        artifact = ModelArtifact.load(args.artifact)
    except (FileNotFoundError, ValueError) as exc:
        parser.error(str(exc))
    try:
        server = PredictionServer(
            artifact,
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            cache_size=args.cache_size,
            max_body_bytes=args.max_body_bytes,
            access_log=access_log,
            index=args.index,
            nprobe=args.nprobe,
            lazy_init=args.lazy_init,
        )
    except ValueError as exc:  # e.g. --index on a non-retrieval formulation
        parser.error(str(exc))
    summary = ", ".join(f"{k}={v}" for k, v in artifact.summary().items())
    print(f"serving {summary}")
    print(f"listening on {server.url}  "
          f"(POST /predict, GET /healthz, GET /metrics)")
    server.serve_forever()
    return 0
