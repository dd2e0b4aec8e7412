"""HTTP error-path tests for :class:`~repro.serving.PredictionServer`.

A public prediction endpoint sees garbage: malformed JSON, rows with the
wrong arity, unknown routes, oversized bodies.  Each must come back as a
*structured* 4xx JSON error — never a 500, never a dead server — and the
server must keep answering healthy requests afterwards.  The suite runs
over a real socket (ephemeral port) against a hypergraph artifact, which
also pins the ``/healthz`` contract for the newly-servable formulation.
"""

import http.client
import json
import logging
import threading
import time

import numpy as np
import pytest

from repro.datasets import make_fraud
from repro.formulations import HypergraphFormulation
from repro.serving import ModelArtifact, PredictionServer
from repro.serving.artifact import ARTIFACT_SCHEMA_VERSION


@pytest.fixture(scope="module")
def dataset():
    return make_fraud(n=60, seed=3)


@pytest.fixture(scope="module")
def artifact(dataset):
    # Untrained weights: HTTP semantics don't depend on model quality.
    config = {
        "network": "hypergraph_gnn", "hidden_dim": 8, "out_dim": 2,
        "num_layers": 2, "task": dataset.task,
    }
    fitted = HypergraphFormulation().fit(dataset, None, config)
    model = fitted.build_model(np.random.default_rng(0))
    arrays, meta = fitted.artifact_payload()
    return ModelArtifact(
        formulation="hypergraph",
        network=fitted.model_builder,
        config=config,
        state_dict=model.state_dict(),
        preprocessor=fitted.preprocessor,
        payload_arrays=arrays,
        payload_meta=meta,
    )


@pytest.fixture(scope="module")
def server(artifact):
    with PredictionServer(artifact, port=0, max_body_bytes=4096) as srv:
        yield srv


def _request(server, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = json.loads(response.read().decode())
        return response.status, payload
    finally:
        conn.close()


def _request_raw(server, method, path):
    """Like ``_request`` but for non-JSON responses (``/metrics``)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode(),
        )
    finally:
        conn.close()


def _scrape(server):
    status, content_type, text = _request_raw(server, "GET", "/metrics")
    assert status == 200
    return text


def _sample_value(text, line_prefix):
    """Value of the unique exposition sample starting with ``line_prefix``."""
    matches = [
        line for line in text.splitlines()
        if line.startswith(line_prefix) and not line.startswith("#")
    ]
    assert len(matches) == 1, f"{line_prefix!r} matched {matches!r}"
    return float(matches[0].rsplit(" ", 1)[1])


def _good_row(dataset):
    return {
        "numerical": dataset.numerical[0].tolist(),
        "categorical": dataset.categorical[0].tolist(),
    }


class TestErrorPaths:
    def test_malformed_json_returns_400(self, server):
        status, payload = _request(server, "POST", "/predict", body="{not json")
        assert status == 400
        assert "invalid JSON" in payload["error"]

    def test_non_object_body_returns_400(self, server):
        status, payload = _request(server, "POST", "/predict", body="[1, 2, 3]")
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_wrong_numerical_arity_returns_400(self, server, dataset):
        row = {"numerical": [0.0] * (dataset.num_numerical + 2)}
        status, payload = _request(server, "POST", "/predict", body=json.dumps(row))
        assert status == 400
        assert "numerical columns" in payload["error"]

    def test_wrong_categorical_arity_returns_400(self, server, dataset):
        row = _good_row(dataset)
        row["categorical"] = row["categorical"] + [0, 0]
        status, payload = _request(server, "POST", "/predict", body=json.dumps(row))
        assert status == 400
        assert "categorical" in payload["error"]

    def test_non_integral_categorical_returns_400(self, server, dataset):
        # A fractional or non-finite code is rejected, never truncated.
        for bad in ([3.5, 0], [float("nan"), 0]):
            row = _good_row(dataset)
            row["categorical"] = bad
            for body in (row, {"rows": [_good_row(dataset), row]}):
                status, payload = _request(
                    server, "POST", "/predict", body=json.dumps(body)
                )
                assert status == 400, (bad, body)
                assert "categorical" in payload["error"]

    def test_missing_numerical_key_returns_400(self, server):
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps({"categorical": [1]})
        )
        assert status == 400
        assert "numerical" in payload["error"]

    def test_empty_and_ragged_batches_return_400(self, server, dataset):
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps({"rows": []})
        )
        assert status == 400 and "non-empty" in payload["error"]
        ragged = {"rows": [_good_row(dataset), {"numerical": [1.0]}]}
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps(ragged)
        )
        assert status == 400 and "error" in payload

    def test_unknown_route_returns_404(self, server):
        for method, path in (("GET", "/nope"), ("POST", "/nope"), ("GET", "/predict/x")):
            status, payload = _request(server, method, path)
            assert status == 404
            assert "unknown path" in payload["error"]

    def test_oversized_body_returns_413_without_reading_it(self, server, dataset):
        body = json.dumps({
            "numerical": dataset.numerical[0].tolist(),
            "padding": "x" * 10_000,  # well past max_body_bytes=4096
        })
        status, payload = _request(server, "POST", "/predict", body=body)
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_server_survives_the_error_barrage(self, server, dataset):
        # After every 4xx above the server still answers cleanly.
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps(_good_row(dataset))
        )
        assert status == 200
        assert payload["rows"] == 1
        assert abs(sum(payload["probabilities"][0]) - 1.0) < 1e-6


class TestHealthz:
    def test_healthz_reports_hypergraph_deployment(self, server, dataset):
        status, health = _request(server, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["formulation"] == "hypergraph"
        assert health["network"] == "hypergraph_gnn"
        assert health["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert health["incremental"] is True
        assert health["pool_rows"] == dataset.num_instances

    def test_health_alias_route(self, server):
        status, health = _request(server, "GET", "/health")
        assert status == 200 and health["formulation"] == "hypergraph"

    def test_healthz_snapshot_is_locked_and_consistent(self, server, dataset):
        _request(server, "POST", "/predict", body=json.dumps(_good_row(dataset)))
        status, health = _request(server, "GET", "/healthz")
        assert status == 200
        engine = health["engine"]
        # The locked engine snapshot: every scored row is accounted for by
        # exactly one of cache-hit or forward.
        assert engine["cache_hits"] + engine["forward_rows"] == engine["rows"]
        assert health["batcher"]["rows"] <= engine["rows"]
        assert health["server"]["rejected_oversize"] >= 0


class TestMetricsEndpoint:
    def test_metrics_exposes_request_and_stage_histograms(self, server, dataset):
        status, payload = _request(
            server, "POST", "/predict", body=json.dumps(_good_row(dataset))
        )
        assert status == 200
        text = _scrape(server)
        # Prometheus text exposition: typed families with HELP lines.
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_duration_seconds histogram" in text
        assert "# TYPE repro_request_duration_seconds histogram" in text
        assert "# TYPE repro_stage_duration_seconds histogram" in text
        # At least one predict flowed through: the engine-side request
        # histogram and every scorer stage observed it.
        assert _sample_value(
            text,
            'repro_request_duration_seconds_count'
            '{formulation="hypergraph",endpoint="predict_batch"}',
        ) >= 1
        # plan_execute replaces propagate: the server's engine defaults to
        # the compiled plan path.
        for stage in ("cache", "score", "encode", "attach", "plan_execute", "head"):
            assert _sample_value(
                text,
                f'repro_stage_duration_seconds_count'
                f'{{formulation="hypergraph",stage="{stage}"}}',
            ) >= 1, stage
        # Drift gauges are present and finite.
        for gauge in (
            "repro_engine_unk_rate", "repro_engine_cache_hit_rate",
            "repro_engine_attach_fanout", "repro_engine_cache_entries",
        ):
            assert np.isfinite(
                _sample_value(text, f'{gauge}{{formulation="hypergraph"}}')
            )
        # Batcher instrumentation rides the same registry.
        assert _sample_value(text, "repro_batcher_queue_depth") == 0
        assert _sample_value(text, "repro_batcher_in_flight") == 0
        assert "# TYPE repro_batcher_queue_wait_seconds histogram" in text

    def test_metrics_content_type_is_prometheus_text(self, server):
        status, content_type, _ = _request_raw(server, "GET", "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"

    def test_http_counters_track_status_and_path(self, server, dataset):
        before = _scrape(server)

        def count(text, path, status):
            prefix = (
                f'repro_http_requests_total{{method="POST",path="{path}",'
                f'status="{status}"}}'
            )
            try:
                return _sample_value(text, prefix)
            except AssertionError:
                return 0.0

        _request(server, "POST", "/predict", body=json.dumps(_good_row(dataset)))
        _request(server, "POST", "/predict", body="{not json")
        _request(server, "POST", "/definitely/not/a/route")
        after = _scrape(server)
        assert count(after, "/predict", 200) == count(before, "/predict", 200) + 1
        assert count(after, "/predict", 400) == count(before, "/predict", 400) + 1
        # Unknown paths collapse into one "other" series — scrape label
        # cardinality stays bounded no matter what clients probe.
        assert count(after, "other", 404) == count(before, "other", 404) + 1
        assert "/definitely/not/a/route" not in after

    def test_oversized_requests_increment_the_413_counter(self, server, dataset):
        before = _sample_value(_scrape(server), "repro_http_rejected_oversize_total")
        body = json.dumps({
            "numerical": dataset.numerical[0].tolist(),
            "padding": "x" * 10_000,
        })
        status, _ = _request(server, "POST", "/predict", body=body)
        assert status == 413
        after = _sample_value(_scrape(server), "repro_http_rejected_oversize_total")
        assert after == before + 1


class TestAccessLog:
    def test_structured_json_access_log_when_enabled(self, artifact, dataset):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        logger = logging.getLogger("repro.serving.access")
        handler = Capture(level=logging.INFO)
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with PredictionServer(artifact, port=0, access_log=True) as srv:
                _request(srv, "POST", "/predict", body=json.dumps(_good_row(dataset)))
                _request(srv, "GET", "/healthz")
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)

        entries = [json.loads(line) for line in records]
        assert len(entries) == 2
        predict, healthz = entries
        assert predict["method"] == "POST" and predict["path"] == "/predict"
        assert predict["status"] == 200 and predict["rows"] == 1
        assert predict["latency_ms"] >= 0
        assert healthz["method"] == "GET" and healthz["path"] == "/healthz"
        assert healthz["status"] == 200

    def test_access_log_is_off_by_default(self, artifact, dataset):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        logger = logging.getLogger("repro.serving.access")
        handler = Capture(level=logging.INFO)
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with PredictionServer(artifact, port=0) as srv:
                _request(srv, "POST", "/predict", body=json.dumps(_good_row(dataset)))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        assert records == []


class TestArtifactIdentity:
    def test_healthz_carries_generation_and_sha(self, server):
        status, health = _request(server, "GET", "/healthz")
        assert status == 200
        assert health["artifact_generation"] == 1
        # This module's artifact was built in memory (never load()ed), so
        # its content hash is unknown — the field must still be present.
        assert "artifact_sha" in health
        assert health["mmapped"] is False

    def test_generation_gauge_in_metrics(self, server):
        text = _scrape(server)
        assert _sample_value(text, "repro_engine_artifact_generation") == 1


class TestUnavailableStates:
    def test_predict_during_drain_returns_structured_503(self, artifact, dataset):
        with PredictionServer(artifact, port=0) as srv:
            srv._draining = True
            try:
                status, payload = _request(
                    srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
                )
            finally:
                srv._draining = False
            assert status == 503
            assert payload["status"] == "unavailable"
            assert payload["retriable"] is True
            assert "draining" in payload["error"]
            # Back out of the drain: the server still serves.
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 200

    def test_lazy_init_returns_503_until_engine_ready(
        self, artifact, dataset, monkeypatch
    ):
        import threading as _threading

        release = _threading.Event()
        original = PredictionServer._build_service

        def slow_build(self, art):
            release.wait(timeout=30)
            return original(self, art)

        monkeypatch.setattr(PredictionServer, "_build_service", slow_build)
        srv = PredictionServer(artifact, port=0, lazy_init=True)
        srv.start()
        try:
            # Socket is up before the engine exists; /predict answers 503
            # and /healthz reports the initializing state.
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 503
            assert payload["retriable"] is True
            status, health = _request(srv, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "initializing"
            release.set()
            assert srv.wait_ready(timeout=30)
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 200
        finally:
            release.set()
            srv.shutdown()

    def test_shutdown_flushes_in_flight_requests(self, artifact, dataset):
        srv = PredictionServer(artifact, port=0, max_delay_ms=50.0)
        srv.start()
        results = []
        lock = threading.Lock()

        def one_predict():
            try:
                status, payload = _request(
                    srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
                )
            except OSError as exc:
                status, payload = "exc", repr(exc)
            with lock:
                results.append((status, payload))

        threads = [threading.Thread(target=one_predict) for _ in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.02)  # let requests reach the batcher's delay window
        srv.shutdown()
        for thread in threads:
            thread.join(timeout=15)
        assert not any(thread.is_alive() for thread in threads)
        # Every request resolved: completed (200) or refused at the drain
        # gate (503) — never a closed-batcher 500, never a hang.
        assert results
        statuses = {status for status, _ in results}
        assert statuses <= {200, 503}
        assert 200 in statuses  # the in-flight ones actually completed


class TestHotReload:
    def test_reload_under_load_swaps_without_dropping(self, tmp_path):
        from repro.datasets import make_correlated_instances
        from repro.pipeline import run_pipeline
        from repro.serving import InferenceEngine

        path_a = run_pipeline(
            make_correlated_instances(n=120, seed=0)
        ).export_artifact().save(tmp_path / "a")
        path_b = run_pipeline(
            make_correlated_instances(n=120, seed=1)
        ).export_artifact().save(tmp_path / "b")
        srv = PredictionServer(ModelArtifact.load(path_a), port=0)
        srv.start()
        try:
            stop = threading.Event()
            results = []
            lock = threading.Lock()
            body = json.dumps({"numerical": [0.15] * 16})

            def hammer():
                while not stop.is_set():
                    try:
                        status, payload = _request(
                            srv, "POST", "/predict", body=body
                        )
                    except OSError as exc:
                        status, payload = "exc", repr(exc)
                    with lock:
                        results.append((status, payload))

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                status, reload_info = _request(
                    srv, "POST", "/admin/reload",
                    body=json.dumps({"artifact": str(path_b)}),
                )
            finally:
                time.sleep(0.3)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert status == 200
            assert reload_info["artifact_generation"] == 2
            assert results
            bad = [r for r in results if r[0] != 200]
            assert not bad, f"requests dropped during hot swap: {bad[:5]}"

            # Post-swap identity and parity with the new artifact's oracle.
            status, health = _request(srv, "GET", "/healthz")
            assert health["artifact_generation"] == 2
            assert health["artifact_sha"] == ModelArtifact.load(path_b).content_sha
            probe = np.asarray([0.15] * 16)
            expected = (
                InferenceEngine(ModelArtifact.load(path_b))
                .predict(probe).round(6).tolist()
            )
            status, payload = _request(srv, "POST", "/predict", body=body)
            assert status == 200
            assert payload["probabilities"][0] == expected
        finally:
            srv.shutdown()

    def test_concurrent_reload_conflicts_with_409(self, artifact):
        with PredictionServer(artifact, port=0) as srv:
            assert srv._reload_lock.acquire(blocking=False)
            try:
                status, payload = _request(srv, "POST", "/admin/reload", body="{}")
            finally:
                srv._reload_lock.release()
            assert status == 409
            assert "in progress" in payload["error"]

    def test_reload_bad_path_returns_400_and_keeps_serving(
        self, artifact, dataset
    ):
        with PredictionServer(artifact, port=0) as srv:
            status, payload = _request(
                srv, "POST", "/admin/reload",
                body=json.dumps({"artifact": "/nonexistent.npz"}),
            )
            assert status == 400
            status, payload = _request(
                srv, "POST", "/predict", body=json.dumps(_good_row(dataset))
            )
            assert status == 200

    def test_reload_without_source_returns_400(self, artifact):
        # This artifact was never load()ed from disk: no source_path.
        with PredictionServer(artifact, port=0) as srv:
            status, payload = _request(srv, "POST", "/admin/reload", body="{}")
            assert status == 400
            assert "source_path" in payload["error"] or "no artifact" in payload["error"]
