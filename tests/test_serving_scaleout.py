"""Tests for the multi-process scale-out serving subsystem.

Covers each layer in isolation — the frame protocol, the memory-mapped
``.npz`` loader, cross-process metrics merging — and then the integrated
deployment: a real :class:`~repro.serving.scaleout.ScaleOutServer` with
forked workers behind a live socket, exercised for wire parity with the
single-process oracle, fleet health/metrics aggregation, worker-death
resilience, and the zero-downtime hot swap under concurrent load.
"""

import http.client
import json
import pathlib
import socket
import threading

import numpy as np
import pytest

from repro.datasets import make_correlated_instances
from repro.obs import MetricsRegistry, merge_snapshots, render_snapshot_prometheus
from repro.pipeline import run_pipeline
from repro.serving import InferenceEngine, ModelArtifact, PredictionServer
from repro.serving.npz_mmap import load_npz_mmap
from repro.serving.scaleout import ScaleOutServer
from repro.serving.scaleout.protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame,
    recv_frame,
    send_frame,
)


# ----------------------------------------------------------------------
# protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "predict", "id": 7}, b"payload-bytes")
            header, body = recv_frame(b)
            assert header == {"op": "predict", "id": 7}
            assert body == b"payload-bytes"
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"op": "x"}, b"12345")
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            b.close()

    def test_decoder_handles_byte_at_a_time_feeds(self):
        frames = (
            encode_frame({"id": 1}, b"first")
            + encode_frame({"id": 2}, b"")
            + encode_frame({"id": 3}, b"third")
        )
        decoder = FrameDecoder()
        seen = []
        for i in range(len(frames)):
            decoder.feed(frames[i:i + 1])
            seen.extend(decoder.frames())
        assert [h["id"] for h, _ in seen] == [1, 2, 3]
        assert [b for _, b in seen] == [b"first", b"", b"third"]

    def test_decoder_rejects_absurd_declared_length(self):
        decoder = FrameDecoder()
        decoder.feed(b"\xff\xff\xff\xff\xff\xff\xff\xff")
        with pytest.raises(ProtocolError):
            list(decoder.frames())

    def test_oversized_frame_refused_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame({"op": "x"}, b"\0" * ((1 << 28) + 1))


# ----------------------------------------------------------------------
# memory-mapped npz loading
# ----------------------------------------------------------------------
class TestNpzMmap:
    def test_parity_and_mmapness(self, tmp_path):
        path = tmp_path / "arrays.npz"
        rng = np.random.default_rng(0)
        saved = {
            "floats": rng.normal(size=(13, 7)),
            "fortran": np.asfortranarray(rng.normal(size=(5, 9))),
            "ints": rng.integers(0, 100, size=(4, 3)).astype(np.int64),
            "empty": np.zeros((0, 4)),
            "scalarish": np.float64(3.5),
        }
        np.savez(path, **saved)
        loaded = load_npz_mmap(path)
        reference = np.load(path)
        assert set(loaded) == set(reference.files)
        for key in reference.files:
            np.testing.assert_array_equal(
                np.asarray(loaded[key]), reference[key]
            )
            assert not loaded[key].flags.writeable
        # Non-empty, non-object members are true memmaps (shared pages).
        assert isinstance(loaded["floats"], np.memmap)
        assert isinstance(loaded["ints"], np.memmap)
        assert loaded["fortran"].flags.f_contiguous

    def test_writes_raise(self, tmp_path):
        path = tmp_path / "ro.npz"
        np.savez(path, x=np.arange(6.0))
        loaded = load_npz_mmap(path)
        with pytest.raises((ValueError, RuntimeError)):
            loaded["x"][0] = 99.0


# ----------------------------------------------------------------------
# cross-process metrics merging
# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def _registry(self, count, gauge, latencies):
        registry = MetricsRegistry()
        counter = registry.counter("m_total", "d", labelnames=("k",))
        counter.labels(k="a").inc(count)
        registry.gauge("m_rate", "d").set(gauge)
        hist = registry.histogram("m_lat", "d")
        for value in latencies:
            hist.observe(value)
        return registry

    def test_counters_and_histograms_sum_gauges_tag(self):
        r0 = self._registry(3, 0.5, [0.01, 0.02])
        r1 = self._registry(4, 0.25, [0.03])
        merged = merge_snapshots(
            [r0.snapshot(), r1.snapshot()],
            gauge_labels=[{"worker": "0"}, {"worker": "1"}],
        )
        counter = merged["m_total"]["values"][0]
        assert counter["labels"] == {"k": "a"}
        assert counter["value"] == 7.0
        hist = merged["m_lat"]["values"][0]
        assert hist["count"] == 3.0
        assert hist["sum"] == pytest.approx(0.06)
        gauges = {
            series["labels"]["worker"]: series["value"]
            for series in merged["m_rate"]["values"]
        }
        assert gauges == {"0": 0.5, "1": 0.25}

    def test_render_roundtrips_to_exposition(self):
        r0 = self._registry(2, 1.0, [0.01])
        merged = merge_snapshots([r0.snapshot()], gauge_labels=[{"worker": "0"}])
        text = render_snapshot_prometheus(merged)
        assert '# TYPE m_total counter' in text
        assert 'm_total{k="a"} 2' in text
        assert 'm_rate{worker="0"} 1' in text
        assert "m_lat_count 1" in text
        assert 'm_lat_bucket{le="+Inf"} 1' in text

    def test_gauge_labels_must_align(self):
        with pytest.raises(ValueError):
            merge_snapshots([{}, {}], gauge_labels=[{"worker": "0"}])


# ----------------------------------------------------------------------
# integrated deployment
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def artifact_paths(tmp_path_factory):
    """Two compatible instance artifacts (different weights) on disk."""
    tmp = tmp_path_factory.mktemp("scaleout")
    paths = []
    for seed in (0, 1):
        result = run_pipeline(make_correlated_instances(n=120, seed=seed))
        paths.append(
            pathlib.Path(result.export_artifact().save(tmp / f"model{seed}"))
        )
    return paths


@pytest.fixture(scope="module")
def probe_rows():
    rng = np.random.default_rng(7)
    return [rng.normal(size=16).round(3).tolist() for _ in range(6)]


def _http(server, method, path, body=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _oracle_probs(path, rows, mmap_mode=None):
    engine = InferenceEngine(ModelArtifact.load(path, mmap_mode=mmap_mode))
    return [
        engine.predict(np.asarray(row)).round(6).tolist() for row in rows
    ]


class TestArtifactMmapLoad:
    def test_mmap_load_matches_eager_and_records_identity(
        self, artifact_paths, probe_rows
    ):
        path = artifact_paths[0]
        eager = ModelArtifact.load(path)
        mapped = ModelArtifact.load(path, mmap_mode="r")
        assert mapped.mmap_mode == "r"
        assert eager.mmap_mode is None
        assert mapped.content_sha == eager.content_sha
        assert len(mapped.content_sha) == 64
        assert str(mapped.source_path) == str(path)
        assert _oracle_probs(path, probe_rows) == _oracle_probs(
            path, probe_rows, mmap_mode="r"
        )

    def test_bad_mmap_mode_rejected(self, artifact_paths):
        with pytest.raises(ValueError):
            ModelArtifact.load(artifact_paths[0], mmap_mode="r+")


@pytest.fixture()
def scaleout(artifact_paths):
    server = ScaleOutServer(
        str(artifact_paths[0]), workers=2, port=0, boot_timeout=120.0
    )
    server.start()
    try:
        yield server
    finally:
        server.shutdown()


class TestScaleOutE2E:
    def test_predict_matches_single_process_oracle(
        self, scaleout, artifact_paths, probe_rows
    ):
        oracle = _oracle_probs(artifact_paths[0], probe_rows)
        for row, expected in zip(probe_rows, oracle):
            status, body = _http(
                scaleout, "POST", "/predict",
                json.dumps({"numerical": row}).encode(),
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["rows"] == 1
            assert payload["probabilities"][0] == expected
        # Batch request: same rows in one body, same answers.
        status, body = _http(
            scaleout, "POST", "/predict",
            json.dumps({"rows": [{"numerical": r} for r in probe_rows]}).encode(),
        )
        assert status == 200
        assert json.loads(body)["probabilities"] == oracle

    def test_error_paths_match_single_process_contract(self, scaleout):
        status, body = _http(scaleout, "POST", "/predict", b"{not json")
        assert status == 400
        assert "invalid JSON" in json.loads(body)["error"]
        status, body = _http(
            scaleout, "POST", "/predict",
            json.dumps({"numerical": [0.0] * 3}).encode(),
        )
        assert status == 400
        status, body = _http(
            scaleout, "POST", "/predict",
            json.dumps({"numerical": [0.1] * 16, "categorical": [3.5]}).encode(),
        )
        assert status == 400
        assert "categorical" in json.loads(body)["error"]
        status, body = _http(scaleout, "GET", "/nope")
        assert status == 404

    def test_healthz_reports_fleet(self, scaleout, artifact_paths):
        expected_sha = ModelArtifact.load(artifact_paths[0]).content_sha
        # Prime some traffic so engine counters are non-zero.
        _http(scaleout, "POST", "/predict",
              json.dumps({"numerical": [0.1] * 16}).encode())
        status, body = _http(scaleout, "GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["artifact_generation"] == 1
        assert health["artifact_sha"] == expected_sha
        assert health["mmapped"] is True
        assert health["formulation"] == "instance"
        assert health["engine"]["rows"] >= 1
        assert len(health["workers_detail"]) == 2
        pids = {w["pid"] for w in health["workers_detail"]}
        assert len(pids) == 2  # really two processes

    def test_metrics_merges_worker_registries(self, scaleout):
        _http(scaleout, "POST", "/predict",
              json.dumps({"numerical": [0.2] * 16}).encode())
        status, body = _http(scaleout, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        # Front-door HTTP metrics and merged worker metrics in one scrape.
        assert "repro_http_requests_total" in text
        assert "repro_frontdoor_workers 2" in text
        assert 'worker="' in text
        assert "repro_engine_artifact_generation" in text
        assert "repro_worker_requests_total" in text

    def test_worker_death_degrades_without_dropping_service(self, scaleout):
        victim = scaleout._workers[0]
        victim.proc.terminate()
        victim.proc.join(timeout=10)
        deadline = 50
        while deadline:
            status, body = _http(scaleout, "GET", "/healthz")
            if json.loads(body)["workers"] == 1:
                break
            deadline -= 1
            threading.Event().wait(0.1)
        assert json.loads(body)["workers"] == 1
        status, body = _http(
            scaleout, "POST", "/predict",
            json.dumps({"numerical": [0.3] * 16}).encode(),
        )
        assert status == 200


class TestHotSwapUnderLoad:
    def test_no_request_lost_and_new_artifact_serves(
        self, artifact_paths, probe_rows
    ):
        old_path, new_path = artifact_paths
        server = ScaleOutServer(str(old_path), workers=2, port=0)
        server.start()
        try:
            stop = threading.Event()
            results = []
            results_lock = threading.Lock()

            def hammer():
                body = json.dumps({"numerical": [0.15] * 16}).encode()
                while not stop.is_set():
                    try:
                        status, payload = _http(server, "POST", "/predict", body)
                    except OSError as exc:
                        with results_lock:
                            results.append(("exc", repr(exc)))
                        continue
                    with results_lock:
                        results.append((status, payload))

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                status, body = _http(
                    server, "POST", "/admin/reload",
                    json.dumps({"artifact": str(new_path)}).encode(),
                )
            finally:
                # Let post-swap traffic flow briefly, then stop.
                threading.Event().wait(0.5)
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert status == 200
            reload_info = json.loads(body)
            assert reload_info["artifact_generation"] == 2

            # Zero lost requests: every hammered request got a well-formed
            # 200 — no 5xx, no connection resets, nothing hung.
            assert results, "hammer threads made no requests"
            bad = [r for r in results if r[0] != 200]
            assert not bad, f"non-200 responses during hot swap: {bad[:5]}"
            for _status, payload in results:
                assert json.loads(payload)["rows"] == 1

            # The fleet now serves the new artifact: generation and sha
            # bumped, predictions match the new artifact's oracle exactly
            # (same 6-decimal rounding ⇒ parity well under 1e-8).
            status, body = _http(server, "GET", "/healthz")
            health = json.loads(body)
            assert health["artifact_generation"] == 2
            assert health["artifact_sha"] == ModelArtifact.load(
                new_path
            ).content_sha
            assert health["workers"] == 2
            oracle = _oracle_probs(new_path, probe_rows)
            for row, expected in zip(probe_rows, oracle):
                status, body = _http(
                    server, "POST", "/predict",
                    json.dumps({"numerical": row}).encode(),
                )
                assert status == 200
                assert json.loads(body)["probabilities"][0] == expected
        finally:
            server.shutdown()

    def test_reload_missing_artifact_keeps_old_fleet(self, artifact_paths):
        server = ScaleOutServer(str(artifact_paths[0]), workers=1, port=0)
        server.start()
        try:
            status, body = _http(
                server, "POST", "/admin/reload",
                json.dumps({"artifact": "/nonexistent/model.npz"}).encode(),
            )
            assert status == 400
            status, body = _http(
                server, "POST", "/predict",
                json.dumps({"numerical": [0.1] * 16}).encode(),
            )
            assert status == 200
            status, body = _http(server, "GET", "/healthz")
            assert json.loads(body)["artifact_generation"] == 1
        finally:
            server.shutdown()
