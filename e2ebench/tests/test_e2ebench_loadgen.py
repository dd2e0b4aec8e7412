"""The load generator against stub servers with a known fixed delay."""

import http.server
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from loadgen import HttpConnection, closed_loop, http_request  # noqa: E402

DELAY = 1 / 64      # binary fractions keep the fake clock's sums exact
STALL = 1 / 4
STALLED = 10


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeConnection:
    """Answers after DELAY of fake time; request STALLED waits STALL more."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock
        self.connects = 1

    def request(self, data: bytes):
        index = int(data)
        self.clock.now += DELAY + (STALL if index == STALLED else 0.0)
        return 200, b"ok"

    def close(self) -> None:
        pass


def test_fake_clock_p50_is_the_delay_and_the_stall_is_charged_to_its_request():
    clock = FakeClock()
    result = closed_loop(lambda: FakeConnection(clock), lambda i: str(i).encode(),
                         connections=1, seconds=1.0, clock=clock)
    latencies = {s.index: s.latency for s in result.samples}
    assert np.percentile(result.latencies_ms(), 50) == DELAY * 1000.0
    assert latencies[STALLED] == DELAY + STALL
    assert all(v == DELAY for i, v in latencies.items() if i != STALLED)
    # A closed loop sends nothing while it waits: the stall costs exactly
    # STALL / DELAY requests out of the 1 s window.
    assert result.attempted == round((1.0 - STALL) / DELAY)
    assert result.window == 1.0


class _StubHandler(http.server.BaseHTTPRequestHandler):
    # Headers and body go out in two writes; without this, Nagle's
    # algorithm holds the body for the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.server.delay)
        if body == b"stall":
            time.sleep(self.server.stall)
        reply = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


@pytest.mark.parametrize("protocol", ["HTTP/1.1", "HTTP/1.0"])
def test_stub_server_fixed_delay(protocol):
    delay, stall, stalled = 0.05, 0.3, 5
    handler = type("Handler", (_StubHandler,), {"protocol_version": protocol})
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.delay, server.stall = delay, stall
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        def make(i):
            return http_request("POST", "/", b"stall" if i == stalled else b"go")

        result = closed_loop(
            lambda: HttpConnection("127.0.0.1", server.server_address[1]),
            make, connections=1, seconds=1.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(s.status == 200 and s.body == b'{"ok": true}' for s in result.samples)
    # Only lower bounds and ordering: how much a loaded host adds on top
    # varies, and the fake-clock test above checks exact equality.
    assert [s.index for s in result.samples] == list(range(result.attempted))
    assert result.attempted > stalled
    assert all(s.latency >= delay for s in result.samples)
    assert result.samples[stalled].latency >= delay + stall
    # One closed-loop client: nothing is sent while the stall is pending.
    assert all(a.end <= b.start for a, b in zip(result.samples, result.samples[1:]))
    assert result.attempted <= (1.0 - stall) / delay + 2
    # Keep-alive is honoured when offered; an HTTP/1.0 server closes.
    expected_connects = 1 if protocol == "HTTP/1.1" else result.attempted
    assert result.connects == expected_connects
