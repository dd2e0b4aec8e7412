"""Closed-loop HTTP load generator.

Each connection is one client that sends its next request only after the
previous reply arrived (a closed loop), so a slow server receives less
load rather than building a queue.  Requests are raw pre-encoded HTTP/1.1
bytes sent over a plain socket; a connection is reused while the server
keeps it alive and re-opened when the server closes it, and every open is
counted.  A request's latency runs from just before its first byte is
sent (including any connect) to the last byte of its reply.

The transport is a parameter, so the loop's accounting can be tested
against a fake connection driven by a fake clock.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Callable, List, NamedTuple, Optional, Tuple


class Sample(NamedTuple):
    index: int
    start: float
    end: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.end - self.start


class LoadResult(NamedTuple):
    samples: List[Sample]
    connects: int

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def window(self) -> float:
        """Seconds from the first send to the last reply."""
        if not self.samples:
            return 0.0
        return max(s.end for s in self.samples) - min(s.start for s in self.samples)

    def latencies_ms(self) -> List[float]:
        return [s.latency * 1000.0 for s in self.samples]


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


class HttpConnection:
    """One client connection; reconnects after the server closes it."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.address = (host, port)
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self.connects = 0
        self._buf = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self._buf = b""

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection mid-reply")
        return chunk

    def request(self, data: bytes) -> Tuple[int, bytes]:
        if self.sock is None:
            self.sock = socket.create_connection(self.address, self.timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connects += 1
        self.sock.sendall(data)
        buf = self._buf
        while b"\r\n\r\n" not in buf:
            buf += self._recv()
        head, _, buf = buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        version, status = lines[0].split(" ", 2)[:2]
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length = int(headers.get("content-length", 0))
        while len(buf) < length:
            buf += self._recv()
        body, self._buf = buf[:length], buf[length:]
        keep_alive = (
            headers.get("connection") == "keep-alive"
            if version == "HTTP/1.0"
            else headers.get("connection") != "close"
        )
        if not keep_alive:
            self.close()
        return int(status), body


def closed_loop(
    connect: Callable[[], HttpConnection],
    make_request: Callable[[int], bytes],
    connections: int,
    seconds: float,
    start_index: int = 0,
    clock: Callable[[], float] = time.perf_counter,
) -> LoadResult:
    """Run ``connections`` closed-loop clients for ``seconds``.

    Request ``i`` (a global, shared sequence starting at ``start_index``)
    is built by ``make_request(i)`` before its timer starts.  A client
    stops sending once the deadline has passed; replies in flight are
    awaited and counted.  A request that fails on the wire or returns an
    unparseable reply is recorded with status 0 and its connection is
    re-opened.
    """
    counter = itertools.count(start_index)
    deadline = clock() + seconds
    per_client: List[List[Sample]] = [[] for _ in range(connections)]
    conns = [connect() for _ in range(connections)]

    def client(slot: int) -> None:
        conn, out = conns[slot], per_client[slot]
        while clock() < deadline:
            index = next(counter)
            data = make_request(index)
            started = clock()
            try:
                status, body = conn.request(data)
            except (OSError, ValueError, IndexError):
                conn.close()
                status, body = 0, b""
            out.append(Sample(index, started, clock(), status, body))
        conn.close()

    threads = [
        threading.Thread(target=client, args=(slot,), daemon=True)
        for slot in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = sorted(itertools.chain.from_iterable(per_client),
                     key=lambda s: s.index)
    return LoadResult(samples, sum(c.connects for c in conns))
