"""Processes under test: launch, stop, and what ``/proc`` says about them."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import threading
import time
from typing import Callable, Dict, List, Tuple

_TICK = os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as fh:
        data = fh.read()
    # The command name may hold spaces; fields restart after its ")".
    return data[data.rindex(")") + 2:].split()


def tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parents[int(entry)] = int(_stat_fields(int(entry))[1])
            except (OSError, ValueError, IndexError):
                continue
    found, frontier = [pid], [pid]
    while frontier:
        frontier = [child for child, ppid in parents.items() if ppid in frontier]
        found.extend(frontier)
    return found


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def pss_mb(pids: List[int]) -> float:
    """Sum of the proportional set sizes of ``pids``, in MiB.  A page that
    n of them share (copy-on-write after fork, a shared mapping) counts
    1/n in each, so the tree's shared memory is counted once."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


class Sampler:
    """Context manager that calls ``read()`` on entry, every ``interval``
    seconds on a thread, and on exit; ``samples`` holds
    ``(time.perf_counter(), value)`` pairs in time order."""

    def __init__(self, read: Callable[[], object], interval: float) -> None:
        self.read = read
        self.interval = interval
        self.samples: List[Tuple[float, object]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped,
                                        daemon=True)

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(), self.read()))

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._stop.set()
        self._thread.join()
        self._sample()
        return False


def host_cpu_ticks() -> Tuple[int, int]:
    """(all, steal) CPU ticks of the host since boot, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def steal_pct(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of CPU time the hypervisor gave to others between two reads."""
    total = after[0] - before[0]
    return 100.0 * (after[1] - before[1]) / total if total else 0.0


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] not in ("Z", "X")
    except (OSError, IndexError):
        return False


def stop(proc: subprocess.Popen, pids: List[int], timeout: float = 20.0) -> None:
    """SIGTERM ``proc`` (a session leader), then kill whatever of its
    process group is left, and wait until every one of ``pids`` is gone."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in pids if pid != proc.pid):
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} outlived their server")
        time.sleep(0.01)
