"""Run the serving CLI with span probes around each layer.

    python e2ebench/traced_server.py SPAN_DIR [repro.serving CLI args...]

Behaves exactly like ``python -m repro.serving [args...]`` except that
the probes of :mod:`probes` record spans in this process and in the
scale-out workers it forks (they inherit the probes and the handlers):

* spans from start-up are kept as the ``boot`` set, and a forked
  worker keeps the ``compile_ms``/``index_build_ms`` it reports to the
  front door (``engine_meta``);
* ``SIGUSR1`` starts the measured window (later spans form the
  ``window`` set);
* ``SIGUSR2`` writes both sets to ``SPAN_DIR/spans-<pid>.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probes  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def main() -> int:
    span_dir, cli_args = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    probes.install_serving(recorder)
    boot = []
    engine_meta = {}

    def start_window(signum, frame) -> None:
        boot[:] = recorder.records()
        recorder.clear()

    def dump(signum, frame) -> None:
        payload = {
            "pid": os.getpid(),
            "boot": [list(r) for r in boot],
            "window": [list(r) for r in recorder.records()],
            "counts": dict(recorder.counts),
            "engine_meta": engine_meta,
        }
        recorder.clear()
        path = os.path.join(span_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(payload, fh)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, start_window)
    signal.signal(signal.SIGUSR2, dump)

    from repro.serving.scaleout import worker

    worker_boot = worker._boot

    def forked_worker_boot(*args, **kwargs):
        # Spans the front door recorded before the fork are not this
        # worker's: start its boot set empty.
        recorder.clear()
        registry, engine, meta = worker_boot(*args, **kwargs)
        # The worker's own set-up figures, which the fleet's /healthz
        # does not pass on.
        engine_meta.update((k, meta[k]) for k in ("compile_ms", "index_build_ms"))
        return registry, engine, meta

    worker._boot = forked_worker_boot

    from repro.serving.server import main as serve

    return serve(cli_args)


if __name__ == "__main__":
    raise SystemExit(main())
