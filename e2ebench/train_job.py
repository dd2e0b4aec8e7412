"""The process under test of the ``train-fraud`` workload.

    python e2ebench/train_job.py --seed N [--seconds S] [--setup-only] [--trace]

Imports the library and generates ``make_fraud(n=2000)`` from the seed,
then prints ``ready`` (the end of set-up).  Unless ``--setup-only``, it
warms every formulation up on a 200-row table, then runs
``run_pipeline`` for all five formulations at 30 epochs, repeats that
pass while less than ``S`` seconds have gone by, and prints one JSON line
with per-formulation results and its own peak RSS.

The host's CPU speed drifts by up to a quarter over tens of seconds when
other tenants load it — more than a longer run can average away.  So a
fixed reference workload (``reference.py``, a fresh interpreter each time,
which the program under test cannot influence) runs before the first and
after every ``run_pipeline`` call, and each call's timings are scaled by
the paired ratio ``REFERENCE_NOMINAL_MS / mean(reference before, after)``:
they read as they would at the nominal host speed.  Unscaled times are
kept in the output (``raw_train_s``, ``runs``).

``--trace`` installs the training probes (:mod:`probes`) and adds
per-epoch forward/backward/optimizer/validation times per formulation,
scaled by the same per-call ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import SpanRecorder  # noqa: E402

FORMULATIONS = ("instance", "feature", "multiplex", "hetero", "hypergraph")
EPOCHS = 30
DATASET_ROWS = 2000
PHASES = ("forward", "backward", "optim", "val")
#: The reference's median time on the 2-core host the bounds in
#: BENCHMARK.json were measured on.
REFERENCE_NOMINAL_MS = 14.5
REFERENCE_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")


def _reference_ms() -> float:
    """What ``reference.py`` measures, in a fresh single-threaded
    interpreter: BLAS threads waking on a busy host would add noise."""
    env = dict(os.environ, **dict.fromkeys(REFERENCE_THREAD_VARS, "1"))
    done = subprocess.run([sys.executable, os.path.join(HERE, "reference.py")],
                          stdout=subprocess.PIPE, env=env, check=True)
    return float(done.stdout)


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _phase_ms(records, trace: int, phase: str) -> float:
    """Total ms in outermost ``training.<phase>`` spans of one call."""
    name = f"training.{phase}"
    return 1000.0 * sum(
        r.duration for r in records
        if r.trace == trace and r.name == name and r.parent != name
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.datasets import make_fraud
    from repro.obs import MetricsRegistry
    from repro.pipeline import run_pipeline

    dataset = make_fraud(n=DATASET_ROWS, seed=args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        import probes

        recorder = SpanRecorder()
        probes.install_training(recorder)

    # Lazy imports and first-call set-up inside the library are paid here,
    # on a tiny table, so that no formulation's timing carries them.
    warm = make_fraud(n=200, seed=args.seed)
    for formulation in FORMULATIONS:
        run_pipeline(warm, formulation=formulation, max_epochs=2, seed=args.seed)
    if recorder is not None:
        recorder.clear()

    reference_ms = [_reference_ms()]
    calls = {f: [] for f in FORMULATIONS}
    started = time.perf_counter()
    while True:
        for formulation in FORMULATIONS:
            registry = MetricsRegistry()
            span = (recorder.span(f"training.{formulation}")
                    if recorder is not None else contextlib.nullcontext())
            t0 = time.perf_counter()
            with span as traced:
                result = run_pipeline(dataset, formulation=formulation,
                                      max_epochs=EPOCHS, seed=args.seed,
                                      registry=registry)
            wall_s = time.perf_counter() - t0
            reference_ms.append(_reference_ms())
            epoch_s = registry.get("repro_train_epoch_duration_seconds")
            calls[formulation].append({
                "wall_s": wall_s,
                "epoch_p50_ms": 1000.0 * epoch_s.quantile(0.5),
                "epoch_p90_ms": 1000.0 * epoch_s.quantile(0.9),
                # The paired ratio: this call against the reference runs
                # just before and just after it.
                "speed": REFERENCE_NOMINAL_MS / statistics.fmean(reference_ms[-2:]),
                "epochs": int(registry.get("repro_train_epochs_total").value),
                "test_acc": float(result.test_accuracy),
                "construction_s": float(result.phase_seconds["construction"]),
                "trace": traced.trace if recorder is not None else None,
            })
        if time.perf_counter() - started >= args.seconds:
            break

    def geomean(values) -> float:
        return math.exp(statistics.fmean(math.log(v) for v in values))

    def per_formulation(key: str, normalized: bool = True) -> dict:
        """Median over passes of ``key``, scaled to the nominal host speed."""
        return {
            f: statistics.median(
                c[key] * (c["speed"] if normalized else 1.0) for c in runs)
            for f, runs in calls.items()
        }

    wall_s = per_formulation("wall_s")
    out = {
        "passes": len(calls[FORMULATIONS[0]]),
        "train_rows": int(round(0.6 * DATASET_ROWS)),
        "wall_s": wall_s,
        "train_s": geomean(wall_s.values()),
        "raw_train_s": geomean(per_formulation("wall_s", False).values()),
        "epoch_p50_ms": geomean(per_formulation("epoch_p50_ms").values()),
        "epoch_p90_ms": geomean(per_formulation("epoch_p90_ms").values()),
        "reference_ms": reference_ms,
        "runs": calls,
        "rss_mb": _peak_rss_mb(),
    }
    if recorder is not None:
        records = recorder.records()
        out["phases_ms"] = {
            f: {phase: sum(_phase_ms(records, c["trace"], phase) * c["speed"]
                           for c in runs)
                for phase in PHASES}
            for f, runs in calls.items()
        }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
