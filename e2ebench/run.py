"""The repository's benchmark: one workload, one seed, one JSON result.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``hot-single`` and
``cold-batch16`` (serving, :mod:`serving`) and ``train-fraud``
(training, :mod:`training`).  ``--trace 0`` prints every end-to-end
metric named in ``BENCHMARK.json``; ``--trace 1`` prints every per-layer
metric (0 where the workload does not cross that layer).  The last line
of standard output is the result; the line before it holds the host
fingerprint, the run settings, the succeeded count, the host's CPU steal
time during the measurement and the workload-shape checks.  Scratch files go to ``.e2ebench/`` in the checkout.  A run whose
replies or shape checks fail prints ``"correct": false`` and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("hot-single", "cold-batch16", "train-fraud")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PYTHONHASHSEED")


def host_fingerprint() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    for section, info in np.show_config(mode="dicts").get(
            "Build Dependencies", {}).items():
        if section in ("blas", "lapack"):
            blas[section] = {k: info.get(k) for k in ("name", "version")}
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _declared(root: Path, section: str) -> dict:
    """Metric name → unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("e2ebench: run from the root of a repository checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    declared = _declared(root, "per_layer" if args.trace else "end_to_end")

    src = str(root / "src")
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    workdir = root / ".e2ebench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)

    try:
        if args.workload == "train-fraud":
            import training

            result, details = training.run(
                args.seed, args.seconds, bool(args.trace), workdir, env)
        else:
            import serving

            result, details = serving.run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                workdir, env)
    except Exception:
        print(f"e2ebench: run failed; logs kept in {workdir}", file=sys.stderr)
        raise

    computed = result["metrics"]
    unknown = sorted(set(computed) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(computed))
    if not args.trace and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # Per-layer metrics of layers this workload does not cross read 0.
    result["metrics"] = {
        name: {"value": float(computed.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    print(json.dumps({
        "host": host_fingerprint(),
        "settings": {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace},
        "succeeded": result["attempted"] - result["failed"],
        **details,
    }))
    print(json.dumps(result))
    if result["correct"]:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's files are still there
            pass
        return 0
    print(f"e2ebench: checks failed; logs kept in {workdir}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
