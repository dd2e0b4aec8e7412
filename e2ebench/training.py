"""The ``train-fraud`` workload: five formulations trained from one seed.

Set-up (a fresh interpreter importing the library and generating the
dataset) is timed from launch to the job's ``ready`` line, five times;
the fifth launch goes on to train.  Training times, end-to-end and
per-layer alike, are scaled to the nominal host speed (``train_job.py``
explains the paired reference ratio), so a layer's gain and the
end-to-end gain can be compared.  Untraced runs report the end-to-end
metrics; traced runs repeat the untraced job (the baseline for
``trace.overhead_pct``) and then run a traced one for the per-layer
metrics.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import procs

HERE = Path(__file__).resolve().parent
BOOTS = 5
FORMULATIONS = ("instance", "feature", "multiplex", "hetero", "hypergraph")
EPOCHS = 30


def _launch(args: List[str], env: Dict[str, str], log: Path) -> Tuple[float, str]:
    """Run one job; (seconds from launch to ``ready``, last stdout line)."""
    cmd = [sys.executable, str(HERE / "train_job.py"), *args]
    with open(log, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - started
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
    if first.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"training job failed ({proc.returncode}); see {log}")
    lines = rest.decode().strip().splitlines()
    return ready_s, lines[-1] if lines else ""


def _checks(job: dict) -> List[str]:
    problems = []
    for formulation in FORMULATIONS:
        for run in job["runs"][formulation]:
            if run["epochs"] != EPOCHS:
                problems.append(
                    f"{formulation} ran {run['epochs']} epochs, not {EPOCHS}")
    return problems


def run(seed: int, seconds: float, trace: bool, workdir: Path,
        env: Dict[str, str]) -> Tuple[dict, dict]:
    log = workdir / "train.log"
    base = ["--seed", str(seed), "--seconds", str(seconds)]
    boots = [] if trace else [
        _launch(base + ["--setup-only"], env, log)[0] for _ in range(BOOTS - 1)
    ]
    ticks0 = procs.host_cpu_ticks()
    ready_s, line = _launch(base, env, log)
    steal = procs.steal_pct(ticks0, procs.host_cpu_ticks())
    boots.append(ready_s)
    job = json.loads(line)
    problems = _checks(job)
    runs = [r for f in FORMULATIONS for r in job["runs"][f]]
    details = {"boots_s": boots, "passes": job["passes"], "wall_s": job["wall_s"],
               "raw_train_s": job["raw_train_s"], "steal_pct": steal,
               "reference_ms": job["reference_ms"]}

    if not trace:
        metrics = {
            "setup_s": statistics.median(boots),
            "p50_ms": job["epoch_p50_ms"],
            "p90_ms": job["epoch_p90_ms"],
            "throughput_rows_s": job["train_rows"] * EPOCHS / job["train_s"],
            "rss_mb": job["rss_mb"],
            "test_acc": statistics.fmean(r["test_acc"] for r in runs),
        }
    else:
        _, traced_line = _launch(base + ["--trace"], env, log)
        traced = json.loads(traced_line)
        problems += _checks(traced)
        metrics = {
            "training.train_s": job["train_s"],
            "trace.overhead_pct": 100.0 * (traced["train_s"] - job["train_s"])
            / job["train_s"],
            "loadgen.attempted": len(runs),
            "loadgen.failed": 0,
        }
        for formulation in FORMULATIONS:
            done = traced["runs"][formulation]
            epochs = sum(r["epochs"] for r in done)
            prefix = f"training.{formulation}"
            metrics[f"{prefix}.construction_s"] = statistics.median(
                r["construction_s"] * r["speed"] for r in done)
            for phase, ms in traced["phases_ms"][formulation].items():
                metrics[f"{prefix}.{phase}_ms_per_epoch"] = ms / epochs
        runs += [r for f in FORMULATIONS for r in traced["runs"][f]]

    details["problems"] = problems
    result = {"correct": not problems, "attempted": len(runs), "failed": 0,
              "metrics": metrics}
    return result, details
