"""Span probes around each layer's public functions.

Installed only in traced runs, in the process under test (the serving CLI
launched through ``traced_server.py``, or the training job), by replacing
module and class attributes with recording wrappers.  Nothing in the
program is edited; untraced runs import none of this.

Span names are ``<layer module>.<function>``; the per-layer metrics in
``BENCHMARK.json`` are computed from them in :mod:`serving` and
:mod:`training`.
"""

from __future__ import annotations

import json
import types

from spans import SpanRecorder


def _json_proxy(recorder: SpanRecorder) -> types.SimpleNamespace:
    """A stand-in for the ``json`` module whose loads/dumps record spans."""
    loads, dumps = json.loads, json.dumps
    span = recorder.span

    def traced_loads(*args, **kwargs):
        with span("json.decode"):
            return loads(*args, **kwargs)

    def traced_dumps(*args, **kwargs):
        with span("json.encode"):
            return dumps(*args, **kwargs)

    return types.SimpleNamespace(
        loads=traced_loads, dumps=traced_dumps,
        JSONDecodeError=json.JSONDecodeError,
    )


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def install_serving(recorder: SpanRecorder) -> None:
    """Probe the serving stack: server, batcher, engine, scorers, plans."""
    from repro import formulations  # noqa: F401  (registers every scorer)
    from repro.construction.retrieval import PoolIndex
    from repro.datasets.preprocessing import TabularPreprocessor
    from repro.formulations.base import RowScorer
    from repro.serving import artifact, batching, engine, server
    from repro.serving.compiled.plan import InferencePlan
    from repro.serving.scaleout import worker

    wrap = recorder.wrap
    wrap(server, "execute_predict", "serving.execute_predict")
    wrap(server.PredictionServer, "_record_request", "serving.server.access_log")
    wrap(batching.MicroBatcher, "submit", "serving.batching.submit")
    wrap(engine.InferenceEngine, "predict", "serving.engine.predict")
    wrap(engine.InferenceEngine, "predict_batch", "serving.engine.predict")
    wrap(TabularPreprocessor, "normalize_rows",
         "datasets.preprocessing.normalize_rows")
    wrap(TabularPreprocessor, "transform", "datasets.preprocessing.transform")
    wrap(PoolIndex, "top_k", "construction.retrieval.top_k")
    wrap(InferencePlan, "run", "serving.compiled.plan_run")
    wrap(artifact.ModelArtifact, "load", "serving.artifact.load")
    for cls in _all_subclasses(RowScorer):
        if "score" in cls.__dict__:
            wrap(cls, "score", "formulations.score")

    ensure = InferencePlan.ensure

    def counted_ensure(plan, batch):
        before = plan.reallocations
        ensure(plan, batch)
        if plan.reallocations != before:
            recorder.count("serving.compiled.reallocs")

    InferencePlan.ensure = counted_ensure

    proxy = _json_proxy(recorder)
    server.json = proxy
    worker.json = proxy


def install_training(recorder: SpanRecorder) -> None:
    """Probe the training loop: forward, backward, optimizer, validation."""
    from repro.nn import optim
    from repro.tensor.autograd import Tensor
    from repro.training.trainer import Trainer

    recorder.wrap(Tensor, "backward", "training.backward")
    recorder.wrap(optim.Optimizer, "zero_grad", "training.optim")
    for cls in (optim.Optimizer, *_all_subclasses(optim.Optimizer)):
        if "step" in cls.__dict__:
            recorder.wrap(cls, "step", "training.optim")

    fit = Trainer.fit
    span = recorder.span

    def traced_fit(self, loss_fn, val_score_fn=None, scheduler=None):
        def forward():
            with span("training.forward"):
                return loss_fn()

        def validate():
            with span("training.val"):
                return val_score_fn()

        return fit(self, forward,
                   validate if val_score_fn is not None else None, scheduler)

    Trainer.fit = traced_fit
