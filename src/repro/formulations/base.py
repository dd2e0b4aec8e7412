"""The Formulation protocol and registry (survey Phase 1 as a plug point).

The survey treats *graph formulation* — what becomes a node — as a design
axis alongside construction, representation and training.  This module
makes that axis first-class: each formulation implements

* :meth:`Formulation.fit` — run phases 1+2 on a dataset and freeze the
  result as a :class:`FittedFormulation`;
* :meth:`FittedFormulation.build_model` — instantiate the architecture the
  formulation trains (and that serving rebuilds for weight loading);
* :meth:`FittedFormulation.artifact_payload` /
  :meth:`Formulation.from_payload` — the formulation-specific serve-time
  state (retrieval pool, value-node vocabularies, …) as flat arrays plus
  JSON-safe meta, persisted inside a :class:`repro.serving.ModelArtifact`;
* :meth:`FittedFormulation.make_scorer` — the serve-time scoring strategy
  (:class:`RowScorer`) the :class:`repro.serving.InferenceEngine` drives.

``repro.pipeline.run_pipeline`` and the serving stack dispatch purely
through the registry, so registering a new formulation requires **no**
edits to either — implement the protocol, call :func:`register`.
"""

from __future__ import annotations

import abc
import functools
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import nn
from repro.datasets.preprocessing import TabularPreprocessor
from repro.datasets.tabular import TabularDataset
from repro.obs.tracing import NULL_CONTEXT, Tracer


def _timed_score(inner):
    """Wrap a scorer's ``score`` in a ``"score"`` tracing span.

    Applied once per concrete scorer class by
    :meth:`RowScorer.__init_subclass__`, so *every* formulation — current
    and future plug-ins — gets its scorer boundary timed for free; the
    finer stages (encode / attach / plan_execute) are the formulation's
    own :meth:`RowScorer.stage` calls nested inside this span.
    """

    @functools.wraps(inner)
    def score(self, numerical, categorical):
        tracer = self._tracer
        # Stage spans record only inside a sampled request — when the
        # engine opened a root span on this thread.  Unsampled requests
        # skip all span machinery (the < 5% overhead budget).
        if tracer is None or tracer.current() is None:
            return inner(self, numerical, categorical)
        with tracer.span("score"):
            return inner(self, numerical, categorical)

    score._obs_timed = True
    return score


class RowScorer(abc.ABC):
    """Serve-time scoring strategy produced by a fitted formulation.

    ``incremental`` reports whether the scorer propagates only query rows
    against cached pool-side state (as opposed to rebuilding a full graph
    per request).  Scorers receive *validated* raw row arrays (the engine
    runs ``preprocessor.normalize_rows`` first) and return logits.

    Every built-in scorer has two paths: the compiled plan
    (:meth:`compile_plan`, the default) and, with ``incremental=False``,
    the full-graph autograd oracle, for which :meth:`compile_plan`
    returns ``None``.  A plug-in that does not override
    :meth:`compile_plan` serves through its own ``score``.

    Observability: the engine binds its :class:`~repro.obs.Tracer` via
    :meth:`bind_tracer` after construction; on requests the engine samples
    for tracing, ``score`` is automatically timed as the ``"score"``
    stage, and implementations wrap their internal phases in
    ``with self.stage("encode"): ...`` — a no-op (reusable null context)
    when no tracer is bound or the request is unsampled, so scorers stay
    usable without any observability wiring.
    """

    incremental: bool = False
    #: class-level default — unbound scorers trace nothing
    _tracer: Optional[Tracer] = None
    #: compiled plan executor (see :mod:`repro.serving.compiled`); ``None``
    #: means ``score`` runs its autograd path
    _compiled = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fn = cls.__dict__.get("score")
        if fn is not None and not getattr(fn, "_obs_timed", False):
            cls.score = _timed_score(fn)

    def bind_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach the engine's tracer; stages recorded from now on."""
        self._tracer = tracer

    def stage(self, name: str):
        """Context manager timing one internal stage.

        A reusable no-op when no tracer is bound *or* the current request
        was not sampled for tracing (no open span on this thread).
        """
        tracer = self._tracer
        if tracer is None or tracer.current() is None:
            return NULL_CONTEXT
        return tracer.span(name)

    def compile_plan(self):
        """Lower this scorer's query path to a compiled plan executor.

        Returns an executor (object with a ``.plan`` and a ``run``
        method the scorer's ``score`` knows how to feed) or ``None`` when
        no plan applies.  The default returns ``None``, so plug-in
        formulations serve through their own ``score`` without any extra
        work.  Built-in scorers return ``None`` only for the full-graph
        oracle; a lowering that fails raises.
        """
        return None

    def enable_compiled(self) -> bool:
        """Build the compiled plan once; report whether scoring uses it."""
        if self._compiled is None:
            self._compiled = self.compile_plan()
        return self._compiled is not None

    @abc.abstractmethod
    def score(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        """Logits ``(B, out_dim)`` for a batch of raw rows."""


class FittedFormulation(abc.ABC):
    """Frozen phases-1+2 state: graph, preprocessing, hyperparameters.

    Lives on both sides of the artifact boundary: :meth:`Formulation.fit`
    builds one from a dataset (training), :meth:`Formulation.from_payload`
    rebuilds one from deserialized artifact arrays (serving).
    """

    #: registry name; class attribute set by each implementation
    name: str = ""
    #: whether this formulation's fitted state can serve unseen rows
    servable: bool = True

    def __init__(
        self,
        config: Dict[str, object],
        preprocessor: Optional[TabularPreprocessor],
    ) -> None:
        self.config = dict(config)
        self.preprocessor = preprocessor

    # -- pipeline side --------------------------------------------------
    @abc.abstractmethod
    def build_model(self, rng, graph=None) -> nn.Module:
        """Instantiate the architecture this formulation trains/serves.

        ``graph`` optionally overrides the construction graph (the serving
        engine's full-graph oracle path builds on an induced graph).
        """

    def forward_fn(self, model: nn.Module) -> Callable[[], object]:
        """Zero-argument transductive forward over the training table."""
        return model

    def logits(self, model: nn.Module) -> np.ndarray:
        """Eval-mode transductive logits over the training table."""
        model.eval()
        return self.forward_fn(model)().data

    @property
    def aux_features(self) -> Optional[np.ndarray]:
        """Node-feature matrix for reconstruction-style auxiliary tasks."""
        return None

    @property
    def features(self) -> Optional[np.ndarray]:
        """Transductive feature matrix, when the formulation keeps one."""
        return None

    # -- serving side ---------------------------------------------------
    @property
    def model_builder(self) -> str:
        """Architecture-builder name recorded as the artifact's ``network``."""
        raise NotImplementedError

    @property
    def pool_rows(self) -> Optional[int]:
        """Rows in the frozen serving pool, if the formulation has one."""
        return None

    def artifact_payload(
        self,
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """(arrays, json-safe meta) for the artifact's formulation state."""
        raise NotImplementedError(
            f"formulation {self.name!r} does not export serving artifacts"
        )

    def make_scorer(self, artifact, incremental: Optional[bool], stats: Dict[str, int]) -> RowScorer:
        """Build the scorer the inference engine delegates requests to.

        ``incremental=None`` lets the formulation pick its best path;
        explicit ``True``/``False`` must be honored or rejected with a
        ``ValueError``.  ``stats`` is the engine's counter dict — scorers
        may add their own counters (e.g. ``unk_values``).
        """
        raise NotImplementedError(
            f"formulation {self.name!r} does not support serving"
        )


class Formulation(abc.ABC):
    """One leaf of the formulation axis: a name plus fit/rehydrate logic."""

    name: str = ""
    fitted_cls: type = FittedFormulation

    @property
    def servable(self) -> bool:
        return bool(self.fitted_cls.servable)

    @abc.abstractmethod
    def fit(
        self,
        dataset: TabularDataset,
        train_mask: Optional[np.ndarray],
        config: Dict[str, object],
    ) -> FittedFormulation:
        """Run phases 1+2 (formulation + construction) and freeze the result."""

    def from_payload(
        self,
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, object],
        config: Dict[str, object],
        preprocessor: Optional[TabularPreprocessor],
    ) -> FittedFormulation:
        """Rehydrate a fitted formulation from artifact payload state."""
        return self.fitted_cls.from_payload(arrays, meta, config, preprocessor)


_REGISTRY: Dict[str, Formulation] = {}


def register(formulation: Formulation) -> Formulation:
    """Add a formulation to the registry; names must be unique."""
    if not formulation.name:
        raise ValueError("formulation must define a non-empty name")
    if formulation.name in _REGISTRY:
        raise ValueError(f"formulation {formulation.name!r} already registered")
    _REGISTRY[formulation.name] = formulation
    return formulation


def unregister(name: str) -> None:
    """Remove a registered formulation (tests / plug-in teardown)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> Formulation:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown formulation {name!r}; choose from {available()}"
        )
    return _REGISTRY[name]


def available() -> Tuple[str, ...]:
    """Registered formulation names, in registration order."""
    return tuple(_REGISTRY)


def servable() -> Tuple[str, ...]:
    """Names of formulations whose artifacts can serve unseen rows."""
    return tuple(n for n, f in _REGISTRY.items() if f.servable)
