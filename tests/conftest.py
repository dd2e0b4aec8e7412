"""Shared fixtures for the serving tests."""

import threading

import pytest


class EngineGate:
    """Holds an engine's ``predict_batch`` calls until :meth:`release`.

    The micro-batcher flushes as soon as its consumer thread is free, so
    rows stay in flight only while the engine is busy.  Gating the engine
    makes that deterministic: the first batch enters and blocks
    (:attr:`entered` is set), later rows queue behind it, and
    :attr:`batch_sizes` records every call's row count.
    """

    def __init__(self, engine) -> None:
        self.entered = threading.Event()
        self.batch_sizes = []
        self._open = threading.Event()
        inner = engine.predict_batch

        def gated(numerical, categorical=None):
            self.batch_sizes.append(len(numerical))
            self.entered.set()
            self._open.wait(timeout=30.0)
            return inner(numerical, categorical)

        engine.predict_batch = gated

    def release(self) -> None:
        self._open.set()


@pytest.fixture
def gate():
    """``gate(engine)`` installs an :class:`EngineGate` on ``engine``; every
    gate is released at teardown so no consumer thread is left blocked."""
    gates = []

    def install(engine) -> EngineGate:
        gates.append(EngineGate(engine))
        return gates[-1]

    yield install
    for installed in gates:
        installed.release()
