"""A fixed reference workload that tracks how fast the host runs right now.

    python e2ebench/reference.py

Times nine blocks, each two rounds of ten 200×200 numpy matmuls and a
50 000-step Python loop — about the training loop's mix — after one
untimed round, and prints the median block time in milliseconds, so a
single hiccup does not move it.  ``train_job.py`` runs it as a fresh
interpreter next to every ``run_pipeline`` call, so nothing the program
under test does to its own process (BLAS threads, allocator, GC settings)
can reach it.
"""

import statistics
import time

import numpy as np

MATRIX = np.random.default_rng(0).random((200, 200))
BLOCKS = 9


def rounds(count: int) -> None:
    for _ in range(count):
        for _ in range(10):
            MATRIX @ MATRIX
        total = 0
        for i in range(50_000):
            total += i


def block_ms() -> float:
    started = time.perf_counter()
    rounds(2)
    return (time.perf_counter() - started) * 1000.0


if __name__ == "__main__":
    rounds(1)
    print(statistics.median(block_ms() for _ in range(BLOCKS)))
