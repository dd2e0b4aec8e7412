"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the survey's tables or figures as a
*measured* artifact.  Regenerated tables are printed and also written to
``benchmarks/results/<name>.txt`` so the output survives pytest's capture.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Sequence

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record_table(
    name: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: str = "",
) -> str:
    """Format, print and persist a regenerated table."""
    rows = [list(map(_fmt, row)) for row in rows]
    widths = [
        max(len(str(header[i])), *(len(r[i]) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines += ["", note]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
