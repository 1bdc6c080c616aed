"""Calibrated time: latencies scaled to the speed of a calm machine.

Other tenants of the benchmark machine slow it by up to 2.5x, in phases
that last from a fraction of a second to minutes; a run cannot outlast
them.  So a repetition times a fixed chunk of interpreter work before the
first D and after every D, and each D's latency is scaled by how long the
chunk took around it:

    calibrated = latency * REFERENCE_S / mean(chunk before, chunk after)

REFERENCE_S is the chunk's time on the reference machine when nothing
else ran (see perfbench/README.md), so a calibrated time reads as seconds
on that machine.  The chunk uses only the standard library (Fraction and
int arithmetic, as the library's hot loops do), so no change to wcurves
changes it, while a slower or faster wcurves moves every calibrated time
in proportion.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.000412
CHUNK_TERMS = 150
SETUP_CHUNKS = 5


def chunk_s() -> float:
    """Time one fixed chunk of Fraction and int arithmetic."""
    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, CHUNK_TERMS):
        s += Fraction(i % 97 + 1, i * 7 + 3)
    return time.perf_counter() - t


def scaled(seconds: float, chunk: float) -> float:
    """A time taken while the chunk took ``chunk`` seconds, at reference speed."""
    return seconds * REFERENCE_S / chunk


def setup_chunk_s() -> float:
    """Median chunk time, taken just after set-up, to scale the set-up time."""
    return statistics.median(chunk_s() for _ in range(SETUP_CHUNKS))


def calibrated(latencies: list[float], chunks: list[float]) -> list[float]:
    """Scale each latency by the mean of the chunk times just before and after it."""
    if len(chunks) != len(latencies) + 1:
        raise ValueError(f"{len(latencies)} latencies need {len(latencies) + 1} chunk times, "
                         f"got {len(chunks)}")
    return [scaled(lat, (before + after) / 2)
            for lat, before, after in zip(latencies, chunks, chunks[1:])]
