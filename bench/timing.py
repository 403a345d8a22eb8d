"""Solve time counted in reference loops: passes cut into segments, a reference timed between.

The build machine's speed swings by up to 2x over tens of seconds, on both
cores at once and on CPU time as much as on wall time, so seconds measured in
one run say more about the machine than about the program. A segment's time
divided by the mean of the reference timings on either side of it is the same
work in units of reference loops, which cancels the swing. See README.md.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

SEGMENT_S = 0.02  # a segment holds consecutive items that ran at least this long in the warm-up
REF_EVERY_S = 0.1  # a boundary next to a segment of t seconds times about t / REF_EVERY_S loops,
REF_REPEAT_MAX = 10  # but at most this many


def python_loop() -> int:
    """Fixed pure-Python work (integer arithmetic, dict, list and tuple traffic) of a few ms."""
    total, table, recent = 0, {}, []
    for i in range(8000):
        total += i * i % 7
        table[i & 255] = total
        recent.append((i, total))
        if len(recent) > 64:
            recent.clear()
    return total


def numpy_loop() -> Callable[[], Any]:
    """Fixed numpy work over an array larger than the CPU's private caches, a few ms.

    Numpy over big arrays slows with memory traffic, which a pure-Python loop
    does not track, so the numpy-bound workload is measured against this.
    """
    import numpy as np

    values = np.arange(300_000, dtype=float)
    return lambda: float((np.sin(values) * 2.0 + values).sum())


REFERENCES: dict[str, Callable[[], Callable[[], Any]]] = {
    "python": lambda: python_loop,
    "numpy": numpy_loop,
}


@dataclass
class Pass:
    """One pass over the items: each segment's wall time, and the reference timings around them."""

    seconds: list[float]
    refs: list[float]  # one before the first segment and one after each

    def ratios(self) -> list[float]:
        return [t / ((a + b) / 2) for t, a, b in zip(self.seconds, self.refs, self.refs[1:])]


@dataclass
class Plan:
    """How every timed pass is cut: the item count at each segment's end, how many
    reference loops are timed at each boundary (before the first segment, then after
    each), and the reference loop itself."""

    ends: list[int]
    repeats: list[int]
    loop: Callable[[], Any]

    @classmethod
    def per_item(cls, items: int, reference: str) -> Plan:
        return cls(list(range(1, items + 1)), [1] * (items + 1), REFERENCES[reference]())

    @classmethod
    def from_warm_up(cls, item_seconds: list[float], reference: str) -> Plan:
        """Segments of at least SEGMENT_S. A boundary next to a long segment times more
        reference loops, so that a long segment is not divided by one timing of a few ms,
        which is itself noisy from one millisecond to the next."""
        ends, lengths, pending = [], [], 0.0
        for k, seconds in enumerate(item_seconds, 1):
            pending += seconds
            if pending >= SEGMENT_S:
                ends.append(k)
                lengths.append(pending)
                pending = 0.0
        if pending and ends:
            ends[-1] = len(item_seconds)
            lengths[-1] += pending
        if not ends:
            ends, lengths = [len(item_seconds)], [pending]
        per = [max(1, min(REF_REPEAT_MAX, round(t / REF_EVERY_S))) for t in lengths]
        repeats = [max(pair) for pair in zip([per[0], *per], [*per, per[-1]])]
        return cls(ends, repeats, REFERENCES[reference]())

    def time_reference(self, repeat: int) -> float:
        """Mean seconds of `repeat` consecutive reference loops."""
        start = time.perf_counter()
        for _ in range(repeat):
            self.loop()
        return (time.perf_counter() - start) / repeat


def in_references(passes: list[Pass]) -> float:
    """Per segment the median over passes of its time in reference loops, summed over segments."""
    return sum(statistics.median(column) for column in zip(*(p.ratios() for p in passes)))
