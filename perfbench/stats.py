"""The benchmark's own statistics: medians, quartiles, tail percentiles
and open-loop due-time accounting.

Kept free of any ``repro`` import so the tests in ``perfbench/tests``
exercise it without the program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only if at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0 - 1e-9))
    return float(ordered[rank - 1])


def tail_percentile(n: int, wanted: float = 99.0) -> Optional[float]:
    """The highest percentile, at most ``wanted``, that leaves at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples beyond it; None if even the
    median does not."""
    for pct in TAIL_LADDER:
        if pct > wanted:
            continue
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct
    return None


def tail(values: Sequence[float], wanted: float = 99.0
         ) -> Tuple[float, Optional[float]]:
    """(value, percentile) at :func:`tail_percentile`.  With too few
    samples for any percentile (fewer than 20), the median and None:
    the maximum of a handful of samples is one outlier, not a tail."""
    pct = tail_percentile(len(values), wanted)
    if pct is None:
        return median(values), None
    return percentile(values, pct), pct


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, tail and sample count of one metric's samples."""
    q1, q2, q3 = quartiles(values)
    value, pct = tail(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "tail": value, "tail_pct": pct if pct is not None else 50.0}


class DueTimeLog:
    """Open-loop accounting: every request is timed from when it was due.

    A generator that stalls sends late; timing from the *due* time, not
    the send time, charges that stall to every request it delayed, and
    the lateness itself is recorded so a run can be judged valid only
    while the generator kept up.
    """

    def __init__(self) -> None:
        self.latency_ms: List[float] = []
        self.late_ms: List[float] = []
        self._due: Dict[object, float] = {}

    def sent(self, key: object, due_s: float, sent_s: float) -> None:
        self._due[key] = due_s
        self.late_ms.append(max(0.0, sent_s - due_s) * 1000.0)

    def done(self, key: object, done_s: float) -> None:
        due = self._due.pop(key)
        self.latency_ms.append((done_s - due) * 1000.0)
