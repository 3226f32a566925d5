"""Metric arithmetic: the name grammar, the tail-percentile sample rule
and the result line the benchmark prints last."""

from __future__ import annotations

import json
import math
import re
import statistics
from typing import Dict, Sequence, Tuple

#: Metric names: a letter or digit, then at most 63 of ``[A-Za-z0-9_.-]``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: at most 16 of ``[A-Za-z0-9_/%.-]``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

Metrics = Dict[str, Tuple[float, str]]


def check_name(name: str) -> str:
    """Return *name* if it follows the metric-name grammar, else raise."""
    if not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def samples_needed(pct: float) -> int:
    """Fewest samples for which *pct* has :data:`MIN_BEYOND` beyond it."""
    return math.ceil(MIN_BEYOND / (1.0 - pct / 100.0) - 1e-9)


def tail_percentile(samples: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile of *samples* (linear interpolation).

    Refuses (``ValueError``) unless at least :data:`MIN_BEYOND` samples
    lie beyond it, i.e. ``floor(n * (1 - pct/100)) >= MIN_BEYOND``.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    n = len(samples)
    beyond = math.floor(n * (1.0 - pct / 100.0) + 1e-9)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} needs {samples_needed(pct)} samples "
            f"({MIN_BEYOND} beyond it), got {n}")
    ordered = sorted(samples)
    rank = (n - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Metrics) -> str:
    """The JSON object the benchmark prints as its last line."""
    body = {}
    for name, (value, unit) in metrics.items():
        if not UNIT_RE.fullmatch(unit):
            raise ValueError(f"bad unit {unit!r} for {name}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        body[check_name(name)] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": body})
