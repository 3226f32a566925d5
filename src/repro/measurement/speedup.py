"""Noise-aware speedup analysis (Touati et al., arXiv:0902.1035).

The tutorial's cautionary tales are mostly about noise mistaken for
signal: a benchmark gate that compares two single numbers will flake on
a flat-but-noisy trajectory and wave through a real regression that
happens to land on a lucky sample.  This module implements the
*Speedup-Test* style of analysis over full sample arrays:

- :func:`protocol_estimate` — the two defensible single-number
  summaries of a timing sample: ``min`` (best observable, right when
  noise is strictly additive) and ``median`` (robust central tendency,
  right when noise is bidirectional);
- :func:`bootstrap_speedup_ci` — a percentile-bootstrap confidence
  interval for the speedup ratio, seeded so reruns are reproducible;
- :func:`significant_regression` — the gate verdict: a regression must
  be *statistically significant* (two-sided Mann-Whitney U at level
  ``alpha``) **and** practically large (the protocol estimate slower
  by more than ``min_effect``) before it fails a build.

Everything operates on plain sequences of seconds, so the functions
serve both the simulated-time experiments and the wall-clock
benchmark-regression gate (``scripts/bench_gate.py``), whose samples
are per-process medians of a same-runner A/B comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from repro.errors import MeasurementError
from repro.measurement.stats import ConfidenceInterval

#: Supported single-number protocols for summarising a timing sample.
PROTOCOLS: Tuple[str, ...] = ("min", "median")

#: Bootstrap resamples; enough for stable 95% percentile endpoints.
DEFAULT_BOOTSTRAP = 2000


def _as_sample(values: Sequence[float], who: str) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise MeasurementError(f"{who}: empty sample")
    if not np.all(np.isfinite(arr)):
        raise MeasurementError(f"{who}: non-finite values in sample")
    if np.any(arr <= 0.0):
        raise MeasurementError(f"{who}: timings must be positive")
    return arr


def protocol_estimate(values: Sequence[float],
                      protocol: str = "median") -> float:
    """Single-number summary of a timing sample under a protocol.

    ``min`` is the min-of-k estimator (noise can only add time);
    ``median`` is the order-statistic median (robust to outliers in
    both directions).  Means are deliberately not offered — one swapped
    page ruins them.
    """
    arr = _as_sample(values, "protocol_estimate")
    if protocol == "min":
        return float(arr.min())
    if protocol == "median":
        return float(np.sort(arr)[arr.size // 2]
                     if arr.size % 2 else np.median(arr))
    raise MeasurementError(
        f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")


def speedup(baseline: Sequence[float], candidate: Sequence[float],
            protocol: str = "median") -> float:
    """Speedup of *candidate* over *baseline* (>1 means faster)."""
    return (protocol_estimate(baseline, protocol)
            / protocol_estimate(candidate, protocol))


def bootstrap_speedup_ci(baseline: Sequence[float],
                         candidate: Sequence[float],
                         protocol: str = "median",
                         confidence: float = 0.95,
                         n_boot: int = DEFAULT_BOOTSTRAP,
                         seed: int = 0) -> ConfidenceInterval:
    """Percentile-bootstrap CI for the speedup ratio.

    Both samples are resampled with replacement *n_boot* times from a
    seeded generator; the interval is the matching percentile pair of
    the resampled ratios, so reruns with the same seed are identical.
    """
    base = _as_sample(baseline, "bootstrap_speedup_ci(baseline)")
    cand = _as_sample(candidate, "bootstrap_speedup_ci(candidate)")
    if not 0.0 < confidence < 1.0:
        raise MeasurementError(
            f"confidence must be in (0, 1), got {confidence}")
    point = speedup(base, cand, protocol)
    rng = np.random.default_rng(seed)
    ratios = np.empty(n_boot, dtype=float)
    for i in range(n_boot):
        b = rng.choice(base, size=base.size, replace=True)
        c = rng.choice(cand, size=cand.size, replace=True)
        ratios[i] = (protocol_estimate(b, protocol)
                     / protocol_estimate(c, protocol))
    tail = (1.0 - confidence) / 2.0 * 100.0
    low, high = np.percentile(ratios, [tail, 100.0 - tail])
    return ConfidenceInterval(mean=point, low=float(low),
                              high=float(high), confidence=confidence)


def _mannwhitney_p(baseline: np.ndarray, candidate: np.ndarray) -> float:
    """Two-sided Mann-Whitney U p-value; 1.0 when every value ties."""
    pooled = np.concatenate([baseline, candidate])
    if np.all(pooled == pooled[0]):
        return 1.0  # identical constants: no evidence of any difference
    __, p_value = _scipy_stats.mannwhitneyu(
        baseline, candidate, alternative="two-sided")
    return float(p_value)


@dataclass(frozen=True)
class SpeedupVerdict:
    """The gate's full reasoning for one baseline/candidate pair."""

    speedup: float              #: est(baseline) / est(candidate)
    ci: ConfidenceInterval      #: bootstrap CI of the speedup ratio
    p_value: float              #: two-sided Mann-Whitney U
    alpha: float                #: significance level the gate used
    min_effect: float           #: practical-significance threshold
    protocol: str               #: "min" or "median"
    regression: bool            #: True = fail the gate

    @property
    def slowdown_pct(self) -> float:
        """Percent slower the candidate's estimate is (negative =
        faster)."""
        return (1.0 / self.speedup - 1.0) * 100.0

    def format(self) -> str:
        verdict = "REGRESSION" if self.regression else "ok"
        return (f"{verdict}: speedup {self.speedup:.3f}x "
                f"[{self.ci.low:.3f}, {self.ci.high:.3f}] "
                f"({self.protocol}-of-k, p={self.p_value:.4f}, "
                f"alpha={self.alpha}, min_effect={self.min_effect:.0%})")


def significant_regression(baseline: Sequence[float],
                           candidate: Sequence[float],
                           alpha: float = 0.05,
                           min_effect: float = 0.05,
                           protocol: str = "median",
                           confidence: float = 0.95,
                           n_boot: int = DEFAULT_BOOTSTRAP,
                           seed: int = 0) -> SpeedupVerdict:
    """Is *candidate* a statistically significant slowdown vs *baseline*?

    Flags a regression only when BOTH hold:

    1. the two distributions differ at level *alpha* (two-sided
       Mann-Whitney U — distribution-free, so timing skew is fine);
    2. the protocol estimate of the candidate is more than
       *min_effect* slower than the baseline's (practical
       significance — a statistically detectable 0.1% shift should
       not fail a build).

    Identical samples therefore never flag, and on exchangeable noisy
    samples the false-positive rate is bounded by *alpha*.

    Raises :class:`~repro.errors.MeasurementError` when the sample
    sizes cannot reject at *alpha* at all: the smallest two-sided exact
    p-value, reached at complete separation, is ``2 / C(n_base +
    n_cand, n_base)``, so one baseline sample (or 3 per side at 0.05)
    would pass any slowdown.
    """
    base = _as_sample(baseline, "significant_regression(baseline)")
    cand = _as_sample(candidate, "significant_regression(candidate)")
    min_p = 2.0 / comb(base.size + cand.size, base.size)
    if min_p >= alpha:
        raise MeasurementError(
            f"significant_regression: {base.size} vs {cand.size} "
            f"samples cannot reject at alpha={alpha} (smallest "
            f"two-sided p is {min_p:.4f})")
    ratio = speedup(base, cand, protocol)
    ci = bootstrap_speedup_ci(base, cand, protocol=protocol,
                              confidence=confidence, n_boot=n_boot,
                              seed=seed)
    p_value = _mannwhitney_p(base, cand)
    slower = (protocol_estimate(cand, protocol)
              > protocol_estimate(base, protocol) * (1.0 + min_effect))
    return SpeedupVerdict(speedup=ratio, ci=ci, p_value=p_value,
                          alpha=alpha, min_effect=min_effect,
                          protocol=protocol,
                          regression=bool(p_value < alpha and slower))
