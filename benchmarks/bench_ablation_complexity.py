"""Ablation — empirical operator complexity from size sweeps.

Fits a power law (log-log regression) to each operator's simulated CPU
time across input sizes and checks the exponents match the
implementation's intent: scans and hash joins linear, sorts ~n log n,
nested-loop joins quadratic.  The technique itself — estimate empirical
complexity from a sweep instead of asserting it — is standard database
evaluation practice.
"""

from repro.core import fit_power_law
from repro.db import EngineConfig
from repro.workloads import (
    join_microbenchmark,
    select_microbenchmark,
    sort_microbenchmark,
)

SIZES = (8_000, 16_000, 32_000, 64_000)


def hot_user_seconds(bench) -> float:
    bench.run()  # warm
    start = bench.engine.clock.sample()
    bench.run()
    return (bench.engine.clock.sample() - start).user


def sweep():
    scan_times = [hot_user_seconds(select_microbenchmark(n, 0.5, seed=3))
                  for n in SIZES]
    sort_times = [hot_user_seconds(sort_microbenchmark(n, seed=3))
                  for n in SIZES]
    hash_times = [hot_user_seconds(join_microbenchmark(n, n // 4, seed=3))
                  for n in SIZES]
    nl_times = [hot_user_seconds(join_microbenchmark(
        n, n // 4, seed=3,
        config=EngineConfig.untuned(optimizer="naive",
                                    buffer_pages=8192)))
        for n in SIZES]
    return {
        "selection scan": fit_power_law(SIZES, scan_times),
        "sort": fit_power_law(SIZES, sort_times),
        "hash join": fit_power_law(SIZES, hash_times),
        "nested-loop join": fit_power_law(SIZES, nl_times),
    }


def test_ablation_operator_complexity(benchmark, report):
    fits = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Ablation: empirical operator complexity (power-law fits)"]
    for name, fit in fits.items():
        lines.append(f"  {name:<18} {fit.format()}")
    report("\n".join(lines))
    assert abs(fits["selection scan"].exponent - 1.0) < 0.15
    assert abs(fits["hash join"].exponent - 1.0) < 0.15
    assert 1.0 < fits["sort"].exponent < 1.35       # n log n
    assert abs(fits["nested-loop join"].exponent - 2.0) < 0.2
    for fit in fits.values():
        assert fit.r_squared > 0.98
