"""E19 — the metric catalogue: throughput, speed-up, scale-up (slide 22).

Exercises the three comparison metrics on MiniDB:

- **throughput**: queries per (simulated) second of a small query mix;
- **speed-up**: hash join vs nested-loop join on the same data;
- **scale-up**: growing the data k-fold — MiniDB's scan-dominated
  micro-benchmark scales near-linearly, so scale-up stays close to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import scaleup, speedup, throughput
from repro.db import Engine, EngineConfig
from repro.workloads import (
    generate_tpch,
    join_microbenchmark,
    select_microbenchmark,
    tpch_query,
)


@dataclass(frozen=True)
class E19Result:
    queries_per_second: float
    join_speedup: float
    scaleup_factor: float

    def format(self) -> str:
        return "\n".join([
            "E19: metrics (slide 22)",
            f"throughput       : {self.queries_per_second:8.1f} "
            "queries/simulated-second (Q6 mix, hot)",
            f"speed-up         : {self.join_speedup:8.1f}x "
            "(hash join over nested-loop join)",
            f"scale-up         : {self.scaleup_factor:8.2f} "
            "(4x data, ideal = 1.0)",
        ])


def run_e19(sf: float = 0.005, seed: int = 42) -> E19Result:
    # Throughput: how many hot Q6 runs fit in simulated time.
    engine = Engine(generate_tpch(sf=sf, seed=seed), EngineConfig())
    engine.execute(tpch_query(6))  # warm
    start = engine.clock.now
    n_queries = 20
    for __ in range(n_queries):
        engine.execute(tpch_query(6))
    elapsed = engine.clock.now - start
    qps = throughput(n_queries, elapsed)

    # Speed-up: identical join micro-benchmark, two algorithms.
    tuned = join_microbenchmark(20_000, 2_000, seed=seed)
    untuned = join_microbenchmark(
        20_000, 2_000, seed=seed,
        config=EngineConfig.untuned(optimizer="naive", buffer_pages=4096))
    for bench in (tuned, untuned):
        bench.run()  # warm
    t_hash = _timed(tuned)
    t_nl = _timed(untuned)
    join_speedup = speedup(t_nl, t_hash)

    # Scale-up: 4x rows on a selection micro-benchmark.
    base = select_microbenchmark(10_000, 0.1, seed=seed)
    scaled = select_microbenchmark(40_000, 0.1, seed=seed)
    for bench in (base, scaled):
        bench.run()
    factor = scaleup(1.0, _timed(base), 4.0, _timed(scaled))
    return E19Result(queries_per_second=qps, join_speedup=join_speedup,
                     scaleup_factor=factor)


def _timed(bench) -> float:
    start = bench.engine.clock.now
    bench.run()
    return bench.engine.clock.now - start
