"""CSI: find out where the time goes — and why (tutorial part 1).

"Research: always question what you see!" (slide 47).  A MiniDB query
looks slow; this script works the tutorial's analysis toolbox:

1. EXPLAIN — what plan is actually running?
2. PROFILE/TRACE — which phase and which operator eat the time?
3. engine statistics + hardware counters — is it CPU or I/O?
4. a size sweep with a power-law fit — what's the empirical complexity?
5. act on the findings (create an index / fix the join) and re-measure.

Run with::

    python examples/csi_analysis.py
"""

import numpy as np

from repro.core import fit_power_law
from repro.db import Database, DataType, Engine, EngineConfig, Table


def make_db(n_rows=50_000, n_ref=5_000):
    rng = np.random.default_rng(11)
    db = Database()
    db.create_table(Table.from_columns(
        "events",
        [("event_id", DataType.INT64), ("user_id", DataType.INT64),
         ("amount", DataType.FLOAT64)],
        {"event_id": np.arange(n_rows, dtype=np.int64),
         "user_id": rng.integers(0, n_ref, n_rows),
         "amount": rng.uniform(0, 100, n_rows)}))
    db.create_table(Table.from_columns(
        "users",
        [("uid", DataType.INT64), ("segment", DataType.STRING)],
        {"uid": np.arange(n_ref, dtype=np.int64),
         "segment": [f"S{i % 5}" for i in range(n_ref)]}))
    return db


SQL = ("SELECT segment, SUM(amount) AS total FROM events "
       "JOIN users ON user_id = uid WHERE event_id = 12345 "
       "GROUP BY segment")


def main():
    # The "slow" configuration: an untuned engine.
    engine = Engine(make_db(), EngineConfig.untuned(optimizer="naive",
                                                    buffer_pages=4096))

    print("step 1 — EXPLAIN: what plan runs?")
    print(engine.explain(SQL))

    print("\nstep 2 — PROFILE: where does the time go?")
    engine.execute(SQL)  # warm
    __, profile = engine.profile(SQL)
    print(profile.format())
    dominant = profile.dominant_operator()
    print(f"\n  dominant operator: {dominant.operator} "
          f"({dominant.self_ms:.1f} ms)")

    print("\nstep 3 — statistics: CPU or I/O?")
    stats = engine.statistics()
    print(f"  simulated user {stats['simulated_user_s'] * 1000:.1f} ms vs "
          f"system {stats['simulated_system_s'] * 1000:.1f} ms; "
          f"buffer hit rate {stats['buffer_hit_rate']:.0%}")

    print("\nstep 4 — empirical complexity of the suspicious join:")
    sizes = (4_000, 8_000, 16_000, 32_000)
    times = []
    for n in sizes:
        # Grow BOTH join inputs, or the sweep only sees one linear side.
        probe = Engine(make_db(n_rows=n, n_ref=n // 10),
                       EngineConfig.untuned(optimizer="naive",
                                            buffer_pages=4096))
        probe.execute(SQL)
        start = probe.clock.sample()
        probe.execute(SQL)
        times.append((probe.clock.sample() - start).user)
    fit = fit_power_law(sizes, times)
    print(f"  {fit.format()}")
    print("  -> a quadratic join: the plan, not the hardware, is guilty")

    print("\nstep 5 — fix it (tuned planner + index) and re-measure:")
    fixed = Engine(make_db(), EngineConfig())
    fixed.create_index("events", "event_id")
    print(fixed.explain(SQL))
    fixed.execute(SQL)
    start = fixed.clock.sample()
    result = fixed.execute(SQL)
    fixed_ms = (fixed.clock.sample() - start).real * 1000.0
    __, slow_profile = engine.profile(SQL)
    print(f"\n  before: {slow_profile.total_ms:10.1f} ms (simulated)")
    print(f"  after : {fixed_ms:10.1f} ms "
          f"({slow_profile.total_ms / fixed_ms:.0f}x faster), "
          f"rows: {result.n_rows}")


if __name__ == "__main__":
    main()
