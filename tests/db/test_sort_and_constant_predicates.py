"""Regression tests for two wrong-answer defects.

- ``Sort`` built a DESC key by reversing a stable ascending sort, which
  also reversed the tie order the less significant keys had set:
  ``ORDER BY a DESC, b`` came out as ``a DESC, b DESC``.
- The cost-based planner dropped conjuncts that reference no column
  (``WHERE 1 = 0``): they have no owner table, so no join step ever
  placed them.

Both run on the loop and vectorized executors under both planners, and
the ordered results are checked row for row against SQLite.
"""

import numpy as np
import pytest

from repro.db import (
    DataType,
    Database,
    Engine,
    EngineConfig,
    MiniDBLoopSystem,
    MiniDBVectorizedSystem,
    SQLiteSystem,
    Table,
)
from repro.db.context import ExecutionContext
from repro.db.buffer import BufferPool
from repro.db.disk import DiskModel
from repro.db.operators import SeqScan, Sort
from repro.measurement import VirtualClock

CONFIGS = [EngineConfig(executor=executor, optimizer=optimizer)
           for executor in ("loop", "vectorized")
           for optimizer in ("heuristic", "cost")]


def tie_database(seed=5, n=60):
    """(a, b) pairs are unique, so every ORDER BY a, b is a total order;
    ``a`` and ``s`` repeat, so the second key decides within ties."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 5, n)
    b = rng.permutation(n)
    db = Database(name="ties")
    db.create_table(Table.from_columns(
        "t",
        [("a", DataType.INT64), ("b", DataType.INT64),
         ("s", DataType.STRING), ("v", DataType.FLOAT64)],
        {"a": a, "b": b,
         "s": [f"s{int(x)}" for x in a],
         "v": rng.random(n)}))
    db.create_table(Table.from_columns(
        "u", [("ua", DataType.INT64), ("w", DataType.INT64)],
        {"ua": np.arange(5, dtype=np.int64),
         "w": np.arange(5, dtype=np.int64) * 10}))
    return db


ORDERED = (
    "SELECT a, b FROM t ORDER BY a DESC, b",
    "SELECT a, b FROM t ORDER BY a, b DESC",
    "SELECT a, b FROM t ORDER BY a DESC, b DESC",
    "SELECT s, b FROM t ORDER BY s DESC, b",
    "SELECT s, b, v FROM t WHERE v > 0.2 ORDER BY s, b DESC",
    "SELECT a, b, w FROM t JOIN u ON a = ua ORDER BY w DESC, b",
    "SELECT a, b FROM t ORDER BY a DESC, b LIMIT 7",
)


@pytest.fixture(scope="module")
def systems():
    db = tie_database()
    loaded = [MiniDBLoopSystem(config, label=f"loop-{config.optimizer}")
              for config in CONFIGS if config.executor == "loop"]
    loaded += [MiniDBVectorizedSystem(config,
                                      label=f"vectorized-{config.optimizer}")
               for config in CONFIGS if config.executor == "vectorized"]
    loaded.append(SQLiteSystem())
    for system in loaded:
        system.connect()
        system.load(db)
    return loaded


@pytest.mark.parametrize("sql", ORDERED)
def test_order_by_with_ties_matches_sqlite(systems, sql):
    *minidb, sqlite = systems
    expected = sqlite.execute(sql).rows
    assert len(expected) > 5
    for system in minidb:
        assert system.execute(sql).rows == expected, system.name


def test_desc_sort_on_coded_column_keeps_tie_order():
    # A Sort fed straight by a vectorized scan sorts the string column
    # by its dictionary codes.
    db = tie_database()
    clock = VirtualClock()
    ctx = ExecutionContext(database=db,
                           buffer_pool=BufferPool(64, DiskModel(), clock),
                           clock=clock, executor="vectorized")
    batch = Sort(SeqScan("t", ["s", "b"]),
                 [("s", False), ("b", True)]).execute(ctx)
    rows = list(zip(batch["s"].decode(), batch["b"]))
    assert rows == sorted(rows, key=lambda r: (-int(r[0][1:]), r[1]))


CONSTANT = (
    ("SELECT COUNT(*) AS n FROM t WHERE 1 = 0", [(0,)]),
    ("SELECT COUNT(*) AS n FROM t WHERE 1 = 1", [(60,)]),
    ("SELECT COUNT(*) AS n FROM t WHERE 1 = 0 AND a > 1", [(0,)]),
    ("SELECT COUNT(*) AS n FROM t JOIN u ON a = ua WHERE 1 = 0", [(0,)]),
    ("SELECT COUNT(*) AS n FROM t JOIN u ON a = ua WHERE 2 > 1", [(60,)]),
    ("SELECT a, b FROM t JOIN u ON a = ua WHERE 1 = 0 AND w > 0", []),
)


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: f"{c.executor}-{c.optimizer}")
@pytest.mark.parametrize("sql,expected", CONSTANT)
def test_column_free_conjuncts_are_applied(config, sql, expected):
    engine = Engine(tie_database(), config)
    assert list(engine.execute(sql).rows) == expected


def test_nation_constant_false_under_cost_planner():
    from repro.workloads.tpch import generate_tpch
    db = generate_tpch(sf=0.002, seed=1)
    for config in CONFIGS:
        result = Engine(db, config).execute(
            "SELECT COUNT(*) AS n FROM nation WHERE 1 = 0")
        assert result.scalar() == 0
