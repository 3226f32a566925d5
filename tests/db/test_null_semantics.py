"""NULL semantics across MiniDB's executors and SQLite.

``NULL`` is ``NaN`` in a FLOAT64 column.  SQL gives it three rules that
NaN arithmetic does not give for free:

- a NULL join key matches nothing, not even another NULL;
- GROUP BY and DISTINCT put all NULL keys in one group;
- ANALYZE describes the non-NULL values (an all-NULL column has none).

Each rule is checked on every join operator and both executors, with
SQLite (which stores the NaN as NULL) as the reference.
"""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.db import DataType, Database, Engine, EngineConfig, Table
from repro.db.systems import SQLiteSystem

EXECUTORS = ("loop", "vectorized")
JOIN_OPS = ("hash", "merge", "loop", "radix")
#: Seconds a query may take before it counts as hung.
TIMEOUT_S = 20


def _null_db(seed=5, n_left=200, n_right=60):
    """Two tables joined on FLOAT64 keys, with NULLs on both sides, and
    a FLOAT64 grouping column holding NULLs."""
    rng = np.random.default_rng(seed)
    fk = rng.integers(0, 30, n_left).astype(np.float64)
    pk = rng.integers(0, 30, n_right).astype(np.float64)
    fk[rng.random(n_left) < 0.2] = np.nan
    pk[rng.random(n_right) < 0.2] = np.nan
    g = rng.integers(0, 4, n_left).astype(np.float64)
    g[[3, 17, 40]] = np.nan
    db = Database(name=f"nulls_{seed}")
    db.create_table(Table.from_columns(
        "l", [("fk", DataType.FLOAT64), ("lid", DataType.INT64),
              ("g", DataType.FLOAT64), ("h", DataType.INT64)],
        {"fk": fk, "lid": np.arange(n_left), "g": g,
         "h": rng.integers(0, 2, n_left)}))
    db.create_table(Table.from_columns(
        "r", [("pk", DataType.FLOAT64), ("rid", DataType.INT64)],
        {"pk": pk, "rid": np.arange(n_right)}))
    return db


def _cell(value):
    """NULL as None (SQLite's NULL, MiniDB's NaN); floats rounded."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return None
    if isinstance(value, float):
        return round(value, 9)
    return value


def _rows(rows):
    return sorted((tuple(_cell(v) for v in row) for row in rows),
                  key=repr)


@pytest.fixture(scope="module")
def db():
    return _null_db()


@pytest.fixture(scope="module")
def sqlite(db):
    system = SQLiteSystem()
    system.load(db)
    yield system
    system.close()


@contextmanager
def time_limit(seconds):
    """Fail instead of hanging when the body runs past *seconds*."""
    def expire(signum, frame):
        raise TimeoutError(f"query still running after {seconds}s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _minidb(db, sql, executor):
    with time_limit(TIMEOUT_S):
        return Engine(db, EngineConfig(executor=executor)).execute(sql).rows


class TestNullJoinKeys:
    SQL = "SELECT lid, rid FROM l JOIN r ON fk = pk"

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("op", JOIN_OPS)
    def test_null_keys_never_match(self, db, sqlite, op, executor):
        # SQLite takes no operator hints: its plan is its own.
        expected = _rows(sqlite.execute(self.SQL).rows)
        assert expected, "weak test: the join matched nothing"
        hinted = f"{self.SQL} /*+ JOIN_OP(r {op}) */"
        assert _rows(_minidb(db, hinted, executor)) == expected


class TestNullGroups:
    #: name -> (sql, number of leading key columns)
    QUERIES = {
        "group_by": ("SELECT g, COUNT(*) AS n, SUM(lid) AS s FROM l "
                     "GROUP BY g", 1),
        "group_by_two_keys": ("SELECT g, h, COUNT(*) AS n FROM l "
                              "GROUP BY g, h", 2),
        "distinct": ("SELECT DISTINCT g FROM l", 1),
        "distinct_two_columns": ("SELECT DISTINCT g, h FROM l", 2),
    }

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_one_group_for_all_nulls(self, db, sqlite, name, executor):
        sql, n_keys = self.QUERIES[name]
        expected = _rows(sqlite.execute(sql).rows)
        got = _rows(_minidb(db, sql, executor))
        assert got == expected
        keys = [row[:n_keys] for row in got]
        assert any(key[0] is None for key in keys)
        assert len(set(keys)) == len(keys)


class TestAnalyzeWithNulls:
    def test_bounds_and_histogram_skip_nulls(self, db):
        engine = Engine(db)
        assert "l" in engine.analyze()
        stats = engine.table_stats.table("l").column("g")
        assert (stats.min_value, stats.max_value) == (0.0, 3.0)
        assert stats.histogram.n_rows == db.table("l").n_rows - 3

    def test_all_null_column(self):
        db = Database(name="all_null")
        db.create_table(Table.from_columns(
            "t", [("x", DataType.FLOAT64), ("y", DataType.INT64)],
            {"x": np.full(5, np.nan), "y": np.arange(5)}))
        engine = Engine(db)
        engine.analyze()
        stats = engine.table_stats.table("t").column("x")
        assert stats.min_value is None and stats.max_value is None
        assert stats.histogram.n_rows == 0
        assert not engine.execute("SELECT y FROM t WHERE x > 1.0").rows
