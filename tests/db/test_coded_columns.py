"""Coded string columns in the vectorized executor.

The vectorized ``SeqScan`` hands dictionary-encoded STRING columns on as
:class:`~repro.db.kernels.CodedColumn` (codes + sorted dictionary);
gathers move codes, grouping/DISTINCT/sort/join keys use them, and
values are decoded only where expressions or the result need them.
These tests check three things:

- answers: the 22 TPC-H-like queries and string-heavy star queries
  (string GROUP BY, ORDER BY, DISTINCT, LIKE, IN, and a string-key join
  across two different dictionaries) agree across the vectorized
  executor, the loop executor and SQLite;
- ORDER BY: every ordered MiniDB result follows its ORDER BY keys;
- the simulator: carrying codes is a host-only change, so the simulated
  time and peak memory of every TPC-H query are pinned (values recorded
  before coded columns existed).  A host-side change that moves the
  simulator fails here.
"""

import re

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
    kernels,
    results_match,
)
from repro.db.operators import SeqScan
from repro.db.parser import parse_select
from repro.hardware.cache import CacheModel
from repro.workloads.tpch import all_query_numbers, generate_tpch, tpch_query

TPCH_SF = 0.01


def analytic_config(**overrides):
    """The configuration of the ``tpch-analytic`` host benchmark."""
    return EngineConfig(executor="vectorized", optimizer="cost",
                        cache_model=CacheModel.tutorial_laptop(),
                        plan_cache=True, **overrides)


def assert_ordered(sql, result):
    """Rows follow the statement's ORDER BY keys (ties in any order)."""
    keys = [(result.columns.index(name), asc)
            for name, asc in parse_select(sql).order_by]
    for prev, row in zip(result.rows, result.rows[1:]):
        for i, asc in keys:
            if prev[i] != row[i]:
                assert (prev[i] < row[i]) == asc, (sql, prev, row)
                break


def load(systems, db):
    for system in systems:
        system.connect()
        system.load(db)
    return systems


def assert_agree(systems, sql):
    """MiniDB systems vs the last system, SQLite (which cannot honour
    physical-operator hints, so it runs the statement without them)."""
    *minidb, sqlite = systems
    results = [system.execute(sql) for system in minidb]
    oracle = sqlite.execute(re.sub(r"/\*\+.*?\*/\s*", "", sql))
    for result in results:
        assert results_match(result, oracle), (
            f"{result.system} disagrees with {oracle.system} on {sql!r}:\n"
            f"{result.sorted_rows()[:3]}\nvs {oracle.sorted_rows()[:3]}")
        if parse_select(sql).order_by:
            assert_ordered(sql, result)


# ---------------------------------------------------------------------------
# TPC-H: vectorized (coded) vs loop vs SQLite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch(sf=TPCH_SF, seed=42)


@pytest.fixture(scope="module")
def tpch_systems(tpch_db):
    systems = load([MiniDBVectorizedSystem(analytic_config()),
                    MiniDBLoopSystem(), SQLiteSystem()], tpch_db)
    systems[0].engine.analyze()
    return systems


@pytest.mark.parametrize("q", all_query_numbers())
def test_tpch_queries_agree(tpch_systems, q):
    assert_agree(tpch_systems, tpch_query(q))


#: Simulated seconds and peak memory bytes per TPC-H query at sf=0.01
#: (seed 42) under the ``tpch-analytic`` configuration, run in query
#: order on one engine after ``analyze()``.  Recorded before the
#: vectorized executor carried dictionary codes; they must never move
#: for a host-only change.
SIMULATED = {
    1: (0.008263802782000285, 9039936),
    2: (0.0010579788292274794, 196056),
    3: (0.005143985036417609, 3194256),
    4: (0.0040926737712380645, 2643968),
    5: (0.005879698271238076, 3106984),
    6: (0.004759109000000039, 1968136),
    7: (0.005077284771237922, 3269568),
    8: (0.004755863391000148, 1947768),
    9: (0.013571294746162088, 35474912),
    10: (0.00485505541878023, 3107520),
    11: (0.001365807789347473, 268608),
    12: (0.006538242000000083, 2889904),
    13: (0.002406089614245932, 456000),
    14: (0.003923215999999952, 1947936),
    15: (0.003855745849518144, 2003576),
    16: (0.000978823903678594, 156168),
    17: (0.003280067712379542, 1901376),
    18: (0.02099145385632456, 3234720),
    19: (0.010174319999999848, 5907328),
    20: (0.001414998499999931, 153064),
    21: (0.008955054282000052, 3424696),
    22: (0.00032478377123801305, 79872),
}


def test_simulated_time_and_memory_pinned(tpch_db):
    engine = Engine(tpch_db, analytic_config())
    engine.analyze()
    measured = {}
    for q in all_query_numbers():
        result = engine.execute(tpch_query(q))
        measured[q] = (result.server_time.real, result.peak_memory_bytes)
    assert measured == SIMULATED


# ---------------------------------------------------------------------------
# String-heavy star queries
# ---------------------------------------------------------------------------

CITIES = ("Lima", "Oslo", "Pune", "Kyiv", "Baku", "Riga", "Doha")
COUNTRIES = {"Lima": "Peru", "Oslo": "Norway", "Pune": "India",
             "Riga": "Latvia", "Doha": "Qatar", "Quito": "Ecuador",
             "Accra": "Ghana"}
PRODUCTS = ("gadget", "gizmo", "widget", "gear", "sprocket")


def star_database(seed=17, n=600):
    """A fact table and a city dimension whose string join keys use two
    different dictionaries (each side has cities the other lacks)."""
    rng = np.random.default_rng(seed)
    db = Database(name="coded_star")
    db.create_table(Table.from_columns(
        "sales",
        [("s_id", DataType.INT64), ("s_city", DataType.STRING),
         ("s_product", DataType.STRING), ("s_qty", DataType.INT64),
         ("s_price", DataType.FLOAT64)],
        {"s_id": np.arange(n, dtype=np.int64),
         "s_city": [CITIES[i] for i in rng.integers(0, len(CITIES), n)],
         "s_product": [PRODUCTS[i]
                       for i in rng.integers(0, len(PRODUCTS), n)],
         "s_qty": rng.integers(1, 9, n),
         "s_price": np.round(rng.random(n) * 100.0, 2)}))
    cities = sorted(COUNTRIES)
    db.create_table(Table.from_columns(
        "cities",
        [("c_city", DataType.STRING), ("c_country", DataType.STRING)],
        {"c_city": cities, "c_country": [COUNTRIES[c] for c in cities]}))
    return db


STAR_QUERIES = (
    "SELECT s_city, SUM(s_price) AS revenue, COUNT(*) AS n FROM sales "
    "GROUP BY s_city ORDER BY s_city",
    "SELECT s_product, s_city, COUNT(*) AS n FROM sales WHERE s_qty > 3 "
    "GROUP BY s_product, s_city ORDER BY n DESC, s_product, s_city DESC",
    "SELECT DISTINCT s_city FROM sales WHERE s_product LIKE 'g%' "
    "ORDER BY s_city DESC",
    "SELECT DISTINCT s_product, s_city FROM sales WHERE s_qty = 2",
    "SELECT s_id, s_city, s_product FROM sales "
    "WHERE s_city IN ('Oslo', 'Lima', 'Quito') AND s_product <> 'gear' "
    "ORDER BY s_city DESC, s_id",
    "SELECT c_country, SUM(s_qty) AS q FROM sales "
    "JOIN cities ON s_city = c_city GROUP BY c_country ORDER BY q DESC, "
    "c_country",
    "SELECT s_id, c_country FROM sales JOIN cities ON s_city = c_city "
    "WHERE s_price > 80.0 ORDER BY c_country, s_id DESC",
    "/*+ JOIN_OP(cities merge) */ SELECT s_id, s_city, c_country "
    "FROM sales JOIN cities ON s_city = c_city WHERE s_qty < 3",
    "SELECT s_city, MAX(s_price) AS top FROM sales "
    "WHERE s_city >= 'Kyiv' GROUP BY s_city HAVING top > 90.0 "
    "ORDER BY top DESC",
)

STAR_CONFIGS = {
    "vectorized-heuristic": EngineConfig(executor="vectorized"),
    "vectorized-cost": EngineConfig(executor="vectorized",
                                    optimizer="cost"),
    "vectorized-no-selvec": EngineConfig(executor="vectorized",
                                         optimizer="cost",
                                         selection_vectors=False),
}


@pytest.fixture(scope="module")
def star_systems():
    db = star_database()
    vectorized = [MiniDBVectorizedSystem(config, label=label)
                  for label, config in STAR_CONFIGS.items()]
    return load(vectorized + [MiniDBLoopSystem(), SQLiteSystem()], db)


@pytest.mark.parametrize("sql", STAR_QUERIES)
def test_star_string_queries_agree(star_systems, sql):
    assert_agree(star_systems, sql)


def test_scan_carries_codes_zero_copy():
    db = star_database()
    engine = Engine(db, EngineConfig(executor="vectorized"))
    batch = SeqScan("sales", ["s_city", "s_qty"]).execute(
        engine._context())
    dictionary = db.table("sales").column("s_city").dictionary
    assert isinstance(batch["s_city"], kernels.CodedColumn)
    assert batch["s_city"].codes is dictionary.codes
    assert batch["s_city"].values is dictionary.values
    assert isinstance(batch["s_qty"], np.ndarray)  # integers stay plain


def test_different_dictionaries_never_compare_raw_codes():
    # Raw code 0 is "Baku" in sales but "Accra" in cities: comparing
    # codes would join rows whose cities differ.
    db = star_database()
    sql = ("SELECT s_city, c_city FROM sales "
           "JOIN cities ON s_city = c_city")
    for config in STAR_CONFIGS.values():
        rows = Engine(db, config).execute(sql).rows
        assert rows and all(a == b for a, b in rows)
