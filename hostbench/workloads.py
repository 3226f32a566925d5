"""The three workloads: data, engine configuration, statement streams,
and the correctness oracle the results are checked against.

Every workload is a closed loop with one client: the next statement is
sent when the previous one returns.  Statements are grouped into
*passes* of fixed content so that a timed window holds whole passes and
per-pass figures compare like with like.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db import EngineConfig
from repro.db.systems import SQLiteSystem, SystemResult, results_match
from repro.hardware.cache import CacheModel
from repro.workloads.tpch import all_query_numbers, tpch_query

#: Statements per point-lookups pass.
LOOKUP_PASS = 500
#: Width of the ``l_orderkey BETWEEN`` range of a lineitem lookup.
RANGE_KEYS = 20

CUSTOMER_BY_KEY = ("SELECT c_custkey, c_name, c_acctbal, c_mktsegment "
                   "FROM customer WHERE c_custkey = {key}")
ORDERS_OF_CUSTOMER = ("SELECT o_orderkey, o_orderdate, o_totalprice "
                      "FROM orders WHERE o_custkey = {key} "
                      "ORDER BY o_orderdate, o_orderkey")
LINEITEM_RANGE = ("SELECT l_orderkey, l_linenumber, l_quantity, "
                  "l_extendedprice FROM lineitem "
                  "WHERE l_orderkey BETWEEN {low} AND {high}")


class TpchPasses:
    """The 22 TPC-H-like queries, in a fixed order, every pass."""

    def __init__(self, database, seed: int):
        self._pass = [tpch_query(q) for q in all_query_numbers()]

    def next_pass(self) -> List[str]:
        return list(self._pass)


class LookupPasses:
    """A seeded stream of short statements with fresh literals.

    Each statement is one of three templates, chosen uniformly: a
    customer by key, one customer's orders sorted, or a
    :data:`RANGE_KEYS`-key ``l_orderkey`` range on lineitem.  Keys are
    drawn from the generated data, so every statement is valid.
    """

    def __init__(self, database, seed: int):
        # A stream of its own: data generation uses make_rng(seed).
        self._rng = np.random.default_rng([seed, 1])
        self._custkeys = np.unique(
            database.table("customer").column("c_custkey").data)
        orderkeys = np.unique(
            database.table("lineitem").column("l_orderkey").data)
        self._range_starts = orderkeys[orderkeys + RANGE_KEYS - 1
                                       <= orderkeys[-1]]

    def next_pass(self) -> List[str]:
        rng = self._rng
        kinds = rng.integers(0, 3, LOOKUP_PASS)
        customers = rng.choice(self._custkeys, LOOKUP_PASS)
        starts = rng.choice(self._range_starts, LOOKUP_PASS)
        statements = []
        for kind, key, low in zip(kinds, customers, starts):
            if kind == 0:
                statements.append(CUSTOMER_BY_KEY.format(key=int(key)))
            elif kind == 1:
                statements.append(ORDERS_OF_CUSTOMER.format(key=int(key)))
            else:
                statements.append(LINEITEM_RANGE.format(
                    low=int(low), high=int(low) + RANGE_KEYS - 1))
        return statements


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each was chosen."""

    name: str
    sf: float
    config: Callable[[], EngineConfig]
    passes: Callable
    analyze: bool = False
    indexes: Tuple[Tuple[str, str], ...] = ()
    #: Columns the SQLite oracle indexes so checking stays quick.
    oracle_indexes: Tuple[Tuple[str, str], ...] = ()
    #: Fewest statements a timed window holds, so p90 is reportable.
    min_samples: int = 100
    #: Tail percentiles printed beside p90 (each under the sample rule).
    extra_tails: Tuple[float, ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="tpch-analytic",
        sf=0.05,
        config=lambda: EngineConfig(
            executor="vectorized", optimizer="cost",
            cache_model=CacheModel.tutorial_laptop(), plan_cache=True),
        passes=TpchPasses, analyze=True),
    Workload(
        name="tpch-loop",
        sf=0.01,
        config=EngineConfig,
        passes=TpchPasses),
    Workload(
        name="point-lookups",
        sf=0.05,
        config=lambda: EngineConfig(executor="vectorized", optimizer="cost",
                                    plan_cache=True),
        passes=LookupPasses, analyze=True,
        indexes=(("customer", "c_custkey"), ("orders", "o_custkey")),
        oracle_indexes=(("customer", "c_custkey"), ("orders", "o_custkey"),
                        ("lineitem", "l_orderkey")),
        min_samples=1000, extra_tails=(99.0,)),
)}


# ---------------------------------------------------------------------------
# Correctness oracle
# ---------------------------------------------------------------------------

_ORDER_BY = re.compile(r"\bORDER\s+BY\s+(.*?)(\s+LIMIT\s+\d+)?\s*$",
                       re.IGNORECASE | re.DOTALL)
_LIMIT = re.compile(r"\s+LIMIT\s+(\d+)\s*$", re.IGNORECASE)

Keys = List[Tuple[str, bool]]


def order_keys(sql: str) -> Keys:
    """``(column, ascending)`` pairs of the statement's ORDER BY."""
    match = _ORDER_BY.search(sql)
    if match is None:
        return []
    keys = []
    for item in match.group(1).split(","):
        words = item.split()
        keys.append((words[0], not (len(words) > 1
                                    and words[1].upper() == "DESC")))
    return keys


def split_limit(sql: str) -> Tuple[str, Optional[int]]:
    """*sql* without its trailing LIMIT, and the limit (None if none)."""
    match = _LIMIT.search(sql)
    if match is None:
        return sql, None
    return sql[:match.start()], int(match.group(1))


def sort_defect_sql(sql: str) -> Optional[str]:
    """*sql* with the ORDER BY directions the defective Sort applies:
    a key's direction flips once per DESC key more significant than it.
    None when the defect cannot change the statement's order."""
    keys = order_keys(sql)
    flip = False
    effective = []
    for column, ascending in keys:
        effective.append((column, ascending != flip))
        if not ascending:
            flip = not flip
    if effective == keys:
        return None
    match = _ORDER_BY.search(sql)
    rendered = ", ".join(f"{column} {'ASC' if asc else 'DESC'}"
                         for column, asc in effective)
    return sql[:match.start(1)] + rendered + (match.group(2) or "")


def is_sorted(columns: Sequence[str], rows: Sequence[tuple],
              keys: Keys) -> bool:
    """Whether *rows* follow the ORDER BY *keys* (ties in any order)."""
    index = [(columns.index(name), asc) for name, asc in keys]
    for prev, row in zip(rows, rows[1:]):
        for i, asc in index:
            if prev[i] == row[i]:
                continue
            if (prev[i] < row[i]) != asc:
                return False
            break
    return True


def _canonical(row: Sequence) -> tuple:
    """A hashable row with floats rounded to 9 significant digits, the
    precision results_match sorts by (aggregation order differs)."""
    return tuple(float(f"{v:.9g}") if isinstance(v, float) else v
                 for v in row)


def valid_answer(columns: Sequence[str], rows: Sequence[tuple],
                 keys: Keys, limit: Optional[int],
                 full: SystemResult) -> bool:
    """Whether *rows* are a correct answer given *full*, the reference
    answer of the statement without its LIMIT, ordered by *keys*.

    Without a LIMIT the rows must equal *full* as a multiset.  With one,
    rows tied on the ORDER BY keys may be cut either way, so the rows
    must be a sub-multiset of *full* whose key values are exactly those
    of *full*'s first rows.  In both cases the rows must follow *keys*.
    """
    if not is_sorted(columns, rows, keys):
        return False
    if limit is None:
        if tuple(rows) == full.rows:  # identical, so equal as multisets
            return True
        got = SystemResult("minidb", tuple(columns), tuple(rows), 0.0)
        return results_match(got, full)
    n = min(limit, full.n_rows)
    if len(rows) != n:
        return False
    if Counter(map(_canonical, rows)) - Counter(map(_canonical, full.rows)):
        return False
    index = [columns.index(name) for name, __ in keys]
    return ([_canonical([row[i] for i in index]) for row in rows]
            == [_canonical([row[i] for i in index]) for row in full.rows[:n]])


@dataclass
class Outcome:
    """One measured statement: its SQL and MiniDB's answer or error."""

    sql: str
    columns: Tuple[str, ...] = ()
    rows: Tuple[tuple, ...] = ()
    error: Optional[str] = None


@dataclass
class Verdicts:
    attempted: int = 0
    failed: int = 0
    known: int = 0
    #: Failure kind -> statements, e.g. ``"wrong answer: SELECT ..."``.
    kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """No failure outside the known defect."""
        return self.failed == self.known

    def add(self, kind: Optional[str], known: bool = False) -> None:
        self.attempted += 1
        if kind is None:
            return
        self.failed += 1
        self.known += known
        self.kinds[kind] = self.kinds.get(kind, 0) + 1


class Oracle:
    """SQLite (:class:`~repro.db.systems.SQLiteSystem`) over the same
    data: a path independent of the MiniDB executors being timed.

    Answers are memoised per SQL string.  The oracle builds its own
    SQLite indexes on *indexes* so checking thousands of point lookups
    stays quick; they change no answer.
    """

    def __init__(self, database, indexes: Sequence[Tuple[str, str]] = ()):
        self._system = SQLiteSystem()
        self._system.load(database)
        for table, column in indexes:
            self._system.conn.execute(
                f"CREATE INDEX ix_{table}_{column} ON {table}({column})")
        self._answers: Dict[str, SystemResult] = {}

    def answer(self, sql: str) -> SystemResult:
        if sql not in self._answers:
            self._answers[sql] = self._system.execute(sql)
        return self._answers[sql]

    def close(self) -> None:
        self._system.close()

    def _valid(self, outcome: Outcome, sql: str) -> bool:
        unlimited, limit = split_limit(sql)
        return valid_answer(outcome.columns, outcome.rows, order_keys(sql),
                            limit, self.answer(unlimited))

    def verdict(self, outcome: Outcome) -> Tuple[Optional[str], bool]:
        """``(failure kind or None, attributed to the known defect)``.

        A wrong answer is attributed to the known Sort defect when, and
        only when, it is a correct answer to the statement with the
        ORDER BY directions the defect applies (:func:`sort_defect_sql`).
        """
        label = " ".join(outcome.sql.split())[:60]
        if outcome.error is not None:
            return f"error {outcome.error}: {label}", False
        if self._valid(outcome, outcome.sql):
            return None, False
        defect_sql = sort_defect_sql(outcome.sql)
        if defect_sql is not None and self._valid(outcome, defect_sql):
            return f"known sort defect: {label}", True
        return f"wrong answer: {label}", False


def check(outcomes: Sequence[Outcome], oracle: Oracle) -> Verdicts:
    verdicts = Verdicts()
    for outcome in outcomes:
        kind, known = oracle.verdict(outcome)
        verdicts.add(kind, known)
    return verdicts
