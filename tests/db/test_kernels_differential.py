"""Differential tests: vectorized executor vs the per-row loop oracle.

The loop executor is the reference implementation (ISSUE 5 keeps it as
the differential-testing oracle); every query here runs under both
executors over seeded random data and the results must agree row for
row.  GROUP BY output order legitimately differs (the loop executor
emits groups in first-occurrence order, the kernels in key order), so
grouped queries compare as sorted row sets.

The second half checks the kernels' sort-free paths (dense remap,
counting join, radix sort) against the ``np.unique`` / ``searchsorted``
implementations they replaced: outputs must be byte-identical.  The
last part checks the work-sharing paths the same way: predicates over a
coded column evaluated in dictionary space against row-space evaluation
of the decoded values, reductions over one shared group order against
per-call :func:`~repro.db.kernels.grouped_reduce`, and
:func:`~repro.db.kernels.join_match` given the dense code count against
its own remap.
"""

import math

import numpy as np
import pytest

from repro.db import DataType, Database, Engine, EngineConfig, Table, kernels
from repro.db.expressions import (
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    InList,
    Like,
    Literal,
    Not,
)


def _engines(db):
    return (Engine(db, EngineConfig(executor="loop")),
            Engine(db, EngineConfig(executor="vectorized")))


def _cells_equal(a, b):
    if isinstance(a, float) or isinstance(b, float):
        # Summation order differs between the executors (per-row
        # accumulation vs reduceat), so float aggregates agree only up
        # to rounding, not bit for bit.
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def _rows_equal(rows_a, rows_b):
    return len(rows_a) == len(rows_b) and all(
        len(ra) == len(rb) and all(map(_cells_equal, ra, rb))
        for ra, rb in zip(rows_a, rows_b))


def both(db, sql, ordered=True):
    """Run *sql* under both executors; return the loop result rows."""
    loop, vec = _engines(db)
    r_loop = loop.execute(sql)
    r_vec = vec.execute(sql)
    assert r_loop.columns == r_vec.columns
    rows_loop, rows_vec = r_loop.rows, r_vec.rows
    if not ordered:
        rows_loop, rows_vec = sorted(rows_loop), sorted(rows_vec)
    assert _rows_equal(rows_loop, rows_vec), (
        f"executors disagree on {sql!r}:\n"
        f"loop[:3]={rows_loop[:3]}\nvectorized[:3]={rows_vec[:3]}")
    return r_loop.rows


def random_db(seed, n=500, n_right=60):
    """Two tables with strings, floats, ints and duplicate join keys."""
    rng = np.random.default_rng(seed)
    db = Database(name=f"diff_{seed}")
    db.create_table(Table.from_columns(
        "t",
        [("id", DataType.INT64), ("k", DataType.INT64),
         ("v", DataType.FLOAT64), ("tag", DataType.STRING)],
        {"id": np.arange(n, dtype=np.int64),
         "k": rng.integers(0, n_right * 2, size=n),
         "v": rng.random(n) * 100.0,
         "tag": [f"tag{int(x)}" for x in rng.integers(0, 7, size=n)]}))
    db.create_table(Table.from_columns(
        "r",
        [("pk", DataType.INT64), ("w", DataType.FLOAT64)],
        {"pk": np.arange(n_right, dtype=np.int64),
         "w": rng.random(n_right)}))
    return db


SEEDS = (3, 11, 42)


class TestSelectionPipelines:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_filter_project(self, seed):
        db = random_db(seed)
        both(db, "SELECT id, v FROM t WHERE k < 40")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_filter_sort_limit(self, seed):
        db = random_db(seed)
        both(db, "SELECT id, k FROM t WHERE v > 25 ORDER BY k, id "
                 "LIMIT 17")

    def test_string_predicates(self):
        db = random_db(5)
        both(db, "SELECT id, tag FROM t WHERE tag = 'tag3'")
        both(db, "SELECT id FROM t WHERE tag LIKE 'tag%' AND k > 10")
        both(db, "SELECT id FROM t WHERE tag IN ('tag1', 'tag5')")

    def test_all_rows_filtered(self):
        db = random_db(1)
        assert both(db, "SELECT id, v FROM t WHERE k < 0") == ()
        assert both(db, "SELECT tag, SUM(v) AS s FROM t WHERE k < 0 "
                        "GROUP BY tag", ordered=False) == ()

    def test_no_rows_filtered(self):
        db = random_db(2)
        rows = both(db, "SELECT id FROM t WHERE k >= 0")
        assert len(rows) == 500

    def test_empty_table(self):
        db = Database(name="empty")
        db.create_table(Table.from_columns(
            "t", [("k", DataType.INT64), ("v", DataType.FLOAT64)],
            {"k": np.empty(0, dtype=np.int64),
             "v": np.empty(0, dtype=np.float64)}))
        assert both(db, "SELECT k, v FROM t WHERE k > 3") == ()
        assert both(db, "SELECT k, SUM(v) AS s FROM t GROUP BY k",
                    ordered=False) == ()
        # Global aggregates over zero rows still yield one row.
        both(db, "SELECT COUNT(*) AS n, SUM(v) AS s FROM t")


class TestJoins:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hash_join_duplicate_keys(self, seed):
        db = random_db(seed)
        both(db, "SELECT id, w FROM t JOIN r ON k = pk")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_join_then_filter(self, seed):
        db = random_db(seed)
        both(db, "SELECT id, k, w FROM t JOIN r ON k = pk "
                 "WHERE v > 50 ORDER BY id, k LIMIT 100")

    def test_join_no_matches(self):
        rng = np.random.default_rng(9)
        db = Database(name="nomatch")
        db.create_table(Table.from_columns(
            "t", [("k", DataType.INT64)],
            {"k": rng.integers(100, 200, size=50)}))
        db.create_table(Table.from_columns(
            "r", [("pk", DataType.INT64)],
            {"pk": np.arange(10, dtype=np.int64)}))
        assert both(db, "SELECT k, pk FROM t JOIN r ON k = pk") == ()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_join_aggregate(self, seed):
        db = random_db(seed)
        both(db, "SELECT SUM(v * w) AS dot FROM t JOIN r ON k = pk")


class TestAggregates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_group_by_sorted_rowset(self, seed):
        db = random_db(seed)
        both(db, "SELECT tag, SUM(v) AS s, COUNT(*) AS n, "
                 "MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS a "
                 "FROM t GROUP BY tag", ordered=False)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_group_by_int_key_with_filter(self, seed):
        db = random_db(seed)
        both(db, "SELECT k, COUNT(*) AS n FROM t WHERE v > 30 "
                 "GROUP BY k", ordered=False)

    def test_global_aggregates(self):
        db = random_db(8)
        both(db, "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, "
                 "MIN(k) AS lo, MAX(k) AS hi FROM t")

    def test_distinct_keeps_loop_order(self):
        db = random_db(4)
        both(db, "SELECT DISTINCT tag FROM t")
        both(db, "SELECT DISTINCT k, tag FROM t WHERE k < 20")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_having(self, seed):
        db = random_db(seed)
        both(db, "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag "
                 "HAVING n > 40", ordered=False)


class TestSelectionVectorToggle:
    """selection_vectors=False must not change vectorized results."""

    @pytest.mark.parametrize("selvec", (True, False))
    def test_filter_results_identical(self, selvec):
        db = random_db(6)
        loop = Engine(db, EngineConfig(executor="loop"))
        vec = Engine(db, EngineConfig(executor="vectorized",
                                      selection_vectors=selvec))
        sql = "SELECT id, v FROM t WHERE k < 33 ORDER BY id LIMIT 40"
        assert loop.execute(sql).rows == vec.execute(sql).rows


# ---------------------------------------------------------------------------
# Sort-free kernel paths vs their np.unique / searchsorted references
# ---------------------------------------------------------------------------

INT64 = np.iinfo(np.int64)


def assert_identical(actual, expected):
    """Byte-identical arrays: same dtype, shape and contents."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def reference_encode(columns):
    """Composite ids by lexicographic row rank (np.unique over rows)."""
    ranks = [np.unique(c, return_inverse=True)[1].reshape(-1)
             for c in columns]
    uniques, inverse = np.unique(np.stack(ranks, axis=1), axis=0,
                                 return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), len(uniques)


def reference_join(left, right):
    """The sort-and-binary-search join the counting kernel replaced."""
    order = np.argsort(right, kind="stable")
    sorted_right = right[order]
    starts = np.searchsorted(sorted_right, left, side="left")
    counts = np.searchsorted(sorted_right, left, side="right") - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    left_idx = np.repeat(np.arange(left.size, dtype=np.int64), counts)
    first = np.cumsum(counts) - counts
    positions = np.repeat(starts - first, counts) \
        + np.arange(total, dtype=np.int64)
    return left_idx, order[positions]


@pytest.fixture
def unique_calls(monkeypatch):
    """Count np.unique calls, so a test can tell which path ran."""
    calls = []
    original = np.unique

    def counting(*args, **kwargs):
        calls.append(np.asarray(args[0]).size)
        return original(*args, **kwargs)
    monkeypatch.setattr(np, "unique", counting)
    return calls


ENCODE_CASES = {
    "empty": [np.empty(0, dtype=np.int64)],
    "single_value": [np.full(9, 42, dtype=np.int64)],
    "negative_keys": [np.random.default_rng(1).integers(-500, 500, 2000)],
    "int64_extremes": [np.array([INT64.min, INT64.max, 0, INT64.min, -1,
                                 INT64.max], dtype=np.int64)],
    "sparse_huge_range": [np.random.default_rng(2).integers(
        0, 2 ** 40, 3000)],
    "bool": [np.random.default_rng(3).random(100) < 0.3],
    "int32_and_string": [np.random.default_rng(4).integers(
        -3, 3, 600).astype(np.int32),
        np.array([f"s{i % 11}" for i in range(600)], dtype=object)],
}


class TestDenseRemap:
    @pytest.mark.parametrize("case", sorted(ENCODE_CASES))
    def test_dict_encode_matches_unique(self, case):
        columns = ENCODE_CASES[case]
        codes, n_codes = kernels.dict_encode(columns)
        expected, n_expected = reference_encode(columns)
        assert n_codes == n_expected
        assert_identical(codes, expected)

    def test_bounded_range_is_sort_free(self, unique_calls):
        keys = np.random.default_rng(5).integers(-10_000, 10_000, 50_000)
        codes, n_codes = kernels.dict_encode([keys, keys % 7])
        assert unique_calls == []
        expected, n_expected = reference_encode([keys, keys % 7])
        assert n_codes == n_expected
        assert_identical(codes, expected)

    def test_sparse_huge_range_falls_back(self, unique_calls):
        keys = ENCODE_CASES["sparse_huge_range"][0]
        kernels.dict_encode([keys])
        assert unique_calls == [keys.size]

    def test_int64_extremes_fall_back(self, unique_calls):
        keys = ENCODE_CASES["int64_extremes"][0]
        kernels.dict_encode([keys])
        assert unique_calls == [keys.size]

    def test_composite_recompaction_near_2_61(self):
        # Six keys of 4096 distinct values each: the mixed-radix product
        # passes 2**61 at the sixth key and must re-compact first.
        rng = np.random.default_rng(6)
        n = 4096
        columns = [rng.permutation(n).astype(np.int64) * 3 - 5000
                   for __ in range(6)]
        columns = [np.concatenate([c, c[:100]]) for c in columns]
        codes, n_codes = kernels.dict_encode(columns)
        expected, n_expected = reference_encode(columns)
        assert n_codes == n_expected == n
        assert_identical(codes, expected)

    def test_coded_column_encodes_like_its_values(self):
        values = np.array(["ant", "bee", "cat", "dog"], dtype=object)
        codes = np.random.default_rng(7).integers(0, 4, 300)
        coded = kernels.CodedColumn(codes, values)
        got, n = kernels.dict_encode([coded, codes % 3])
        expected, n_expected = reference_encode(
            [coded.decode(), codes % 3])
        assert n == n_expected
        assert_identical(got, expected)


JOIN_CASES = {
    "empty_left": (np.empty(0, dtype=np.int64), np.arange(5)),
    "empty_right": (np.arange(5), np.empty(0, dtype=np.int64)),
    "single_value": (np.full(4, 3), np.full(6, 3)),
    "negative_keys": (np.random.default_rng(8).integers(-40, 0, 300),
                      np.random.default_rng(9).integers(-60, 5, 200)),
    "int64_extremes": (np.array([INT64.min, 5, INT64.max, INT64.min]),
                       np.array([INT64.max, INT64.min, 7, INT64.min])),
    "no_matches": (np.arange(0, 100), np.arange(100, 150)),
}


class TestCountingJoin:
    @pytest.mark.parametrize("case", sorted(JOIN_CASES))
    def test_join_match_matches_reference(self, case):
        left, right = (np.asarray(a, dtype=np.int64)
                       for a in JOIN_CASES[case])
        for got, want in zip(kernels.join_match(left, right),
                             reference_join(left, right)):
            assert_identical(got, want)

    @pytest.mark.parametrize("n_codes", (65_536, 65_537))
    def test_uint16_boundary(self, n_codes):
        rng = np.random.default_rng(n_codes)
        right = np.concatenate([rng.permutation(n_codes),
                                rng.integers(0, n_codes, 5_000)])
        left = rng.integers(-10, n_codes + 10, 70_000)
        for got, want in zip(kernels.join_match(left, right),
                             reference_join(left, right)):
            assert_identical(got, want)

    @pytest.mark.parametrize("bits", (0, 8, 14))
    def test_radix_join_match_matches_reference(self, bits):
        rng = np.random.default_rng(bits)
        left = rng.integers(0, 40_000, 30_000)
        right = rng.integers(0, 40_000, 20_000)
        for got, want in zip(kernels.radix_join_match(left, right, bits),
                             reference_join(left, right)):
            assert_identical(got, want)

    @pytest.mark.parametrize("bits", (0, 8, 14))
    def test_radix_partition_matches_argsort(self, bits):
        codes = np.random.default_rng(bits + 1).integers(0, 10 ** 9, 9_000)
        order, offsets = kernels.radix_partition(codes, bits)
        partitions = codes & np.int64((1 << bits) - 1)
        assert_identical(order, np.argsort(partitions, kind="stable"))
        assert_identical(offsets, np.concatenate(
            ([0], np.cumsum(np.bincount(partitions,
                                        minlength=1 << bits)))))

    def test_join_keys_across_dictionaries(self):
        left = kernels.CodedColumn(
            np.array([0, 1, 2, 1]), np.array(["a", "c", "e"], dtype=object))
        right = kernels.CodedColumn(
            np.array([0, 1, 2]), np.array(["c", "d", "e"], dtype=object))
        lk, rk, __ = kernels.encode_join_keys([left], [right])
        li, ri = kernels.join_match(lk, rk)
        assert list(zip(li, ri)) == [(1, 0), (2, 2), (3, 0)]


# ---------------------------------------------------------------------------
# Dictionary-space predicates, shared group order, dense join codes
# ---------------------------------------------------------------------------

S, T, N = ColumnRef("s"), ColumnRef("t"), ColumnRef("n")

PREDICATES = {
    "eq": Comparison("=", S, Literal("cat")),
    "ne": Comparison("<>", S, Literal("cat")),
    "lt": Comparison("<", S, Literal("dog")),
    "le": Comparison("<=", S, Literal("dog")),
    "gt": Comparison(">", S, Literal("dog")),
    "ge": Comparison(">=", S, Literal("dog")),
    "literal_first": Comparison(">", Literal("dog"), S),
    "between": Between(S, Literal("bee"), Literal("eel")),
    "in": InList(S, ("ant", "eel", "zebra")),
    "not_in": Not(InList(S, ("ant", "eel", "zebra"))),
    "like": Like(S, "%a%"),
    "not_like": Not(Like(S, "c_t%")),
    "or_one_column": BoolOp("or", (Comparison("=", S, Literal("ant")),
                                   Like(S, "e%"))),
    "two_coded_columns": Comparison("<", S, T),
    "coded_and_int": BoolOp("and", (Like(S, "%o%"),
                                    Comparison(">", N, Literal(3)))),
}

WORDS = np.array(sorted({"ant", "bee", "cat", "catfish", "cow", "dog",
                         "eel", "emu", "fox", "gnu", "owl", "yak"}),
                 dtype=object)


def _coded_batch(n, n_values=len(WORDS), seed=0):
    """*n* rows: coded ``s`` over a dictionary of *n_values* words,
    coded ``t`` over another (smaller) dictionary, and int ``n``."""
    rng = np.random.default_rng(seed)
    # WORDS first, then WORDS suffixed 1, 2, ... until n_values.
    s_values = np.array(sorted(
        f"{w}{i // len(WORDS) or ''}"
        for i, w in enumerate(np.resize(WORDS, n_values))), dtype=object)
    t_values = WORDS[::2]
    return {"s": kernels.CodedColumn(
                rng.integers(0, len(s_values), n), s_values),
            "t": kernels.CodedColumn(
                rng.integers(0, len(t_values), n), t_values),
            "n": rng.integers(0, 8, n)}


def _row_space(expr, batch):
    """The interpreter over decoded values: the reference."""
    decoded = {name: kernels.decode(col) for name, col in batch.items()}
    return np.asarray(expr.evaluate(decoded), dtype=bool)


class _NoDecode(kernels.CodedColumn):
    """A coded column that refuses to decode."""

    __slots__ = ()

    def decode(self):
        raise AssertionError("dictionary-space evaluation decoded rows")


class TestDictionarySpacePredicates:
    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_plain_batch(self, name):
        expr = PREDICATES[name]
        batch = _coded_batch(500)
        got = kernels.compile_expr(expr)(batch)
        assert_identical(np.asarray(got, dtype=bool),
                         _row_space(expr, batch))

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_selection_batch(self, name):
        expr = PREDICATES[name]
        base = _coded_batch(500, seed=1)
        sel = np.flatnonzero(np.random.default_rng(2).random(500) < 0.3)
        view = kernels.SelBatch(base, sel).view(sorted(expr.columns()))
        got = kernels.compile_expr(expr)(view)
        assert_identical(np.asarray(got, dtype=bool), _row_space(expr, view))

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_dictionary_larger_than_rows(self, name):
        expr = PREDICATES[name]
        batch = _coded_batch(7, n_values=200, seed=3)
        assert len(batch["s"].values) > len(batch["s"])
        got = kernels.compile_expr(expr)(batch)
        assert_identical(np.asarray(got, dtype=bool),
                         _row_space(expr, batch))

    @pytest.mark.parametrize("name", sorted(PREDICATES))
    def test_empty_batch(self, name):
        expr = PREDICATES[name]
        batch = _coded_batch(0)
        got = kernels.compile_expr(expr)(batch)
        assert np.asarray(got).size == 0

    def test_empty_batch_raises_nothing_the_rows_would_not(self):
        # A string column against an int: the (empty) rows compare
        # fine, the dictionary's strings would raise TypeError.
        expr = Comparison("<", S, Literal(5))
        got = kernels.compile_expr(expr)(_coded_batch(0))
        assert np.asarray(got).size == 0

    @pytest.mark.parametrize("name", sorted(n for n, e in PREDICATES.items()
                                            if e.columns() == {"s"}))
    def test_one_coded_column_is_never_decoded(self, name):
        batch = _coded_batch(400, seed=4)
        coded = _NoDecode(batch["s"].codes, batch["s"].values)
        expected = _row_space(PREDICATES[name], batch)
        got = kernels.compile_expr(PREDICATES[name])({"s": coded})
        assert_identical(np.asarray(got, dtype=bool), expected)

    def test_column_decodes_at_most_once(self):
        batch = _coded_batch(300, seed=5)
        reference = _row_space(PREDICATES["two_coded_columns"], batch)
        counted = {}
        for name in "st":
            values = batch[name].values.view(_CountingValues)
            values.gathers = 0
            counted[name] = values
            batch[name] = kernels.CodedColumn(batch[name].codes, values)
        # Both multi-column comparisons read s and t: one decode each.
        expr = BoolOp("or", (Comparison("<", S, T), Comparison("=", T, S)))
        got = kernels.compile_expr(expr)(batch)
        assert [counted[name].gathers for name in "st"] == [1, 1]
        equal = _row_space(Comparison("=", T, S), batch)
        assert_identical(np.asarray(got, dtype=bool), reference | equal)


class _CountingValues(np.ndarray):
    """A dictionary that counts how often rows are gathered from it."""

    def __getitem__(self, index):
        self.gathers += 1
        return self.view(np.ndarray)[index]


GROUP_CASES = {
    "one_group": (1, 1_000),
    "few_groups": (4, 5_000),
    "wide_uint8": (300, 5_000),
    "two_radix_digits": (70_000, 140_000),
}


class TestSharedGroupOrder:
    @pytest.mark.parametrize("case", sorted(GROUP_CASES))
    def test_shared_runs_match_per_call(self, case):
        n_groups, n = GROUP_CASES[case]
        rng = np.random.default_rng(n_groups)
        ids, n_codes = kernels.dict_encode(
            [np.concatenate([np.arange(n_groups),
                             rng.integers(0, n_groups, n - n_groups)])])
        assert n_codes == n_groups
        values = rng.random(n) * 1e6
        runs = kernels.group_runs(ids, n_groups)
        for op in ("sum", "min", "max"):
            assert_identical(
                kernels.grouped_reduce(values, ids, n_groups, op, runs),
                kernels.grouped_reduce(values, ids, n_groups, op))

    def test_one_group_is_not_sorted(self):
        order, starts = kernels.group_runs(np.zeros(9, dtype=np.int64), 1)
        assert order is None
        assert_identical(starts, np.zeros(1, dtype=np.int64))

    def test_shared_runs_check_density(self):
        with pytest.raises(kernels.PlanError, match="not dense"):
            kernels.group_runs(np.array([0, 2]), 3)


class TestDenseJoinCodes:
    @pytest.mark.parametrize("case", sorted(JOIN_CASES))
    def test_dense_count_matches_remap(self, case):
        left, right = (np.asarray(a, dtype=np.int64)
                       for a in JOIN_CASES[case])
        lc, rc, n_codes = kernels.encode_join_keys([left], [right])
        for got, want in zip(kernels.join_match(lc, rc, n_codes),
                             kernels.join_match(lc, rc)):
            assert_identical(got, want)

    def test_composite_and_coded_keys(self):
        rng = np.random.default_rng(12)
        words = np.array(["a", "b", "c", "d"], dtype=object)
        left = [kernels.CodedColumn(rng.integers(0, 4, 900), words),
                rng.integers(0, 50, 900)]
        right = [kernels.CodedColumn(rng.integers(0, 3, 400), words[1:]),
                 rng.integers(0, 50, 400)]
        lc, rc, n_codes = kernels.encode_join_keys(left, right)
        assert n_codes == len(np.unique(np.concatenate([lc, rc])))
        for got, want in zip(kernels.join_match(lc, rc, n_codes),
                             kernels.join_match(lc, rc)):
            assert_identical(got, want)
