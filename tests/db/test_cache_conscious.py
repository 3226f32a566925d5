"""Differential tests for cache-conscious execution (tentpole sweep).

Three oracles guard the new fast paths:

- **join operators**: the radix-partitioned hash join must return
  exactly what the plain hash, merge and nested-loop joins return —
  per executor, over seeded random data, including empty-partition and
  duplicate-heavy key distributions;
- **zone maps**: a scan with pruning on must return exactly what the
  same scan returns with ``zone_maps=False`` — including NULL-heavy
  columns (NaN never matches a predicate), all-pruned tables and
  dictionary-encoded equality probes;
- **statistics staleness**: recreating a table after ANALYZE leaves the
  optimizer's statistics stale but must never change results (zone
  maps and dictionaries live on the *table* and are rebuilt with it).

A fourth check keeps the planner honest: what it adds to a hash or
radix join's estimate is exactly what the executor charges for memory
access and partitioning.

Same-executor comparisons are exact (identical kernels, identical
summation order); only loop-vs-vectorized comparisons would need a
float tolerance, and those live in test_kernels_differential.py.
"""

import numpy as np
import pytest

from repro.db import (
    DEFAULT_COST_MODEL,
    BufferPool,
    CostParameters,
    DataType,
    Database,
    DiskModel,
    Engine,
    EngineConfig,
    ExecutionContext,
    HashJoin,
    JoinStep,
    SeqScan,
    Table,
    join_operator_cost,
)
from repro.db import kernels
from repro.db.operators import RadixHashJoin, join_cost_terms
from repro.hardware.cache import CacheModel
from repro.measurement import VirtualClock

JOIN_HINTS = ("hash", "merge", "loop", "radix")

JOIN_SQL = ("SELECT fk, lv, rv FROM l JOIN r ON fk = pk "
            "/*+ JOIN_OP(r {op}) */")


def _join_db(seed, n_left=3_000, n_right=400, clustered=False,
             null_values=False):
    """Seeded join pair; ``clustered`` keys leave radix partitions
    empty (all keys share their low bits), ``null_values`` salts the
    payload with NaN."""
    rng = np.random.default_rng(seed)
    if clustered:
        # Multiples of 64: with >= 6 radix bits most partitions are
        # empty and every key lands in partition 0 at exactly 6 bits.
        fk = rng.integers(0, max(1, n_right // 64), n_left) * 64
        pk = np.arange(n_right) * 64
    else:
        fk = rng.integers(0, n_right, n_left)
        pk = np.arange(n_right)
    lv = rng.random(n_left)
    rv = rng.random(n_right)
    if null_values:
        lv[rng.random(n_left) < 0.3] = np.nan
        rv[rng.random(n_right) < 0.3] = np.nan
    db = Database(name=f"cc_{seed}")
    db.create_table(Table.from_columns(
        "l", [("fk", DataType.INT64), ("lv", DataType.FLOAT64)],
        {"fk": fk, "lv": lv}))
    db.create_table(Table.from_columns(
        "r", [("pk", DataType.INT64), ("rv", DataType.FLOAT64)],
        {"pk": pk, "rv": rv}))
    return db


def _rows(db, sql, executor, **config):
    engine = Engine(db, EngineConfig(executor=executor, **config))
    return engine.execute(sql).rows


class TestJoinOperatorSweep:
    """Radix vs hash vs merge vs loop: identical rows, per executor."""

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_all_operators_agree(self, executor, seed):
        db = _join_db(seed)
        baseline = sorted(_rows(db, JOIN_SQL.format(op="hash"),
                                executor))
        for op in JOIN_HINTS[1:]:
            rows = sorted(_rows(db, JOIN_SQL.format(op=op), executor))
            assert rows == baseline, (
                f"{op} join disagrees with hash under {executor} "
                f"(seed {seed})")

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_empty_partitions(self, executor):
        """Clustered keys leave most radix partitions empty."""
        db = _join_db(5, clustered=True)
        hash_rows = sorted(_rows(db, JOIN_SQL.format(op="hash"),
                                 executor))
        for bits in (0, 3, 6, 9):
            radix_rows = sorted(_rows(
                db, JOIN_SQL.format(op="radix"), executor,
                radix_bits=bits))
            assert radix_rows == hash_rows, f"bits={bits}"

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_nan_payloads_survive_partitioning(self, executor):
        db = _join_db(17, null_values=True)
        hash_rows = _rows(db, JOIN_SQL.format(op="hash"), executor)
        radix_rows = _rows(db, JOIN_SQL.format(op="radix"), executor,
                           radix_bits=4)
        # NaN != NaN, so compare the string renderings row-for-row
        # after sorting on the (non-NULL) key and repr of the rest.
        key = lambda row: (row[0], repr(row))
        assert sorted(map(repr, sorted(hash_rows, key=key))) == \
            sorted(map(repr, sorted(radix_rows, key=key)))

    def test_forced_bits_match_auto_bits(self):
        db = _join_db(7, n_left=20_000, n_right=4_000)
        auto = sorted(_rows(db, JOIN_SQL.format(op="radix"),
                            "vectorized",
                            cache_model=CacheModel.tutorial_laptop()))
        for bits in (1, 5, kernels.MAX_RADIX_BITS):
            forced = sorted(_rows(db, JOIN_SQL.format(op="radix"),
                                  "vectorized", radix_bits=bits))
            assert forced == auto


class _RecordingContext(ExecutionContext):
    """An execution context that keeps every CPU charge it is given."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.charges = []

    def charge_cpu(self, category, ns):
        self.charges.append((category, ns))
        super().charge_cpu(category, ns)


class TestPlannerPricesJoinsAsCharged:
    """``join_operator_cost`` minus the model's operator estimate equals
    the access and partitioning charges the join operator makes, also
    under the engine's own cost constants and a forced bit count, and
    those reach the planner through ``EngineConfig``."""

    #: Probe rows, and build rows whose hash table (48 B/row) fits the
    #: 2 MiB last-level cache (auto-sized to 0 bits) or outgrows it
    #: (auto-sized to 1 bit).
    N_PROBE, N_SMALL_BUILD, N_LARGE_BUILD = 60_000, 5_000, 50_000

    #: Engine cost constants that make partitioning prohibitive.
    COSTLY_PARTITIONING = CostParameters(radix_partition_ns_per_row=1e6)

    def _access_charges(self, join, n_build, executor, cached,
                        costs=None):
        """The join's memory-access and partitioning charges, with the
        build side checked to be the smaller (right) input."""
        cache = CacheModel.tutorial_laptop().hierarchy() if cached \
            else None
        db = _join_db(5, n_left=self.N_PROBE, n_right=n_build)
        clock = VirtualClock()
        ctx = _RecordingContext(
            database=db, buffer_pool=BufferPool(1024, DiskModel(), clock),
            clock=clock, executor=executor, cache=cache, costs=costs)
        join.execute(ctx)
        assert join.span_extras["build_side"] == "right"
        hash_charges = [ns for category, ns in ctx.charges
                        if category == "hash"]
        # The per-row CPU term comes last: one charge vectorized, build
        # and probe in the loop executor.
        return cache, hash_charges[:-1 if executor == "vectorized" else -2]

    @staticmethod
    def _inputs():
        return SeqScan("l", ["fk"]), SeqScan("r", ["pk"])

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("operator, n_build, bits", [
        ("hash", N_LARGE_BUILD, None),
        ("radix", N_SMALL_BUILD, 0),
        ("radix", N_LARGE_BUILD, 1)])
    def test_planner_extra_cost_matches_charges(self, executor, cached,
                                                operator, n_build, bits):
        join_class = HashJoin if operator == "hash" else RadixHashJoin
        join = join_class(*self._inputs(), ["fk"], ["pk"])
        cache, access = self._access_charges(join, n_build, executor,
                                             cached)
        assert join.span_extras.get("radix_bits") == bits
        assert len(access) == int(bool(bits)) + int(cached)

        step = JoinStep(table="r", left_keys=("fk",), right_keys=("pk",),
                        rows_left=self.N_PROBE, rows_right=n_build,
                        rows_out=self.N_PROBE)
        model = DEFAULT_COST_MODEL
        extra = (join_operator_cost(model, operator, step, cache=cache)
                 - model.operator_ns(join_class.__name__, step.rows_left,
                                     step.rows_out, step.rows_right))
        assert extra == pytest.approx(sum(access), rel=1e-12, abs=1e-6)

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("bits", [0, 8])
    @pytest.mark.parametrize("costly", [False, True])
    def test_forced_bits_charge_join_cost_terms(self, executor, cached,
                                                bits, costly):
        costs = self.COSTLY_PARTITIONING if costly else CostParameters()
        join = RadixHashJoin(*self._inputs(), ["fk"], ["pk"],
                             radix_bits=bits)
        cache, access = self._access_charges(join, self.N_LARGE_BUILD,
                                             executor, cached, costs)
        assert join.span_extras["radix_bits"] == bits
        partitioning, memory = join_cost_terms(
            costs, cache, self.N_LARGE_BUILD, self.N_PROBE, bits)
        assert bool(partitioning) == bool(bits)
        assert access == [sum(terms) for terms in (partitioning, memory)
                          if terms]

        # ...and the planner prices exactly those charges when handed
        # the engine's constants and the forced bit count.
        step = JoinStep(table="r", left_keys=("fk",), right_keys=("pk",),
                        rows_left=self.N_PROBE,
                        rows_right=self.N_LARGE_BUILD,
                        rows_out=self.N_PROBE)
        model = DEFAULT_COST_MODEL
        extra = (join_operator_cost(model, "radix", step, cache=cache,
                                    costs=costs, radix_bits=bits)
                 - model.operator_ns("RadixHashJoin", step.rows_left,
                                     step.rows_out, step.rows_right))
        assert extra == pytest.approx(sum(access), rel=1e-12, abs=1e-6)

    @pytest.mark.parametrize("config, expected", [
        ({}, "radix"),
        ({"costs": COSTLY_PARTITIONING}, "hash"),
        ({"radix_bits": 12}, "hash")])
    def test_engine_costs_pick_the_join(self, config, expected):
        """A 120k x 100k join whose build side outgrows the cache:
        default constants pick radix (auto-sized to 2 bits); prohibitive
        partitioning in ``EngineConfig.costs``, or 4096 forced
        partitions, must flip the planner to hash, the cheaper plan as
        the executor charges it."""
        db = _join_db(5, n_left=120_000, n_right=100_000)
        engine = Engine(db, EngineConfig(
            executor="vectorized", optimizer="cost",
            cache_model=CacheModel.tutorial_laptop(), **config))
        sql = "SELECT SUM(lv * rv) AS dot FROM l JOIN r ON fk = pk"
        plan = engine.plan(sql)
        assert list(plan.optimizer_info["join_ops"].values()) \
            == [expected]
        other = "hash" if expected == "radix" else "radix"
        forced_sql = f"{sql} /*+ JOIN_OP(l {other}) */"
        for warm in (sql, forced_sql):  # buffer pool, plan cache
            engine.execute(warm)
        chosen = engine.execute(sql).server_time.real
        assert chosen < engine.execute(forced_sql).server_time.real


def _scan_db(seed, n=10_000, null_fraction=0.0):
    rng = np.random.default_rng(seed)
    v = rng.random(n) * 100.0
    if null_fraction:
        v[rng.random(n) < null_fraction] = np.nan
    db = Database(name=f"scan_{seed}")
    db.create_table(Table.from_columns(
        "ev",
        [("ts", DataType.INT64), ("cat", DataType.STRING),
         ("v", DataType.FLOAT64)],
        {"ts": np.arange(n),
         "cat": np.array(["alpha", "beta", "gamma", "delta"]
                         )[rng.integers(0, 4, n)],
         "v": v}))
    return db


SCAN_QUERIES = (
    "SELECT COUNT(*) AS c, SUM(v) AS s FROM ev WHERE ts < 2500",
    "SELECT COUNT(*) AS c FROM ev WHERE ts BETWEEN 3000 AND 3100",
    "SELECT COUNT(*) AS c FROM ev WHERE cat = 'beta' AND ts >= 9000",
    "SELECT COUNT(*) AS c FROM ev WHERE cat IN ('alpha', 'missing')",
    "SELECT COUNT(*) AS c FROM ev WHERE cat = 'nosuchvalue'",
    "SELECT COUNT(*) AS c, SUM(v) AS s FROM ev WHERE v > 50.0",
    "SELECT COUNT(*) AS c FROM ev WHERE ts < 0",          # all pruned
    "SELECT COUNT(*) AS c FROM ev WHERE ts >= 0",         # all true
)


class TestZoneMapPruningDifferential:
    """Pruned vs unpruned scans: identical results, per executor."""

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    @pytest.mark.parametrize("sql", SCAN_QUERIES)
    def test_pruned_equals_unpruned(self, executor, sql):
        db = _scan_db(23)
        pruned = _rows(db, sql, executor, zone_maps=True)
        unpruned = _rows(db, sql, executor, zone_maps=False)
        assert list(map(repr, pruned)) == list(map(repr, unpruned))

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    @pytest.mark.parametrize("sql", SCAN_QUERIES)
    def test_null_heavy_column(self, executor, sql):
        """60% NaN: PRUNE_ALL proofs must never swallow a NULL."""
        db = _scan_db(31, null_fraction=0.6)
        pruned = _rows(db, sql, executor, zone_maps=True)
        unpruned = _rows(db, sql, executor, zone_maps=False)
        assert list(map(repr, pruned)) == list(map(repr, unpruned))

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_all_pruned_table_is_empty_not_wrong(self, executor):
        db = _scan_db(9)
        rows = _rows(db, "SELECT ts, v FROM ev WHERE ts > 99999",
                     executor)
        assert list(rows) == []

    def test_stale_statistics_after_analyze(self):
        """ANALYZE, then drop/recreate with different data: the stale
        statistics may mislead the planner but never the results."""
        db = _scan_db(2)
        engine = Engine(db, EngineConfig(executor="vectorized",
                                         optimizer="cost"))
        engine.analyze()
        sql = "SELECT COUNT(*) AS c, SUM(v) AS s FROM ev WHERE ts < 500"
        before = engine.execute(sql).rows
        assert before
        # Replace the table: new rows, same schema, fresh zone maps.
        db.drop_table("ev")
        replacement = _scan_db(77, n=4_096)
        db.create_table(replacement.table("ev"))
        stale = engine.execute(sql).rows
        fresh_engine = Engine(db, EngineConfig(executor="vectorized",
                                               optimizer="cost"))
        fresh = fresh_engine.execute(sql).rows
        assert list(map(repr, stale)) == list(map(repr, fresh))


class TestFilterZoneShortCircuit:
    """Satellite fix: zone-map proofs skip predicate evaluation."""

    def _count_predicate_evaluations(self, monkeypatch, executor, sql):
        calls = {"n": 0}
        if executor == "vectorized":
            from repro.db import expressions
            original = kernels.compile_expr

            def counting(expr):
                # Project/Aggregate compile plain column refs too; only
                # the predicate itself is a comparison.
                if isinstance(expr, expressions.Comparison):
                    calls["n"] += 1
                return original(expr)

            monkeypatch.setattr(kernels, "compile_expr", counting)
        else:
            from repro.db import expressions
            original = expressions.Comparison.evaluate

            def counting(self, batch):
                calls["n"] += 1
                return original(self, batch)

            monkeypatch.setattr(expressions.Comparison, "evaluate",
                                counting)
        rows = _rows(_scan_db(13), sql, executor)
        return calls["n"], rows

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_all_false_skips_evaluation(self, monkeypatch, executor):
        n_calls, rows = self._count_predicate_evaluations(
            monkeypatch, executor,
            "SELECT ts FROM ev WHERE ts < 0")
        assert list(rows) == []
        assert n_calls == 0, (
            "Filter re-evaluated a predicate zone maps already proved "
            "all-false")

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_all_true_skips_evaluation(self, monkeypatch, executor):
        n_calls, rows = self._count_predicate_evaluations(
            monkeypatch, executor,
            "SELECT COUNT(*) AS c FROM ev WHERE ts >= 0")
        assert list(rows) == [(10_000,)]
        assert n_calls == 0, (
            "Filter re-evaluated a predicate zone maps already proved "
            "all-true")

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_partial_blocks_still_evaluate(self, monkeypatch, executor):
        n_calls, __ = self._count_predicate_evaluations(
            monkeypatch, executor,
            "SELECT ts FROM ev WHERE ts < 1500")
        assert n_calls >= 1, (
            "a partially-matching scan must still run the predicate")

    def test_shortcircuit_disabled_without_zone_maps(self, monkeypatch):
        calls = {"n": 0}
        original = kernels.compile_expr

        def counting(expr):
            calls["n"] += 1
            return original(expr)

        monkeypatch.setattr(kernels, "compile_expr", counting)
        rows = _rows(_scan_db(13), "SELECT ts FROM ev WHERE ts < 0",
                     "vectorized", zone_maps=False)
        assert list(rows) == []
        assert calls["n"] >= 1
