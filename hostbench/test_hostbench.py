"""Tests of the benchmark itself: metric names, the tail-percentile
sample rule, the correctness check, and seed determinism.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest
hostbench``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.db import Engine
from repro.db.systems import SystemResult
from repro.workloads.tpch import generate_tpch, tpch_query

from hostbench import bench
from hostbench import metrics as m
from hostbench.hostspeed import NOMINAL_S, HostSpeed
from hostbench.layers import STATEMENT_SPAN, summarize
from hostbench.workloads import (
    WORKLOADS, LookupPasses, Oracle, Outcome, check, is_sorted, order_keys,
    sort_defect_sql, split_limit, valid_answer)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TINY_SF = 0.002


@pytest.fixture(scope="module")
def tiny_db():
    return generate_tpch(sf=TINY_SF, seed=3)


@pytest.fixture(scope="module")
def tiny_runs():
    """Two traced runs and one untraced run of a tiny tpch-loop."""
    tiny = dataclasses.replace(WORKLOADS["tpch-loop"], sf=TINY_SF)
    traced = [bench.execute(tiny, 5, 0.01, trace=True) for __ in range(2)]
    return traced, bench.execute(tiny, 5, 0.01, trace=False)


# -- metric names ---------------------------------------------------------

@pytest.mark.parametrize("name", ["qps", "latency_p50_ms", "a", "9x",
                                  "kernels.dict_encode.calls", "x-y.z_1"])
def test_name_grammar_accepts(name):
    assert m.check_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", ".leading", "_x",
                                  "p90%", "a/b", "x" * 65])
def test_name_grammar_rejects(name):
    with pytest.raises(ValueError):
        m.check_name(name)


def test_result_line_rejects_bad_unit_and_nan():
    with pytest.raises(ValueError):
        m.result_line(True, 1, 0, {"qps": (1.0, "per second")})
    with pytest.raises(ValueError):
        m.result_line(True, 1, 0, {"qps": (float("nan"), "1/s")})


def test_emitted_metrics_match_benchmark_json(tiny_runs):
    traced, untraced = tiny_runs
    spec = json.loads(BENCHMARK_JSON.read_text())
    per_layer = {**bench.setup_layers(traced[0]), **traced[0].layers}
    end_to_end = bench.end_to_end(untraced)
    assert [x["name"] for x in spec["per_layer"]] == list(per_layer)
    assert [x["name"] for x in spec["end_to_end"]] == list(end_to_end)
    for declared, emitted in ((spec["per_layer"], per_layer),
                              (spec["end_to_end"], end_to_end)):
        for entry in declared:
            assert emitted[entry["name"]][1] == entry["unit"]
    line = json.loads(m.result_line(True, 1, 0, per_layer))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_workload_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- tail percentiles -----------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert m.samples_needed(90.0) == 100
    assert m.samples_needed(99.0) == 1000
    with pytest.raises(ValueError, match="p90 needs 100"):
        m.tail_percentile(list(range(99)), 90.0)
    with pytest.raises(ValueError, match="p99 needs 1000"):
        m.tail_percentile(list(range(999)), 99.0)
    assert m.tail_percentile([float(i) for i in range(1, 101)], 90.0) \
        == pytest.approx(90.1)
    assert m.tail_percentile(list(range(1000)), 99.0) \
        == pytest.approx(989.01)


def test_every_workload_window_supports_its_tails():
    for workload in WORKLOADS.values():
        for pct in (90.0,) + workload.extra_tails:
            assert workload.min_samples >= m.samples_needed(pct)


# -- correctness check ----------------------------------------------------

def _outcomes(engine, sqls):
    results = [engine.execute(sql) for sql in sqls]
    return [Outcome(sql, r.columns, r.rows) for sql, r in zip(sqls, results)]


def test_corrupted_result_fails_the_check(tiny_db):
    engine = Engine(tiny_db)
    sqls = [tpch_query(q) for q in (1, 3, 6)]
    outcomes = _outcomes(engine, sqls)
    oracle = Oracle(tiny_db)
    try:
        clean = check(outcomes, oracle)
        assert (clean.attempted, clean.failed, clean.correct) == (3, 0, True)
        rows = [list(r) for r in outcomes[1].rows]
        rows[0][-1] = rows[0][-1] + 1  # one wrong value
        outcomes[1] = Outcome(outcomes[1].sql, outcomes[1].columns,
                              tuple(tuple(r) for r in rows))
        outcomes.append(Outcome(sqls[0], error="PlanError"))
        dirty = check(outcomes, oracle)
    finally:
        oracle.close()
    assert (dirty.attempted, dirty.failed, dirty.known) == (4, 2, 0)
    assert not dirty.correct


def test_misordered_rows_fail_the_check(tiny_db):
    engine = Engine(tiny_db)
    sql = ("SELECT n_name, n_nationkey FROM nation "
           "ORDER BY n_nationkey DESC")
    outcome = _outcomes(engine, [sql])[0]
    reversed_rows = Outcome(sql, outcome.columns, outcome.rows[::-1])
    oracle = Oracle(tiny_db)
    try:
        assert check([outcome], oracle).failed == 0
        assert not check([reversed_rows], oracle).correct
    finally:
        oracle.close()


def test_known_sort_defect_is_counted_but_attributed(tiny_db):
    sql = tpch_query(13)
    oracle = Oracle(tiny_db)
    try:
        defect_rows = oracle.answer(sort_defect_sql(sql)).rows
        columns = ("c_custkey", "c_count")
        verdicts = check([Outcome(sql, columns, defect_rows)], oracle)
        assert (verdicts.failed, verdicts.known, verdicts.correct) \
            == (1, 1, True)
        # Rows matching neither answer are an unexpected failure.
        scrambled = defect_rows[1:] + defect_rows[:1]
        verdicts = check([Outcome(sql, columns, scrambled)], oracle)
        assert (verdicts.failed, verdicts.known, verdicts.correct) \
            == (1, 0, False)
    finally:
        oracle.close()


def test_sort_defect_rewrite():
    base = "SELECT a, b FROM t ORDER BY {} LIMIT 5"
    assert sort_defect_sql(base.format("a DESC, b")) \
        == base.format("a DESC, b DESC")
    assert sort_defect_sql(base.format("a DESC, b DESC")) \
        == base.format("a DESC, b ASC")
    assert sort_defect_sql(base.format("a, b DESC")) is None
    assert sort_defect_sql("SELECT a FROM t") is None
    assert order_keys("SELECT a FROM t ORDER BY a, b DESC") \
        == [("a", True), ("b", False)]


def test_limit_may_cut_ties_either_way():
    columns, keys = ("k", "v"), [("k", False)]
    full = SystemResult("sqlite", columns,
                        ((3, "a"), (2, "b"), (2, "c"), (1, "d")), 0.0)
    assert valid_answer(columns, ((3, "a"), (2, "c")), keys, 2, full)
    assert valid_answer(columns, ((3, "a"), (2, "b")), keys, 2, full)
    for wrong in (((3, "a"), (1, "d")),      # skips a better row
                  ((3, "a"), (2, "x")),      # not a reference row
                  ((2, "b"), (3, "a")),      # out of order
                  ((3, "a"),)):              # too few rows
        assert not valid_answer(columns, wrong, keys, 2, full)
    assert split_limit("SELECT a FROM t ORDER BY a LIMIT 7") \
        == ("SELECT a FROM t ORDER BY a", 7)
    assert split_limit("SELECT a FROM t") == ("SELECT a FROM t", None)


def test_is_sorted():
    cols = ("a", "b")
    rows = ((2, 1), (2, 3), (1, 0))
    assert is_sorted(cols, rows, [("a", False), ("b", True)])
    assert not is_sorted(cols, rows, [("a", False), ("b", False)])
    assert is_sorted(cols, rows, [])


# -- spans ----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [[STATEMENT_SPAN, 0.0, 10.0, -1, 0, 0],
             ["parser", 1.0, 2.0, 0, 0, 0],
             ["operators.Sort", 3.0, 9.0, 0, 0, 5],
             ["operators.SeqScan", 3.5, 8.0, 2, 0, 7],
             ["kernels.dict_encode", 4.0, 6.0, 3, 0, 0]]
    layers, direct = summarize(spans, 0, len(spans))
    assert layers[STATEMENT_SPAN].self_s == pytest.approx(3.0)
    assert layers["operators.Sort"].self_s == pytest.approx(1.5)
    assert layers["operators.SeqScan"].self_s == pytest.approx(2.5)
    assert layers["kernels.dict_encode"].self_s == pytest.approx(2.0)
    assert layers["operators.SeqScan"].counts == [7]
    assert direct == {"parser": 1.0, "operators.Sort": 6.0}


# -- determinism ----------------------------------------------------------

def test_lookup_stream_is_deterministic_per_seed(tiny_db):
    first = [LookupPasses(tiny_db, 11).next_pass() for __ in range(2)]
    assert first[0] == first[1]
    stream = LookupPasses(tiny_db, 11)
    assert stream.next_pass() != stream.next_pass()
    assert LookupPasses(tiny_db, 12).next_pass() != first[0]


def test_lookup_statements_all_answer(tiny_db):
    workload = WORKLOADS["point-lookups"]
    engine = Engine(tiny_db, workload.config())
    engine.analyze()
    for table, column in workload.indexes:
        engine.create_index(table, column)
    statements = LookupPasses(tiny_db, 4).next_pass()[:60]
    oracle = Oracle(tiny_db, workload.oracle_indexes)
    try:
        verdicts = check(_outcomes(engine, statements), oracle)
    finally:
        oracle.close()
    assert (verdicts.attempted, verdicts.failed) == (60, 0)


def test_data_is_deterministic_per_seed():
    a, b = generate_tpch(sf=TINY_SF, seed=8), generate_tpch(sf=TINY_SF,
                                                           seed=8)
    for name in a.table_names:
        for column in a.table(name).column_names:
            assert list(a.table(name).column(column).data) \
                == list(b.table(name).column(column).data)


def test_count_metrics_repeat_exactly(tiny_runs):
    traced, __ = tiny_runs
    counts = [{name: value for name, (value, unit) in run.layers.items()
               if unit in bench.COUNT_UNITS} for run in traced]
    assert counts[0] == counts[1]
    assert counts[0]["operators.HashJoin.rows_out"] > 0
    assert traced[0].verdicts.attempted == traced[1].verdicts.attempted


def test_result_line_counts_repeat_exactly(tiny_runs):
    traced, untraced = tiny_runs
    counts = {(run.counted.attempted, run.counted.failed)
              for run in (*traced, untraced)}
    assert len(counts) == 1
    attempted, __ = counts.pop()
    minimum = untraced.workload.min_samples
    assert minimum <= attempted < minimum + 22 and attempted % 22 == 0


def test_host_speed_scales_by_the_samples_around_a_statement():
    speed = HostSpeed()
    speed.medians = [NOMINAL_S, 3 * NOMINAL_S, 2 * NOMINAL_S]
    assert speed.local(1) == pytest.approx(2.0)
    assert speed.local(2) == pytest.approx(2.5)
    assert speed.local(3) == pytest.approx(2.0)  # after the last sample
