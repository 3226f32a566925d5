"""One benchmark run: set-up, a measured window of whole passes, the
correctness check, and the metrics.

With ``trace=False`` the window is measured untouched and yields the
end-to-end metrics.  With ``trace=True`` the window is a sequence of
rounds, each an untraced pass, a pass with every layer wrapped
(:mod:`hostbench.layers`) and a pass under a :class:`repro.obs.Tracer`;
it yields the per-layer metrics.  Count metrics come from the first
wrapped pass, which is the same work on every run with one seed; time
metrics are medians over the wrapped passes.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.db import Engine, kernels
from repro.obs import Tracer
from repro.workloads.tpch import generate_tpch

from hostbench import metrics as m
from hostbench.hostspeed import HostSpeed
from hostbench.layers import (
    KERNELS, OPERATORS, STATEMENT_SPAN, Layer, SpanRecorder, summarize)
from hostbench.workloads import (
    Oracle, Outcome, Verdicts, Workload, check)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3


@dataclass
class State:
    """A set-up workload: data, a warmed engine and its statement stream."""

    database: object
    engine: object
    passes: object
    times: Dict[str, float]


def set_up(workload: Workload, seed: int) -> State:
    """Generate data, ANALYZE, build indexes and run one warm-up pass."""
    times = {}
    start = time.perf_counter()
    database = generate_tpch(sf=workload.sf, seed=seed)
    times["tpch.generate_s"] = time.perf_counter() - start
    engine = Engine(database, workload.config())
    times["statistics.analyze_s"] = times["indexes.build_s"] = 0.0
    if workload.analyze:
        mark = time.perf_counter()
        engine.analyze()
        times["statistics.analyze_s"] = time.perf_counter() - mark
    if workload.indexes:
        mark = time.perf_counter()
        for table, column in workload.indexes:
            engine.create_index(table, column)
        times["indexes.build_s"] = time.perf_counter() - mark
    passes = workload.passes(database, seed)
    run_pass(engine, passes.next_pass(), [], [])
    times["setup_s"] = time.perf_counter() - start
    return State(database, engine, passes, times)


def execute_statement(engine, sql: str) -> Outcome:
    """MiniDB's answer to *sql*, or the error it raised."""
    try:
        result = engine.execute(sql)
    except Exception as exc:  # every failure counts, ReproError or not
        return Outcome(sql, error=f"{type(exc).__name__}: {exc}")
    return Outcome(sql, result.columns, result.rows)


def run_pass(engine, statements: List[str], outcomes: List[Outcome],
             latencies: List[float],
             recorder: Optional[SpanRecorder] = None) -> float:
    """Send *statements* one after another; return the pass wall time."""
    pass_start = time.perf_counter()
    for sql in statements:
        if recorder is not None:
            recorder.statement += 1
            span = recorder.open(STATEMENT_SPAN)
        start = time.perf_counter()
        outcomes.append(execute_statement(engine, sql))
        latencies.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.close(span)
    return time.perf_counter() - pass_start


def _counters(engine) -> Dict[str, float]:
    stats = engine.statistics()
    expr = kernels.expression_cache_info()
    stats["expr_hits"] = float(expr["hits"])
    stats["expr_misses"] = float(expr["misses"])
    return stats


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(layers: Dict[str, Layer], direct: Dict[str, float],
                  wall_s: float, n: int, before: Dict[str, float],
                  after: Dict[str, float]) -> m.Metrics:
    """Per-layer metrics of one wrapped pass of *n* statements, from
    :func:`~hostbench.layers.summarize` and engine counters taken
    before and after it."""
    def layer(name: str) -> Layer:
        return layers.get(name, Layer())

    def delta(key: str) -> float:
        return after[key] - before[key]

    ms = 1000.0
    statement_s = layer(STATEMENT_SPAN).self_s + sum(direct.values())
    executed_s = sum(s for name, s in direct.items()
                     if name.startswith("operators."))
    overhead_s = (statement_s - direct.get("parser", 0.0)
                  - direct.get("optimizer", 0.0) - executed_s)
    blocks = layer("zonemaps").counts
    out: m.Metrics = {
        "parser.ms_per_query": (layer("parser").self_s * ms / n, "ms"),
        "optimizer.ms_per_query": (layer("optimizer").self_s * ms / n, "ms"),
        "optimizer.plans_considered": (
            sum(layer("optimizer").counts) / n, "count"),
        "engine.plan_cache_hit_ratio": (
            _ratio(delta("plan_cache_hits"), delta("plan_cache_misses")),
            "ratio"),
        "engine.plan_cache_entries": (after["plan_cache_size"], "count"),
        "engine.overhead_ms_per_query": (overhead_s * ms / n, "ms"),
        "actuals.ms_per_query": (layer("actuals").self_s * ms / n, "ms"),
        "zonemaps.ms_per_query": (layer("zonemaps").self_s * ms / n, "ms"),
        "zonemaps.blocks_pruned_ratio": (
            _ratio(sum(p for p, __ in blocks),
                   sum(t - p for p, t in blocks)), "ratio"),
    }
    for fn in KERNELS:
        lay = layer(f"kernels.{fn}")
        out[f"kernels.{fn}.ms_per_pass"] = (lay.self_s * ms, "ms")
        out[f"kernels.{fn}.calls"] = (float(lay.calls), "count")
    out["kernels.expr_cache_hit_ratio"] = (
        _ratio(delta("expr_hits"), delta("expr_misses")), "ratio")
    for op in OPERATORS:
        lay = layer(f"operators.{op}")
        out[f"operators.{op}.self_ms_per_pass"] = (lay.self_s * ms, "ms")
        out[f"operators.{op}.rows_out"] = (float(sum(lay.counts)), "count")
    out["context.charge_calls_per_query"] = (
        layer("context.charge").calls / n, "count")
    out["context.charge_ms_per_pass"] = (
        layer("context.charge").self_s * ms, "ms")
    out["context.sim_ms_per_pass"] = (delta("simulated_real_s") * ms,
                                  "sim_ms")
    out["buffer.hit_ratio"] = (
        _ratio(delta("buffer_hits"), delta("buffer_misses")), "ratio")
    out["cache.ms_per_pass"] = (layer("cache").self_s * ms, "ms")
    out["cache.accesses"] = (float(layer("cache").calls), "count")
    out["bench.layer_coverage"] = (sum(direct.values()) / wall_s, "share")
    return out


#: Units of deterministic counts (simulated time included): taken from the
#: first wrapped pass, so they repeat exactly on one seed.
COUNT_UNITS = ("count", "ratio", "sim_ms")


@dataclass
class Run:
    """Everything one run measured."""

    workload: Workload
    seed: int
    traced: bool = False
    #: The engine's tuning disclosure (Engine.describe_config()).
    config: Dict[str, str] = field(default_factory=dict)
    setup_times: List[Dict[str, float]] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: Untraced runs: process CPU seconds and HostSpeed.tick() mark of
    #: each measured statement, and the statements of each pass.
    cpu: List[float] = field(default_factory=list)
    marks: List[int] = field(default_factory=list)
    pass_sizes: List[int] = field(default_factory=list)
    passes: int = 0
    peak_rss_mb: float = 0.0
    #: Reference timings around the set-ups and between measured
    #: statements.
    setup_speed: HostSpeed = field(default_factory=HostSpeed)
    window_speed: HostSpeed = field(default_factory=HostSpeed)
    layers: m.Metrics = field(default_factory=dict)
    #: Checks of every measured statement.
    verdicts: Verdicts = field(default_factory=Verdicts)
    #: The window's leading whole passes that first hold the workload's
    #: minimum statement count: the same statements on every run with
    #: one seed, however fast the host.
    counted_statements: int = 0
    #: Checks of those statements alone, the result line's ``attempted``
    #: and ``failed``.
    counted: Verdicts = field(default_factory=Verdicts)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setups(run: Run) -> State:
    state = None
    for __ in range(SETUP_REPS):
        state = None  # release the previous set-up before the next
        gc.collect()
        run.setup_speed.sample()
        state = set_up(run.workload, run.seed)
        run.setup_times.append(state.times)
    run.setup_speed.sample()
    return state


def _end_pass(run: Run) -> None:
    """Mark the end of the pass that first reaches the minimum count."""
    if not run.counted_statements and \
            len(run.outcomes) >= run.workload.min_samples:
        run.counted_statements = len(run.outcomes)


def measure(run: Run, state: State, seconds: float) -> None:
    """Whole passes until *seconds* have passed and the workload's
    minimum sample count is reached.

    ``peak_rss_mb`` is read once the minimum sample count is reached,
    so it covers the same work on a fast host as on a slow one.  The
    host's speed is sampled between statements (:meth:`HostSpeed.tick`),
    outside their timings.
    """
    engine, passes, speed = state.engine, state.passes, run.window_speed
    gc.collect()
    speed.sample()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or \
            not run.counted_statements:
        statements = passes.next_pass()
        for sql in statements:
            run.marks.append(speed.tick())
            cpu, wall = time.process_time(), time.perf_counter()
            run.outcomes.append(execute_statement(engine, sql))
            run.latencies.append(time.perf_counter() - wall)
            run.cpu.append(time.process_time() - cpu)
        run.pass_sizes.append(len(statements))
        run.passes += 1
        _end_pass(run)
        if not run.peak_rss_mb and run.counted_statements:
            run.peak_rss_mb = _peak_rss_mb()
    run.wall_s = time.perf_counter() - start
    speed.sample()


def measure_traced(run: Run, state: State, seconds: float,
                   spans_path: Optional[Path]) -> None:
    """Rounds of (untraced, wrapped, repro.obs-traced) passes."""
    engine, passes = state.engine, state.passes
    recorder = SpanRecorder()
    plain: List[float] = []
    wrapped: List[float] = []
    traced: List[float] = []
    per_pass: List[m.Metrics] = []
    spans_per_query = 0.0
    start = time.perf_counter()
    while not run.counted_statements or \
            time.perf_counter() - start < seconds:
        plain.append(run_pass(engine, passes.next_pass(), run.outcomes,
                              run.latencies))
        _end_pass(run)
        statements = passes.next_pass()
        before = _counters(engine)
        lo = len(recorder.spans)
        with recorder.installed():
            wall = run_pass(engine, statements, run.outcomes, run.latencies,
                            recorder)
        wrapped.append(wall)
        _end_pass(run)
        layers, direct = summarize(recorder.spans, lo, len(recorder.spans))
        per_pass.append(layer_metrics(layers, direct, wall, len(statements),
                                      before, _counters(engine)))
        statements = passes.next_pass()
        tracer = Tracer()
        with tracer.activate():
            traced.append(run_pass(engine, statements, run.outcomes,
                                   run.latencies))
        _end_pass(run)
        if len(traced) == 1:
            spans_per_query = len(tracer.trace()) / len(statements)
        run.passes += 3
    run.wall_s = time.perf_counter() - start
    for name, (value, unit) in per_pass[0].items():
        if unit not in COUNT_UNITS:
            value = m.median([p[name][0] for p in per_pass])
        run.layers[name] = (value, unit)
    run.layers["obs.tracer_overhead_ratio"] = (
        m.median(traced) / m.median(plain), "x")
    run.layers["obs.spans_per_query"] = (spans_per_query, "count")
    run.layers["bench.trace_overhead_ratio"] = (
        m.median(wrapped) / m.median(plain), "x")
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        recorder.dump(spans_path)


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            spans_path: Optional[Path] = None) -> Run:
    """Set up, measure, and check every measured statement.

    ``correct`` covers every measured statement; ``attempted`` and
    ``failed`` count the leading passes in
    :attr:`Run.counted_statements`, so that they repeat exactly on one
    seed, while a window holds more passes on a fast host than on a
    slow one.
    """
    run = Run(workload, seed, traced=trace)
    state = _setups(run)
    run.config = state.engine.describe_config()
    if trace:
        measure_traced(run, state, seconds, spans_path)
    else:
        measure(run, state, seconds)
    oracle = Oracle(state.database, workload.oracle_indexes)
    try:
        run.verdicts = check(run.outcomes, oracle)
        run.counted = check(run.outcomes[:run.counted_statements], oracle)
    finally:
        oracle.close()
    return run


def scaled(run: Run, values: List[float], raw: bool = False) -> List[float]:
    """Per-statement *values* at unit host speed: each divided by the
    host's slowdown around its statement (:meth:`HostSpeed.local`),
    unless *raw*."""
    if raw:
        return list(values)
    speed = run.window_speed
    return [v / speed.local(mark) for v, mark in zip(values, run.marks)]


def per_pass(run: Run, values: List[float]) -> List[float]:
    """Per-statement *values* summed over each measured pass."""
    sums, start = [], 0
    for size in run.pass_sizes:
        sums.append(sum(values[start:start + size]))
        start += size
    return sums


def statement_latencies_ms(run: Run, raw: bool = False) -> List[float]:
    """One latency per executed statement, in ms, at unit host speed
    unless *raw*.  A statement executed several times in the window
    (each TPC-H query once per pass) counts each time at its median
    latency, so percentiles follow the statement mix rather than which
    pass met a burst of host contention."""
    by_sql: Dict[str, List[float]] = {}
    for outcome, seconds in zip(run.outcomes, scaled(run, run.latencies,
                                                     raw)):
        by_sql.setdefault(outcome.sql, []).append(seconds)
    typical = {sql: m.median(times) * 1000.0 for sql, times in by_sql.items()}
    return [typical[outcome.sql] for outcome in run.outcomes]


def end_to_end(run: Run, raw: bool = False) -> m.Metrics:
    """The end-to-end metrics of an untraced run.

    Throughput and CPU cost use the median pass, not the window total,
    so that host contention during a minority of passes moves neither;
    a pass's time is the sum of its statements' times.  Times are scaled
    to unit host speed (:mod:`hostbench.hostspeed`) unless *raw*: each
    statement by the samples around it, each set-up by the samples
    taken just before and after it.
    """
    setups = [t["setup_s"] if raw else
              t["setup_s"] / run.setup_speed.local(i + 1)
              for i, t in enumerate(run.setup_times)]
    ms = statement_latencies_ms(run, raw)
    pass_wall = per_pass(run, scaled(run, run.latencies, raw))
    pass_cpu = per_pass(run, scaled(run, run.cpu, raw))
    statements = run.verdicts.attempted / run.passes
    answered = statements - run.verdicts.failed / run.passes
    return {
        "qps": (answered / m.median(pass_wall), "1/s"),
        "latency_p50_ms": (m.median(ms), "ms"),
        "latency_p90_ms": (m.tail_percentile(ms, 90.0), "ms"),
        "cpu_ms_per_query": (
            m.median(pass_cpu) * 1000.0 / statements, "ms"),
        "setup_s": (m.median(setups), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def setup_layers(run: Run) -> m.Metrics:
    return {name: (m.median([t[name] for t in run.setup_times]), "s")
            for name in ("tpch.generate_s", "statistics.analyze_s",
                         "indexes.build_s")}
