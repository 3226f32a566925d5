"""The MiniDB planner/optimizer.

Turns a parsed :class:`~repro.db.parser.SelectStatement` into a physical
plan.  Two planners coexist:

**v1, heuristic** — quality driven by the engine's ``optimizer``
profile, deliberately so, to reproduce the tutorial's "factor 2-10
between out-of-the-box and tuned configurations" observation (slides
42-45):

- *heuristic* (default): column pruning on scans, predicate pushdown
  below joins, hash joins with the build side on the smaller input;
- *untuned*: whole-row scans, filters evaluated only after all joins,
  hash joins in textual order;
- *naive*: untuned with nested-loop joins.

**v2, cost-based** (``PlannerOptions.cost_based`` or any ``/*+ ... */``
hint in the statement) — Selinger-style left-deep join-order
enumeration (exact dynamic programming up to :data:`MAX_DP_TABLES`
relations, greedy beyond), cardinalities from the
:class:`~repro.db.statistics.StatisticsCatalog` via
:class:`~repro.db.costmodel.CardinalityEstimator`, operator costs from
a calibrated :class:`~repro.db.costmodel.CostModel`, and physical
operators (hash/radix/merge/loop join, seq/index scan, build side)
chosen by :func:`repro.db.physops.select_operators`.  Every node of
a cost-based plan carries ``est_rows``/``est_cost_ns`` annotations that
EXPLAIN renders and E25 compares against actuals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.db.context import CostParameters
from repro.db.costmodel import (
    CardinalityEstimator,
    CostModel,
    DEFAULT_COST_MODEL,
)
from repro.db.disk import PAGE_SIZE_BYTES
from repro.db.expressions import (
    ColumnRef,
    Expr,
    conjoin,
    estimate_selectivity,
    split_conjuncts,
)
from repro.db.indexes import IndexCatalog, IndexScan, try_index_scan
from repro.db.operators import (
    AggFunc,
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Project,
    RadixHashJoin,
    SeqScan,
    Sort,
)
from repro.db.parser import JOIN_OPERATORS, SelectStatement
from repro.db.physops import (
    JoinStep,
    OperatorSelectionContext,
    PhysicalOperatorAssignment,
    join_operator_cost,
    select_operators,
)
from repro.db.plan import PlanNode, sanitize_estimate
from repro.db.statistics import StatisticsCatalog
from repro.db.storage import Database
from repro.errors import PlanError

#: Exact DP enumeration up to this many relations; greedy beyond.
MAX_DP_TABLES = 6


@dataclass(frozen=True)
class PlannerOptions:
    """Optimizer behaviour knobs."""

    tuned: bool = True
    prune_columns: bool = True
    pushdown: bool = True
    hash_joins: bool = True
    #: Use the v2 cost-based planner (join-order enumeration + physical
    #: operator selection) instead of the v1 heuristics.
    cost_based: bool = False

    @classmethod
    def untuned(cls) -> "PlannerOptions":
        """The out-of-the-box configuration of slide 42's war story:
        no column pruning, no predicate pushdown — but still sane join
        algorithms (the 2-10x band is about configuration, not about
        quadratic blow-ups)."""
        return cls(tuned=False, prune_columns=False, pushdown=False,
                   hash_joins=True)

    @classmethod
    def naive(cls) -> "PlannerOptions":
        """Everything off, including hash joins: the strawman prototype
        a nested-loop comparison baseline needs (see E19's speed-up)."""
        return cls(tuned=False, prune_columns=False, pushdown=False,
                   hash_joins=False)

    @classmethod
    def cost(cls) -> "PlannerOptions":
        """The v2 cost-based planner with all tuning on."""
        return cls(cost_based=True)


def _referenced_columns(statement: SelectStatement) -> Set[str]:
    """Every column name the statement touches outside join conditions.

    Join-key columns are resolved separately (see :func:`_resolve_join`)
    because the same key name may legitimately appear on both sides of an
    equi-join.
    """
    columns: Set[str] = set()
    for item in statement.items:
        if item.expr is not None:
            columns |= item.expr.columns()
    if statement.where is not None:
        columns |= statement.where.columns()
    columns |= set(statement.group_by)
    return columns


def _resolve_join(database: Database, join, available: Sequence[str]
                  ) -> Tuple[str, str, str]:
    """Orient one join clause.

    Returns ``(left_col, left_owner, right_col)`` where ``left_col``
    comes from the tables joined so far and ``right_col`` from the new
    table.  Handles both orientations and same-named keys.
    """
    new = join.table
    a, b = join.left_column, join.right_column

    def owners_in_available(col: str) -> List[str]:
        return [t for t in available
                if database.table(t).has_column(col)]

    def in_new(col: str) -> bool:
        return database.table(new).has_column(col)

    if a == b:
        owners = owners_in_available(a)
        if not owners or not in_new(a):
            raise PlanError(
                f"join key {a!r} must exist both in {new!r} and in an "
                f"already-joined table ({list(available)})")
        if len(owners) > 1:
            raise PlanError(f"join key {a!r} is ambiguous across {owners}")
        return a, owners[0], a

    for left_col, right_col in ((a, b), (b, a)):
        owners = owners_in_available(left_col)
        if len(owners) == 1 and in_new(right_col):
            return left_col, owners[0], right_col
    raise PlanError(
        f"cannot orient join condition {a}={b}: one side must come from "
        f"{list(available)} and the other from {new!r}")


def plan_statement(statement: SelectStatement, database: Database,
                   options: Optional[PlannerOptions] = None,
                   indexes: Optional[IndexCatalog] = None,
                   stats: Optional[StatisticsCatalog] = None,
                   cost_model: Optional[CostModel] = None,
                   cache=None, costs: Optional[CostParameters] = None,
                   radix_bits: Optional[int] = None) -> PlanNode:
    """Build the physical plan for one statement.

    Dispatches to the v2 cost-based planner when the options say so or
    when the statement carries ``/*+ ... */`` hints (hints are a
    cost-based-planner feature; they force its hands, so they imply it).
    Otherwise the v1 heuristic planner runs, unchanged.  *cache* is an
    optional counter-free :class:`~repro.hardware.cache.CacheHierarchy`
    the cost-based planner uses to price join memory-access patterns;
    *costs* and *radix_bits* are the engine's charge constants and
    forced radix bits, so joins are priced as the executor charges them.
    """
    options = options if options is not None else PlannerOptions()
    tables = statement.tables
    for table in tables:
        database.table(table)  # raises CatalogError for unknown tables
    if len(set(tables)) != len(tables):
        raise PlanError(f"self-joins are not supported: {tables}")
    if options.cost_based or not statement.hints.is_empty:
        return _plan_cost_based(statement, database, options, indexes,
                                stats, cost_model, cache, costs,
                                radix_bits)
    return _plan_heuristic(statement, database, options, indexes)


def _plan_heuristic(statement: SelectStatement, database: Database,
                    options: PlannerOptions,
                    indexes: Optional[IndexCatalog]) -> PlanNode:
    """The v1 planner: textual join order, tuned/untuned heuristics.

    When an :class:`~repro.db.indexes.IndexCatalog` is supplied and the
    options are tuned, a selective indexable equality conjunct turns the
    base access path into an :class:`~repro.db.indexes.IndexScan`.
    """
    tables = statement.tables

    # Which table owns each referenced column (must be unambiguous).
    ownership: Dict[str, str] = {}
    for column in _referenced_columns(statement):
        owner, __ = database.resolve_column(column, tables)
        ownership[column] = owner

    per_table_columns: Dict[str, Set[str]] = {t: set() for t in tables}
    for column, owner in ownership.items():
        per_table_columns[owner].add(column)

    # Orient join clauses and account their key columns per table.
    oriented: List[Tuple[str, str, str]] = []  # (left_col, left_owner, right_col)
    available: List[str] = [statement.table]
    for join in statement.joins:
        left_col, left_owner, right_col = _resolve_join(
            database, join, available)
        oriented.append((left_col, left_owner, right_col))
        per_table_columns[left_owner].add(left_col)
        per_table_columns[join.table].add(right_col)
        available.append(join.table)

    # Split WHERE into pushable and residual conjuncts.
    pushed: Dict[str, List[Expr]] = {t: [] for t in tables}
    residual: List[Expr] = []
    if statement.where is not None:
        for conjunct in split_conjuncts(statement.where):
            owners = {ownership[c] for c in conjunct.columns()}
            if options.pushdown and len(owners) == 1:
                pushed[owners.pop()].append(conjunct)
            else:
                residual.append(conjunct)

    def scan_for(table: str) -> PlanNode:
        columns: Optional[List[str]] = None
        if options.prune_columns:
            columns = sorted(per_table_columns[table])
            if not columns:
                # COUNT(*)-style queries reference no columns; a scan
                # still needs one to carry the row count.
                columns = [database.table(table).column_names[0]]
        conjuncts = list(pushed[table])
        node: Optional[PlanNode] = None
        if indexes is not None and options.tuned:
            for i, conjunct in enumerate(conjuncts):
                index_scan = try_index_scan(database, indexes, table,
                                            conjunct, columns)
                if index_scan is not None:
                    node = index_scan
                    del conjuncts[i]
                    break
        if node is None:
            node = SeqScan(table, columns=columns)
        if conjuncts:
            predicate = conjoin(conjuncts)
            if isinstance(node, SeqScan):
                # Pushdown reaches the scan: let zone maps prune blocks
                # against the very predicate the Filter above applies.
                node.prune_for = predicate
            node = Filter(node, predicate)
        return node

    plan = scan_for(statement.table)
    for join, (left_col, __, right_col) in zip(statement.joins, oriented):
        right = scan_for(join.table)
        if options.hash_joins:
            plan = HashJoin(plan, right, [left_col], [right_col])
        else:
            plan = NestedLoopJoin(plan, right, [left_col], [right_col])

    if residual:
        plan = Filter(plan, conjoin(residual))

    plan = _plan_output(statement, plan)

    if statement.distinct:
        plan = Distinct(plan)
    if statement.order_by:
        plan = Sort(plan, statement.order_by)
    if statement.limit is not None:
        plan = Limit(plan, statement.limit)
    return plan


def _plan_output(statement: SelectStatement, plan: PlanNode) -> PlanNode:
    """Aggregation and final projection."""
    if statement.has_aggregates or statement.group_by:
        aggregates: List[Tuple[AggFunc, Optional[Expr], str]] = []
        for item in statement.items:
            if item.is_aggregate:
                aggregates.append((item.agg, item.expr, item.alias))
            else:
                if not isinstance(item.expr, ColumnRef) \
                        or item.expr.name not in statement.group_by:
                    raise PlanError(
                        f"non-aggregate output {item.alias!r} must be a "
                        f"GROUP BY column; grouped by "
                        f"{list(statement.group_by)}")
        plan = Aggregate(plan, statement.group_by, aggregates)
        # Reorder/rename the aggregate's output to the SELECT list shape.
        items = []
        for item in statement.items:
            source = item.alias if item.is_aggregate else item.expr.name
            items.append((ColumnRef(source), item.alias))
        aliases = {alias for __, alias in items}
        for column, __ in statement.order_by:
            if column not in aliases:
                raise PlanError(
                    f"ORDER BY column {column!r} is not in the output; "
                    f"outputs: {sorted(aliases)}")
        plan = Project(plan, items)
        if statement.having is not None:
            unknown = [c for c in statement.having.columns()
                       if c not in aliases]
            if unknown:
                raise PlanError(
                    f"HAVING references {unknown} which are not output "
                    f"columns; outputs: {sorted(aliases)}")
            plan = Filter(plan, statement.having)
        return plan

    if statement.having is not None:
        raise PlanError("HAVING requires GROUP BY or aggregates")
    items = [(item.expr, item.alias) for item in statement.items]
    return Project(plan, items)


def count_plan_nodes(plan: PlanNode) -> int:
    """Number of nodes in a plan (used to charge optimizer CPU cost)."""
    return sum(1 for __ in plan.walk())


# ---------------------------------------------------------------------------
# v2: cost-based planning
# ---------------------------------------------------------------------------

def _join_edges(statement: SelectStatement, database: Database
                ) -> List[Tuple[str, str, str, str]]:
    """Resolve every join clause into a symmetric ``(table_a, col_a,
    table_b, col_b)`` edge — no textual orientation, the enumerator
    decides order."""
    tables = statement.tables
    edges: List[Tuple[str, str, str, str]] = []
    for join in statement.joins:
        a, b = join.left_column, join.right_column
        if a == b:
            owners = [t for t in tables
                      if database.table(t).has_column(a)]
            if len(owners) != 2:
                raise PlanError(
                    f"join key {a!r} must appear in exactly two of "
                    f"{tables}, found in {owners}")
            edges.append((owners[0], a, owners[1], a))
        else:
            for column in (a, b):
                if not any(database.table(t).has_column(column)
                           for t in tables):
                    raise PlanError(
                        f"join condition {a}={b}: {column!r} is not a "
                        f"column of {tables}")
            table_a, __ = database.resolve_column(a, tables)
            table_b, __ = database.resolve_column(b, tables)
            if table_a == table_b:
                raise PlanError(
                    f"join condition {a}={b} references only "
                    f"{table_a!r}; it must link two tables")
            edges.append((table_a, a, table_b, b))
    return edges


def enumerate_join_orders(statement: SelectStatement, database: Database,
                          max_orders: Optional[int] = None
                          ) -> List[Tuple[str, ...]]:
    """All connected left-deep join orders of the statement's tables.

    Cross products are never enumerated: each table must join the prefix
    through at least one edge.  E25 sweeps this space (hinting each
    order) to locate the best and worst plans the optimizer could pick.
    Raises :class:`PlanError` if the join graph is disconnected.
    """
    tables = statement.tables
    if len(set(tables)) != len(tables):
        raise PlanError(f"self-joins are not supported: {tables}")
    if len(tables) == 1:
        return [(tables[0],)]
    adjacency: Dict[str, Set[str]] = {t: set() for t in tables}
    for table_a, __, table_b, __b in _join_edges(statement, database):
        adjacency[table_a].add(table_b)
        adjacency[table_b].add(table_a)

    orders: List[Tuple[str, ...]] = []

    def extend(prefix: List[str], remaining: List[str]) -> None:
        if max_orders is not None and len(orders) >= max_orders:
            return
        if not remaining:
            orders.append(tuple(prefix))
            return
        connected = [t for t in remaining
                     if any(u in adjacency[t] for u in prefix)]
        if not connected:
            raise PlanError(
                f"join graph is disconnected: {remaining} cannot join "
                f"{prefix} without a cross product")
        for t in connected:
            extend(prefix + [t], [r for r in remaining if r != t])

    for first in tables:
        extend([first], [t for t in tables if t != first])
    return orders


@dataclass
class _ScanInfo:
    """Access-path alternatives for one base table."""

    table: str
    columns: List[str]
    conjuncts: List[Expr]
    base_rows: float
    rows: float            # estimated rows after all pushed conjuncts
    row_bytes: float
    paths: Dict[str, float] = field(default_factory=dict)  # op → total ns
    index_scan: Optional[IndexScan] = None
    index_pos: int = -1    # which conjunct the index consumes
    index_matches: float = 0.0
    index_pages: int = 0


@dataclass(frozen=True)
class _JoinPrefix:
    """Best-known left-deep plan for one subset of the tables."""

    order: Tuple[str, ...]
    steps: Tuple[JoinStep, ...]
    rows: float
    cost: float


@dataclass
class _CostContext:
    """Everything the enumerator needs, bundled once per statement."""

    estimator: CardinalityEstimator
    model: CostModel
    edges: List[Tuple[str, str, str, str]]
    scans: Dict[str, _ScanInfo]
    #: residual WHERE conjuncts with the tables each one references
    residual: List[Tuple[Expr, FrozenSet[str]]]
    #: counter-free cache hierarchy for join memory costing (optional)
    cache: Optional[object] = None
    #: the engine's charge constants and forced radix bits (optional)
    costs: Optional[CostParameters] = None
    radix_bits: Optional[int] = None


def _collect_scan_info(statement: SelectStatement, database: Database,
                       per_table_columns: Dict[str, Set[str]],
                       pushed: Dict[str, List[Expr]],
                       estimator: CardinalityEstimator, model: CostModel,
                       indexes: Optional[IndexCatalog]
                       ) -> Dict[str, _ScanInfo]:
    scans: Dict[str, _ScanInfo] = {}
    for table in statement.tables:
        columns = sorted(per_table_columns[table]) \
            or [database.table(table).column_names[0]]
        conjuncts = list(pushed[table])
        base = estimator.base_rows(table)
        rows = sanitize_estimate(estimator.scan_rows(table, conjuncts),
                                 fallback=base)
        row_bytes = estimator.row_bytes(table)
        info = _ScanInfo(table=table, columns=columns,
                         conjuncts=conjuncts, base_rows=base, rows=rows,
                         row_bytes=row_bytes)
        seq = model.operator_ns("SeqScan", base, base,
                                bytes_touched=base * row_bytes)
        if conjuncts:
            seq += model.operator_ns("Filter", base, rows)
        info.paths["seq"] = seq
        if indexes is not None:
            for i, conjunct in enumerate(conjuncts):
                # max_selectivity=1.0: candidate generation is the cost
                # model's job now; unselective index scans simply lose.
                candidate = try_index_scan(database, indexes, table,
                                           conjunct, columns,
                                           max_selectivity=1.0)
                if candidate is None:
                    continue
                matched = candidate.index.lookup(candidate.key)
                pages = candidate.index.pages_for_rows(matched)
                cost = model.operator_ns(
                    "IndexScan", float(matched.size), float(matched.size),
                    bytes_touched=float(len(pages)) * PAGE_SIZE_BYTES)
                rest = conjuncts[:i] + conjuncts[i + 1:]
                if rest:
                    cost += model.operator_ns(
                        "Filter", float(matched.size),
                        float(matched.size)
                        * estimator.selectivity(table, rest))
                info.index_scan = candidate
                info.index_pos = i
                info.index_matches = float(matched.size)
                info.index_pages = len(pages)
                info.paths["index"] = cost
                break
        scans[table] = info
    return scans


def _key_ndvs(ctx: _CostContext, prefix: _JoinPrefix, table: str
              ) -> List[Tuple[str, str, float, float]]:
    """Join-key pairs linking *table* to the prefix: ``(left_key,
    right_key, ndv_left, ndv_right)`` per edge, NDVs capped by each
    side's current cardinality."""
    joined = set(prefix.order)
    pairs: List[Tuple[str, str, float, float]] = []
    rows_right = ctx.scans[table].rows
    for table_a, col_a, table_b, col_b in ctx.edges:
        if table_a in joined and table_b == table:
            owner, left_key, right_key = table_a, col_a, col_b
        elif table_b in joined and table_a == table:
            owner, left_key, right_key = table_b, col_b, col_a
        else:
            continue
        ndv_left = min(ctx.estimator.ndv(owner, left_key),
                       ctx.scans[owner].rows, prefix.rows)
        ndv_right = min(ctx.estimator.ndv(table, right_key), rows_right)
        pairs.append((left_key, right_key,
                      max(1.0, ndv_left), max(1.0, ndv_right)))
    return pairs


def _newly_available(ctx: _CostContext, before: Set[str],
                     after: Set[str]) -> List[Expr]:
    return [conjunct for conjunct, owners in ctx.residual
            if owners <= after and not owners <= before]


def _extend(ctx: _CostContext, prefix: _JoinPrefix, table: str
            ) -> Optional[_JoinPrefix]:
    """Join *table* onto *prefix*; None when no edge connects them."""
    pairs = _key_ndvs(ctx, prefix, table)
    if not pairs:
        return None
    info = ctx.scans[table]
    rows_out = prefix.rows * info.rows
    for __, __r, ndv_left, ndv_right in pairs:
        rows_out /= max(ndv_left, ndv_right)
    # An observed cardinality for exactly this base-table set
    # (q-error feedback) overrides the independence-based estimate.
    observed = ctx.estimator.join_observed(set(prefix.order) | {table})
    if observed is not None:
        rows_out = observed
    rows_out = sanitize_estimate(rows_out)
    step = JoinStep(table=table,
                    left_keys=tuple(k for k, *__ in pairs),
                    right_keys=tuple(r for __, r, *__k in pairs),
                    rows_left=prefix.rows, rows_right=info.rows,
                    rows_out=rows_out)
    step_cost = min(join_operator_cost(ctx.model, op, step,
                                       cache=ctx.cache, costs=ctx.costs,
                                       radix_bits=ctx.radix_bits)
                    for op in JOIN_OPERATORS)
    cost = prefix.cost + min(info.paths.values()) + step_cost
    before, after = set(prefix.order), set(prefix.order) | {table}
    rows = rows_out
    for conjunct in _newly_available(ctx, before, after):
        filtered = rows * estimate_selectivity(conjunct)
        cost += ctx.model.operator_ns("Filter", rows, filtered)
        rows = filtered
    return _JoinPrefix(order=prefix.order + (table,),
                       steps=prefix.steps + (step,),
                       rows=sanitize_estimate(rows),
                       cost=sanitize_estimate(cost, fallback=prefix.cost))


def _start_prefix(ctx: _CostContext, table: str) -> _JoinPrefix:
    info = ctx.scans[table]
    rows, cost = info.rows, min(info.paths.values())
    for conjunct in _newly_available(ctx, set(), {table}):
        filtered = rows * estimate_selectivity(conjunct)
        cost += ctx.model.operator_ns("Filter", rows, filtered)
        rows = filtered
    return _JoinPrefix(order=(table,), steps=(), rows=rows, cost=cost)


def _dp_join_order(ctx: _CostContext, tables: Sequence[str],
                   starts: Sequence[str]) -> Tuple[_JoinPrefix, int]:
    """Exact left-deep dynamic programming (Selinger): best plan per
    table subset, extended one table at a time.  Only *starts* may
    anchor an order (tables with JOIN_OP/BUILD hints must be introduced
    by a join step for their hint to bind)."""
    best: Dict[FrozenSet[str], _JoinPrefix] = {
        frozenset([t]): _start_prefix(ctx, t) for t in starts}
    considered = len(starts)
    for size in range(2, len(tables) + 1):
        for subset in itertools.combinations(tables, size):
            champion: Optional[_JoinPrefix] = None
            for table in subset:
                previous = best.get(frozenset(subset) - {table})
                if previous is None:
                    continue
                candidate = _extend(ctx, previous, table)
                if candidate is None:
                    continue
                considered += 1
                if champion is None or candidate.cost < champion.cost:
                    champion = candidate
            if champion is not None:
                best[frozenset(subset)] = champion
    final = best.get(frozenset(tables))
    if final is None:
        raise PlanError(
            f"join graph is disconnected across {list(tables)}; add "
            f"join conditions linking all tables")
    return final, considered


def _greedy_join_order(ctx: _CostContext, tables: Sequence[str],
                       starts: Sequence[str]) -> Tuple[_JoinPrefix, int]:
    """Beyond :data:`MAX_DP_TABLES`: start from the smallest filtered
    table, repeatedly add the cheapest connected extension."""
    start = min(starts, key=lambda t: ctx.scans[t].rows)
    prefix = _start_prefix(ctx, start)
    remaining = [t for t in tables if t != start]
    considered = 1
    while remaining:
        champion: Optional[_JoinPrefix] = None
        champion_table: Optional[str] = None
        for table in remaining:
            candidate = _extend(ctx, prefix, table)
            if candidate is None:
                continue
            considered += 1
            if champion is None or candidate.cost < champion.cost:
                champion, champion_table = candidate, table
        if champion is None:
            raise PlanError(
                f"join graph is disconnected: {remaining} cannot join "
                f"{list(prefix.order)} without a cross product")
        prefix = champion
        remaining.remove(champion_table)
    return prefix, considered


def _hinted_join_order(ctx: _CostContext, tables: Sequence[str],
                       order: Tuple[str, ...]
                       ) -> Tuple[_JoinPrefix, int]:
    if sorted(order) != sorted(tables):
        raise PlanError(
            f"JOIN_ORDER hint must list every statement table exactly "
            f"once; hint {list(order)} vs tables {list(tables)}")
    prefix = _start_prefix(ctx, order[0])
    for table in order[1:]:
        extended = _extend(ctx, prefix, table)
        if extended is None:
            raise PlanError(
                f"JOIN_ORDER hint {list(order)} requires a cross "
                f"product at {table!r}; hinted orders must stay "
                f"connected")
        prefix = extended
    return prefix, 1


def _annotate(node: PlanNode, rows: float, own_cost_ns: float) -> PlanNode:
    """Stamp optimizer estimates: row count plus cumulative subtree
    cost (this operator + all children)."""
    node.est_rows = sanitize_estimate(rows)
    node.est_cost_ns = sanitize_estimate(
        own_cost_ns + sum(child.est_cost_ns or 0.0
                          for child in node.children))
    return node


def _plan_cost_based(statement: SelectStatement, database: Database,
                     options: PlannerOptions,
                     indexes: Optional[IndexCatalog],
                     stats: Optional[StatisticsCatalog],
                     cost_model: Optional[CostModel],
                     cache=None, costs: Optional[CostParameters] = None,
                     radix_bits: Optional[int] = None) -> PlanNode:
    """The v2 planner: enumerate join orders, select physical operators
    (cost first, then hints), assemble an annotated plan."""
    model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    estimator = CardinalityEstimator(database, stats)
    hints = statement.hints
    tables = statement.tables

    ownership: Dict[str, str] = {}
    for column in _referenced_columns(statement):
        owner, __ = database.resolve_column(column, tables)
        ownership[column] = owner
    per_table_columns: Dict[str, Set[str]] = {t: set() for t in tables}
    for column, owner in ownership.items():
        per_table_columns[owner].add(column)

    edges = _join_edges(statement, database)
    for table_a, col_a, table_b, col_b in edges:
        per_table_columns[table_a].add(col_a)
        per_table_columns[table_b].add(col_b)

    # Pushdown is always on in the cost-based planner; only the split
    # between single-table (pushed) and multi-table (residual) matters.
    pushed: Dict[str, List[Expr]] = {t: [] for t in tables}
    residual: List[Tuple[Expr, FrozenSet[str]]] = []
    if statement.where is not None:
        for conjunct in split_conjuncts(statement.where):
            owners = frozenset(ownership[c] for c in conjunct.columns())
            if len(owners) == 1:
                pushed[next(iter(owners))].append(conjunct)
            else:
                residual.append((conjunct, owners))

    scans = _collect_scan_info(statement, database, per_table_columns,
                               pushed, estimator, model, indexes)
    ctx = _CostContext(estimator=estimator, model=model, edges=edges,
                       scans=scans, residual=residual, cache=cache,
                       costs=costs, radix_bits=radix_bits)

    # -- join-order enumeration -------------------------------------------
    # Tables carrying JOIN_OP/BUILD hints must be *introduced* by a join
    # step (the first table of a left-deep order has no join operator),
    # so keep them off the anchor position whenever possible.
    hinted_joins = ({t for t, __ in hints.join_ops}
                    | {t for t, __ in hints.build_sides})
    starts = [t for t in tables if t not in hinted_joins] or list(tables)
    if len(tables) == 1:
        prefix, considered, method = _start_prefix(ctx, tables[0]), 1, "single"
    elif hints.join_order:
        prefix, considered = _hinted_join_order(ctx, tables,
                                                hints.join_order)
        method = "hinted"
    elif len(tables) <= MAX_DP_TABLES:
        prefix, considered = _dp_join_order(ctx, tables, starts)
        method = "dp"
    else:
        prefix, considered = _greedy_join_order(ctx, tables, starts)
        method = "greedy"

    # -- physical-operator selection: cost first, then hints ---------------
    assignment = select_operators(
        OperatorSelectionContext(
            steps=prefix.steps,
            scan_costs={t: dict(scans[t].paths) for t in tables},
            cost_model=model,
            cache=cache, costs=costs, radix_bits=radix_bits),
        hints)

    plan = _assemble_cost_plan(statement, ctx, prefix, assignment,
                               ownership)
    plan.optimizer_info = {
        "method": method,
        "plans_considered": considered,
        "join_order": prefix.order,
        "scan_ops": dict(assignment.scan_ops),
        "join_ops": dict(assignment.join_ops),
        "build_sides": dict(assignment.build_sides),
        "est_rows": plan.est_rows,
        "est_cost_ns": plan.est_cost_ns,
    }
    return plan


def _assemble_cost_plan(statement: SelectStatement, ctx: _CostContext,
                        prefix: _JoinPrefix,
                        assignment: PhysicalOperatorAssignment,
                        ownership: Dict[str, str]) -> PlanNode:
    model = ctx.model

    def scan_node(table: str) -> PlanNode:
        info = ctx.scans[table]
        path = assignment.scan_ops.get(table, "seq")
        conjuncts = list(info.conjuncts)
        if path == "index" and info.index_scan is not None:
            node = _annotate(
                info.index_scan, info.index_matches,
                model.operator_ns(
                    "IndexScan", info.index_matches, info.index_matches,
                    bytes_touched=float(info.index_pages)
                    * PAGE_SIZE_BYTES))
            del conjuncts[info.index_pos]
            rows_in = info.index_matches
        else:
            node = _annotate(
                SeqScan(table, columns=info.columns), info.base_rows,
                model.operator_ns(
                    "SeqScan", info.base_rows, info.base_rows,
                    bytes_touched=info.base_rows * info.row_bytes))
            rows_in = info.base_rows
        if conjuncts:
            predicate = conjoin(conjuncts)
            if isinstance(node, SeqScan):
                node.prune_for = predicate
            node = _annotate(Filter(node, predicate), info.rows,
                             model.operator_ns("Filter", rows_in,
                                               info.rows))
        return node

    def apply_residual(node: PlanNode, conjuncts: List[Expr]) -> PlanNode:
        if not conjuncts:
            return node
        rows_in = node.est_rows if node.est_rows is not None else 0.0
        rows_out = rows_in
        for conjunct in conjuncts:
            rows_out *= estimate_selectivity(conjunct)
        return _annotate(Filter(node, conjoin(conjuncts)), rows_out,
                         model.operator_ns("Filter", rows_in, rows_out))

    plan = apply_residual(scan_node(prefix.order[0]),
                          _newly_available(ctx, set(), {prefix.order[0]}))
    joined: Set[str] = {prefix.order[0]}
    for step in prefix.steps:
        right = scan_node(step.table)
        operator = assignment.join_ops.get(step.table, "hash")
        if operator == "merge":
            if len(step.left_keys) != 1:
                raise PlanError(
                    f"merge join on {step.table!r} needs exactly one "
                    f"join key, got {list(step.left_keys)}")
            left_key, right_key = step.left_keys[0], step.right_keys[0]
            # The executor's MergeJoin demands sorted inputs: insert
            # Sort enforcers (their cost was part of the merge price).
            sorted_left = _annotate(
                Sort(plan, [(left_key, True)]), step.rows_left,
                model.operator_ns("Sort", step.rows_left, step.rows_left))
            sorted_right = _annotate(
                Sort(right, [(right_key, True)]), step.rows_right,
                model.operator_ns("Sort", step.rows_right,
                                  step.rows_right))
            node: PlanNode = MergeJoin(sorted_left, sorted_right,
                                       left_key, right_key)
            own = model.operator_ns("MergeJoin", step.rows_left,
                                    step.rows_out, step.rows_right)
        elif operator == "loop":
            node = NestedLoopJoin(plan, right, list(step.left_keys),
                                  list(step.right_keys))
            own = model.operator_ns("NestedLoopJoin", step.rows_left,
                                    step.rows_out, step.rows_right)
        else:
            join = RadixHashJoin if operator == "radix" else HashJoin
            node = join(plan, right, list(step.left_keys),
                        list(step.right_keys))
            side = assignment.build_sides.get(step.table)
            if side is not None:
                node.forced_build_side = side
            own = model.operator_ns(join.__name__, step.rows_left,
                                    step.rows_out, step.rows_right)
        plan = _annotate(node, step.rows_out, own)
        before = set(joined)
        joined.add(step.table)
        plan = apply_residual(plan,
                              _newly_available(ctx, before, joined))

    # Column-free conjuncts (``WHERE 1 = 0``) have no owner table, so no
    # join step ever makes them "newly available": filter the joined
    # input once instead.
    plan = apply_residual(plan, [conjunct for conjunct, owners
                                 in ctx.residual if not owners])

    # -- output stage, annotated bottom-up --------------------------------
    pipeline_base = plan
    out = _plan_output(statement, plan)
    if statement.distinct:
        out = Distinct(out)
    if statement.order_by:
        out = Sort(out, statement.order_by)
    if statement.limit is not None:
        out = Limit(out, statement.limit)

    chain: List[PlanNode] = []
    node = out
    while node is not pipeline_base:
        chain.append(node)
        node = node.children[0]
    for node in reversed(chain):
        child_rows = node.children[0].est_rows or 0.0
        kind = type(node).__name__
        if isinstance(node, Aggregate):
            if node.group_by:
                groups = 1.0
                for key in node.group_by:
                    owner = ownership.get(key)
                    groups *= ctx.estimator.ndv(owner, key) \
                        if owner is not None else max(1.0, child_rows ** 0.5)
                rows = min(max(1.0, child_rows), max(1.0, groups))
            else:
                rows = 1.0
        elif isinstance(node, Limit):
            rows = min(float(node.n), child_rows)
        elif isinstance(node, Filter):
            rows = child_rows * estimate_selectivity(node.predicate)
        elif isinstance(node, Distinct):
            rows = max(1.0, child_rows ** 0.5) if child_rows else 0.0
        else:
            rows = child_rows
        _annotate(node, rows,
                  model.operator_ns(kind, child_rows, rows))
    return out
