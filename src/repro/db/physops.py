"""Physical-operator selection: the cost planner's post-join-order stage.

Once the join *order* is fixed, :func:`select_operators` decides the
physical *operators* — hash, radix, merge or nested-loop join,
sequential or index scan, and the hash-join build side: the cheapest
choice under the cost model first, then every ``/*+ ... */`` plan hint
on top.  The hint vocabularies live in :mod:`repro.db.parser`, which
rejects unknown values while parsing.

The optimizer (:mod:`repro.db.optimizer`) builds an
:class:`OperatorSelectionContext` describing the ordered join steps and
per-table scan alternatives, and assembles the physical plan from the
resulting :class:`PhysicalOperatorAssignment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.db.context import CostParameters
from repro.db.costmodel import CostModel
from repro.db.operators import join_cost_terms, join_radix_bits
from repro.db.parser import JOIN_OPERATORS, PlanHints
from repro.errors import PlanError


@dataclass(frozen=True)
class JoinStep:
    """One step of a left-deep join order: the prefix joins *table*.

    ``left_keys`` name columns available in the joined prefix,
    ``right_keys`` the matching columns of the new table (one pair per
    join edge; more than one when the join graph has a cycle).
    """

    table: str          # the table this step adds (the right input)
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    rows_left: float    # estimated rows of the joined prefix
    rows_right: float   # estimated rows of the (filtered) new table
    rows_out: float     # estimated rows after this join


@dataclass(frozen=True)
class OperatorSelectionContext:
    """Everything operator selection may consult.

    ``scan_costs`` maps each table to its available access paths and
    their estimated cost in ns (``{"seq": 120.0, "index": 40.0}``); a
    missing ``"index"`` entry means no usable index exists.
    """

    steps: Tuple[JoinStep, ...]
    scan_costs: Dict[str, Dict[str, float]]
    cost_model: CostModel
    #: Optional :class:`~repro.hardware.cache.CacheHierarchy` used to
    #: cost memory-access patterns (None = memory latency invisible, the
    #: pre-cache-conscious behaviour; radix then never wins).
    cache: Optional[object] = None
    #: The engine's charge constants (``EngineConfig.costs``; None =
    #: the defaults) and forced radix bits (``EngineConfig.radix_bits``;
    #: None = auto-sized), so joins are priced as the executor charges.
    costs: Optional[CostParameters] = None
    radix_bits: Optional[int] = None


@dataclass
class PhysicalOperatorAssignment:
    """Operator choices keyed by table.

    ``join_ops``/``build_sides`` are keyed by the table each join step
    *introduces* (unambiguous in a left-deep order).
    """

    scan_ops: Dict[str, str] = field(default_factory=dict)
    join_ops: Dict[str, str] = field(default_factory=dict)
    build_sides: Dict[str, str] = field(default_factory=dict)


def select_operators(context: OperatorSelectionContext,
                     hints: PlanHints) -> PhysicalOperatorAssignment:
    """The physical operators for *context*'s join order.

    Cost-based first:

    - joins: min over :data:`~repro.db.parser.JOIN_OPERATORS` by
      :func:`join_operator_cost`;
    - scans: the cheaper of the available access paths;
    - build side: hash the estimated-smaller input (ties build right,
      matching the executor's classic layout).

    Then each hinted entry is overridden; the rest keep their choice.
    A hint naming a table that no scan or join step has, or forcing an
    index scan without a usable index, raises :class:`PlanError`.
    """
    model = context.cost_model
    assignment = PhysicalOperatorAssignment()
    for table, paths in context.scan_costs.items():
        assignment.scan_ops[table] = min(paths, key=paths.get)
    for step in context.steps:
        costs = {op: join_operator_cost(model, op, step,
                                        cache=context.cache,
                                        costs=context.costs,
                                        radix_bits=context.radix_bits)
                 for op in JOIN_OPERATORS}
        assignment.join_ops[step.table] = min(costs, key=costs.get)
        assignment.build_sides[step.table] = \
            "left" if step.rows_left < step.rows_right else "right"

    joined = {step.table for step in context.steps}
    for table, operator in hints.scans:
        if table not in context.scan_costs:
            raise PlanError(
                f"SCAN hint references unknown table {table!r}")
        if operator == "index" \
                and "index" not in context.scan_costs[table]:
            raise PlanError(
                f"SCAN({table} index) hint: no usable index "
                f"(equality predicate on an indexed column needed)")
        assignment.scan_ops[table] = operator
    for table, operator in hints.join_ops:
        if table not in joined:
            raise PlanError(
                f"JOIN_OP hint references {table!r}, which no join "
                f"step introduces (first table cannot be hinted)")
        assignment.join_ops[table] = operator
    for table, side in hints.build_sides:
        if table not in joined:
            raise PlanError(
                f"BUILD hint references {table!r}, which no join "
                f"step introduces")
        assignment.build_sides[table] = side
    return assignment


def join_operator_cost(model: CostModel, operator: str,
                       step: JoinStep, cache=None,
                       costs: Optional[CostParameters] = None,
                       radix_bits: Optional[int] = None) -> float:
    """Estimated ns for executing one join step with *operator*.

    Merge joins pay for the Sort enforcers the executor requires on
    both (unsorted) inputs; that keeps merge honest against hash until
    interesting orders are tracked.  Hash and radix joins add the terms
    of :func:`~repro.db.operators.join_cost_terms` that the executor
    charges, under the engine's *costs* (None: the defaults) and with
    the radix join's bits forced to *radix_bits* or, when None,
    auto-sized as the executor sizes them.  With a *cache* hierarchy
    the hash join pays random-access memory latency sized by its build
    input, while the radix join pays partitioning passes but probes
    cache-resident partitions — so radix wins exactly when the build
    side outgrows the cache.  Without a cache the partitioning passes
    make radix strictly costlier than hash, so it is never chosen.
    """
    if operator == "merge":
        return (model.operator_ns("MergeJoin", step.rows_left,
                                  step.rows_out, step.rows_right)
                + model.operator_ns("Sort", step.rows_left,
                                    step.rows_left)
                + model.operator_ns("Sort", step.rows_right,
                                    step.rows_right))
    if operator == "loop":
        return model.operator_ns("NestedLoopJoin", step.rows_left,
                                 step.rows_out, step.rows_right)
    if operator not in ("hash", "radix"):
        raise PlanError(f"unknown join operator {operator!r}")
    kind = "RadixHashJoin" if operator == "radix" else "HashJoin"
    n_build = int(min(step.rows_left, step.rows_right))
    n_probe = int(step.rows_left + step.rows_right) - n_build
    bits = join_radix_bits(cache, n_build, radix_bits) \
        if operator == "radix" else 0
    partitioning, memory = join_cost_terms(
        costs if costs is not None else CostParameters(), cache,
        n_build, n_probe, bits)
    return (model.operator_ns(kind, step.rows_left, step.rows_out,
                              step.rows_right)
            + sum(partitioning + memory))
