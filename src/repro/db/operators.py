"""MiniDB physical operators.

Every operator performs real computation on numpy column batches *and*
charges simulated cost to the execution context:

- CPU nanoseconds per value/row, routed through the DBG/OPT build model;
- per-tuple interpretation overhead when the engine runs in TUPLE
  (Volcano) mode;
- I/O through the buffer pool (scans only).

This dual nature is what lets the benchmark suite reproduce the
tutorial's timing tables deterministically while tests validate results
against plain-numpy oracles.

Each operator has one ``_run`` for both executors (``ctx.executor``).
What the executor still chooses is the evaluator (the per-row
:meth:`Expr.evaluate` reference or :func:`kernels.compile_expr`), the
grouping (:meth:`Aggregate._group` or :func:`kernels.dict_encode`), the
reductions (bincount / ``ufunc.at`` or :func:`kernels.grouped_reduce`
over one shared :func:`kernels.group_runs`), the join match function,
and the charge constants: per-row or ``vector_*`` rates, plus one
``kernel_launch_ns`` per vectorized operator.  A join's partitioning
and memory-access cost (:func:`join_cost_terms`) and its radix bits
(:func:`join_radix_bits`) are defined here once, for the operators and
the planner's :func:`repro.db.physops.join_operator_cost` alike.
"""

from __future__ import annotations

import enum
import math
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db import kernels
from repro.db.context import ExecutionContext
from repro.db.expressions import Expr
from repro.db.plan import Batch, PlanNode, batch_rows, require_columns
from repro.db.types import DataType
from repro.errors import PlanError


def _vectorized(ctx) -> bool:
    """True when the context selects the kernel-based executor."""
    return ctx.executor == "vectorized"


def _launch_ns(ctx) -> float:
    """Fixed cost of one kernel launch (the loop executor pays none)."""
    return ctx.costs.kernel_launch_ns if _vectorized(ctx) else 0.0


def _evaluator(ctx, expr: Expr) -> Callable[[Batch], np.ndarray]:
    """*expr* as a ``batch -> values`` function: the per-row
    :meth:`Expr.evaluate` reference, or its compiled kernel."""
    return kernels.compile_expr(expr) if _vectorized(ctx) \
        else expr.evaluate


def _kernel_extras(ctx) -> List[str]:
    """The ``kernel=`` EXPLAIN annotation for vectorizable operators."""
    if ctx is None:
        return []
    return [f"kernel={'vectorized' if _vectorized(ctx) else 'loop'}"]


def _predicate_view(batch, columns: Sequence[str], n: int,
                    ctx) -> Batch:
    """The columns an expression needs, gathered if *batch* carries a
    selection vector (coded columns stay coded: the compiled expression
    decodes them only where it must).  Expressions over no columns
    (pure literals) get a carrier column so their result still has *n*
    rows."""
    base, sel = kernels.split_batch(batch)
    if not columns:
        return {"__rows__": np.zeros(n, dtype=np.int8)}
    if sel is not None:
        kernels.charge_gather(ctx, n, len(columns))
        base = kernels.gather(base, sel, list(columns))
    return base


class SeqScan(PlanNode):
    """Sequential scan of a base table through the buffer pool.

    When the planner pushes a filter down onto the scan
    (:attr:`prune_for`), the scan consults the table's zone maps first
    and skips every block the predicate can never match — the pruned
    blocks' I/O and scan CPU are never charged, and in the vectorized
    engine the surviving rows travel as a selection vector so non-filter
    columns materialise late.  Dictionary-encoded columns read their
    (smaller) code + dictionary footprint instead of raw values, and the
    vectorized engine passes string columns on as
    :class:`~repro.db.kernels.CodedColumn` (codes + sorted dictionary).
    """

    category = "scan"

    def __init__(self, table_name: str,
                 columns: Optional[Sequence[str]] = None):
        super().__init__()
        self.table_name = table_name
        self.columns = tuple(columns) if columns is not None else None
        #: Predicate of the Filter directly above (set by the planner on
        #: pushdown); drives zone-map block pruning.
        self.prune_for: Optional[Expr] = None
        #: Per-block verdicts of the last execution (the Filter above
        #: reads them to short-circuit all-true/all-false inputs).
        self.last_block_verdicts = None

    def name(self) -> str:
        cols = ", ".join(self.columns) if self.columns else "*"
        return f"SeqScan({self.table_name}: {cols})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        table = ctx.database.table(self.table_name)
        names = self.columns if self.columns is not None \
            else table.column_names
        return {n: table.column(n).dtype for n in names}

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return float(ctx.database.table(self.table_name).n_rows)

    def _verdicts(self, ctx, table):
        """Zone-map verdicts for the pushed-down predicate (or None)."""
        if self.prune_for is None or not ctx.zone_maps:
            return None
        from repro.db import zonemaps
        return zonemaps.block_verdicts(table, self.prune_for)

    def explain_extras(self, ctx) -> List[str]:
        if ctx is None:
            return []
        extras: List[str] = []
        table = ctx.database.table(self.table_name)
        names = self.columns if self.columns is not None \
            else table.column_names
        n_dict = sum(1 for name in names
                     if table.column(name).dictionary is not None)
        if n_dict:
            extras.append(f"dict={n_dict}/{len(names)}")
        verdicts = self._verdicts(ctx, table)
        if verdicts is not None:
            from repro.db.zonemaps import PRUNE_NONE
            pruned = int((verdicts == PRUNE_NONE).sum())
            extras.append(f"blocks pruned={pruned}/{len(verdicts)}")
        return extras

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        table = ctx.database.table(self.table_name)
        names = self.columns if self.columns is not None \
            else table.column_names
        n = table.n_rows
        survivors = None
        verdicts = self._verdicts(ctx, table)
        self.last_block_verdicts = verdicts
        n_dict = sum(1 for name in names
                     if table.column(name).dictionary is not None)
        if n_dict:
            self.span_extras["dict_columns"] = n_dict
        if verdicts is not None:
            from repro.db import zonemaps
            pruned = int((verdicts == zonemaps.PRUNE_NONE).sum())
            self.span_extras["blocks"] = len(verdicts)
            self.span_extras["blocks_pruned"] = pruned
            survivors = zonemaps.surviving_rows(table, verdicts)
        # I/O: only the referenced columns travel through the pool
        # (column store!), which is why narrow scans run hot sooner.
        # Dictionary-encoded columns ship codes + dictionary; pruned
        # blocks are skipped before they are ever read.
        read_bytes = sum(table.column(name).stored_bytes
                         for name in names)
        n_scanned = n if survivors is None else len(survivors)
        if survivors is not None and n:
            read_bytes = int(round(read_bytes * n_scanned / n))
        ctx.buffer_pool.read_table(self.table_name, read_bytes)
        ctx.charge_cpu("scan",
                       ctx.costs.scan_ns_per_value * n_scanned * len(names))
        ctx.charge_tuples(n_scanned)
        if _vectorized(ctx):
            base = {name: _scan_column(table.column(name))
                    for name in names}
        else:
            base = {name: table.column(name).data for name in names}
        if survivors is None:
            return base
        if _vectorized(ctx) and ctx.selection_vectors:
            # Late materialization: survivors ride as a selection vector
            # until a pipeline breaker gathers the payload columns.
            return kernels.SelBatch(base, survivors)
        return {name: arr[survivors] for name, arr in base.items()}


def _scan_column(column):
    """A dictionary-encoded string column as codes + dictionary (integer
    and date dictionaries already take the kernels' dense path)."""
    dictionary = column.dictionary
    if dictionary is None or column.dtype is not DataType.STRING:
        return column.data
    return kernels.CodedColumn(dictionary.codes, dictionary.values)


class Filter(PlanNode):
    """Row selection by a boolean predicate."""

    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__([child])
        self.predicate = predicate

    @property
    def category(self) -> str:  # type: ignore[override]
        return self.predicate.cost_category()

    def name(self) -> str:
        return f"Filter({self.predicate})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return self.children[0].schema(ctx)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        from repro.db.expressions import estimate_selectivity
        return self.children[0].estimated_rows(ctx) * \
            estimate_selectivity(self.predicate)

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _zone_shortcircuit(self) -> Optional[str]:
        """Zone-map proof about the child scan's surviving blocks.

        Returns ``"all"`` when every surviving block is proven all-true
        (the predicate need not run at all), ``"none"`` when every block
        was pruned (the input is already empty), and None when the rows
        must be evaluated normally.
        """
        child = self.children[0]
        if not isinstance(child, SeqScan) or \
                child.prune_for is not self.predicate:
            return None
        verdicts = child.last_block_verdicts
        if verdicts is None:
            return None
        from repro.db import zonemaps
        surviving = verdicts[verdicts != zonemaps.PRUNE_NONE]
        if len(surviving) == 0:
            return "none"
        if bool((surviving == zonemaps.PRUNE_ALL).all()):
            return "all"
        return None

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = child_batches[0]
        needed = sorted(self.predicate.columns())
        require_columns(batch, needed, self.name())
        n = batch_rows(batch)
        vectorized = _vectorized(ctx)
        rate = ctx.costs.vector_filter_ns_per_value if vectorized \
            else ctx.costs.filter_ns_per_value
        ctx.charge_cpu(self.category, _launch_ns(ctx)
                       + rate * n * self.predicate.node_count())
        ctx.charge_tuples(n)
        if vectorized:
            self.span_extras["kernel"] = "filter.vector"
        proof = self._zone_shortcircuit()
        if proof is not None:
            # Zone maps already decided every surviving row ("all") or
            # pruned every block ("none" — the batch is empty): skip the
            # predicate entirely.
            self.span_extras["zone"] = proof
            return batch
        view = _predicate_view(batch, needed, n, ctx)
        mask = np.asarray(_evaluator(ctx, self.predicate)(view), dtype=bool)
        if n and bool(mask.all()):
            # All rows survive: the input batch is already the answer
            # (tuple costs above were charged on all n rows either way).
            return batch
        if not vectorized:
            # The loop executor filters eagerly: no selection vector, and
            # no gather charge.
            return {name: arr[mask] for name, arr in batch.items()}
        base, sel = kernels.split_batch(batch)
        new_sel = np.flatnonzero(mask) if sel is None else sel[mask]
        if ctx.selection_vectors:
            return kernels.SelBatch(base, new_sel)
        kernels.charge_gather(ctx, int(new_sel.size), len(base))
        return kernels.gather(base, new_sel)


class Project(PlanNode):
    """Expression projection with aliases."""

    def __init__(self, child: PlanNode,
                 items: Sequence[Tuple[Expr, str]]):
        super().__init__([child])
        if not items:
            raise PlanError("projection needs at least one item")
        aliases = [alias for __, alias in items]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate output names in projection {aliases}")
        self.items = tuple(items)

    category = "arithmetic"

    def name(self) -> str:
        rendered = ", ".join(f"{expr} AS {alias}" if str(expr) != alias
                             else alias for expr, alias in self.items)
        return f"Project({rendered})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        child_schema = self.children[0].schema(ctx)
        return {alias: expr.dtype(child_schema)
                for expr, alias in self.items}

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return self.children[0].estimated_rows(ctx)

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        # Projection is a gather point: referenced columns materialise
        # here, computed outputs are fresh arrays either way.
        batch = child_batches[0]
        n = batch_rows(batch)
        referenced = sorted(set().union(
            *(expr.columns() for expr, __ in self.items)))
        view = _predicate_view(batch, referenced, n, ctx)
        vectorized = _vectorized(ctx)
        if vectorized:
            ctx.charge_cpu("arithmetic", ctx.costs.kernel_launch_ns)
        rate = ctx.costs.vector_project_ns_per_value if vectorized \
            else ctx.costs.project_ns_per_value
        out: Batch = {}
        for expr, alias in self.items:
            ctx.charge_cpu(expr.cost_category(),
                           rate * n * expr.node_count())
            out[alias] = np.asarray(_evaluator(ctx, expr)(view))
        ctx.charge_tuples(n)
        if vectorized:
            self.span_extras["kernel"] = "project.vector"
        return out


class _EquiJoin(PlanNode):
    """Inner equi-join of two children on pairs of key columns.

    Holds what every join shares: the key pairs and their validation,
    the EXPLAIN name, the output schema and the row estimate.
    """

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Sequence[str], right_keys: Sequence[str]):
        super().__init__([left, right])
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError(
                "join needs equally many (>=1) keys on both sides")
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)

    def name(self) -> str:
        pairs = ", ".join(f"{l}={r}" for l, r in
                          zip(self.left_keys, self.right_keys))
        return f"{type(self).__name__}({pairs})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        left = self.children[0].schema(ctx)
        right = self.children[1].schema(ctx)
        out = dict(left)
        for name in _right_outputs(left, right, self.right_keys):
            out[name] = right[name]
        return out

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        left = self.children[0].estimated_rows(ctx)
        right = self.children[1].estimated_rows(ctx)
        # Foreign-key-style estimate: output bounded by the probe side.
        return max(left, right) if min(left, right) else 0.0

    def _inputs(self, child_batches: List[Batch]) -> List[Batch]:
        """The two input batches, checked to carry their join keys."""
        left, right = child_batches
        require_columns(left, self.left_keys, self.name() + " (left)")
        require_columns(right, self.right_keys, self.name() + " (right)")
        return child_batches


def _right_outputs(left, right, right_keys: Sequence[str]) -> List[str]:
    """The right-side columns a join emits after all of the left's.

    A right key named like a left column holds the same values and is
    kept once; any other name clash is an error.
    """
    names: List[str] = []
    for name in right:
        if name not in left:
            names.append(name)
        elif name not in right_keys:
            raise PlanError(f"join would produce duplicate column {name!r}")
    return names


def _equi_join(left: Batch, right: Batch, left_keys: Sequence[str],
               right_keys: Sequence[str],
               match: Callable[..., Tuple[np.ndarray, np.ndarray]]
               ) -> Batch:
    """The equi-join core every join operator runs.

    *match* pairs up the two sides' key columns and returns the matching
    ``(left, right)`` row indices in left-major order: a per-row oracle
    (:func:`_loop_match`, :func:`_merge_loop`) or a kernel
    (:func:`_kernel_match`, :func:`_merge_kernel`).  The matched rows
    are then gathered into one batch.
    """
    left_cols = [left[k] for k in left_keys]
    right_cols = [right[k] for k in right_keys]
    # NULL (NaN) equals nothing, itself included: NULL-keyed rows take
    # no part in matching (and cannot stall a merge).
    left_rows = _non_null_rows(left_cols)
    right_rows = _non_null_rows(right_cols)
    if left_rows is not None:
        left_cols = [col[left_rows] for col in left_cols]
    if right_rows is not None:
        right_cols = [col[right_rows] for col in right_cols]
    li, ri = match(left_cols, right_cols)
    if left_rows is not None:
        li = left_rows[li]
    if right_rows is not None:
        ri = right_rows[ri]
    out: Batch = {name: arr[li] for name, arr in left.items()}
    for name in _right_outputs(left, right, right_keys):
        out[name] = right[name][ri]
    return out


def _non_null_rows(key_cols) -> Optional[np.ndarray]:
    """Rows whose keys are all non-NULL, or None when no key is NULL.

    Only FLOAT64 columns can hold NULL (NaN); integer, date and string
    keys are never scanned.
    """
    null = None
    for col in key_cols:
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            col_null = np.isnan(col)
            null = col_null if null is None else null | col_null
    if null is None or not null.any():
        return None
    return np.flatnonzero(~null)


def _loop_match(left_cols: Sequence[np.ndarray],
                right_cols: Sequence[np.ndarray], build_side: str
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row hash matching; output pairs are always left-major
    (left index ascending, right matches ascending) regardless of
    which side the hash table was built on."""
    n_left, n_right = len(left_cols[0]), len(right_cols[0])
    left_idx: List[int] = []
    right_idx: List[int] = []
    if build_side == "right":
        build: Dict[tuple, List[int]] = {}
        for i in range(n_right):
            key = tuple(col[i] for col in right_cols)
            build.setdefault(key, []).append(i)
        for i in range(n_left):
            key = tuple(col[i] for col in left_cols)
            matches = build.get(key)
            if matches:
                left_idx.extend([i] * len(matches))
                right_idx.extend(matches)
        return (np.asarray(left_idx, dtype=np.int64),
                np.asarray(right_idx, dtype=np.int64))
    build = {}
    for i in range(n_left):
        key = tuple(col[i] for col in left_cols)
        build.setdefault(key, []).append(i)
    for j in range(n_right):
        key = tuple(col[j] for col in right_cols)
        matches = build.get(key)
        if matches:
            left_idx.extend(matches)
            right_idx.extend([j] * len(matches))
    li = np.asarray(left_idx, dtype=np.int64)
    ri = np.asarray(right_idx, dtype=np.int64)
    # Probing with the right side emits right-major pairs; restore
    # the executor's canonical left-major order.
    order = np.lexsort((ri, li))
    return li[order], ri[order]


def _kernel_match(left_cols: Sequence[np.ndarray],
                  right_cols: Sequence[np.ndarray],
                  radix_bits: Optional[int] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Hash matching through the kernels, radix-partitioned on
    *radix_bits* low bits when given."""
    left_codes, right_codes, n_codes = kernels.encode_join_keys(
        left_cols, right_cols)
    if radix_bits is None:
        return kernels.join_match(left_codes, right_codes, n_codes)
    return kernels.radix_join_match(left_codes, right_codes, radix_bits)


def join_radix_bits(cache, n_build: int,
                    forced: Optional[int] = None) -> int:
    """Partition bits of a radix join over *n_build* build rows: *forced*
    clamped to ``[0, MAX_RADIX_BITS]``, or else the fewest bits that make
    each partition's hash table fit the last level of *cache* (the
    default model's L2 without one)."""
    if forced is not None:
        return max(0, min(int(forced), kernels.MAX_RADIX_BITS))
    if cache is not None and cache.levels:
        cache_bytes = cache.levels[-1].size_bytes
    else:
        from repro.hardware.cache import DEFAULT_CACHE_MODEL
        cache_bytes = DEFAULT_CACHE_MODEL.l2_bytes
    return kernels.radix_bits_for(n_build, cache_bytes)


def join_cost_terms(costs, cache, n_build: int, n_probe: int,
                    bits: int = 0) -> Tuple[List[float], List[float]]:
    """What a hash join on *bits* radix bits (0: a plain hash join) pays
    beyond its per-row CPU work, as ``(partitioning, memory)`` ns terms.

    The executor charges each list's sum; the planner adds both to its
    operator estimate.  Partitioning streams both inputs once per pass
    and pays a fixed setup per partition (what makes over-partitioning
    lose — the E28 sweet spot).  Memory terms exist only under a cache
    model: the partitioning passes are sequential read + scatter-write
    streams, and building and probing are random accesses into a hash
    table sized by the build input over the partitions, so an
    out-of-cache build pays memory latency on (almost) every probe —
    the effect partitioning removes.
    """
    n_rows = n_build + n_probe
    passes = kernels.radix_passes(bits)
    partitioning: List[float] = []
    if passes:
        partitioning = [passes * costs.radix_partition_ns_per_row * n_rows,
                        (1 << bits) * costs.radix_partition_setup_ns]
    if cache is None:
        return partitioning, []
    memory = [_stream_ns(cache, n_rows) for _ in range(passes)]
    working_set = max(
        1, (kernels.HASH_TABLE_BYTES_PER_ROW * n_build) >> bits)
    memory.append(cache.random_accesses(n_build, working_set))
    memory.append(cache.random_accesses(n_probe, working_set))
    return partitioning, memory


def _stream_ns(cache, n_rows: int) -> float:
    """One sequential read + write stream over *n_rows* 16-byte rows."""
    return cache.sequential_scan(n_rows, 16)


class HashJoin(_EquiJoin):
    """Inner equi-join: build on the right child, probe with the left."""

    category = "hash"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Sequence[str], right_keys: Sequence[str]):
        super().__init__(left, right, left_keys, right_keys)
        #: Optional physical-operator-selection override (plan hints /
        #: cost-based build-side choice); None keeps the estimate rule.
        self.forced_build_side: Optional[str] = None

    def choose_build_side(self, ctx) -> str:
        """Build the hash table on the estimated-smaller input.

        Ties keep the classic build-right layout.
        """
        if self.forced_build_side is not None:
            return self.forced_build_side
        est_left = self.children[0].estimated_rows_safe(ctx)
        est_right = self.children[1].estimated_rows_safe(ctx)
        return "left" if est_left < est_right else "right"

    def partition_bits(self, ctx, n_build: int) -> Optional[int]:
        """Radix bits the join partitions on (None: no partitioning)."""
        return None

    def explain_extras(self, ctx) -> List[str]:
        extras = _kernel_extras(ctx)
        build = self.span_extras.get("build_side")
        if build is None and ctx is not None:
            build = self.choose_build_side(ctx)
        if build is not None:
            extras.append(f"build={build}")
        return extras

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        left, right = (kernels.materialize_charged(ctx, batch)
                       for batch in self._inputs(child_batches))
        n_left, n_right = batch_rows(left), batch_rows(right)
        build_side = self.choose_build_side(ctx)
        n_build = n_left if build_side == "left" else n_right
        self.span_extras["build_side"] = build_side
        # Hash table: roughly one 8-byte slot + entry per build row.
        self.aux_bytes = kernels.HASH_TABLE_BYTES_PER_ROW * n_build
        ctx.charge_tuples(n_left + n_right)
        bits = self.partition_bits(ctx, n_build)
        if bits is not None:
            self.span_extras["radix_bits"] = bits
            self.span_extras["partitions"] = 1 << bits
        partitioning, memory = join_cost_terms(
            ctx.costs, ctx.cache, n_build, n_left + n_right - n_build,
            bits or 0)
        if partitioning:
            ctx.charge_cpu("hash", sum(partitioning))
        if memory:
            ctx.charge_cpu("hash", sum(memory))

        if _vectorized(ctx):
            ctx.charge_cpu("hash",
                           ctx.costs.kernel_launch_ns
                           + ctx.costs.vector_join_ns_per_row
                           * (n_left + n_right))
            self.span_extras["kernel"] = \
                "join.vector" if bits is None else "join.radix"
            match = partial(_kernel_match, radix_bits=bits)
        else:
            ctx.charge_cpu("hash",
                           ctx.costs.hash_build_ns_per_row * n_build)
            ctx.charge_cpu("hash", ctx.costs.hash_probe_ns_per_row
                           * (n_left + n_right - n_build))
            match = partial(_loop_match, build_side=build_side)
        return _equi_join(left, right, self.left_keys, self.right_keys,
                          match)


class RadixHashJoin(HashJoin):
    """Cache-conscious hash join (Manegold/Boncz/Kersten style).

    Both inputs are radix-partitioned on the low bits of their join-key
    codes — enough bits that each partition's hash table fits the
    simulated L2 cache — and then joined partition by partition, so
    probes hit cache-resident tables instead of paying memory latency
    per row.  The output is byte-identical to :class:`HashJoin`'s
    left-major result; only the access pattern (and hence the simulated
    cost) differs.  The loop executor reuses the per-row oracle match
    while charging the radix cost profile.
    """

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Sequence[str], right_keys: Sequence[str],
                 radix_bits: Optional[int] = None):
        super().__init__(left, right, left_keys, right_keys)
        #: Forced partition bits (plan-level override); None defers to
        #: the context's ``radix_bits`` and finally to auto-sizing.
        self.radix_bits = radix_bits

    def partition_bits(self, ctx, n_build: int) -> int:
        forced = self.radix_bits if self.radix_bits is not None \
            else ctx.radix_bits
        return join_radix_bits(ctx.cache, n_build, forced)

    def explain_extras(self, ctx) -> List[str]:
        extras = super().explain_extras(ctx)
        bits = self.span_extras.get("radix_bits")
        if bits is None and ctx is not None:
            build = self.choose_build_side(ctx)
            child = self.children[0 if build == "left" else 1]
            bits = self.partition_bits(
                ctx, int(child.estimated_rows_safe(ctx)))
        if bits is not None:
            extras.append(f"bits={bits}")
            extras.append(f"partitions={1 << int(bits)}")
        return extras


class NestedLoopJoin(_EquiJoin):
    """Naive quadratic equi-join; the "naive" planner profile's join."""

    category = "arithmetic"

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        left, right = self._inputs(child_batches)
        n_left, n_right = batch_rows(left), batch_rows(right)
        # The whole point of this operator: quadratic compare cost.
        ctx.charge_cpu("arithmetic",
                       ctx.costs.filter_ns_per_value * n_left * n_right)
        ctx.charge_tuples(n_left * max(1, n_right) if n_left and n_right
                          else n_left + n_right)
        # The result is the hash join's (correctness first).  The
        # quadratic charge above stands for all of the work, so the
        # input gather goes uncharged.
        if _vectorized(ctx):
            match = _kernel_match
        else:
            match = partial(_loop_match, build_side="left"
                            if n_left < n_right else "right")
        return _equi_join(kernels.materialize(left),
                          kernels.materialize(right),
                          self.left_keys, self.right_keys, match)


class AggFunc(enum.Enum):
    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


class Aggregate(PlanNode):
    """Hash aggregation with optional GROUP BY.

    ``aggregates`` is a sequence of ``(func, expr_or_None, alias)``;
    ``expr`` is None only for ``COUNT(*)``.
    """

    category = "hash"

    def __init__(self, child: PlanNode, group_by: Sequence[str],
                 aggregates: Sequence[Tuple[AggFunc, Optional[Expr], str]]):
        super().__init__([child])
        if not aggregates and not group_by:
            raise PlanError("aggregate needs at least one aggregate or key")
        aliases = [a for __, __, a in aggregates]
        if len(set(aliases) | set(group_by)) != len(aliases) + len(group_by):
            raise PlanError("duplicate output names in aggregation")
        for func, expr, alias in aggregates:
            if expr is None and func is not AggFunc.COUNT:
                raise PlanError(f"{func.value}(*) is not defined")
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    def name(self) -> str:
        aggs = ", ".join(
            f"{f.value}({e if e is not None else '*'}) AS {a}"
            for f, e, a in self.aggregates)
        if self.group_by:
            return f"Aggregate(by {', '.join(self.group_by)}: {aggs})"
        return f"Aggregate({aggs})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        child_schema = self.children[0].schema(ctx)
        out: Dict[str, DataType] = {}
        for key in self.group_by:
            if key not in child_schema:
                raise PlanError(f"GROUP BY column {key!r} not available")
            out[key] = child_schema[key]
        for func, expr, alias in self.aggregates:
            if func is AggFunc.COUNT:
                out[alias] = DataType.INT64
            elif func is AggFunc.AVG:
                out[alias] = DataType.FLOAT64
            else:
                out[alias] = expr.dtype(child_schema)
        return out

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        if not self.group_by:
            return 1.0
        child = self.children[0].estimated_rows(ctx)
        return max(1.0, child ** 0.5)  # square-root heuristic

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = kernels.materialize_charged(ctx, child_batches[0])
        n = batch_rows(batch)
        vectorized = _vectorized(ctx)
        costs = ctx.costs
        if vectorized:
            group_rate, agg_rate = (costs.vector_group_ns_per_row,
                                    costs.vector_agg_ns_per_value)
        else:
            group_rate, agg_rate = costs.group_ns_per_row, \
                costs.agg_ns_per_value
        ctx.charge_cpu("hash", _launch_ns(ctx) + group_rate * n)
        ctx.charge_cpu("arithmetic",
                       agg_rate * n * max(1, len(self.aggregates)))
        ctx.charge_tuples(n)
        if vectorized:
            self.span_extras["kernel"] = "aggregate.vector"
        child_schema = self.children[0].schema(ctx)

        out: Batch = {}
        if not self.group_by:
            # A global aggregate always produces exactly one row, even
            # over empty input (COUNT(*) = 0), per SQL semantics.
            group_ids, n_groups = np.zeros(n, dtype=np.int64), 1
        elif vectorized:
            group_ids, n_groups = kernels.dict_encode(
                [batch[k] for k in self.group_by])
            # Representative row per group: output is key-sorted (the
            # dictionary codes ascend with the composite key), unlike
            # the loop executor's first-occurrence order.
            first = kernels.group_first_index(group_ids, n_groups)
            for key_name in self.group_by:
                out[key_name] = kernels.decode(batch[key_name][first])
        else:
            group_ids, keys = self._group(batch, n)
            n_groups = len(keys)
            for pos, key_name in enumerate(self.group_by):
                out[key_name] = _key_column(
                    [key[pos] for key in keys], child_schema[key_name])
        if self.group_by:
            self.aux_bytes = 48 * n_groups + 8 * n
        count, reduce = _reductions(
            vectorized, group_ids, n_groups,
            share_runs=n > 0 and any(func is not AggFunc.COUNT
                                     for func, __, __ in self.aggregates))

        for func, expr, alias in self.aggregates:
            if n_groups == 0:
                # Grouped aggregation over empty input: zero output rows.
                values = np.zeros(0, dtype=np.float64)
            elif func is AggFunc.COUNT:
                values = count()
            else:
                values = _aggregate(func, _evaluator(ctx, expr)(batch),
                                    count, reduce)
            if func is AggFunc.COUNT or (
                    func is not AggFunc.AVG
                    and expr.dtype(child_schema) is DataType.INT64):
                values = values.astype(np.int64)
            out[alias] = values
        return out

    def _group(self, batch: Batch, n: int):
        """Per-row grouping: ``(group_ids, keys)`` with the distinct key
        tuples in first-occurrence order (group id = position)."""
        key_cols = _null_safe_keys([batch[k] for k in self.group_by])
        group_keys: Dict[tuple, int] = {}
        group_ids = np.empty(n, dtype=np.int64)
        for i in range(n):
            key = tuple(col[i] for col in key_cols)
            gid = group_keys.get(key)
            if gid is None:
                gid = len(group_keys)
                group_keys[key] = gid
            group_ids[i] = gid
        return group_ids, list(group_keys)


def _key_column(values: list, dtype: DataType) -> np.ndarray:
    """One GROUP BY output column built from per-row key values."""
    if dtype is DataType.STRING:
        col = np.empty(len(values), dtype=object)
        for i, value in enumerate(values):
            col[i] = value
        return col
    return np.asarray(values, dtype=dtype.numpy_dtype)


def _reductions(vectorized: bool, group_ids: np.ndarray, n_groups: int,
                share_runs: bool):
    """``(count, reduce)`` over one grouping: ``count()`` gives rows per
    group, ``reduce(values, op)`` folds *values* per group with "sum",
    "min" or "max".  The vectorized executor runs the kernels, every
    reduction over one shared :func:`~repro.db.kernels.group_runs`
    (computed up front when *share_runs*); the loop executor runs the
    bincount / ``ufunc.at`` reference."""
    if vectorized:
        shared = kernels.group_runs(group_ids, n_groups) if share_runs \
            else None
        return (partial(kernels.group_count, group_ids, n_groups),
                lambda values, op: kernels.grouped_reduce(
                    values, group_ids, n_groups, op, shared))

    def reduce(values: np.ndarray, op: str) -> np.ndarray:
        if op == "sum":
            return np.bincount(group_ids, weights=values,
                               minlength=n_groups)
        out = np.full(n_groups, np.inf if op == "min" else -np.inf,
                      dtype=np.float64)
        (np.minimum if op == "min" else np.maximum).at(out, group_ids,
                                                         values)
        return out

    return partial(np.bincount, group_ids, minlength=n_groups), reduce


def _aggregate(func: AggFunc, values, count, reduce) -> np.ndarray:
    """SUM/AVG/MIN/MAX of *values* per group (at least one group)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        # Only the global aggregate reaches here with zero rows (a
        # grouped one has no groups then): SQL's identities over empty
        # input.
        fill = {AggFunc.SUM: 0.0, AggFunc.AVG: 0.0,
                AggFunc.MIN: np.inf, AggFunc.MAX: -np.inf}[func]
        return np.full(1, fill, dtype=np.float64)
    if func is AggFunc.AVG:
        sums = reduce(values, "sum")
        return sums / np.maximum(count(), 1)
    return reduce(values, func.value)


#: The one NULL key of per-row grouping: NaN never equals itself, but
#: dict lookups check identity first, so a shared NaN object matches.
_NULL_KEY = float("nan")


def _null_safe_keys(columns: Sequence[np.ndarray]) -> List[np.ndarray]:
    """*columns* ready for per-row tuple keys that put every NULL in one
    group: a FLOAT64 column holding NULLs (NaN) is recast to objects
    with :data:`_NULL_KEY` in their place.  Other columns pass as is."""
    out = []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            null = np.isnan(col)
            if null.any():
                col = col.astype(object)
                col[null] = _NULL_KEY
        out.append(col)
    return out


class MergeJoin(_EquiJoin):
    """Equi-join by merging two inputs sorted on their keys.

    Both children MUST deliver rows sorted ascending on the join keys;
    the operator verifies this and raises otherwise (silent wrong
    results are worse than an error).  Cost is linear in the two input
    sizes plus the output — the textbook alternative to hashing when
    sort order is already available.
    """

    category = "sort"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: str, right_key: str):
        super().__init__(left, right, [left_key], [right_key])

    @staticmethod
    def _check_sorted(values: np.ndarray, side: str) -> None:
        if len(values) > 1 and np.any(values[1:] < values[:-1]):
            raise PlanError(
                f"MergeJoin {side} input is not sorted on its join key")

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        left, right = (kernels.materialize_charged(ctx, batch)
                       for batch in self._inputs(child_batches))
        lk, rk = kernels.join_key_pair(left[self.left_keys[0]],
                                       right[self.right_keys[0]])
        self._check_sorted(lk, "left")
        self._check_sorted(rk, "right")
        n_left, n_right = len(lk), len(rk)
        ctx.charge_tuples(n_left + n_right)
        if ctx.cache is not None:
            # Merging is purely sequential: one stream over each input.
            ctx.charge_cpu("sort", _stream_ns(ctx.cache, n_left + n_right))

        if _vectorized(ctx):
            ctx.charge_cpu("sort",
                           ctx.costs.kernel_launch_ns
                           + ctx.costs.vector_join_ns_per_row
                           * (n_left + n_right))
            self.span_extras["kernel"] = "merge.vector"
            match = _merge_kernel
        else:
            ctx.charge_cpu("sort", ctx.costs.filter_ns_per_value
                           * (n_left + n_right))
            match = _merge_loop
        return _equi_join(left, right, self.left_keys, self.right_keys,
                          match)


def _merge_kernel(left_cols: Sequence[np.ndarray],
                  right_cols: Sequence[np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Merge matching through the kernels (coded keys compare by code)."""
    return kernels.merge_match(*kernels.join_key_pair(left_cols[0],
                                                      right_cols[0]))


def _merge_loop(left_cols: Sequence[np.ndarray],
                right_cols: Sequence[np.ndarray]
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row merge of two key columns sorted ascending."""
    lk, rk = left_cols[0], right_cols[0]
    n_left, n_right = len(lk), len(rk)
    left_idx: List[int] = []
    right_idx: List[int] = []
    i = j = 0
    while i < n_left and j < n_right:
        if lk[i] < rk[j]:
            i += 1
        elif lk[i] > rk[j]:
            j += 1
        else:
            # Collect the full duplicate run on both sides.
            key = lk[i]
            i_end = i
            while i_end < n_left and lk[i_end] == key:
                i_end += 1
            j_end = j
            while j_end < n_right and rk[j_end] == key:
                j_end += 1
            for a in range(i, i_end):
                for b in range(j, j_end):
                    left_idx.append(a)
                    right_idx.append(b)
            i, j = i_end, j_end
    return (np.asarray(left_idx, dtype=np.int64),
            np.asarray(right_idx, dtype=np.int64))


class Distinct(PlanNode):
    """Remove duplicate rows, preserving first-occurrence order."""

    category = "hash"

    def __init__(self, child: PlanNode):
        super().__init__([child])

    def name(self) -> str:
        return "Distinct"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return self.children[0].schema(ctx)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        child = self.children[0].estimated_rows(ctx)
        return max(1.0, child ** 0.5)

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = kernels.materialize_charged(ctx, child_batches[0])
        n = batch_rows(batch)
        vectorized = _vectorized(ctx)
        rate = ctx.costs.vector_distinct_ns_per_row if vectorized \
            else ctx.costs.group_ns_per_row
        ctx.charge_cpu("hash", _launch_ns(ctx) + rate * n)
        ctx.charge_tuples(n)
        if vectorized:
            self.span_extras["kernel"] = "distinct.vector"
            idx = kernels.first_occurrence_order(list(batch.values()))
        else:
            idx = _first_occurrences(list(batch.values()))
        return {name: arr[idx] for name, arr in batch.items()}


def _first_occurrences(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Per-row reference of :func:`kernels.first_occurrence_order`."""
    seen: Dict[tuple, None] = {}
    keep: List[int] = []
    for i, key in enumerate(zip(*_null_safe_keys(columns))):
        if key not in seen:
            seen[key] = None
            keep.append(i)
    return np.asarray(keep, dtype=np.int64)


class Sort(PlanNode):
    """Stable multi-key sort."""

    category = "sort"

    def __init__(self, child: PlanNode,
                 keys: Sequence[Tuple[str, bool]]):
        super().__init__([child])
        if not keys:
            raise PlanError("sort needs at least one key")
        self.keys = tuple(keys)  # (column, ascending)

    def name(self) -> str:
        rendered = ", ".join(f"{k} {'ASC' if asc else 'DESC'}"
                             for k, asc in self.keys)
        return f"Sort({rendered})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return self.children[0].schema(ctx)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return self.children[0].estimated_rows(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = child_batches[0]
        require_columns(batch, [k for k, __ in self.keys], self.name())
        if _vectorized(ctx):
            # Sort is a pipeline breaker: gather any pending selection
            # once, then permute materialised columns.
            batch = kernels.materialize_charged(ctx, batch)
        n = batch_rows(batch)
        if n > 1:
            ctx.charge_cpu("sort", ctx.costs.sort_ns_per_compare
                           * n * math.log2(n))
        ctx.charge_tuples(n)
        order = np.arange(n)
        self.aux_bytes = 8 * n  # the permutation vector
        # Stable sorts applied from the least significant key backwards.
        # A DESC key sorts stably on its negated rank: reversing an
        # ascending sort would also reverse the tie order that the less
        # significant keys already established.
        for column, ascending in reversed(self.keys):
            values = _sort_key(batch[column][order], ascending)
            order = order[np.argsort(values, kind="stable")]
        return {name: arr[order] for name, arr in batch.items()}


def _sort_key(column, ascending: bool) -> np.ndarray:
    """Values whose ascending stable sort gives *column*'s order.

    Coded columns sort by code (their dictionary is sorted); a DESC key
    negates the rank (the code, or else the ``np.unique`` inverse).
    """
    if isinstance(column, kernels.CodedColumn):
        rank = column.codes
    elif ascending:
        return column
    else:
        rank = np.unique(column, return_inverse=True)[1]
    return rank if ascending else -rank


class Limit(PlanNode):
    """Keep the first ``n`` rows."""

    category = "scan"

    def __init__(self, child: PlanNode, n: int):
        super().__init__([child])
        if n < 0:
            raise PlanError(f"LIMIT must be >= 0, got {n}")
        self.n = n

    def name(self) -> str:
        return f"Limit({self.n})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return self.children[0].schema(ctx)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return min(float(self.n), self.children[0].estimated_rows(ctx))

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = child_batches[0]
        base, sel = kernels.split_batch(batch)
        if sel is not None:
            # Truncate the selection instead of materialising.
            return kernels.SelBatch(base, sel[:self.n])
        return {name: arr[:self.n] for name, arr in base.items()}
