"""Plan nodes: the common shape of MiniDB physical operators.

A plan is a tree of :class:`PlanNode`.  Executing a node returns a
*batch* (column-name → numpy array).  Nodes record execution statistics
(rows produced, self time) used by EXPLAIN/TRACE/PROFILE — the
introspection surface the tutorial recommends exploiting (slides 28, 52).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.context import ExecutionContext
from repro.db.kernels import SelBatch, value_width
from repro.db.types import DataType
from repro.errors import PlanError
from repro.obs import maybe_span

Batch = Dict[str, np.ndarray]


def batch_rows(batch: Batch) -> int:
    """Row count of a batch (0 for an empty mapping).

    A :class:`~repro.db.kernels.SelBatch` counts its *selected* rows —
    the logical row count the pipeline sees, not the base size.
    """
    if isinstance(batch, SelBatch):
        return batch.rows()
    for arr in batch.values():
        return len(arr)
    return 0


def batch_bytes(batch: Batch) -> int:
    """Approximate bytes a batch occupies (strings estimated at 16B,
    coded or not).

    A :class:`~repro.db.kernels.SelBatch` is charged for its selected
    payload plus the selection vector — deferred materialisation is
    exactly what keeps this number small for selective filters.
    """
    if isinstance(batch, SelBatch):
        return batch.bytes_used()
    return sum(len(arr) * value_width(arr) for arr in batch.values())


#: Ceiling for sanitised cardinality/cost estimates: large enough to
#: order any real plan, finite so EXPLAIN never prints ``inf``.
EST_CAP = 1e15


def sanitize_estimate(value: float, fallback: float = 0.0) -> float:
    """Clamp a cardinality/cost estimate to a finite, non-negative float.

    Estimate arithmetic (selectivity products, ``n*log(n)``, square
    roots) can produce NaN or infinities on degenerate inputs; those
    must never reach EXPLAIN output or cost comparisons, where NaN
    poisons every ``min()``.  NaN maps to *fallback*, ``+inf`` to the
    finite :data:`EST_CAP`, and anything negative to 0.
    """
    value = float(value)
    if value != value:  # NaN
        return float(fallback)
    if value == float("inf"):
        return EST_CAP
    if value < 0.0:  # includes -inf
        return 0.0
    return min(value, EST_CAP)


class PlanNode:
    """Base physical operator."""

    #: Build-model category this operator's CPU work belongs to.
    category = "scan"

    def __init__(self, children: Sequence["PlanNode"] = ()):
        self.children: Tuple["PlanNode", ...] = tuple(children)
        #: Optimizer annotations: the cost-based planner stamps its
        #: cardinality estimate and cumulative subtree cost (ns) here;
        #: EXPLAIN prefers these over the heuristic estimate.
        self.est_rows: Optional[float] = None
        self.est_cost_ns: Optional[float] = None
        # Statistics filled in by execute():
        self.rows_out: Optional[int] = None
        self.self_seconds: float = 0.0
        self.total_seconds: float = 0.0
        #: Actuals recorded by execute() for EXPLAIN ANALYZE
        #: (:mod:`repro.db.actuals`): input batches consumed, the
        #: buffer-pool hits/misses this operator's own ``_run`` caused
        #: (children record their own), and the cardinality estimate
        #: frozen at execution time so est-vs-actual comparisons use
        #: exactly what the planner believed.
        self.batches: int = 0
        self.buffer_hits: int = 0
        self.buffer_misses: int = 0
        self.last_est_rows: Optional[float] = None
        #: Bytes of auxiliary structures (hash tables, sort buffers)
        #: the operator held while running; set by _run.
        self.aux_bytes: int = 0
        #: Extra attributes _run may record for the operator's span and
        #: EXPLAIN line (e.g. ``build_side``, ``kernel``); reset per run.
        self.span_extras: Dict[str, object] = {}

    # -- static interface -------------------------------------------------

    def name(self) -> str:
        """Operator name with its key arguments, for EXPLAIN."""
        raise NotImplementedError

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        """Output columns and their types."""
        raise NotImplementedError

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        """Optimizer cardinality estimate."""
        raise NotImplementedError

    def estimated_rows_safe(self, ctx: ExecutionContext) -> float:
        """The cardinality estimate, guaranteed finite and >= 0.

        Prefers the cost-based planner's :attr:`est_rows` annotation;
        falls back to the heuristic :meth:`estimated_rows`, sanitised
        so NaN/inf can never leak into EXPLAIN or cost comparisons.
        """
        if self.est_rows is not None:
            return sanitize_estimate(self.est_rows)
        return sanitize_estimate(self.estimated_rows(ctx))

    # -- execution ---------------------------------------------------------

    def execute(self, ctx: ExecutionContext) -> Batch:
        """Run the subtree, recording timing and memory statistics."""
        with maybe_span(self.name(), "operator",
                        kind=type(self).__name__) as span:
            start = ctx.now()
            child_batches = [child.execute(ctx)
                             for child in self.children]
            children_seconds = sum(c.total_seconds
                                   for c in self.children)
            self.span_extras = {}
            pool = ctx.buffer_pool
            hits_before = pool.hits if pool is not None else 0
            misses_before = pool.misses if pool is not None else 0
            batch = self._run(ctx, child_batches)
            end = ctx.now()
            self.total_seconds = end - start
            self.self_seconds = self.total_seconds - children_seconds
            self.rows_out = batch_rows(batch)
            # Children ran before _run started, so these deltas are
            # exclusively this operator's own buffer traffic.
            if pool is not None:
                self.buffer_hits = pool.hits - hits_before
                self.buffer_misses = pool.misses - misses_before
            # This engine materialises fully: one batch per child, one
            # produced; leaves consume their table as a single batch.
            self.batches = max(1, len(child_batches))
            self.last_est_rows = self.estimated_rows_safe(ctx)
            # Peak working set at this node: inputs + output + auxiliaries.
            inputs = sum(batch_bytes(b) for b in child_batches)
            ctx.track_memory(inputs + batch_bytes(batch) + self.aux_bytes)
            if span is not None:
                span.set(rows=self.rows_out,
                         self_ms=self.self_seconds * 1000.0,
                         est_rows=self.last_est_rows,
                         batches=self.batches,
                         buffer_hits=self.buffer_hits,
                         buffer_misses=self.buffer_misses)
                if self.span_extras:
                    span.set(**self.span_extras)
            return batch

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        raise NotImplementedError

    # -- reporting ---------------------------------------------------------

    def walk(self):
        """Yield every node, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def explain_extras(self, ctx: Optional[ExecutionContext]
                       ) -> List[str]:
        """Extra EXPLAIN annotations (e.g. kernel choice, build side)."""
        return []

    def explain(self, ctx: Optional[ExecutionContext] = None,
                indent: int = 0) -> str:
        """EXPLAIN-style tree rendering; includes estimates when a
        context is given and actuals after execution."""
        parts = [self.name()]
        if ctx is not None:
            parts.append(f"est_rows={self.estimated_rows_safe(ctx):.0f}")
        if self.est_cost_ns is not None:
            cost_ms = sanitize_estimate(self.est_cost_ns) / 1e6
            parts.append(f"est_cost={cost_ms:.3f}ms")
        parts.extend(self.explain_extras(ctx))
        if self.rows_out is not None:
            parts.append(f"rows={self.rows_out}")
            parts.append(f"self={self.self_seconds * 1000:.3f}ms")
        line = "  " * indent + "-> " + "  ".join(parts)
        lines = [line]
        for child in self.children:
            lines.append(child.explain(ctx, indent + 1))
        return "\n".join(lines)


def require_columns(batch: Batch, names: Sequence[str],
                    where: str) -> None:
    """Raise :class:`PlanError` unless the batch provides *names*."""
    missing = [n for n in names if n not in batch]
    if missing:
        raise PlanError(f"{where}: missing columns {missing}; "
                        f"batch has {sorted(batch)}")
