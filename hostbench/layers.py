"""Per-layer spans recorded from outside the program.

:class:`SpanRecorder` wraps the public functions of each MiniDB layer for
the duration of a ``with recorder.installed():`` block.  Every wrapped
call appends one span ``[name, start, end, parent, statement, count]``
to an in-memory list; nothing is written until :meth:`SpanRecorder.dump`
at the end of the run.  A span's self time is its duration minus the
durations of its direct children, so self times of all spans partition
the traced time without double counting.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.db import engine as engine_module
from repro.db import kernels, zonemaps
from repro.db.actuals import PlanActuals
from repro.db.context import ExecutionContext
from repro.db.plan import PlanNode
from repro.hardware.cache import CacheHierarchy

#: Kernel functions timed as ``kernels.<fn>``.
KERNELS = ("dict_encode", "encode_join_keys", "join_match", "merge_match",
           "radix_partition", "radix_join_match", "grouped_reduce",
           "compile_expr")
#: Every physical operator class; each is reported, 0 when absent.
OPERATORS = ("SeqScan", "IndexScan", "Filter", "Project", "HashJoin",
             "RadixHashJoin", "MergeJoin", "NestedLoopJoin", "Aggregate",
             "Distinct", "Sort", "Limit")
#: Public CacheHierarchy methods timed together as ``cache``.
CACHE_METHODS = ("access", "sequential_scan", "random_accesses")

NAME, START, END, PARENT, STATEMENT, COUNT = range(6)
STATEMENT_SPAN = "bench.statement"


def _plans_considered(args, plan) -> int:
    info = getattr(plan, "optimizer_info", None)
    return int(info["plans_considered"]) if info else 0


def _blocks(args, verdicts):
    """``(blocks pruned, blocks)`` of one zone-map verdict array."""
    if verdicts is None:
        return (0, 0)
    return (int((verdicts == zonemaps.PRUNE_NONE).sum()), len(verdicts))


class SpanRecorder:
    """In-memory spans around calls into MiniDB's layers."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Index of the statement being executed (spans carry it).
        self.statement = -1

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.statement, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name, count: Optional[Callable]):
        recorder = self

        def wrapper(*args, **kwargs):
            record = recorder.open(name if isinstance(name, str)
                                   else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(record)
            if count is not None:
                record[COUNT] = count(args, result)
            return result

        return wrapper

    def _targets(self):
        def operator_name(args):
            return "operators." + type(args[0]).__name__

        def rows_out(args, batch):
            return args[0].rows_out or 0

        yield engine_module, "parse_select", "parser", None
        yield engine_module, "plan_statement", "optimizer", _plans_considered
        yield PlanNode, "execute", operator_name, rows_out
        for fn in KERNELS:
            yield kernels, fn, f"kernels.{fn}", None
        yield zonemaps, "block_verdicts", "zonemaps", _blocks
        yield PlanActuals, "from_plan", "actuals", None
        yield ExecutionContext, "charge_cpu", "context.charge", None
        for method in CACHE_METHODS:
            yield CacheHierarchy, method, "cache", None

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every layer function for the extent of the block."""
        saved = []
        try:
            for owner, attr, name, count in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(original.__func__, name, count))
                else:
                    wrapped = self._wrap(original, name, count)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, statement, count) in \
                    enumerate(self.spans):
                out.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "statement": statement,
                     "count": count}) + "\n")


@dataclass
class Layer:
    """Totals of one span name over a range of spans."""

    self_s: float = 0.0
    calls: int = 0
    counts: List[Any] = field(default_factory=list)


def summarize(spans: List[list], lo: int, hi: int
              ) -> Tuple[Dict[str, Layer], Dict[str, float]]:
    """Over ``spans[lo:hi]``: self time, calls and counts per span name,
    and the inclusive time of spans directly under a statement span (the
    layers the engine calls itself), per name."""
    child_s = [0.0] * (hi - lo)
    for i in range(lo, hi):
        parent = spans[i][PARENT]
        if parent >= lo:
            child_s[parent - lo] += spans[i][END] - spans[i][START]
    layers: Dict[str, Layer] = {}
    direct: Dict[str, float] = {}
    for i in range(lo, hi):
        span = spans[i]
        duration = span[END] - span[START]
        layer = layers.setdefault(span[NAME], Layer())
        layer.self_s += duration - child_s[i - lo]
        layer.calls += 1
        if span[COUNT]:
            layer.counts.append(span[COUNT])
        parent = span[PARENT]
        if parent >= lo and spans[parent][NAME] == STATEMENT_SPAN:
            direct[span[NAME]] = direct.get(span[NAME], 0.0) + duration
    return layers, direct
