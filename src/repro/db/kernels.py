"""Vectorized execution kernels for MiniDB.

This module is the loop-free half of the executor: every per-row Python
loop in :mod:`repro.db.operators` has a NumPy twin here, in the
MonetDB/X100 column-at-a-time style the tutorial's profiling slides
contrast against tuple-at-a-time interpretation.

Kernel inventory
----------------
- :func:`dict_encode` — dictionary-encode one or more key columns into
  dense composite group ids, in ascending key order.  Integer columns
  (and the codes of :class:`CodedColumn`) with a bounded value range
  take a sort-free dense remap (present-mask + ``cumsum``); only wide
  ranges, floats and raw strings fall back to ``np.unique``;
- :func:`encode_join_keys` — the same encoding applied jointly to both
  sides of an equi-join, so equal keys get equal codes across sides
  (returned with their count: the codes are dense);
- :func:`join_match` — counting-based equi-join matching emitting
  ``(left_idx, right_idx)`` gather arrays, left-major like the loop
  executor (``bincount``/``cumsum`` run offsets plus a stable LSD
  radix sort over 16-bit digits: one pass for up to 65,536 keys);
  given the code count of dense codes it skips its key remap;
- :func:`merge_match` — the already-sorted variant (no argsort pass);
- :func:`radix_partition` / :func:`radix_join_match` — low-bit
  partitioning (a 16-bit radix sort) and the partition-wise join;
- :func:`group_runs` / :func:`grouped_reduce` — grouped SUM/MIN/MAX:
  the group ids' stable order (the same radix sort) and run starts,
  computed once and shared by every reduction, then
  ``np.add.reduceat`` / ``np.minimum.reduceat`` /
  ``np.maximum.reduceat``;
- :func:`group_count` / :func:`group_first_index` — grouped COUNT and
  first-occurrence representative rows;
- :func:`first_occurrence_order` — DISTINCT keeping loop-identical
  first-occurrence row order;
- :func:`compile_expr` — expression compilation with a process-wide
  cache keyed by the (frozen, hashable) expression tree; a predicate
  over one coded column is evaluated in dictionary space.

Selection vectors and coded columns
-----------------------------------
:class:`SelBatch` wraps a base batch plus a ``sel`` index array: a
filter that keeps 1% of rows produces a 1%-sized ``sel`` instead of
copying every column.  Downstream non-breaking operators compose with
``sel``; pipeline breakers (joins, aggregation, sort, distinct) and the
engine's materialisation phase gather exactly once via
:func:`materialize`.

:class:`CodedColumn` is a dictionary-encoded string column in flight:
the scan's int codes plus the sorted dictionary, both shared with
storage.  Gathers move codes; grouping, DISTINCT, sort keys and join
keys work on the codes (sorted dictionary: code order is value order).
A predicate over one coded column runs once per dictionary entry and
gathers the outcome by code; values are decoded (:func:`decode`) only
where another expression or the result needs them, at most once per
column.

Every kernel runs under a ``maybe_span(..., category="kernel")`` so
traces and flamegraphs attribute execution time to individual kernels
(and the metrics registry counts ``spans.kernel``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.expressions import (
    ARITH_OPS,
    CMP_OPS,
    Arithmetic,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Like,
    Literal,
    Not,
)
from repro.errors import PlanError
from repro.obs import maybe_span

__all__ = [
    "CodedColumn",
    "SelBatch",
    "compile_expr",
    "decode",
    "dict_encode",
    "encode_join_keys",
    "expression_cache_clear",
    "expression_cache_info",
    "first_occurrence_order",
    "gather",
    "group_count",
    "group_first_index",
    "group_runs",
    "grouped_reduce",
    "join_key_pair",
    "join_match",
    "materialize",
    "merge_match",
    "radix_bits_for",
    "radix_join_match",
    "radix_partition",
    "radix_passes",
    "split_batch",
    "value_width",
]


# ---------------------------------------------------------------------------
# Selection vectors
# ---------------------------------------------------------------------------

class SelBatch:
    """A batch with a deferred selection: base columns plus a ``sel``
    index array of the surviving row positions (sorted ascending).

    Behaves enough like a ``Dict[str, np.ndarray]`` for the generic
    plan machinery (``in``, iteration, row counting) while postponing
    the per-column gather until a pipeline breaker calls
    :func:`materialize`.
    """

    __slots__ = ("base", "sel")

    def __init__(self, base: Dict[str, np.ndarray], sel: np.ndarray):
        self.base = base
        self.sel = np.asarray(sel, dtype=np.int64)

    def rows(self) -> int:
        return int(self.sel.size)

    def __contains__(self, name: str) -> bool:
        return name in self.base

    def __iter__(self) -> Iterator[str]:
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)

    def column(self, name: str) -> np.ndarray:
        """One column, gathered through the selection vector."""
        try:
            return self.base[name][self.sel]
        except KeyError:
            raise PlanError(
                f"column {name!r} not in batch "
                f"({sorted(self.base)})") from None

    def view(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Gather only *names* (e.g. a predicate's referenced columns)."""
        return {n: self.column(n) for n in names}

    def bytes_used(self) -> int:
        """Selected payload plus the selection vector itself."""
        n = self.rows()
        return 8 * n + sum(n * value_width(arr)
                           for arr in self.base.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SelBatch({sorted(self.base)}, "
                f"sel={self.rows()}/{len(next(iter(self.base.values()), []))})")


class CodedColumn:
    """A dictionary-encoded string column travelling through a plan.

    ``codes`` index ``values``, the column's sorted dictionary (both
    shared with :class:`~repro.db.storage.Dictionary`, never copied).
    Indexing gathers codes only, so joins and selections move integers
    instead of Python string objects; :meth:`decode` materialises the
    values where an expression or the result needs them, at most once
    per column (the decoded array is kept for later reads).
    """

    __slots__ = ("codes", "values", "_decoded")

    def __init__(self, codes: np.ndarray, values: np.ndarray):
        self.codes = codes
        self.values = values
        self._decoded: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index) -> "CodedColumn":
        return CodedColumn(self.codes[index], self.values)

    def decode(self) -> np.ndarray:
        if self._decoded is None:
            self._decoded = self.values[self.codes]
        return self._decoded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CodedColumn({len(self)} rows, {len(self.values)} values)"


def decode(column):
    """The value array of *column* (decoded when it is coded)."""
    if isinstance(column, CodedColumn):
        return column.decode()
    return column


def value_width(column) -> int:
    """Simulated bytes per row: strings (object or coded) count 16."""
    if isinstance(column, CodedColumn) or column.dtype == object:
        return 16
    return column.itemsize


def split_batch(batch) -> Tuple[Dict[str, np.ndarray],
                                Optional[np.ndarray]]:
    """``(base, sel)`` of any batch; ``sel`` is None when materialised."""
    if isinstance(batch, SelBatch):
        return batch.base, batch.sel
    return batch, None


def gather(base: Dict[str, np.ndarray], sel: np.ndarray,
           names: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
    """Materialise *sel* rows of *base* (all columns by default)."""
    if names is None:
        names = list(base)
    with maybe_span("kernel.gather", "kernel",
                    rows=int(sel.size), columns=len(names)):
        return {n: base[n][sel] for n in names}


def materialize(batch):
    """A plain dict batch: gathers once if *batch* carries a selection."""
    if isinstance(batch, SelBatch):
        return gather(batch.base, batch.sel)
    return batch


# ---------------------------------------------------------------------------
# Dictionary encoding and join matching
# ---------------------------------------------------------------------------

def _unique_inverse(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """``np.unique(values, return_inverse=True)`` as ``(inverse, n)``.

    Integer keys whose range ``hi - lo + 1`` is at most
    ``4 * n + 2**16`` skip the sort: mark the present keys in a mask
    and map each key through ``cumsum(mask) - 1``, which numbers the
    distinct keys in ascending order exactly like ``np.unique``.
    ``hi - lo`` is taken in Python ints, so int64 extremes cannot
    overflow.  Wider ranges, floats and strings use ``np.unique``.
    """
    values = np.asarray(values)
    if values.dtype.kind == "b":
        values = values.view(np.uint8)
    if values.dtype.kind in "iu":
        if values.size == 0:
            return np.zeros(0, dtype=np.int64), 0
        lo, hi = int(values.min()), int(values.max())
        if hi - lo + 1 <= 4 * values.size + 2 ** 16:
            offsets = (values - values.dtype.type(lo)).astype(np.intp)
            present = np.zeros(hi - lo + 1, dtype=bool)
            present[offsets] = True
            remap = np.cumsum(present, dtype=np.int64) - 1
            return remap[offsets], int(remap[-1]) + 1
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64, copy=False), int(len(uniques))


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys
    as an LSD radix sort: one stable pass per 16-bit digit, each on a
    ``uint16`` (or, for keys below 256, ``uint8``) array that NumPy
    radix-sorts in linear time.  Other keys use NumPy's stable sort.
    """
    if keys.size == 0 or keys.dtype.kind not in "iu" \
            or int(keys.min()) < 0:
        return np.argsort(keys, kind="stable")
    hi = int(keys.max())
    if hi <= np.iinfo(np.uint8).max:
        return np.argsort(keys.astype(np.uint8), kind="stable")
    order = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while hi >> shift:
        digit = ((keys[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _key_array(column) -> np.ndarray:
    """Codes of a coded column (order-equivalent to its values)."""
    if isinstance(column, CodedColumn):
        return column.codes
    return np.asarray(column)


def dict_encode(columns: Sequence[np.ndarray]
                ) -> Tuple[np.ndarray, int]:
    """Dense composite codes for equal-length key columns.

    Returns ``(codes, n_codes)`` where ``codes[i]`` identifies the
    composite key of row ``i`` and every id in ``[0, n_codes)`` occurs.
    Ids are assigned in ascending composite-key order (NumPy's sort
    order per column), so grouped output produced from these codes is
    key-sorted — unlike the loop executor's first-occurrence order.
    A :class:`CodedColumn` is encoded through its codes.
    """
    if not columns:
        raise PlanError("dict_encode needs at least one key column")
    n = len(columns[0])
    with maybe_span("kernel.dict_encode", "kernel",
                    rows=n, keys=len(columns)):
        codes, n_codes = _unique_inverse(_key_array(columns[0]))
        if len(columns) == 1:
            return codes, n_codes
        for col in columns[1:]:
            inverse, n_uniques = _unique_inverse(_key_array(col))
            # Re-compact before the mixed-radix product could overflow
            # (compaction keeps the composite order, so ids are equal).
            if (int(codes.max(initial=0)) + 1) * n_uniques > 2 ** 61:
                codes, __ = _unique_inverse(codes)
            codes = codes * np.int64(n_uniques) + inverse
        return _unique_inverse(codes)


def join_key_pair(left, right) -> Tuple[np.ndarray, np.ndarray]:
    """Comparable key arrays for one equi-join key position.

    Two coded columns compare by code when they share a dictionary;
    with different dictionaries both are re-coded through the sorted
    union of the two (so equal values get equal codes and code order
    stays value order).  Raw codes are never compared across
    dictionaries.  A coded column meeting a plain one is decoded.
    """
    if isinstance(left, CodedColumn) and isinstance(right, CodedColumn):
        if left.values is right.values:
            return left.codes, right.codes
        union = np.unique(np.concatenate([left.values, right.values]))
        return (np.searchsorted(union, left.values)[left.codes],
                np.searchsorted(union, right.values)[right.codes])
    return np.asarray(decode(left)), np.asarray(decode(right))


def encode_join_keys(left_cols: Sequence[np.ndarray],
                     right_cols: Sequence[np.ndarray]
                     ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Comparable composite codes for the two sides of an equi-join.

    Each key position's left and right columns are concatenated before
    encoding, so a key value present on both sides maps to one code.
    Returns ``(left_codes, right_codes, n_codes)``: the codes of both
    sides together are dense in ``[0, n_codes)``.
    """
    if len(left_cols) != len(right_cols) or not left_cols:
        raise PlanError(
            "join encoding needs equally many (>=1) keys on both sides")
    n_left = len(left_cols[0])
    combined = [np.concatenate(join_key_pair(l, r))
                for l, r in zip(left_cols, right_cols)]
    codes, n_codes = dict_encode(combined)
    return codes[:n_left], codes[n_left:], n_codes


def _empty_pairs() -> Tuple[np.ndarray, np.ndarray]:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty.copy()


def join_match(left_codes: np.ndarray, right_codes: np.ndarray,
               n_codes: Optional[int] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
    """All (left, right) index pairs with equal codes, left-major.

    Output order matches the loop executor's hash join exactly: left
    indices ascending, and for one left row its matching right indices
    ascending (the stable argsort keeps equal codes in input order).
    Keys are remapped densely (:func:`dict_encode`'s sort-free path for
    bounded ranges); ``bincount``/``cumsum`` give each key's run of
    right rows.  Codes already dense in ``[0, n_codes)`` (the
    :func:`encode_join_keys` output, with its count) skip the remap.
    """
    with maybe_span("kernel.join_match", "kernel",
                    left=int(left_codes.size),
                    right=int(right_codes.size)):
        n_left = left_codes.size
        if n_left == 0 or right_codes.size == 0:
            return _empty_pairs()
        if n_codes is None:
            keys, n_keys = _unique_inverse(
                np.concatenate([left_codes, right_codes]))
            left_keys, right_keys = keys[:n_left], keys[n_left:]
        else:
            left_keys, right_keys, n_keys = left_codes, right_codes, n_codes
        run_lengths = np.bincount(right_keys, minlength=n_keys)
        run_starts = np.cumsum(run_lengths) - run_lengths
        counts = run_lengths[left_keys]
        total = int(counts.sum())
        if total == 0:
            return _empty_pairs()
        order = _stable_order(right_keys)
        left_idx = np.repeat(np.arange(n_left, dtype=np.int64), counts)
        first = np.cumsum(counts) - counts
        positions = np.repeat(run_starts[left_keys] - first, counts) \
            + np.arange(total, dtype=np.int64)
        right_idx = order[positions]
        return left_idx, right_idx


def merge_match(left_keys: np.ndarray, right_keys: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`join_match` for inputs already sorted on their keys.

    Skips the argsort pass: right-side runs are located directly with
    two binary-search sweeps over the sorted right keys.
    """
    with maybe_span("kernel.merge_match", "kernel",
                    left=int(len(left_keys)),
                    right=int(len(right_keys))):
        starts = np.searchsorted(right_keys, left_keys, side="left")
        ends = np.searchsorted(right_keys, left_keys, side="right")
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            return _empty_pairs()
        left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64),
                             counts)
        first = np.cumsum(counts) - counts
        right_idx = np.repeat(starts - first, counts) \
            + np.arange(total, dtype=np.int64)
        return left_idx, right_idx


# ---------------------------------------------------------------------------
# Radix-partitioned join (Manegold/Boncz/Kersten-style)
# ---------------------------------------------------------------------------

#: Maximum useful fan-out per partitioning pass: one pass splits on at
#: most this many bits (the classic TLB/cache-line bound on scatter
#: targets); deeper splits take another pass over the data.
RADIX_BITS_PER_PASS = 8

#: Hard cap on total radix bits — beyond this the per-partition
#: bookkeeping dwarfs any locality win at the sizes MiniDB simulates.
MAX_RADIX_BITS = 14

#: Approximate hash-table bytes per build row (slot + entry), matching
#: the operator's ``aux_bytes`` accounting.
HASH_TABLE_BYTES_PER_ROW = 48


def radix_passes(n_bits: int) -> int:
    """Partitioning passes needed to split on ``n_bits`` bits."""
    if n_bits <= 0:
        return 0
    return -(-n_bits // RADIX_BITS_PER_PASS)


def radix_bits_for(n_build: int, cache_bytes: int,
                   bytes_per_row: int = HASH_TABLE_BYTES_PER_ROW) -> int:
    """Fewest radix bits making each partition's hash table fit cache."""
    if n_build <= 0 or cache_bytes <= 0:
        return 0
    bits = 0
    while bits < MAX_RADIX_BITS and \
            (n_build * bytes_per_row) >> bits > cache_bytes:
        bits += 1
    return bits


def radix_partition(codes: np.ndarray, n_bits: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Partition rows on the low ``n_bits`` bits of their key codes.

    Returns ``(order, offsets)``: ``order`` lists row indices grouped by
    partition (stable within each partition), ``offsets`` has
    ``2**n_bits + 1`` entries with partition *p* occupying
    ``order[offsets[p]:offsets[p + 1]]``.
    """
    if n_bits < 0 or n_bits > MAX_RADIX_BITS:
        raise PlanError(
            f"radix bits must be in [0, {MAX_RADIX_BITS}], got {n_bits}")
    n_partitions = 1 << n_bits
    with maybe_span("kernel.radix_partition", "kernel",
                    rows=int(codes.size), bits=n_bits,
                    passes=radix_passes(n_bits)):
        partitions = codes & np.int64(n_partitions - 1)
        # Partition ids are below 2**MAX_RADIX_BITS: one 16-bit pass.
        order = _stable_order(partitions).astype(np.int64, copy=False)
        counts = np.bincount(partitions, minlength=n_partitions)
        offsets = np.zeros(n_partitions + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return order, offsets


def radix_join_match(left_codes: np.ndarray, right_codes: np.ndarray,
                     n_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`join_match`, radix-partitioned on the low ``n_bits`` bits.

    Both sides are partitioned so equal codes land in the same
    partition; each partition is joined independently (its hash table is
    what fits in cache) and the pair list is restored to the canonical
    left-major order, making the output byte-identical to
    :func:`join_match`.
    """
    if n_bits <= 0:
        return join_match(left_codes, right_codes)
    with maybe_span("kernel.radix_join_match", "kernel",
                    left=int(left_codes.size),
                    right=int(right_codes.size), bits=n_bits):
        left_order, left_offsets = radix_partition(left_codes, n_bits)
        right_order, right_offsets = radix_partition(right_codes, n_bits)
        left_parts: List[np.ndarray] = []
        right_parts: List[np.ndarray] = []
        for p in range(1 << n_bits):
            ls = left_order[left_offsets[p]:left_offsets[p + 1]]
            rs = right_order[right_offsets[p]:right_offsets[p + 1]]
            if ls.size == 0 or rs.size == 0:
                continue  # empty partition on either side: no matches
            # Codes of one partition share their low bits, so the high
            # bits alone identify them and span a partition-sized range.
            li, ri = join_match(left_codes[ls] >> n_bits,
                                right_codes[rs] >> n_bits)
            left_parts.append(ls[li])
            right_parts.append(rs[ri])
        if not left_parts:
            return _empty_pairs()
        li = np.concatenate(left_parts)
        ri = np.concatenate(right_parts)
        # Every left row lives in one partition, so its pairs form one
        # contiguous run (right indices ascending).  Emitting the runs
        # in left-row order restores left-major order without a sort.
        n_left = left_codes.size
        counts = np.bincount(li, minlength=n_left)
        run_heads = np.flatnonzero(np.diff(li, prepend=-1))
        run_start = np.zeros(n_left, dtype=np.int64)
        run_start[li[run_heads]] = run_heads
        first = np.cumsum(counts) - counts
        positions = np.repeat(run_start - first, counts) \
            + np.arange(li.size, dtype=np.int64)
        return li[positions], ri[positions]


# ---------------------------------------------------------------------------
# Grouped aggregation
# ---------------------------------------------------------------------------

_REDUCE_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def group_runs(group_ids: np.ndarray, n_groups: int
               ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """``(order, starts)`` shared by every :func:`grouped_reduce` over
    the same dense ``group_ids``: their stable order (radix-sorted) and
    the position in it where each group's run begins.

    One group's stable order is the identity, so it is not sorted and
    ``order`` is None.
    """
    if n_groups == 1:
        return None, np.zeros(1, dtype=np.int64)
    group_ids = np.asarray(group_ids)
    sizes = np.bincount(group_ids, minlength=n_groups)
    if len(sizes) != n_groups or not sizes.all():
        raise PlanError(
            f"group ids are not dense: {np.count_nonzero(sizes)} distinct "
            f"ids for {n_groups} declared groups")
    starts = np.cumsum(sizes) - sizes
    return _stable_order(group_ids), starts


def grouped_reduce(values: np.ndarray, group_ids: np.ndarray,
                   n_groups: int, op: str,
                   runs: Optional[Tuple[Optional[np.ndarray],
                                        np.ndarray]] = None
                   ) -> np.ndarray:
    """Per-group reduction via stable argsort + ``ufunc.reduceat``.

    ``group_ids`` must be dense (:func:`dict_encode` output): every id
    in ``[0, n_groups)`` occurs at least once.  ``runs`` is their
    :func:`group_runs`, computed here when not given; an Aggregate
    computes it once for all of its reductions.
    """
    try:
        ufunc = _REDUCE_UFUNCS[op]
    except KeyError:
        raise PlanError(
            f"unknown grouped reduction {op!r}; "
            f"known: {sorted(_REDUCE_UFUNCS)}") from None
    with maybe_span("kernel.grouped_reduce", "kernel",
                    rows=int(len(values)), groups=n_groups, op=op):
        if n_groups == 0:
            return np.zeros(0, dtype=np.float64)
        order, starts = runs if runs is not None \
            else group_runs(group_ids, n_groups)
        values = np.asarray(values, dtype=np.float64)
        if order is not None:
            values = values[order]
        return ufunc.reduceat(values, starts)


def group_count(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group row counts (COUNT(*)) as int64."""
    with maybe_span("kernel.group_count", "kernel",
                    rows=int(group_ids.size), groups=n_groups):
        return np.bincount(group_ids,
                           minlength=n_groups).astype(np.int64)


def group_first_index(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """The first input row index of each group (key materialisation)."""
    with maybe_span("kernel.group_first_index", "kernel",
                    rows=int(group_ids.size), groups=n_groups):
        first = np.full(n_groups, group_ids.size, dtype=np.int64)
        np.minimum.at(first, group_ids,
                      np.arange(group_ids.size, dtype=np.int64))
        return first


def first_occurrence_order(columns: Sequence[np.ndarray]
                           ) -> np.ndarray:
    """Row indices of the first occurrence of each distinct row,
    ascending — the loop executor's DISTINCT order, loop-free."""
    n = len(columns[0]) if columns else 0
    with maybe_span("kernel.first_occurrence", "kernel", rows=n):
        if n == 0:
            return np.empty(0, dtype=np.int64)
        codes, n_codes = dict_encode(columns)
        return np.sort(group_first_index(codes, n_codes))


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

CompiledExpr = Callable[[Dict[str, np.ndarray]], np.ndarray]

_EXPR_CACHE: Dict[Expr, CompiledExpr] = {}
_expr_cache_hits = 0
_expr_cache_misses = 0


def expression_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide expression cache."""
    return {"hits": _expr_cache_hits, "misses": _expr_cache_misses,
            "size": len(_EXPR_CACHE)}


def expression_cache_clear() -> None:
    """Drop all compiled expressions and reset the counters (tests)."""
    global _expr_cache_hits, _expr_cache_misses
    _EXPR_CACHE.clear()
    _expr_cache_hits = 0
    _expr_cache_misses = 0


def compile_expr(expr: Expr) -> CompiledExpr:
    """A reusable ``batch -> ndarray`` evaluator for *expr*.

    Compilation resolves operator dispatch, literal dtypes and LIKE
    regexes once per distinct expression tree; repeated queries reuse
    the cached closure (expressions are frozen dataclasses, hence
    hashable and safe cache keys).  Semantics mirror
    :meth:`~repro.db.expressions.Expr.evaluate` exactly.

    The batch may hold :class:`CodedColumn` values.  A predicate over
    one coded column runs in dictionary space (:func:`_over_dictionary`);
    anywhere else a column reference decodes its column on first read.
    """
    global _expr_cache_hits, _expr_cache_misses
    try:
        cached = _EXPR_CACHE.get(expr)
    except TypeError:  # unhashable literal payload: compile uncached
        return _build_compiled(expr)
    if cached is not None:
        _expr_cache_hits += 1
        return cached
    _expr_cache_misses += 1
    compiled = _build_compiled(expr)
    _EXPR_CACHE[expr] = compiled
    return compiled


#: Predicate nodes that :func:`_over_dictionary` can evaluate once per
#: dictionary entry when their only column is coded.
_DICTIONARY_PREDICATES = (Comparison, Between, InList, Like, Not, BoolOp)


def _read_column(batch, name: str):
    try:
        return batch[name]
    except KeyError:
        raise PlanError(
            f"column {name!r} not in batch ({sorted(batch)})") from None


def _over_dictionary(name: str, evaluate: CompiledExpr) -> CompiledExpr:
    """*evaluate*, a predicate over column *name* alone, in dictionary
    space: when the column is coded, the predicate runs once per
    dictionary entry and each row gathers its entry's outcome by code.

    A dictionary larger than the rows, or an empty input, is evaluated
    over the rows instead (cheaper, and an empty input must not raise on
    dictionary values the row path never sees).
    """
    def predicate(batch):
        column = _read_column(batch, name)
        if isinstance(column, CodedColumn) \
                and 0 < len(column.values) <= len(column.codes):
            mask = np.asarray(evaluate({name: column.values}), dtype=bool)
            return mask[column.codes]
        return evaluate(batch)
    return predicate


def _build_compiled(expr: Expr) -> CompiledExpr:
    evaluate = _build_row_compiled(expr)
    columns = expr.columns()
    if isinstance(expr, _DICTIONARY_PREDICATES) and len(columns) == 1:
        return _over_dictionary(next(iter(columns)), evaluate)
    return evaluate


def _build_row_compiled(expr: Expr) -> CompiledExpr:
    if isinstance(expr, ColumnRef):
        return lambda batch, name=expr.name: decode(_read_column(batch, name))
    if isinstance(expr, Literal):
        return expr.evaluate  # already cheap; dtype resolved inside
    if isinstance(expr, Arithmetic):
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)
        if expr.op == "/":
            def divide(batch, left=left, right=right):
                lv = left(batch)
                rv = right(batch)
                return np.divide(lv, rv,
                                 out=np.zeros(len(lv), dtype=np.float64),
                                 where=np.asarray(rv) != 0,
                                 casting="unsafe")
            return divide
        ufunc = ARITH_OPS[expr.op]
        return lambda batch: ufunc(left(batch), right(batch))
    if isinstance(expr, Comparison):
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)
        ufunc = CMP_OPS[expr.op]
        return lambda batch: ufunc(left(batch), right(batch))
    if isinstance(expr, BoolOp):
        parts = [compile_expr(p) for p in expr.parts]
        combine = np.logical_and if expr.op == "and" else np.logical_or

        def boolean(batch, parts=parts, combine=combine):
            out = np.asarray(parts[0](batch), dtype=bool)
            for part in parts[1:]:
                out = combine(out, np.asarray(part(batch), dtype=bool))
            return out
        return boolean
    if isinstance(expr, Not):
        child = compile_expr(expr.child)
        return lambda batch: np.logical_not(
            np.asarray(child(batch), dtype=bool))
    if isinstance(expr, Between):
        value = compile_expr(expr.expr)
        low = compile_expr(expr.low)
        high = compile_expr(expr.high)

        def between(batch, value=value, low=low, high=high):
            v = value(batch)
            return np.logical_and(v >= low(batch), v <= high(batch))
        return between
    if isinstance(expr, InList):
        value = compile_expr(expr.expr)
        values = expr.values

        def in_list(batch, value=value, values=values):
            v = value(batch)
            out = np.zeros(len(v), dtype=bool)
            for candidate in values:
                out |= (v == candidate)
            return out
        return in_list
    if isinstance(expr, Like):
        value = compile_expr(expr.expr)
        pattern = expr._regex()  # compiled once, reused per batch

        def like(batch, value=value, pattern=pattern):
            v = value(batch)
            out = np.empty(len(v), dtype=bool)
            for i, s in enumerate(v):
                out[i] = bool(pattern.match(s))
            return out
        return like
    # Unknown node types fall back to interpreted evaluation.
    return expr.evaluate


# ---------------------------------------------------------------------------
# Cost accounting helpers shared by the vectorized operator paths
# ---------------------------------------------------------------------------

def charge_gather(ctx, n_rows: int, n_columns: int) -> None:
    """Charge the simulated cost of materialising a selection."""
    if n_rows and n_columns:
        ctx.charge_cpu("scan",
                       ctx.costs.gather_ns_per_value * n_rows * n_columns)


def materialize_charged(ctx, batch):
    """:func:`materialize` plus its simulated gather cost."""
    if isinstance(batch, SelBatch):
        charge_gather(ctx, batch.rows(), len(batch.base))
        return gather(batch.base, batch.sel)
    return batch
