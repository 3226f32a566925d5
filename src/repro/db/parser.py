"""A small SQL dialect for MiniDB.

Supported grammar (one SELECT statement, no nesting)::

    SELECT select_item [, ...]
    FROM table [JOIN table ON col = col ...]
    [WHERE predicate]
    [GROUP BY col [, ...]]
    [HAVING predicate-over-output-aliases]
    [ORDER BY col_or_alias [ASC|DESC] [, ...]]
    [LIMIT n]

Select items are expressions with optional ``AS alias``, or aggregates
``SUM|AVG|MIN|MAX(expr)`` and ``COUNT(*)``/``COUNT(expr)``.  Predicates
support comparison operators, ``AND``/``OR``/``NOT``, ``BETWEEN``,
``IN (...)``, ``LIKE``, arithmetic, numeric/string literals, and
``DATE 'YYYY-MM-DD'`` literals.

The parser builds a :class:`SelectStatement`; planning happens in
:mod:`repro.db.optimizer`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.db.expressions import (
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
    date_literal,
)
from repro.db.operators import AggFunc
from repro.errors import PlanError, SqlSyntaxError

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "order", "by",
    "having", "limit", "join", "on", "and", "or", "not", "between",
    "in", "like", "as", "asc", "desc", "date", "sum", "count", "avg",
    "min", "max",
}

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<hint>/\*\+(?:[^*]|\*(?!/))*\*/)
      | (?P<comment>/\*(?:[^*]|\*(?!/))*\*/)
      | (?P<number>\d+\.\d+|\.\d+|\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|\(|\)|,)
    )""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str   # number | string | ident | keyword | op | eof
    text: str
    position: int


def tokenize(sql: str) -> List[Token]:
    """Split SQL text into tokens; raises on unrecognised characters."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            remainder = sql[pos:].strip()
            if not remainder:
                break
            raise SqlSyntaxError(
                f"unexpected character {remainder[0]!r} at position {pos}")
        pos = match.end()
        if match.group("hint") is not None:
            # /*+ ... */ plan hints survive tokenization (and thus the
            # normalised plan-cache key); the canonical text collapses
            # whitespace so formatting never splits the cache.
            body = match.group("hint")[3:-2]
            tokens.append(Token("hint", " ".join(body.split()),
                                match.start()))
        elif match.group("comment") is not None:
            pass  # plain /* ... */ comments are skipped entirely
        elif match.group("number") is not None:
            tokens.append(Token("number", match.group("number"),
                                match.start()))
        elif match.group("string") is not None:
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(Token("string", raw, match.start()))
        elif match.group("ident") is not None:
            text = match.group("ident")
            kind = "keyword" if text.lower() in _KEYWORDS else "ident"
            tokens.append(Token(kind, text, match.start()))
        else:
            op = match.group("op")
            tokens.append(Token("op", "<>" if op == "!=" else op,
                                match.start()))
    tokens.append(Token("eof", "", len(sql)))
    return tokens


def normalize_sql(sql: str) -> Tuple[Tuple[str, str], ...]:
    """A whitespace/case-insensitive plan-cache key for *sql*.

    Two statements normalise equal iff they tokenize to the same
    sequence: keywords compare case-folded, identifiers and literals
    verbatim (``WHERE city = 'Uppsala'`` must not match ``'uppsala'``).
    Token positions are dropped so formatting never splits the cache.
    """
    return tuple(
        (t.kind, t.text.lower() if t.kind == "keyword" else t.text)
        for t in tokenize(sql))


_EXPLAIN_RE = re.compile(r"^\s*explain(\s+analyze)?\b\s*",
                         re.IGNORECASE)


def strip_explain(sql: str) -> Tuple[Optional[str], str]:
    """Split an optional ``EXPLAIN [ANALYZE]`` prefix off *sql*.

    Returns ``(mode, rest)`` where ``mode`` is ``"analyze"``,
    ``"explain"`` or ``None`` and ``rest`` is the statement proper.
    The engine routes ``"explain"`` to :meth:`~repro.db.engine.Engine.
    explain` and ``"analyze"`` to :meth:`~repro.db.engine.Engine.
    explain_analyze`; :func:`parse_select` itself never sees the prefix.
    """
    match = _EXPLAIN_RE.match(sql)
    if match is None:
        return None, sql
    return ("analyze" if match.group(1) else "explain"), sql[match.end():]


#: The physical join operators, scan kinds and hash-join build sides:
#: what plan hints may name and what the cost planner chooses from.
JOIN_OPERATORS = ("hash", "merge", "loop", "radix")
SCAN_OPERATORS = ("seq", "index")
BUILD_SIDES = ("left", "right")

_HINT_CLAUSE_RE = re.compile(r"([A-Za-z_]+)\s*\(([^)]*)\)")


@dataclass(frozen=True)
class PlanHints:
    """Optimizer hints from ``/*+ ... */`` comments.

    Supported clauses (PostBOUND-style, one or more per comment)::

        JOIN_ORDER(t1 t2 t3)   -- force this left-deep join order
        JOIN_OP(t hash|merge|loop|radix)  -- operator for the join adding t
        SCAN(t seq|index)      -- access path for table t
        BUILD(t left|right)    -- hash-join build side for the join
                                  that introduces t

    Association tuples are sorted so hints hash/compare structurally.
    An operator or build side outside :data:`JOIN_OPERATORS`,
    :data:`SCAN_OPERATORS` or :data:`BUILD_SIDES` raises
    :class:`PlanError` (:func:`parse_hints` reports it as a syntax error
    first).
    """

    join_order: Tuple[str, ...] = ()
    join_ops: Tuple[Tuple[str, str], ...] = ()
    scans: Tuple[Tuple[str, str], ...] = ()
    build_sides: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        for name, pairs, valid in (("JOIN_OP", self.join_ops, JOIN_OPERATORS),
                                   ("SCAN", self.scans, SCAN_OPERATORS),
                                   ("BUILD", self.build_sides, BUILD_SIDES)):
            for table, value in pairs:
                if value not in valid:
                    raise PlanError(
                        f"{name}({table} {value}) hint: expected one of "
                        f"{'|'.join(valid)}")

    @property
    def is_empty(self) -> bool:
        return not (self.join_order or self.join_ops or self.scans
                    or self.build_sides)

    def join_op_for(self, table: str) -> Optional[str]:
        return dict(self.join_ops).get(table)

    def scan_for(self, table: str) -> Optional[str]:
        return dict(self.scans).get(table)

    def build_side_for(self, table: str) -> Optional[str]:
        return dict(self.build_sides).get(table)


EMPTY_HINTS = PlanHints()


def parse_hints(text: str) -> PlanHints:
    """Parse the body of one or more ``/*+ ... */`` comments."""
    leftover = _HINT_CLAUSE_RE.sub("", text).strip()
    if leftover:
        raise SqlSyntaxError(
            f"unrecognised hint text {leftover!r}; expected "
            f"NAME(args) clauses")
    join_order: Tuple[str, ...] = ()
    join_ops: List[Tuple[str, str]] = []
    scans: List[Tuple[str, str]] = []
    builds: List[Tuple[str, str]] = []

    def pair(name: str, args: List[str],
             valid: Tuple[str, ...]) -> Tuple[str, str]:
        if len(args) != 2 or args[1].lower() not in valid:
            raise SqlSyntaxError(
                f"{name} hint expects (table {'|'.join(valid)}), "
                f"got {args}")
        return (args[0], args[1].lower())

    for match in _HINT_CLAUSE_RE.finditer(text):
        name = match.group(1).upper()
        args = match.group(2).replace(",", " ").split()
        if name == "JOIN_ORDER":
            if join_order:
                raise SqlSyntaxError("duplicate JOIN_ORDER hint")
            if len(args) < 2 or len(set(args)) != len(args):
                raise SqlSyntaxError(
                    f"JOIN_ORDER needs >= 2 distinct tables, got {args}")
            join_order = tuple(args)
        elif name == "JOIN_OP":
            join_ops.append(pair("JOIN_OP", args, JOIN_OPERATORS))
        elif name == "SCAN":
            scans.append(pair("SCAN", args, SCAN_OPERATORS))
        elif name == "BUILD":
            builds.append(pair("BUILD", args, BUILD_SIDES))
        else:
            raise SqlSyntaxError(
                f"unknown hint {name!r}; supported: JOIN_ORDER, "
                f"JOIN_OP, SCAN, BUILD")
    for name, pairs in (("JOIN_OP", join_ops), ("SCAN", scans),
                        ("BUILD", builds)):
        tables = [t for t, __ in pairs]
        if len(set(tables)) != len(tables):
            raise SqlSyntaxError(f"duplicate {name} hint for one table")
    return PlanHints(join_order=join_order,
                     join_ops=tuple(sorted(join_ops)),
                     scans=tuple(sorted(scans)),
                     build_sides=tuple(sorted(builds)))


def hint_comment(join_order: Sequence[str]) -> str:
    """Render *join_order* as a ``/*+ JOIN_ORDER(...) */`` hint.

    The inverse of :func:`parse_hints` for the one clause every
    backend adapter understands; :mod:`repro.db.systems` uses it to
    force the same logical join order across engines.
    """
    order = tuple(join_order)
    if len(order) < 2 or len(set(order)) != len(order):
        raise SqlSyntaxError(
            f"JOIN_ORDER needs >= 2 distinct tables, got {list(order)}")
    return f"/*+ JOIN_ORDER({' '.join(order)}) */"


@dataclass(frozen=True)
class SelectItem:
    """One output column: a plain expression or an aggregate."""

    expr: Optional[Expr]        # None only for COUNT(*)
    alias: str
    agg: Optional[AggFunc] = None

    @property
    def is_aggregate(self) -> bool:
        return self.agg is not None


@dataclass(frozen=True)
class JoinClause:
    table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class SelectStatement:
    """The parsed form of a query, before planning."""

    items: Tuple[SelectItem, ...]
    table: str
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[str, ...] = ()
    order_by: Tuple[Tuple[str, bool], ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    having: Optional[Expr] = None
    hints: PlanHints = EMPTY_HINTS

    @property
    def tables(self) -> Tuple[str, ...]:
        return (self.table,) + tuple(j.table for j in self.joins)

    @property
    def has_aggregates(self) -> bool:
        return any(item.is_aggregate for item in self.items)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str):
        self.sql = sql
        tokens = tokenize(sql)
        # Hints may appear anywhere a comment may; gather them all and
        # parse the grammar over the remaining token stream.
        hint_text = " ".join(t.text for t in tokens if t.kind == "hint")
        self.hints = parse_hints(hint_text) if hint_text else EMPTY_HINTS
        self.tokens = [t for t in tokens if t.kind != "hint"]
        self.index = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        return SqlSyntaxError(
            f"{message} at position {token.position} "
            f"(near {token.text!r}) in: {self.sql!r}")

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "keyword" and token.text.lower() == word:
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word.upper()}")

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token.kind == "op" and token.text == op:
            self.next()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}")

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise self.error("expected an identifier")
        return self.next().text

    # -- grammar -----------------------------------------------------------

    def parse(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = self._select_list()
        self.expect_keyword("from")
        table = self.expect_ident()
        joins: List[JoinClause] = []
        while self.accept_keyword("join"):
            joins.append(self._join_clause())
        where = None
        if self.accept_keyword("where"):
            where = self._expr()
        group_by: Tuple[str, ...] = ()
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by = self._ident_list()
        having = None
        if self.accept_keyword("having"):
            having = self._expr()
        order_by: List[Tuple[str, bool]] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by = self._order_list()
        limit = None
        if self.accept_keyword("limit"):
            token = self.peek()
            if token.kind != "number" or "." in token.text:
                raise self.error("LIMIT expects an integer")
            limit = int(self.next().text)
        if self.peek().kind != "eof":
            raise self.error("unexpected trailing input")
        return SelectStatement(
            items=tuple(items), table=table, joins=tuple(joins),
            where=where, group_by=group_by, order_by=tuple(order_by),
            limit=limit, distinct=distinct, having=having,
            hints=self.hints)

    def _select_list(self) -> List[SelectItem]:
        items = [self._select_item(0)]
        position = 1
        while self.accept_op(","):
            items.append(self._select_item(position))
            position += 1
        aliases = [i.alias for i in items]
        if len(set(aliases)) != len(aliases):
            raise SqlSyntaxError(
                f"duplicate output column names {aliases}; use AS aliases")
        return items

    def _select_item(self, position: int) -> SelectItem:
        token = self.peek()
        if token.kind == "keyword" and \
                token.text.lower() in ("sum", "count", "avg", "min", "max"):
            func = AggFunc(self.next().text.lower())
            self.expect_op("(")
            if func is AggFunc.COUNT and self.accept_op("*"):
                expr: Optional[Expr] = None
            else:
                expr = self._expr()
            self.expect_op(")")
            alias = self._optional_alias() or self._default_agg_alias(
                func, expr)
            return SelectItem(expr=expr, alias=alias, agg=func)
        expr = self._expr()
        alias = self._optional_alias()
        if alias is None:
            alias = str(expr) if not isinstance(expr, ColumnRef) \
                else expr.name
        return SelectItem(expr=expr, alias=alias)

    @staticmethod
    def _default_agg_alias(func: AggFunc, expr: Optional[Expr]) -> str:
        inner = "star" if expr is None else str(expr)
        safe = re.sub(r"\W+", "_", inner).strip("_")
        return f"{func.value}_{safe}" if safe else func.value

    def _optional_alias(self) -> Optional[str]:
        if self.accept_keyword("as"):
            return self.expect_ident()
        return None

    def _join_clause(self) -> JoinClause:
        table = self.expect_ident()
        self.expect_keyword("on")
        left = self.expect_ident()
        self.expect_op("=")
        right = self.expect_ident()
        return JoinClause(table=table, left_column=left, right_column=right)

    def _ident_list(self) -> Tuple[str, ...]:
        names = [self.expect_ident()]
        while self.accept_op(","):
            names.append(self.expect_ident())
        return tuple(names)

    def _order_list(self) -> List[Tuple[str, bool]]:
        out = [self._order_item()]
        while self.accept_op(","):
            out.append(self._order_item())
        return out

    def _order_item(self) -> Tuple[str, bool]:
        name = self.expect_ident()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        return (name, ascending)

    # -- expressions ---------------------------------------------------

    def _expr(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        parts = [self._and_expr()]
        while self.accept_keyword("or"):
            parts.append(self._and_expr())
        return parts[0] if len(parts) == 1 else BoolOp("or", tuple(parts))

    def _and_expr(self) -> Expr:
        parts = [self._not_expr()]
        while self.accept_keyword("and"):
            parts.append(self._not_expr())
        return parts[0] if len(parts) == 1 else BoolOp("and", tuple(parts))

    def _not_expr(self) -> Expr:
        if self.accept_keyword("not"):
            return Not(self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expr:
        left = self._additive()
        token = self.peek()
        if token.kind == "op" and token.text in ("=", "<>", "<", "<=",
                                                 ">", ">="):
            op = self.next().text
            return Comparison(op, left, self._additive())
        if token.kind == "keyword":
            word = token.text.lower()
            if word == "between":
                self.next()
                low = self._additive()
                self.expect_keyword("and")
                return Between(left, low, self._additive())
            if word == "in":
                self.next()
                self.expect_op("(")
                values = [self._literal_value()]
                while self.accept_op(","):
                    values.append(self._literal_value())
                self.expect_op(")")
                return InList(left, tuple(values))
            if word == "like":
                self.next()
                token = self.peek()
                if token.kind != "string":
                    raise self.error("LIKE expects a string pattern")
                return Like(left, self.next().text)
        return left

    def _literal_value(self) -> Any:
        negative = self.accept_op("-")
        token = self.peek()
        if token.kind == "number":
            text = self.next().text
            value = float(text) if "." in text else int(text)
            return -value if negative else value
        if token.kind == "string" and not negative:
            return self.next().text
        raise self.error("expected a literal")

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("+", "-"):
                op = self.next().text
                left = Arithmetic(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._primary()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("*", "/"):
                op = self.next().text
                left = Arithmetic(op, left, self._primary())
            else:
                return left

    def _primary(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            text = self.next().text
            value = float(text) if "." in text else int(text)
            return Literal(value)
        if token.kind == "string":
            return Literal(self.next().text)
        if token.kind == "keyword" and token.text.lower() == "date":
            self.next()
            token = self.peek()
            if token.kind != "string":
                raise self.error("DATE expects a 'YYYY-MM-DD' string")
            try:
                return date_literal(self.next().text)
            except Exception as exc:
                raise SqlSyntaxError(f"bad DATE literal: {exc}") from exc
        if token.kind == "ident":
            return ColumnRef(self.next().text)
        if self.accept_op("("):
            expr = self._expr()
            self.expect_op(")")
            return expr
        if self.accept_op("-"):
            return Arithmetic("-", Literal(0), self._primary())
        raise self.error("expected an expression")


def parse_select(sql: str) -> SelectStatement:
    """Parse one SELECT statement."""
    if not sql or not sql.strip():
        raise SqlSyntaxError("empty SQL text")
    return _Parser(sql).parse()
